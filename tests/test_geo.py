import math
import re
from pathlib import Path

import numpy as np
import pytest

from alp.errors import DatasetLoadError
from alp.geo import (
    EARTH_RADIUS_M,
    CellGrid,
    Dataset,
    GeoPoint,
    Trace,
    _wrap_degrees,
    chord_m,
    coordinate_problems,
    haversine_m,
    latlon_from_local,
    local_xy,
    sphere_xyz,
    utc_day,
)
from alp.io import load_dataset

from conftest import plane_points


def plane_xy(origin, p):
    """(x_east_m, y_north_m) of one point in the tangent plane at origin."""
    x, y = local_xy(origin.lat, origin.lon, p.lat, p.lon)
    return float(x), float(y)


class TestGeoPoint:
    def test_valid_ranges(self):
        GeoPoint(90, 180)
        GeoPoint(-90, -179.999)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-90.5, 0), (0, -180), (0, 181),
                                         (float("nan"), 0), (0, float("inf"))])
    def test_rejects_bad_coordinates(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)


class TestDistance:
    def test_identity(self):
        p = GeoPoint(48.1, 11.5)
        assert haversine_m(p.lat, p.lon, p.lat, p.lon) == 0.0

    def test_small_longitude_offset(self):
        d = haversine_m(0, 0, 0, 0.001)
        assert d == pytest.approx(111.19, abs=0.1)

    def test_small_latitude_offset(self):
        d = haversine_m(0, 0, 0.001, 0)
        assert d == pytest.approx(111.19, abs=0.1)

    def test_symmetry_and_triangle_inequality(self, gen):
        for _ in range(300):
            a, b, c = [GeoPoint(float(gen.uniform(-60, 60)), float(gen.uniform(-170, 170)))
                       for _ in range(3)]
            dab = haversine_m(a.lat, a.lon, b.lat, b.lon)
            dba = haversine_m(b.lat, b.lon, a.lat, a.lon)
            assert dab == dba
            dbc = haversine_m(b.lat, b.lon, c.lat, c.lon)
            dac = haversine_m(a.lat, a.lon, c.lat, c.lon)
            assert dac <= dab + dbc + 1e-6 * (dab + dbc)

    def test_chord_of_a_great_circle_distance(self):
        half_circumference = math.pi * EARTH_RADIUS_M
        assert chord_m(0.0) == 0.0
        assert chord_m(200.0) == pytest.approx(200.0 - 200.0**3 / (24 * EARTH_RADIUS_M**2), abs=1e-12)
        assert chord_m(half_circumference / 2) == pytest.approx(math.sqrt(2.0) * EARTH_RADIUS_M, rel=1e-15)
        # No pair is farther apart than half the circumference.
        assert chord_m(half_circumference) == chord_m(3e7) == math.inf

    def test_chord_limit_decides_like_the_great_circle_distance(self, gen):
        lat1, lat2 = gen.uniform(-90.0, 90.0, (2, 10_000))
        lon1, lon2 = gen.uniform(-180.0, 180.0, (2, 10_000))
        arc = haversine_m(lat1, lon1, lat2, lon2)
        chord = np.linalg.norm(sphere_xyz(lat1, lon1) - sphere_xyz(lat2, lon2), axis=1)
        limits = gen.uniform(0.0, 2.1e7, 10_000)
        clear = np.abs(arc - limits) > 1.0  # far from the rounding near the antipodes
        assert clear.sum() > 9_000
        above = chord > np.array([chord_m(d) for d in limits])
        assert np.array_equal(above[clear], (arc > limits)[clear])


class TestLocalPlane:
    def test_origin_maps_to_zero(self):
        origin = GeoPoint(47.3, 8.5)
        assert plane_xy(origin, origin) == (0.0, 0.0)

    def test_known_eastward_offset(self):
        x, y = plane_xy(GeoPoint(0, 0), GeoPoint(0, 0.001))
        assert x == pytest.approx(111.19, abs=0.1)
        assert y == pytest.approx(0.0, abs=1e-9)

    def test_inverse_known_offset(self):
        (p,) = plane_points(GeoPoint(0, 0), [(111.19, 0)])
        assert p.lat == pytest.approx(0.0, abs=1e-6)
        assert p.lon == pytest.approx(0.001, abs=1e-6)

    def test_round_trip_on_random_nearby_points(self, gen):
        origin = GeoPoint(45.0, 5.0)
        for _ in range(1000):
            p = GeoPoint(45.0 + float(gen.uniform(-0.5, 0.5)),
                         5.0 + float(gen.uniform(-0.5, 0.5)))
            (back,) = plane_points(origin, [plane_xy(origin, p)])
            assert abs(back.lat - p.lat) < 1e-9
            assert abs(back.lon - p.lon) < 1e-9


    @pytest.mark.parametrize("lon", [np.nextafter(180.0, math.inf), np.nextafter(-180.0, -math.inf),
                                     540.0, -540.0, 180.0, -180.0])
    def test_wrap_lands_in_half_open_range(self, lon):
        # just past +180 the modulo rounds up to a full turn
        wrapped = float(_wrap_degrees(lon))
        assert -180.0 < wrapped <= 180.0
        assert math.remainder(wrapped - lon, 360.0) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_just_across_the_antimeridian(self):
        # the POI-centroid path: a 2 nm eastward step from lon 180
        (p,) = plane_points(GeoPoint(0, 180), [(2e-9, 0)])
        assert p.lon == pytest.approx(180.0, abs=1e-9)


class TestBroadcastOrigins:
    """One origin per point gives, bit for bit, one scalar-origin call per
    point: geo-i and the POI centroids rely on it."""

    ORIGINS = [(45.0, 5.0), (0.0, 180.0), (12.0, -179.9999), (89.9, 30.0), (-89.9, -170.0),
               (89.9, 180.0), (-89.9, 179.9995)]

    def test_per_point_origins_equal_scalar_calls_and_round_trip(self, gen):
        lat0, lon0 = np.repeat(self.ORIGINS, 50, axis=0).T
        x, y = gen.normal(0.0, 200.0, size=(2, len(lat0)))
        lat, lon = latlon_from_local(lat0, lon0, x, y)
        one_by_one = [latlon_from_local(*args) for args in zip(lat0.tolist(), lon0.tolist(), x, y)]
        assert np.array_equal(np.column_stack((lat, lon)), one_by_one)
        xs, ys = local_xy(lat0, lon0, lat, lon)
        one_by_one = [local_xy(*args) for args in zip(lat0.tolist(), lon0.tolist(), lat, lon)]
        assert np.array_equal(np.column_stack((xs, ys)), one_by_one)
        # The round trip comes back to the input, across the antimeridian too.
        assert np.abs(xs - x).max() < 1e-6 and np.abs(ys - y).max() < 1e-6
        back_lat, back_lon = latlon_from_local(lat0, lon0, xs, ys)
        assert np.abs(back_lat - lat).max() < 1e-12 and np.abs(_wrap_degrees(back_lon - lon)).max() < 1e-9


class TestTraceInvariants:
    @pytest.mark.parametrize("lat, lon, message", [
        (1000.0, 5.0, "latitude 1000.0 outside [-90, 90]"),
        (45.0, -180.0, "longitude -180.0 outside (-180, 180]"),
        (45.0, 180.5, "longitude 180.5 outside (-180, 180]"),
    ])
    def test_rejects_out_of_range_coordinates(self, lat, lon, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Trace("u", [lat] * 40, [lon] * 40, 30_000 * np.arange(40))

    def test_range_error_names_the_first_bad_value(self):
        with pytest.raises(ValueError, match=re.escape("latitude 95.0 outside")):
            Trace("u", [0.0, 95.0, -99.0], [0.0, 0.0, 0.0], [0, 1, 2])
        Trace("u", [90.0, -90.0], [180.0, -179.999], [0, 1])  # the closed ends are valid

    def test_rejects_out_of_order_timestamps(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Trace("a", [0, 0], [0, 0], [10, 5])

    def test_rejects_unequal_column_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Trace("a", [0.0, 1.0], [0.0], [0, 1])
        with pytest.raises(ValueError, match="equal lengths"):
            Trace("a", [0.0], [0.0], [0, 1])

    def test_rejects_empty_user(self):
        with pytest.raises(ValueError, match="non-empty"):
            Trace("", [0.0], [0.0], [0])

    def test_columns_are_read_only_copies(self):
        lat = np.array([1.0, 2.0])
        trace = Trace("a", lat, [3.0, 4.0], [0, 1])
        assert (trace.lat.dtype, trace.lon.dtype, trace.time_ms.dtype) == (
            np.float64, np.float64, np.int64)
        for column in (trace.lat, trace.lon, trace.time_ms):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        lat[0] = 9.0
        assert trace.lat.tolist() == [1.0, 2.0]

    def test_equality_compares_columns(self):
        t = Trace("a", [1.0, 2.0], [3.0, 4.0], [0, 1])
        assert t == Trace("a", np.array([1.0, 2.0]), (3.0, 4.0), np.array([0, 1]))
        assert t != Trace("b", [1.0, 2.0], [3.0, 4.0], [0, 1])
        assert t != Trace("a", [1.0, 2.5], [3.0, 4.0], [0, 1])
        assert t != Trace("a", [1.0, 2.0], [3.0, 4.0], [0, 2])
        assert t != Trace("a", [1.0], [3.0], [0])
        assert (t == "a") is False

    def test_dataset_merges_per_user(self):
        # at the shared time 10, the record of the trace given first comes first
        t1 = Trace("a", [1.0, 2.0], [0.0, 0.0], [10, 20])
        t2 = Trace("a", [3.0, 4.0], [1.0, 1.0], [5, 10])
        (merged,) = Dataset((t1, t2))
        assert merged == Trace("a", [3.0, 1.0, 4.0, 2.0], [1.0, 0.0, 1.0, 0.0], [5, 10, 10, 20])

    def test_dataset_orders_users(self):
        traces = [Trace(user, [0.0], [0.0], [0]) for user in ("b", "c", "a")]
        assert [trace.user for trace in Dataset(traces)] == ["a", "b", "c"]

    def test_dataset_reuses_a_single_trace(self):
        b, a = Trace("b", [0.0], [0.0], [0]), Trace("a", [1.0], [1.0], [1])
        dataset = Dataset((b, a))
        assert dataset.traces[0] is a and dataset.traces[1] is b

    def test_empty_dataset(self):
        dataset = Dataset()
        assert dataset == Dataset([]) and list(dataset) == [] and len(dataset) == 0
        assert dataset.total_records() == 0 and dataset.mean_latitude() == 0.0


NAN, INF = float("nan"), float("inf")
FINITE = "coordinates must be finite"


class TestOneCoordinateRule:
    """GeoPoint, Trace and the CSV loader word a bad position alike."""

    @pytest.mark.parametrize("lat, lon, message", [
        (95.0, 5.0, "latitude 95.0 outside [-90, 90]"),
        (-91.0, 5.0, "latitude -91.0 outside [-90, 90]"),
        (45.0, -180.0, "longitude -180.0 outside (-180, 180]"),
        (45.0, 180.5, "longitude 180.5 outside (-180, 180]"),
        (95.0, 180.5, "latitude 95.0 outside [-90, 90]"),
        (NAN, 5.0, FINITE),
        (45.0, NAN, FINITE),
        (INF, 5.0, FINITE),
        (45.0, -INF, FINITE),
        (NAN, 180.5, FINITE),
    ])
    def test_geopoint_trace_and_loader_agree(self, tmp_path, lat, lon, message):
        with pytest.raises(ValueError) as point_err:
            GeoPoint(lat, lon)
        with pytest.raises(ValueError) as trace_err:
            Trace("u", [45.0, lat], [5.0, lon], [0, 1])
        path = tmp_path / "d.csv"
        path.write_text(f"user,timestamp,lat,lon\nu1,1000,45.0,5.0\nu1,2000,{lat!r},{lon!r}\n")
        with pytest.raises(DatasetLoadError) as load_err:
            load_dataset(path)
        assert str(point_err.value) == str(trace_err.value) == message
        assert load_err.value.problems == [(3, message)]

    def test_non_finite_values_come_before_range_errors(self, tmp_path):
        assert coordinate_problems([95.0, 45.0, NAN, 45.0], [5.0, 200.0, 5.0, 5.0]) == [
            (2, FINITE), (0, "latitude 95.0 outside [-90, 90]"),
            (1, "longitude 200.0 outside (-180, 180]")]
        assert coordinate_problems([90.0, -90.0], [180.0, -179.999]) == []
        # an out-of-range record followed by a NaN: Trace names the NaN,
        # the loader every row in line order
        with pytest.raises(ValueError) as err:
            Trace("u", [95.0, NAN], [5.0, 5.0], [0, 1])
        assert str(err.value) == FINITE
        path = tmp_path / "d.csv"
        path.write_text("user,timestamp,lat,lon\nu1,1000,95.0,5.0\nu1,2000,nan,5.0\n")
        with pytest.raises(DatasetLoadError) as load_err:
            load_dataset(path)
        assert load_err.value.problems == [(2, "latitude 95.0 outside [-90, 90]"), (3, FINITE)]

    def test_the_bounds_and_messages_are_written_once(self):
        src = Path(__file__).resolve().parents[1] / "src" / "alp"
        text = "".join(p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py")))
        for fragment in ('"coordinates must be finite"', 'outside [-90, 90]"', 'outside (-180, 180]"',
                         "(lat >= -90.0) & (lat <= 90.0)", "(lon > -180.0) & (lon <= 180.0)"):
            assert text.count(fragment) == 1, fragment


def cell_at(grid, p):
    """The one (ix, iy) cell of a point, through the grid's vectorized path."""
    (cell,) = grid.cells_of([p.lat], [p.lon])
    return cell


class TestCells:
    def test_origin_cell(self):
        assert cell_at(CellGrid(250), GeoPoint(0, 0)) == (0, 0)

    def test_floor_arithmetic(self):
        assert cell_at(CellGrid(250), GeoPoint(0, 0.001)) == (0, 0)   # 111.19 < 250
        assert cell_at(CellGrid(250), GeoPoint(0, 0.003)) == (1, 0)   # 333.58 >= 250

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            CellGrid(0)
        with pytest.raises(ValueError):
            CellGrid(-5)

    @pytest.mark.parametrize("size", [4.3e-12, 1e-13, 1e-300])
    def test_rejects_sizes_whose_cell_indices_overflow(self, size):
        with pytest.raises(ValueError) as err:
            CellGrid(size)
        assert str(err.value) == "cell size must exceed 4.34e-12 m"

    def test_smallest_sizes_give_in_range_cells(self):
        # the extreme coordinates still land in int64 cells on the right side of 0
        cells = CellGrid(4.4e-12).cells_of([90.0, -90.0], [180.0, -179.9])
        assert all(0 < abs(i) < 2**62 for cell in cells for i in cell)
        assert sorted((ix > 0, iy > 0) for ix, iy in cells) == [(False, False), (True, True)]

    def test_partition_every_point_in_exactly_one_cell(self, gen):
        # deterministic assignment, and the cell's nominal bounds contain the
        # point's projected coordinates: cells tile the plane without overlap
        import math

        from alp.geo import EARTH_RADIUS_M

        grid = CellGrid(250, ref_lat_deg=45.0)
        scale = EARTH_RADIUS_M * math.cos(math.radians(45.0))
        for _ in range(500):
            p = GeoPoint(45 + float(gen.uniform(-0.1, 0.1)), 5 + float(gen.uniform(-0.1, 0.1)))
            ix, iy = cell_at(grid, p)
            assert cell_at(grid, p) == (ix, iy)
            x = math.radians(p.lon) * scale
            y = math.radians(p.lat) * EARTH_RADIUS_M
            assert ix * 250 <= x < (ix + 1) * 250
            assert iy * 250 <= y < (iy + 1) * 250

    def test_nearby_points_share_cell_away_from_boundaries(self):
        grid = CellGrid(250, ref_lat_deg=0.0)
        center = GeoPoint(0.0005618, 0.0005618)  # mid-cell at this size
        near = GeoPoint(center.lat, center.lon + 0.0001)  # ~11 m east
        assert cell_at(grid, center) == cell_at(grid, near)


class TestCalendar:
    def test_midnight_belongs_to_new_day(self):
        one_day_ms = 86_400_000
        assert utc_day(one_day_ms).isoformat() == "1970-01-02"
        assert utc_day(one_day_ms - 1).isoformat() == "1970-01-01"
