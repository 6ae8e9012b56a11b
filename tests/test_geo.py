import math
import re

import numpy as np
import pytest

from alp.geo import (
    CellGrid,
    Dataset,
    GeoPoint,
    Record,
    Trace,
    _wrap_degrees,
    distance_meters,
    from_local_plane,
    to_local_plane,
    utc_day,
)


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
        assert distance_meters(p, p) == 0.0

    def test_small_longitude_offset(self):
        d = distance_meters(GeoPoint(0, 0), GeoPoint(0, 0.001))
        assert d == pytest.approx(111.19, abs=0.1)

    def test_small_latitude_offset(self):
        d = distance_meters(GeoPoint(0, 0), GeoPoint(0.001, 0))
        assert d == pytest.approx(111.19, abs=0.1)

    def test_symmetry_and_triangle_inequality(self, gen):
        for _ in range(300):
            pts = [GeoPoint(float(gen.uniform(-60, 60)), float(gen.uniform(-170, 170)))
                   for _ in range(3)]
            dab = distance_meters(pts[0], pts[1])
            dba = distance_meters(pts[1], pts[0])
            assert dab == dba
            dbc = distance_meters(pts[1], pts[2])
            dac = distance_meters(pts[0], pts[2])
            assert dac <= dab + dbc + 1e-6 * (dab + dbc)


class TestLocalPlane:
    def test_origin_maps_to_zero(self):
        origin = GeoPoint(47.3, 8.5)
        assert to_local_plane(origin, origin) == (0.0, 0.0)

    def test_known_eastward_offset(self):
        x, y = to_local_plane(GeoPoint(0, 0), GeoPoint(0, 0.001))
        assert x == pytest.approx(111.19, abs=0.1)
        assert y == pytest.approx(0.0, abs=1e-9)

    def test_inverse_known_offset(self):
        p = from_local_plane(GeoPoint(0, 0), (111.19, 0))
        assert p.lat == pytest.approx(0.0, abs=1e-6)
        assert p.lon == pytest.approx(0.001, abs=1e-6)

    def test_round_trip_on_random_nearby_points(self, gen):
        origin = GeoPoint(45.0, 5.0)
        for _ in range(1000):
            p = GeoPoint(45.0 + float(gen.uniform(-0.5, 0.5)),
                         5.0 + float(gen.uniform(-0.5, 0.5)))
            back = from_local_plane(origin, to_local_plane(origin, p))
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
        p = from_local_plane(GeoPoint(0, 180), (2e-9, 0))
        assert p.lon == pytest.approx(180.0, abs=1e-9)


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

    def test_rejects_mixed_users(self):
        records = (Record("a", GeoPoint(0, 0), 0), Record("b", GeoPoint(0, 0), 1))
        with pytest.raises(ValueError, match="user"):
            Trace.from_records(records)

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

    def test_from_records_sorts(self):
        records = [Record("a", GeoPoint(0, 0), 10), Record("a", GeoPoint(0, 1), 5)]
        trace = Trace.from_records(records)
        assert trace.time_ms.tolist() == [5, 10]

    def test_dataset_merges_per_user(self):
        t1 = Trace.from_records([Record("a", GeoPoint(0, 0), 10)])
        t2 = Trace.from_records([Record("a", GeoPoint(0, 1), 5)])
        merged = Dataset((t1, t2)).merged_by_user()
        assert list(merged) == ["a"]
        assert len(merged["a"]) == 2


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
