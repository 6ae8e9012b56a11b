"""Property tests: the bound evaluators and POI extraction against oracles,
the invariants of geo-i's and promesse's output, each mechanism's prepared
replicate against its one-shot reference over the whole domain, and the CSV
loader against its row loop on generated texts.

Hypothesis draws degenerate traces (all-duplicate points, single records,
equal timestamps, empty protected traces, short geo-i output) in four
regions: a city-sized box, both sides of the antimeridian, and within 0.01
degrees of either pole. Tolerances are those of acceptance criterion 3.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from alp.geo import TIME_RANGE_MS, CellGrid, GeoPoint, Trace, latlon_from_local, local_xy
from alp.io import load_dataset
from alp.lppm import MECHANISMS, LppmConfig, apply_lppm, prepare_lppm
from alp.metrics import EVALUATORS, PoiClusteringParams, extract_pois
from alp.rng import RandomStream

from conftest import applied, load_outcome, row_loaded, spans, trace_of
from oracles import (
    brute_area_coverage,
    brute_mean_latitude,
    brute_spatial_distortion,
    one_shot_geo_i,
    one_shot_promesse,
    scan_extract_pois,
    window_extract_pois,
)

REGIONS = {
    "city": (st.floats(44.99, 45.01), st.floats(4.99, 5.01)),
    "antimeridian": (st.floats(-60.0, 60.0),
                     st.one_of(st.floats(179.99, 180.0),
                               st.floats(-180.0, -179.99, exclude_min=True))),
    "north-pole": (st.floats(89.99, 90.0), st.floats(-180.0, 180.0, exclude_min=True)),
    "south-pole": (st.floats(-90.0, -89.99), st.floats(-180.0, 180.0, exclude_min=True)),
}
SHAPES = ("all-duplicate", "single", "equal-times", "empty-protected")


@st.composite
def instances(draw):
    """(raw points, protected points, sampling step, cell size)."""
    lat, lon = REGIONS[draw(st.sampled_from(sorted(REGIONS)))]
    point = st.builds(GeoPoint, lat, lon)
    shape = draw(st.sampled_from(SHAPES))
    if shape == "all-duplicate":
        raw = [draw(point)] * draw(st.integers(1, 30))
        prot = draw(st.lists(st.sampled_from(raw[:1]) | point, max_size=20))
    elif shape == "single":
        raw, prot = [draw(point)], [draw(point)]
    else:
        raw = draw(st.lists(point, min_size=1, max_size=20))
        prot = [] if shape == "empty-protected" else draw(st.lists(point, max_size=20))
    step_ms = 0 if shape == "equal-times" else 30_000
    return raw, prot, step_ms, draw(st.floats(50.0, 500.0))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(instances())
def test_bound_evaluators_match_oracles(case):
    raw, prot, step_ms, cell_size = case
    raw_trace, prot_trace = trace_of(raw, step_ms=step_ms), trace_of(prot, step_ms=step_ms)

    got = EVALUATORS["distortion"].bind(raw_trace, PoiClusteringParams(), CellGrid())(prot_trace)
    want = brute_spatial_distortion(raw, prot)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (got, want)

    got = EVALUATORS["coverage"].bind(raw_trace, PoiClusteringParams(), CellGrid(cell_size))(prot_trace)
    assert got == brute_area_coverage(raw, prot, cell_size, brute_mean_latitude(raw))


POI_SHAPES = ("all-duplicate", "single", "equal-times", "geo-i", "ring")
POI_PARAMS = PoiClusteringParams(min_stay_ms=5 * 60_000)


@st.composite
def poi_traces(draw):
    """A trace of up to 20 records (40 on a ring) whose clusters can reach the
    minimum stay. A ring's records lie on a circle of diameter 0.95-0.999 times
    the limit, in any order: its pairs are all within the limit, and once the
    box spans it the corner bound is about 1.4 times the diameter, so each
    record joins only through an exact scan of every member."""
    lat, lon = REGIONS[draw(st.sampled_from(sorted(REGIONS)))]
    point = st.builds(GeoPoint, lat, lon)
    shape = draw(st.sampled_from(POI_SHAPES))
    if shape == "all-duplicate":
        points = [draw(point)] * draw(st.integers(1, 20))
    elif shape == "single":
        points = [draw(point)]
    elif shape == "ring":
        center = draw(point)
        radius = 0.5 * POI_PARAMS.max_diameter_m * draw(st.floats(0.95, 0.999))
        angles = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=40)))
        ring_lat, ring_lon = latlon_from_local(center.lat, center.lon, radius * np.cos(angles),
                                               radius * np.sin(angles))
        points = [GeoPoint(la, lo) for la, lo in zip(ring_lat.tolist(), ring_lon.tolist())]
    else:
        # dwells at a few places, so that clusters form
        places = draw(st.lists(point, min_size=1, max_size=3))
        points = draw(st.lists(st.sampled_from(places) | point, min_size=1, max_size=20))
    if shape == "equal-times":
        steps = draw(st.lists(st.sampled_from([0, 150_000]), min_size=len(points) - 1,
                              max_size=len(points) - 1))
        times = np.concatenate(([0], np.cumsum(steps, dtype=np.int64)))
    else:
        times = 60_000 * np.arange(len(points))
    trace = Trace("u", [p.lat for p in points], [p.lon for p in points], times)
    if shape == "geo-i":
        epsilon = 10.0 ** draw(st.floats(-3.0, -0.5))
        trace = applied(LppmConfig("geo-i", {"epsilon": epsilon}), trace,
                        RandomStream(draw(st.integers(0, 2**32 - 1))))
    return trace


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(poi_traces())
def test_extract_pois_matches_oracles(trace):
    # The window oracle fixes each cluster's records. Its centroid arithmetic
    # does not wrap longitudes across the antimeridian, so the centroids are
    # checked against the scan oracle, which shares the library's arithmetic.
    got = extract_pois(trace, POI_PARAMS)
    assert spans(got) == spans(window_extract_pois(trace, POI_PARAMS))
    assert got == scan_extract_pois(trace, POI_PARAMS)


TRACE_SHAPES = ("all-duplicate", "single", "equal-times", "walk")


@st.composite
def shaped_traces(draw):
    """(shape, trace): a walk of up to 20 records with steps of up to 500 m
    each way in the plane of its first point, or a degenerate trace."""
    lat, lon = REGIONS[draw(st.sampled_from(sorted(REGIONS)))]
    first = draw(st.builds(GeoPoint, lat, lon))
    shape = draw(st.sampled_from(TRACE_SHAPES))
    n = 1 if shape == "single" else draw(st.integers(2, 20))
    steps = np.zeros((n - 1, 2))
    if shape in ("equal-times", "walk"):
        step = st.floats(-500.0, 500.0)
        steps = np.array(draw(st.lists(st.tuples(step, step), min_size=n - 1, max_size=n - 1)))
    x, y = np.concatenate(([[0.0, 0.0]], np.cumsum(steps, axis=0))).T
    gaps = st.sampled_from([0, 150_000]) if shape == "equal-times" else st.integers(1, 600_000)
    times = np.concatenate(([0], np.cumsum(draw(st.lists(gaps, min_size=n - 1, max_size=n - 1)), dtype=np.int64)))
    return shape, Trace("u", *latlon_from_local(first.lat, first.lon, x, y), times)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(shaped_traces(), st.floats(0.001, 0.1), st.integers(0, 2**32 - 1))
def test_geo_i_keeps_user_length_and_times(case, epsilon, seed):
    _, trace = case
    config = LppmConfig("geo-i", {"epsilon": epsilon})
    out = applied(config, trace, RandomStream(seed))
    assert (out.user, len(out)) == (trace.user, len(trace))
    assert out.time_ms.dtype == trace.time_ms.dtype and np.array_equal(out.time_ms, trace.time_ms)
    assert applied(config, trace, RandomStream(seed)) == out


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(shaped_traces(), st.floats(5.0, 500.0))
def test_promesse_resamples_at_the_spacing(case, alpha):
    shape, trace = case
    out = applied(LppmConfig("promesse", {"alpha": alpha}), trace, RandomStream(0))
    assert out.user == trace.user
    if shape in ("all-duplicate", "single"):
        assert len(out) == 0
    if len(out) == 0:
        return
    assert len(out) >= 2
    assert (out.time_ms[0], out.time_ms[-1]) == (trace.time_ms[0], trace.time_ms[-1])
    gaps = np.diff(out.time_ms)
    assert gaps.max() - gaps.min() <= 1
    # Points alpha apart along the path are at most alpha apart in the plane
    # the path is resampled in, that of the first record.
    x, y = local_xy(trace.lat[0], trace.lon[0], out.lat, out.lon)
    assert np.hypot(np.diff(x), np.diff(y)).max() <= alpha * (1 + 1e-6) + 1e-6


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("region", sorted(REGIONS))
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_a_prepared_geo_i_replicate_is_one_shot_geo_i(region, seed, data):
    # One replicate, prepared once, transformed at every epsilon of the grid,
    # against the one-pass reference on the same stream at each.
    lat, lon = REGIONS[region]
    trace = trace_of(data.draw(st.lists(st.builds(GeoPoint, lat, lon), max_size=20)))
    rng = RandomStream(seed)
    prepared = prepare_lppm("geo-i", trace, rng)
    (domain,) = MECHANISMS["geo-i"].domains
    for epsilon in domain.values:
        got = apply_lppm(LppmConfig("geo-i", {"epsilon": epsilon}), prepared)
        want = one_shot_geo_i(trace, epsilon, rng)
        assert got.user == want.user
        assert np.array_equal(got.lat, want.lat) and np.array_equal(got.lon, want.lon)
        assert np.array_equal(got.time_ms, want.time_ms)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(shaped_traces())
def test_a_prepared_promesse_replicate_is_one_shot_promesse(case):
    # Over every alpha of the grid; the all-duplicate and single-record shapes,
    # and walks shorter than alpha, give the empty output.
    _, trace = case
    prepared = prepare_lppm("promesse", trace, RandomStream(0))
    (domain,) = MECHANISMS["promesse"].domains
    for alpha in domain.values:
        assert apply_lppm(LppmConfig("promesse", {"alpha": alpha}), prepared) == one_shot_promesse(trace, alpha)


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_a_prepared_empty_trace_stays_empty(name):
    prepared = prepare_lppm(name, Trace("u"), RandomStream(0))
    (domain,) = MECHANISMS[name].domains
    for value in domain.values:
        assert apply_lppm(LppmConfig(name, {domain.name: value}), prepared) == Trace("u")


# What csv, float() and numpy's C reader may each read differently: characters
# spliced anywhere, and odd values for each column.
NOISE = ['"', ",", "\r", "\n", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
         "\x85", "\xa0", " ", "\U00010112", "_", "e", ".", "+", "-", "nan", "inf",
         "1970-01-02T00:00:00Z", "\ufeff"]
EPOCHS = [0, 1, -1, 10**11 - 1, 10**11, -(10**11 - 1), -(10**11), *TIME_RANGE_MS,
          TIME_RANGE_MS[0] - 1, TIME_RANGE_MS[1] + 1, TIME_RANGE_MS[0] // 1000,
          TIME_RANGE_MS[0] // 1000 - 1, -(2**63), 2**63 - 1, 2**63]
ODD_DEGREES = ["-0", ".5", "5.", "1_0", "nan", "-inf", "infinity", "2\x1c", "\x1f2", "\xa045", "4\x85",
               "95", "-90.0001", "-180", "180", "0x10", "", "1e500", "4\U00010112"]
ODD_VALUES = (
    ["", " ", "\x0b", "\xa0a", "a\x85", "\U00010112", "a\x1c", "\x1fa", "two\nlines", "cr\rlf", "\ufeffa",
     "a,b", 'say "hi"', '""'],
    [str(t) for t in EPOCHS] + ["5\U00010112", "\U00010112", "1\U000101120"] * 3  # digits to numpy
    + ["1.0", "1e3", "nan", "+5", "1_000", "0x10", "", "5\x1c", "\xa05", "1970-01-02T00:00:00Z",
       "9999-12-31T23:59:59-01:00"],
    ODD_DEGREES,
    ODD_DEGREES,
)
HEADERS = ["\ufeffuser,timestamp,lat,lon", "User,Timestamp,Lat,Lon", " user,timestamp,lat,lon ",
           "user,timestamp,lat", "user,timestamp,lat,lon,x", '"user",timestamp,lat,lon', "u,1,2,3"]


def _field(draw, text, quote):
    """``text``, sometimes padded with ASCII white space, and quoted the way
    csv quotes where it must be, or where it need not be if ``quote``."""
    if draw(st.integers(0, 3)) == 0:
        text = draw(st.text(st.sampled_from(" \t\x0b\x0c"), min_size=1, max_size=2)) + text
    if quote or any(c in text for c in '",\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_texts(draw):
    """A trace CSV of plain rows with up to two odd things in it (a value, a
    field count, a line end, the header, a quoted field or a character) that
    one reader might take and the other reject."""
    plain = (st.sampled_from(["a", "b", " a", "a ", "\ta"]),
             st.integers(-10**14, 10**14).map(str),
             st.one_of(st.floats(-90, 90).map(repr), st.integers(-90, 90).map(str),
                       st.floats(-90, 90).map("{:.3e}".format)),
             st.floats(-179.99, 180).map(repr))
    rows = draw(st.lists(st.tuples(*plain).map(list), min_size=1, max_size=6))
    header = "user,timestamp,lat,lon"
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in range(len(rows) + 1)]
    spliced, quoted = [], set()
    for kind in draw(st.lists(st.sampled_from(["value", "count", "end", "header", "quote", "char"]),
                              max_size=2)):
        if kind == "value":
            column = draw(st.integers(0, 3))
            draw(st.sampled_from(rows))[column] = draw(st.sampled_from(ODD_VALUES[column]))
        elif kind == "count":
            row = draw(st.sampled_from(rows))
            if draw(st.booleans()):
                row.append("")
            else:
                row.pop()
        elif kind == "end":
            odd_end = draw(st.sampled_from(["\r", "", "\n\n", "\n \n", "\r\r\n"]))
            ends[draw(st.integers(0, len(rows)))] = odd_end
        elif kind == "header":
            header = draw(st.sampled_from(HEADERS))
        elif kind == "quote":
            quoted.add((draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))))
        else:
            spliced.append((draw(st.floats(0, 1)), draw(st.sampled_from(NOISE))))
    lines = [header] + [",".join(_field(draw, value, (i, j) in quoted) for j, value in enumerate(row))
                        for i, row in enumerate(rows)]
    text = "".join(line + end for line, end in zip(lines, ends))
    for where, noise in spliced:
        at = round(where * len(text))
        text = text[:at] + noise + text[at:]
    return text


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(csv_texts())
def test_the_loader_agrees_with_its_row_loop(text):
    # Equal traces bit for bit, or the same message and line-numbered problems.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_dataset, path) == load_outcome(row_loaded, path)
