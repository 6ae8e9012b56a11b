"""Property tests: the bound evaluators and POI extraction against oracles.

Hypothesis draws degenerate traces (all-duplicate points, single records,
equal timestamps, empty protected traces, short geo-i output) in four
regions: a city-sized box, both sides of the antimeridian, and within 0.01
degrees of either pole. Tolerances are those of acceptance criterion 3.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from alp.geo import CellGrid, GeoPoint, Trace
from alp.lppm import geo_i_obfuscate
from alp.metrics import EVALUATORS, PoiClusteringParams, extract_pois
from alp.rng import RandomStream

from conftest import trace_of
from oracles import brute_area_coverage, brute_spatial_distortion, scan_extract_pois, window_extract_pois

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
    """(raw points, protected points, sampling step, cell size, grid latitude)."""
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
    return raw, prot, step_ms, draw(st.floats(50.0, 500.0)), raw[0].lat


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(instances())
def test_bound_evaluators_match_oracles(case):
    raw, prot, step_ms, cell_size, ref_lat = case
    raw_trace, prot_trace = trace_of(raw, step_ms=step_ms), trace_of(prot, step_ms=step_ms)

    got = EVALUATORS["distortion"].bind(raw_trace, PoiClusteringParams(), CellGrid())(prot_trace)
    want = brute_spatial_distortion(raw, prot)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (got, want)

    grid = CellGrid(cell_size, ref_lat)
    got = EVALUATORS["coverage"].bind(raw_trace, PoiClusteringParams(), grid)(prot_trace)
    assert got == brute_area_coverage(raw, prot, cell_size, ref_lat)


POI_SHAPES = ("all-duplicate", "single", "equal-times", "geo-i")
POI_PARAMS = PoiClusteringParams(min_stay_ms=5 * 60_000)


@st.composite
def poi_traces(draw):
    """A trace of up to 20 records whose clusters can reach the minimum stay."""
    lat, lon = REGIONS[draw(st.sampled_from(sorted(REGIONS)))]
    point = st.builds(GeoPoint, lat, lon)
    shape = draw(st.sampled_from(POI_SHAPES))
    if shape == "all-duplicate":
        points = [draw(point)] * draw(st.integers(1, 20))
    elif shape == "single":
        points = [draw(point)]
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
        trace = geo_i_obfuscate(trace, epsilon, RandomStream(draw(st.integers(0, 2**32 - 1))))
    return trace


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(poi_traces())
def test_extract_pois_matches_oracles(trace):
    # The window oracle fixes each cluster's records. Its centroid arithmetic
    # does not wrap longitudes across the antimeridian, so the centroids are
    # checked against the scan oracle, which shares the library's arithmetic.
    got = extract_pois(trace, POI_PARAMS)
    spans = [(p.start_ms, p.end_ms, p.size) for p in window_extract_pois(trace, POI_PARAMS)]
    assert [(p.start_ms, p.end_ms, p.size) for p in got] == spans
    assert got == scan_extract_pois(trace, POI_PARAMS)
