import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from alp import io as alp_io
from alp.errors import DatasetLoadError
from alp.geo import Dataset, GeoPoint, Trace, latlon_from_local
from alp.lppm import apply_lppm, prepare_lppm
from alp.metrics import Pois


def make_trace(coords, user="u", t0_ms=0, step_ms=30_000):
    """Trace from (lat, lon) pairs at a fixed sampling period."""
    lat, lon = zip(*coords)
    return Trace(user, lat, lon, t0_ms + step_ms * np.arange(len(coords)))


def trace_of(points, user="u", step_ms=30_000):
    """Trace through GeoPoints at a fixed sampling period (may be empty)."""
    return Trace(user, [p.lat for p in points], [p.lon for p in points],
                 step_ms * np.arange(len(points)))


def points_of(trace):
    """The trace's positions as GeoPoints, for per-point assertions."""
    return [GeoPoint(la, lo) for la, lo in zip(trace.lat.tolist(), trace.lon.tolist())]


def row_loaded(path):
    """``path`` read by the row loop alone (``csv.reader``, ``parse_timestamp_ms``
    and ``float``), the reference that numpy's C reader must match."""
    return Dataset.from_rows(*alp_io._read_rows(Path(path)))


def load_outcome(load, path):
    """What ``load(path)`` gives, comparable bit for bit: each trace's user and
    column bytes, or the DatasetLoadError's message and line-numbered problems."""
    try:
        dataset = load(path)
    except DatasetLoadError as err:
        return str(err), err.problems
    return [(t.user, t.time_ms.tobytes(), t.lat.tobytes(), t.lon.tobytes()) for t in dataset]


def applied(config, trace, rng):
    """``trace`` protected under ``config`` on stream ``rng``: prepared, then applied once."""
    return apply_lppm(config, prepare_lppm(config.lppm_name, trace, rng))


def pois_of(points):
    """POIs centred on GeoPoints (their times and sizes play no part in matching)."""
    n = len(points)
    return Pois([p.lat for p in points], [p.lon for p in points], [0] * n, [0] * n, [1] * n)


def spans(pois):
    """(start_ms, end_ms, size) of each POI, in order: the records it clusters."""
    return list(zip(pois.start_ms.tolist(), pois.end_ms.tolist(), pois.size.tolist()))


def plane_points(origin, offsets_m):
    """GeoPoints at (x_east_m, y_north_m) offsets in the tangent plane at origin."""
    x, y = np.asarray(offsets_m, dtype=float).reshape(-1, 2).T
    lat, lon = latlon_from_local(origin.lat, origin.lon, x, y)
    return [GeoPoint(la, lo) for la, lo in zip(lat.tolist(), lon.tolist())]


def random_walk_trace(gen, n=100, step_sd_m=50.0, base=GeoPoint(45.0, 5.0),
                      user="u", step_ms=30_000):
    """Jittery walk in the local plane around the base point."""
    xy = np.cumsum(gen.normal(0.0, step_sd_m, size=(n, 2)), axis=0)
    lat, lon = latlon_from_local(base.lat, base.lon, xy[:, 0], xy[:, 1])
    return Trace(user, lat, lon, step_ms * np.arange(n))


@pytest.fixture
def gen():
    return np.random.default_rng(20240101)
