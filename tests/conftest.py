import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from alp.geo import GeoPoint, Trace


def make_trace(coords, user="u", t0_ms=0, step_ms=30_000):
    """Trace from (lat, lon) pairs at a fixed sampling period."""
    lat, lon = zip(*coords)
    return Trace(user, lat, lon, t0_ms + step_ms * np.arange(len(coords)))


def points_of(trace):
    """The trace's positions as GeoPoints, for per-point assertions."""
    return [GeoPoint(la, lo) for la, lo in zip(trace.lat.tolist(), trace.lon.tolist())]


def random_walk_trace(gen, n=100, step_sd_m=50.0, base=GeoPoint(45.0, 5.0),
                      user="u", step_ms=30_000):
    """Jittery walk in the local plane around the base point."""
    from alp.geo import latlon_from_local

    xy = np.cumsum(gen.normal(0.0, step_sd_m, size=(n, 2)), axis=0)
    lat, lon = latlon_from_local(base, xy[:, 0], xy[:, 1])
    return Trace(user, lat, lon, step_ms * np.arange(n))


@pytest.fixture
def gen():
    return np.random.default_rng(20240101)
