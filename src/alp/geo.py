"""Core spatial and temporal types plus the distance/projection math.

Coordinates are WGS84-style latitude/longitude degrees treated as points on
a sphere of radius 6,371,000 m. Only this module turns degrees into distances:
great-circle (haversine) ones, and chords between :func:`sphere_xyz` points.
Small-extent planar work (noise displacement, path resampling, centroids)
happens in an equirectangular tangent plane that only :func:`local_xy` and
:func:`latlon_from_local` know; their origin degrees broadcast: one origin
for all points, or one per point.

A :class:`Trace` holds one user's positions as columns; its constructor is
the only way to build one. :class:`GeoPoint` is the single-point type, and
both accept exactly the positions that :func:`coordinate_problems` passes.
:meth:`Dataset.from_rows` is the one place that orders a user's rows: the
loader's rows and the constructor's merged traces both go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property
from typing import Iterator

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
MS_PER_DAY = 86_400_000
_EPOCH_DATE = date(1970, 1, 1)


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface, in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        problems = coordinate_problems(self.lat, self.lon)
        if problems:
            raise ValueError(problems[0][1])


@dataclass(frozen=True, eq=False)
class Trace:
    """Chronologically ordered positions of a single user, stored as columns.

    ``lat`` and ``lon`` are float64 degrees in GeoPoint's ranges and ``time_ms``
    int64 epoch milliseconds (UTC); all three are read-only numpy arrays of one
    length. The constructor copies the columns, checks them and does not sort
    them: a bad position raises the first message of
    :func:`coordinate_problems`, and a decreasing timestamp raises too.
    """

    user: str
    lat: np.ndarray = ()
    lon: np.ndarray = ()
    time_ms: np.ndarray = ()

    def __post_init__(self):
        if not self.user:
            raise ValueError("trace user id must be non-empty")
        for name, dtype in (("lat", np.float64), ("lon", np.float64), ("time_ms", np.int64)):
            column = np.array(getattr(self, name), dtype=dtype)  # a private copy
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        lat, lon, time_ms = self.lat, self.lon, self.time_ms
        if not (lat.ndim == lon.ndim == time_ms.ndim == 1
                and len(lat) == len(lon) == len(time_ms)):
            raise ValueError("trace columns must be 1-D arrays of equal lengths")
        problems = coordinate_problems(lat, lon)
        if problems:
            raise ValueError(problems[0][1])
        if np.any(time_ms[1:] < time_ms[:-1]):
            raise ValueError("record timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.time_ms)

    @cached_property
    def xyz(self) -> np.ndarray:
        """The records' :func:`sphere_xyz` points, read-only: computed on first
        use and kept with the trace, so every metric of a trace shares them."""
        xyz = sphere_xyz(self.lat, self.lon)
        xyz.flags.writeable = False
        return xyz

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.user == other.user and np.array_equal(self.lat, other.lat)
                and np.array_equal(self.lon, other.lon)
                and np.array_equal(self.time_ms, other.time_ms))


@dataclass(frozen=True)
class Dataset:
    """One time-ordered trace per user, in user order. The constructor merges
    a user's several traces, their rows in the given order, by :meth:`from_rows`
    and keeps a single one as is."""

    traces: tuple = ()

    def __post_init__(self):
        grouped: dict = {}
        for trace in self.traces:
            grouped.setdefault(trace.user, []).append(trace)
        merged = []
        for user, traces in sorted(grouped.items()):
            if len(traces) > 1:
                lat, lon, time_ms = map(np.concatenate, zip(*[(t.lat, t.lon, t.time_ms) for t in traces]))
                traces = Dataset.from_rows([user], np.zeros(len(time_ms), dtype=np.intp), lat, lon, time_ms).traces
            merged.append(traces[0])
        object.__setattr__(self, "traces", tuple(merged))

    @classmethod
    def from_rows(cls, users, code, lat, lon, time_ms) -> Dataset:
        """The one grouping rule. Row ``i`` of the columns is user
        ``users[code[i]]``'s (the ids are distinct); each user's rows, in their
        given order, take a stable time sort. Traces are built a user at a time."""
        by_user = np.argsort(code, kind="stable")  # each user's rows in their given order
        bounds = np.cumsum(np.bincount(code, minlength=len(users)))[:-1]
        traces = []
        for user, rows in zip(users, np.split(by_user, bounds)):
            rows = rows[np.argsort(time_ms[rows], kind="stable")]
            traces.append(Trace(user, lat[rows], lon[rows], time_ms[rows]))
        return cls(traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def total_records(self) -> int:
        return sum(len(t) for t in self.traces)


# ---------------------------------------------------------------------------
# Coordinate checks, distance and projection math (vectorized)
# ---------------------------------------------------------------------------

def coordinate_problems(lat, lon) -> list:
    """``(index, message)`` for each bad position of two degree arrays (or
    scalars): the non-finite ones first, then those with a latitude outside
    [-90, 90] or a longitude outside (-180, 180], each in index order."""
    # [()] makes a scalar's 0-d array a numpy scalar, whose tests are cheaper.
    lat, lon = np.asarray(lat, dtype=float)[()], np.asarray(lon, dtype=float)[()]
    ok_lat, ok_lon = (lat >= -90.0) & (lat <= 90.0), (lon > -180.0) & (lon <= 180.0)
    if (ok_lat & ok_lon).all():  # NaN fails every comparison
        return []
    lat, lon, ok_lat, ok_lon = map(np.ravel, (lat, lon, ok_lat, ok_lon))
    finite = np.isfinite(lat) & np.isfinite(lon)
    problems = [(i, "coordinates must be finite") for i in np.flatnonzero(~finite).tolist()]
    return problems + [(i, f"latitude {float(lat[i])} outside [-90, 90]" if not ok_lat[i]
                        else f"longitude {float(lon[i])} outside (-180, 180]")
                       for i in np.flatnonzero(finite & ~(ok_lat & ok_lon)).tolist()]


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters between degree coordinates (vectorized)."""
    phi1 = np.radians(np.asarray(lat1, dtype=float))
    phi2 = np.radians(np.asarray(lat2, dtype=float))
    dphi = phi2 - phi1
    dlam = np.radians(np.asarray(lon2, dtype=float) - np.asarray(lon1, dtype=float))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _wrap_degrees(lon):
    """Normalize longitudes into (-180, 180]."""
    wrapped = -((-np.asarray(lon, dtype=float) + 180.0) % 360.0 - 180.0)
    # Just past +180 the modulo rounds up to 360, which would give -180.
    return np.where(wrapped == -180.0, 180.0, wrapped)


def local_xy(lat0, lon0, lat, lon):
    """Equirectangular projection: meters east/north of the origin (lat0, lon0),
    which broadcasts against the points (vectorized)."""
    dlam = np.radians(_wrap_degrees(np.asarray(lon, dtype=float) - lon0))
    dphi = np.radians(np.asarray(lat, dtype=float) - lat0)
    x = EARTH_RADIUS_M * dlam * np.cos(np.radians(lat0))
    y = EARTH_RADIUS_M * dphi
    return x, y


def latlon_from_local(lat0, lon0, x, y):
    """Inverse of :func:`local_xy` (vectorized, origins broadcast alike);
    latitudes clipped to [-90, 90], longitudes wrapped to (-180, 180]."""
    lat = lat0 + np.degrees(np.asarray(y, dtype=float) / EARTH_RADIUS_M)
    lon = lon0 + np.degrees(np.asarray(x, dtype=float) / (EARTH_RADIUS_M * np.cos(np.radians(lat0))))
    return np.clip(lat, -90.0, 90.0), _wrap_degrees(lon)


def chord_m(d: float) -> float:
    """The chord limit of a great-circle limit of d meters: two points are
    more than d apart exactly when their :func:`sphere_xyz` points are
    farther apart than it (inf past half the circumference)."""
    return 2.0 * EARTH_RADIUS_M * math.sin(0.5 * d / EARTH_RADIUS_M) if d < math.pi * EARTH_RADIUS_M else math.inf


def sphere_xyz(lat, lon):
    """3-D embedding on the sphere; chord length is monotone in arc length."""
    phi = np.radians(np.asarray(lat, dtype=float))
    lam = np.radians(np.asarray(lon, dtype=float))
    cos_phi = np.cos(phi)
    return np.column_stack((
        EARTH_RADIUS_M * cos_phi * np.cos(lam),
        EARTH_RADIUS_M * cos_phi * np.sin(lam),
        EARTH_RADIUS_M * np.sin(phi),
    ))


# ---------------------------------------------------------------------------
# Discretized cells for area coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellGrid:
    """The coverage cell size: a square grid in locally projected meters, its
    cells near-square at the reference latitude that each :meth:`cells_of` call names."""

    cell_size_m: float = 250.0

    def __post_init__(self):
        if not self.cell_size_m > 0:
            raise ValueError("cell size must be positive")
        # cells_of's int64 cell indices reach pi * R / cell_size_m in magnitude
        if not math.pi * EARTH_RADIUS_M / self.cell_size_m < 2.0**62:
            raise ValueError(f"cell size must exceed {math.pi * EARTH_RADIUS_M / 2.0**62:.3g} m")

    def cells_of(self, lat, lon, ref_lat_deg: float) -> set:
        """The set of (ix, iy) cells touched by degree coordinate arrays, near-square at ``ref_lat_deg``."""
        scale = EARTH_RADIUS_M * math.cos(math.radians(ref_lat_deg))
        ix = np.floor(np.radians(np.asarray(lon, dtype=float)) * scale / self.cell_size_m)
        iy = np.floor(np.radians(np.asarray(lat, dtype=float)) * EARTH_RADIUS_M / self.cell_size_m)
        return set(zip(ix.astype(np.int64).tolist(), iy.astype(np.int64).tolist()))


# ---------------------------------------------------------------------------
# Calendar helpers (UTC only)
# ---------------------------------------------------------------------------

# The instants utc_day can name, in epoch ms: 0001-01-01 to 9999-12-31 UTC.
TIME_RANGE_MS = ((date.min - _EPOCH_DATE).days * MS_PER_DAY,
                 ((date.max - _EPOCH_DATE).days + 1) * MS_PER_DAY - 1)


def utc_day(time_ms: int) -> date:
    """UTC calendar date containing the instant; midnight belongs to the new day."""
    return _EPOCH_DATE + timedelta(days=int(time_ms) // MS_PER_DAY)

