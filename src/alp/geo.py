"""Core spatial and temporal types plus the distance/projection math.

Coordinates are WGS84-style latitude/longitude degrees treated as points on
a sphere of radius 6,371,000 m. Distances are great-circle (haversine).
Small-extent planar work (noise displacement, path resampling, centroids)
happens in an equirectangular tangent plane anchored at a local origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterable, Iterator

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
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError("coordinates must be finite")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside (-180, 180]")


@dataclass(frozen=True)
class Record:
    """One user's position at one instant (epoch milliseconds, UTC)."""

    user: str
    point: GeoPoint
    time_ms: int

    def __post_init__(self):
        if not self.user:
            raise ValueError("record user id must be non-empty")


@dataclass(frozen=True, eq=False)
class Trace:
    """Chronologically ordered positions of a single user, stored as columns.

    ``lat`` and ``lon`` are float64 degrees and ``time_ms`` int64 epoch
    milliseconds (UTC); all three are read-only numpy arrays of one length.
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
        if np.any(time_ms[1:] < time_ms[:-1]):
            raise ValueError("record timestamps must be non-decreasing")

    @classmethod
    def from_records(cls, records: Iterable[Record]) -> "Trace":
        """Columns from per-point records of one user, sorted by time (stable)."""
        records = sorted(records, key=lambda r: r.time_ms)
        if not records:
            raise ValueError("cannot infer user id from an empty record list")
        user = records[0].user
        for r in records:
            if r.user != user:
                raise ValueError(f"record user {r.user!r} differs from trace user {user!r}")
        return cls(user, [r.point.lat for r in records], [r.point.lon for r in records],
                   [r.time_ms for r in records])

    def __len__(self) -> int:
        return len(self.time_ms)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.user == other.user and np.array_equal(self.lat, other.lat)
                and np.array_equal(self.lon, other.lon)
                and np.array_equal(self.time_ms, other.time_ms))


@dataclass(frozen=True)
class Dataset:
    """A collection of traces; a user may contribute several."""

    traces: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def users(self) -> list:
        return sorted({t.user for t in self.traces})

    def merged_by_user(self) -> dict:
        """One chronologically sorted trace per user, concatenating duplicates."""
        grouped: dict = {}
        for trace in self.traces:
            grouped.setdefault(trace.user, []).append(trace)
        merged = {}
        for user, traces in sorted(grouped.items()):
            time_ms = np.concatenate([t.time_ms for t in traces])
            order = np.argsort(time_ms, kind="stable")
            merged[user] = Trace(user, np.concatenate([t.lat for t in traces])[order],
                                 np.concatenate([t.lon for t in traces])[order], time_ms[order])
        return merged

    def total_records(self) -> int:
        return sum(len(t) for t in self.traces)

    def mean_latitude(self) -> float:
        """Reference latitude for the cell grid, fixed per dataset."""
        n = self.total_records()
        if n == 0:
            return 0.0
        # cumsum adds strictly left to right, like a plain float sum; the
        # pairwise order of np.sum could move the grid reference by an ulp.
        return float(np.cumsum(np.concatenate([t.lat for t in self.traces]))[-1]) / n


# ---------------------------------------------------------------------------
# Distance and projection math (vectorized core, scalar wrappers)
# ---------------------------------------------------------------------------

def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters between degree coordinates (vectorized)."""
    phi1 = np.radians(np.asarray(lat1, dtype=float))
    phi2 = np.radians(np.asarray(lat2, dtype=float))
    dphi = phi2 - phi1
    dlam = np.radians(np.asarray(lon2, dtype=float) - np.asarray(lon1, dtype=float))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def distance_meters(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters."""
    return float(haversine_m(a.lat, a.lon, b.lat, b.lon))


def _wrap_degrees(lon):
    """Normalize longitudes into (-180, 180]."""
    wrapped = -((-np.asarray(lon, dtype=float) + 180.0) % 360.0 - 180.0)
    return wrapped


def local_xy(origin: GeoPoint, lat, lon):
    """Equirectangular projection: meters east/north of origin (vectorized)."""
    phi0 = math.radians(origin.lat)
    dlam = np.radians(_wrap_degrees(np.asarray(lon, dtype=float) - origin.lon))
    dphi = np.radians(np.asarray(lat, dtype=float) - origin.lat)
    x = EARTH_RADIUS_M * dlam * math.cos(phi0)
    y = EARTH_RADIUS_M * dphi
    return x, y


def latlon_from_local(origin: GeoPoint, x, y):
    """Inverse of :func:`local_xy` (vectorized); longitudes wrapped to (-180, 180]."""
    phi0 = math.radians(origin.lat)
    lat = origin.lat + np.degrees(np.asarray(y, dtype=float) / EARTH_RADIUS_M)
    lon = origin.lon + np.degrees(np.asarray(x, dtype=float) / (EARTH_RADIUS_M * math.cos(phi0)))
    return np.clip(lat, -90.0, 90.0), _wrap_degrees(lon)


def to_local_plane(origin: GeoPoint, p: GeoPoint):
    """Project p into the tangent plane at origin; returns (x_east_m, y_north_m)."""
    x, y = local_xy(origin, p.lat, p.lon)
    return float(x), float(y)


def from_local_plane(origin: GeoPoint, xy) -> GeoPoint:
    """Map plane offsets in meters back to a geographic point."""
    lat, lon = latlon_from_local(origin, xy[0], xy[1])
    return GeoPoint(float(lat), float(lon))


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
    """Square grid in locally projected meters.

    The reference latitude fixes the meters-per-degree-longitude scale for
    the whole grid so cell areas stay near-uniform across one experiment.
    """

    cell_size_m: float = 250.0
    ref_lat_deg: float = 0.0

    def __post_init__(self):
        if not self.cell_size_m > 0:
            raise ValueError("cell size must be positive")

    def indices_of(self, lat, lon):
        """(ix, iy) integer arrays for degree coordinate arrays."""
        scale = EARTH_RADIUS_M * math.cos(math.radians(self.ref_lat_deg))
        ix = np.floor(np.radians(np.asarray(lon, dtype=float)) * scale / self.cell_size_m)
        iy = np.floor(np.radians(np.asarray(lat, dtype=float)) * EARTH_RADIUS_M / self.cell_size_m)
        return ix.astype(np.int64), iy.astype(np.int64)

    def cells_of(self, lat, lon) -> set:
        """The set of (ix, iy) cells touched by degree coordinate arrays."""
        ix, iy = self.indices_of(lat, lon)
        return set(zip(ix.tolist(), iy.tolist()))


# ---------------------------------------------------------------------------
# Calendar helpers (UTC only)
# ---------------------------------------------------------------------------

def utc_day(time_ms: int) -> date:
    """UTC calendar date containing the instant; midnight belongs to the new day."""
    return _EPOCH_DATE + timedelta(days=int(time_ms) // MS_PER_DAY)

