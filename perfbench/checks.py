"""Correctness checks on the files one ``alp`` run wrote.

Each check returns a list of problems; an empty list means the run is
correct. The checks read only the files, never the program's modules, so a
defect in the program cannot hide itself from them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
MS_PER_DAY = 86_400_000
REPORT_HEADER = ["user", "day", "param_name", "param_value",
                 "pois", "distortion_m", "coverage", "cost"]


@dataclass(frozen=True)
class TraceTable:
    """A trace CSV (user,timestamp,lat,lon) as columns."""

    user: np.ndarray
    time_ms: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __len__(self) -> int:
        return len(self.time_ms)

    def sorted(self) -> "TraceTable":
        order = np.lexsort((self.time_ms, self.user))
        return TraceTable(self.user[order], self.time_ms[order], self.lat[order], self.lon[order])

    def unit_keys(self) -> set:
        """The (user, UTC day) pairs an online run must report, one row each."""
        days = self.time_ms // MS_PER_DAY
        epoch = date(1970, 1, 1)
        return {(u, (epoch + timedelta(days=int(d))).isoformat())
                for u, d in set(zip(self.user.tolist(), days.tolist()))}


def read_trace_csv(path: Path) -> TraceTable:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["user", "timestamp", "lat", "lon"]:
            raise ValueError(f"{path}: unexpected header {header!r}")
        users, times, lats, lons = [], [], [], []
        for user, timestamp, lat, lon in reader:
            users.append(user)
            times.append(int(timestamp))
            lats.append(float(lat))
            lons.append(float(lon))
    return TraceTable(np.array(users), np.array(times, dtype=np.int64),
                      np.array(lats), np.array(lons))


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def haversine_m(lat1, lon1, lat2, lon2):
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    a = (np.sin((phi2 - phi1) / 2.0) ** 2
         + np.cos(phi1) * np.cos(phi2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _domain_values(domain: dict) -> np.ndarray:
    if domain["spacing"] == "log10":
        return np.logspace(math.log10(domain["min"]), math.log10(domain["max"]), domain["count"])
    return np.linspace(domain["min"], domain["max"], domain["count"])


def check_report(raw: TraceTable, rows_path: Path, summary_path: Path) -> tuple:
    """Problems with an online report, and the mean of its ``cost`` column."""
    problems = []
    run_config = json.loads(summary_path.read_text(encoding="utf-8"))["run_config"]
    n_objectives = len(run_config["objectives"])
    domains = {d["name"]: _domain_values(d) for d in run_config["domains"]}
    with open(rows_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != REPORT_HEADER:
            return [f"{rows_path.name}: unexpected header"], 0.0
        rows = list(reader)

    keys = [(row[0], row[1]) for row in rows]
    if len(set(keys)) != len(keys):
        problems.append("more than one report row for some (user, day)")
    if set(keys) != raw.unit_keys():
        problems.append(f"report covers {len(set(keys))} (user, day) units, "
                        f"input has {len(raw.unit_keys())}")
    costs = []
    for row in rows:
        unit = f"{row[0]} {row[1]}"
        pois, distortion, coverage, cost = (float(v) for v in row[4:8])
        if not 0.0 <= pois <= 1.0:
            problems.append(f"{unit}: pois {pois} outside [0, 1]")
        if not 0.0 <= coverage <= 1.0:
            problems.append(f"{unit}: coverage {coverage} outside [0, 1]")
        if not distortion >= 0.0:
            problems.append(f"{unit}: distortion_m {distortion} below 0")
        if not 0.0 <= cost <= n_objectives:
            problems.append(f"{unit}: cost {cost} outside [0, {n_objectives}]")
        for name, value in zip(row[2].split(";"), row[3].split(";")):
            grid = domains.get(name)
            if grid is None or not np.isclose(grid, float(value), rtol=1e-9, atol=0.0).any():
                problems.append(f"{unit}: {name}={value} is not in its domain")
        costs.append(cost)
    return problems, (sum(costs) / len(costs) if costs else 0.0)


def check_geo_i_protected(raw: TraceTable, protected: TraceTable, epsilon: float | None) -> list:
    """geo-i keeps users, timestamps and count; at a fixed epsilon the mean
    displacement must match the planar-Laplace mean 2/epsilon."""
    if len(raw) != len(protected):
        return [f"protected has {len(protected)} records, input has {len(raw)}"]
    raw, protected = raw.sorted(), protected.sorted()
    if not (np.array_equal(raw.user, protected.user)
            and np.array_equal(raw.time_ms, protected.time_ms)):
        return ["protected users or timestamps differ from the input"]
    if epsilon is None:
        return []
    mean = float(np.mean(haversine_m(raw.lat, raw.lon, protected.lat, protected.lon)))
    expected = 2.0 / epsilon
    # 3% plus five standard errors; one displacement has sd sqrt(2)/epsilon.
    tolerance = 0.03 * expected + 5.0 * math.sqrt(2.0) / epsilon / math.sqrt(len(raw))
    if abs(mean - expected) > tolerance:
        return [f"mean displacement {mean:.2f} m, expected {expected:.2f} +- {tolerance:.2f} m"]
    return []
