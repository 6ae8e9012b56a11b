"""CSV/JSON input and output.

Input traces arrive as UTF-8 CSV with header ``user,timestamp,lat,lon``.
Timestamps are ISO-8601 (assumed UTC when naive) or integer epoch values,
read as seconds below 1e11 and as milliseconds above. All writes go to a
temporary file first and are renamed into place, so failed runs never
leave partial output behind.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import tempfile
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import DatasetLoadError
from .geo import TIME_RANGE_MS, Dataset, Trace, coordinate_problems

CSV_HEADER = ["user", "timestamp", "lat", "lon"]
_CHUNK_ROWS = 4096  # rows of text formatted per write


def parse_timestamp_ms(text: str) -> int:
    """Epoch milliseconds from ISO-8601 or integer epoch seconds/millis,
    within ``TIME_RANGE_MS`` (years 1 to 9999 UTC)."""
    text = text.strip()
    try:
        value = int(text)
    except ValueError:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00") if text.endswith("Z") else text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        value = int(round(dt.timestamp() * 1000))
    else:
        value = value * 1000 if abs(value) < 10**11 else value
    if not TIME_RANGE_MS[0] <= value <= TIME_RANGE_MS[1]:
        raise ValueError(f"timestamp {text!r} out of range")
    return value


def load_dataset(path) -> Dataset:
    """Read a trace CSV into one chronologically sorted trace per user."""
    path = Path(path)
    problems = []
    columns: dict = defaultdict(lambda: ([], [], [], []))
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header] != CSV_HEADER:
                raise DatasetLoadError(f"{path}: expected header {','.join(CSV_HEADER)!r}, "
                                       f"got {header!r}")
            first_line = reader.line_num + 1  # a quoted field can span lines
            for row in reader:
                line_no, first_line = first_line, reader.line_num + 1
                user = row[0].strip() if len(row) == 4 else ""
                if not user:  # a bad field count, an empty user id or a blank row
                    if any(c.strip() for c in row):
                        problems.append((line_no, "empty user id" if len(row) == 4
                                         else f"expected 4 fields, got {len(row)}"))
                    continue
                try:
                    time_ms = parse_timestamp_ms(row[1])
                    lat, lon = float(row[2]), float(row[3])
                except ValueError as exc:
                    problems.append((line_no, str(exc)))
                    continue
                line_nos, times, lats, lons = columns[user]
                line_nos.append(line_no)
                times.append(time_ms)
                lats.append(lat)
                lons.append(lon)
    # Either error ends the read; the rows before it are still checked.
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        problems.append((reader.line_num, str(exc)))
    except UnicodeDecodeError:  # the reader decodes ahead in blocks: find the bad byte's line
        raw = path.read_bytes()  # a BOM is valid UTF-8, so offsets count from the file start
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            problems.append((raw.count(b"\n", 0, exc.start) + 1, str(exc)))
        else:
            raise
    traces = []
    for user, (line_nos, times, lats, lons) in sorted(columns.items()):
        lat, lon = np.array(lats), np.array(lons)
        problems += [(line_nos[i], message) for i, message in coordinate_problems(lat, lon)]
        if problems:  # the error below lists them; a Trace would reject them unnumbered
            continue
        time_ms = np.array(times, dtype=np.int64)
        order = np.argsort(time_ms, kind="stable")  # equal times keep file order
        traces.append(Trace(user, lat[order], lon[order], time_ms[order]))
    if problems:
        problems.sort()
        raise DatasetLoadError(f"{path}: {len(problems)} malformed row(s)", problems)
    return Dataset(traces)


def _atomic_write(path: Path, write_fn):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_dataset_csv(dataset: Dataset, path) -> Path:
    """Write traces (epoch-ms timestamps, ``repr`` coordinates); returns the path."""
    path = Path(path)

    def write(fh):
        csv.writer(fh).writerow(CSV_HEADER)
        for trace in dataset:
            cell = io.StringIO()  # the user is the one cell csv may have to quote
            csv.writer(cell).writerow([trace.user, ""])
            user = cell.getvalue()[:-2]  # the quoted user and its comma, less csv's "\r\n"
            rows = zip(trace.time_ms.tolist(), trace.lat.tolist(), trace.lon.tolist())
            while chunk := [f"{user}{t},{a!r},{b!r}\r\n" for t, a, b in itertools.islice(rows, _CHUNK_ROWS)]:
                fh.write("".join(chunk))

    _atomic_write(path, write)
    return path


def write_json(payload: dict, path) -> Path:
    path = Path(path)
    _atomic_write(path, lambda fh: json.dump(payload, fh, indent=2, sort_keys=True))
    return path


def write_rows_csv(rows, path) -> Path:
    """Report rows with one line per protected unit."""
    path = Path(path)

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["user", "day", "param_name", "param_value",
                         "pois", "distortion_m", "coverage", "cost"])
        for row in rows:
            names, values = row.config.as_row()
            writer.writerow([
                row.user,
                row.day.isoformat() if row.day is not None else "",
                names, values,
                repr(row.metrics["pois"]), repr(row.metrics["distortion"]),
                repr(row.metrics["coverage"]), repr(row.cost),
            ])

    _atomic_write(path, write)
    return path
