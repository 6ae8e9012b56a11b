"""CSV/JSON input and output.

Input traces arrive as UTF-8 CSV with header ``user,timestamp,lat,lon``.
Timestamps are ISO-8601 (assumed UTC when naive) or integer epoch values,
read as seconds below 1e11 in magnitude and as milliseconds otherwise.

Two readers give one result. numpy's C reader (``np.loadtxt``) takes a
plain regular file: the exact header, ASCII bytes without quotes or
``\\x1c``-``\\x1f``, lines no longer than csv's field limit, integer epochs
and valid values. Where it cannot give exactly what the row loop gives, or
the input is a stream such as a pipe, the row loop (``csv.reader``,
:func:`parse_timestamp_ms`, ``float``) reads the input's bytes once, from
the start, and it alone numbers problems by line. Both give file-order
columns, which :meth:`Dataset.from_rows` groups by user.

All writes go to a temporary file first and are renamed into place, so
failed runs never leave partial output behind.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import tempfile
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import DatasetLoadError
from .geo import TIME_RANGE_MS, Dataset, coordinate_problems

CSV_HEADER = ["user", "timestamp", "lat", "lon"]
_CHUNK_ROWS = 4096  # rows of text formatted per write
_SECONDS_BELOW = 10**11  # epoch integers of a smaller magnitude count seconds
# One row as numpy's C reader parses it: each field straight into its column.
_ROW_DTYPE = np.dtype([("user", object), ("t", np.int64), ("lat", np.float64), ("lon", np.float64)])
_HEADER_LINES = tuple(",".join(CSV_HEADER).encode() + end for end in (b"\n", b"\r\n"))
# numpy's number parsers skip these bytes as white space, and float() does not.
_INFORMATION_SEPARATORS = tuple(bytes([b]) for b in range(0x1C, 0x20))


def _epoch_ms(value):
    """Milliseconds of an epoch integer (an ``int`` or an int64 array): above
    -1e11 and below 1e11 it counts seconds, otherwise milliseconds."""
    seconds = (value > -_SECONDS_BELOW) & (value < _SECONDS_BELOW)
    return value * (1 + 999 * seconds)


def _in_time_range(time_ms):
    """Whether epoch milliseconds (an ``int`` or an array) lie in ``TIME_RANGE_MS``."""
    return (time_ms >= TIME_RANGE_MS[0]) & (time_ms <= TIME_RANGE_MS[1])


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
        value = _epoch_ms(value)
    if not _in_time_range(value):
        raise ValueError(f"timestamp {text!r} out of range")
    return value


def load_dataset(path) -> Dataset:
    """Read a trace CSV into a :class:`Dataset`, each user's rows sorted by time.

    numpy's C reader reads the file when it gives exactly the row loop's
    result; otherwise the row loop reads it and numbers each problem by line.
    """
    path = Path(path)
    columns = _read_columns(path)
    return Dataset.from_rows(*(columns if columns is not None else _read_rows(path)))


def _read_columns(path: Path):
    """``(users, code, lat, lon, time_ms)`` by numpy's C reader, or None where
    it might not give the row loop's result: a stream (it can be read only
    once), a header that is not the plain one, bytes that numpy and ``float``
    read differently, a quote, a line that could be longer than csv's field
    limit, a row numpy cannot parse or warns on (none at all, for one), or a
    value the row loop rejects. Blank lines are skipped by both."""
    if not path.is_file():  # e.g. a pipe, which the row loop reads in one pass
        return None
    raw = path.read_bytes()
    header = next((h for h in _HEADER_LINES if raw.startswith(h)), None)
    if (header is None or not raw.isascii() or b'"' in raw
            or any(sep in raw for sep in _INFORMATION_SEPARATORS)):
        return None
    chars = np.frombuffer(raw, dtype=np.uint8)
    # csv ends a line at \n or \r, so cutting at \n alone can only overstate the longest.
    if np.diff(np.flatnonzero(chars == 10), prepend=-1, append=len(chars)).max() > csv.field_size_limit():
        return None
    del raw, chars  # before numpy builds the columns, for a lower peak of memory
    with path.open(newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        fh.readline()
        # A warning may mark a row the row loop rejects: numpy 1.23 to 1.26 only
        # warns when it reads an int64 field such as 1.5 or 1e3 through float.
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):  # e.g. an ISO timestamp, a wrong field count or no rows
            return None
    time_ms = _epoch_ms(rows["t"])
    if not _in_time_range(time_ms).all() or coordinate_problems(rows["lat"], rows["lon"]):
        return None
    users, code = _user_codes(rows["user"])
    if "" in users:
        return None
    return users, code, rows["lat"], rows["lon"], time_ms


def _read_rows(path: Path):
    """``(users, code, lat, lon, time_ms)`` by ``csv.reader``, row by row, from
    the input's bytes read once; every problem found raises one
    :class:`DatasetLoadError` that lists them by line."""
    problems = []
    line_nos, users, times, lats, lons = [], [], [], [], []
    raw = path.read_bytes()  # once, for a pipe can be read only once
    try:
        # Decoded in the 8 KiB blocks that reading the file as text uses, so a
        # bad byte ends the read after the same rows.
        with io.TextIOWrapper(io.BytesIO(raw), newline="", encoding="utf-8-sig") as fh:
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
                line_nos.append(line_no)
                users.append(user)
                times.append(time_ms)
                lats.append(lat)
                lons.append(lon)
    # Either error ends the read; the rows before it are still checked.
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        problems.append((reader.line_num, str(exc)))
    except UnicodeDecodeError:  # the reader decodes ahead in blocks: find the bad byte's line
        try:
            raw.decode("utf-8")  # a BOM is valid UTF-8, so offsets count from the input's start
        except UnicodeDecodeError as exc:
            problems.append((raw.count(b"\n", 0, exc.start) + 1, str(exc)))
    lat, lon = np.array(lats, dtype=np.float64), np.array(lons, dtype=np.float64)
    problems += [(line_nos[i], message) for i, message in coordinate_problems(lat, lon)]
    if problems:
        problems.sort()
        raise DatasetLoadError(f"{path}: {len(problems)} malformed row(s)", problems)
    return (*_user_codes(users), lat, lon, np.array(times, dtype=np.int64))


def _user_codes(ids):
    """The distinct user ids of file-order rows, stripped of white space, in
    order of first row, and each row's index into them."""
    ids = np.asarray(ids, dtype=object)
    first = np.ones(len(ids), dtype=bool)  # the first row of each run of one id
    first[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(first)
    codes: dict = {}
    run_codes = [codes.setdefault(user.strip(), len(codes)) for user in ids[starts].tolist()]
    return list(codes), np.repeat(np.array(run_codes, dtype=np.intp), np.diff(starts, append=len(ids)))


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
    """Report rows with one line per protected unit; a unit's parameter names
    and their ``repr`` values are each ``;``-joined, in name order."""
    path = Path(path)

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["user", "day", "param_name", "param_value",
                         "pois", "distortion_m", "coverage", "cost"])
        for row in rows:
            params = sorted(row.config.assignment.items())
            writer.writerow([
                row.user,
                row.day.isoformat() if row.day is not None else "",
                ";".join(k for k, _ in params), ";".join(repr(v) for _, v in params),
                repr(row.metrics["pois"]), repr(row.metrics["distortion"]),
                repr(row.metrics["coverage"]), repr(row.cost),
            ])

    _atomic_write(path, write)
    return path
