"""Hash everything a fixed list of ``alp`` invocations writes.

Usage: ``python tests/cli_matrix.py --src DIR``

The script imports ``alp`` from DIR (a checkout's ``src``) and runs each
invocation in this process through ``alp.cli.main``: with ``ALP_SEED`` unset,
``COLUMNS`` at 80 (the width of ``--help``), in one fresh temporary directory
and with relative paths, so that the output compares across checkouts. It
captures stdout and stderr as UTF-8 bytes, shows each warning once per
invocation on stderr, as a fresh interpreter would, and takes the code of a
``SystemExit`` (``--help`` and usage errors) as the exit code. The first two
invocations synthesize the inputs: 2 users x 2 full days, and a ``--trip``
one. Invocations 31 and 32 synthesize one full day at 30 s and tune geo-i on
it; 33 and 34 score protected traces in which no POI is found, and 35
asks synth for more POIs than it can place. The last two synthesize a day with
more distinct raw points than the distortion scan takes, and tune geo-i on it,
so that distortion searches a kd-tree.

The first output line names the numpy version, because geo-i hashes depend
on its float kernels. For each invocation the script then prints a header
line with its arguments, and one line each for its exit code, its stdout,
its stderr and every file it created or changed, with the sha256 of the
bytes.

The output for this checkout is committed as ``tests/cli_matrix.golden``,
and ``tests/test_cli_matrix.py`` regenerates and compares it. A change that
moves bytes on purpose regenerates the file, from the repository root, with

    python tests/cli_matrix.py --src src > tests/cli_matrix.golden

so that its diff shows which invocations moved. To compare two checkouts,
run the script once for each ``src`` and diff the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from unittest import mock

import numpy

STATIC = {"geo-i": "epsilon=0.01", "promesse": "alpha=200"}
METRIC_FLAGS = ("--cell-size", "100", "--poi-diameter", "150", "--poi-stay-minutes", "10",
                "--match-threshold", "80", "--robust-k", "5")
SEARCH_FLAGS = ("--t0", "2", "--t-min", "0.01", "--cooling", "0.8", "--final-state",
                "--workers", "2", "--seed", "9")
OBJECTIVES = {"geo-i": "min:pois,min:distortion:scale=300,max:coverage",
              "promesse": "min:pois:scale=0.5,max:coverage"}


def invocations() -> list:
    """The argument lists, in run order; later ones read what synth writes."""
    runs = [
        ["synth", "--users", "2", "--days", "2", "--pois", "2", "--sample-period", "600",
         "--seed", "3", "--out", "days.csv", "--truth-out", "days_truth.json"],
        ["synth", "--users", "2", "--days", "2", "--pois", "2", "--trip",
         "--sample-period", "120", "--seed", "5", "--out", "trip.csv"],
    ]
    runs += [[command, "--help"] for command in ("synth", "evaluate", "protect", "optimize", "online")]
    for lppm, param in STATIC.items():
        for command in ("online", "optimize"):
            tuned = [command, "--input", "trip.csv", "--lppm", lppm, "--out-dir", "reports"]
            runs.append(tuned + ["--name", f"{command}-{lppm}"])
            runs.append(tuned + ["--name", f"{command}-{lppm}-flags", *METRIC_FLAGS,
                                 "--objectives", OBJECTIVES[lppm], *SEARCH_FLAGS])
        runs.append(["online", "--input", "days.csv", "--lppm", lppm, "--param", param,
                     "--out-dir", "reports", "--name", f"static-{lppm}"])
        runs.append(["evaluate", "--input", "days.csv", "--lppm", lppm, "--param", param])
        runs.append(["evaluate", "--input", "trip.csv", "--lppm", lppm, "--param", param,
                     *METRIC_FLAGS, "--seed", "9"])
        runs.append(["protect", "--input", "days.csv", "--lppm", lppm, "--param", param])
        runs.append(["protect", "--input", "trip.csv", "--lppm", lppm, "--param", param,
                     "--out", f"protected-{lppm}.csv"])
    runs += [
        # a cell size whose cell indices would overflow int64, without and with an input
        ["evaluate", "--input", "missing.csv", "--lppm", "geo-i", "--param", "epsilon=0.01",
         "--cell-size", "1e-13"],
        ["evaluate", "--input", "days.csv", "--lppm", "geo-i", "--param", "epsilon=0.01",
         "--cell-size", "1e-13"],
        # a unit that fails inside the run
        ["online", "--input", "trip.csv", "--lppm", "promesse", "--param", "alpha=1e-300",
         "--out-dir", "reports", "--name", "failing-unit"],
        ["evaluate", "--input", "trip.csv", "--lppm", "promesse", "--param", "alpha=1e-300"],
        ["protect", "--input", "trip.csv", "--lppm", "promesse", "--param", "alpha=1e-300",
         "--out", "failing-unit.csv"],
        # one geo-i daily batch at 30 s: dwell clusters, pruned noisy segments
        # and states the search visits more than once
        ["synth", "--users", "1", "--days", "1", "--pois", "3", "--seed", "1", "--out", "day.csv"],
        ["online", "--input", "day.csv", "--lppm", "geo-i", "--t-min", "0.01",
         "--out-dir", "reports", "--name", "daily-batch"],
        # no protected POIs: promesse suppresses every trace, so coverage scores
        # empty traces; geo-i at the largest noise leaves no stay
        ["evaluate", "--input", "trip.csv", "--lppm", "promesse", "--param", "alpha=100000"],
        ["evaluate", "--input", "days.csv", "--lppm", "geo-i", "--param", "epsilon=0.001"],
        # more POIs than the fixed square holds at the fixed separation
        ["synth", "--users", "1", "--pois", "60", "--seed", "5", "--out", "crowded.csv"],
        # a raw day with 43 distinct points: distortion searches a kd-tree
        ["synth", "--users", "1", "--days", "1", "--pois", "6", "--seed", "7", "--out", "wide.csv"],
        ["online", "--input", "wide.csv", "--lppm", "geo-i", "--t-min", "0.2",
         "--out-dir", "reports", "--name", "wide-raw"],
    ]
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): sha256(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


def _write_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run(cli, args: list) -> tuple:
    """Exit code, stdout bytes and stderr bytes of ``cli.main(args)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")  # resets the once-per-location registries
        warnings.showwarning = _write_warning
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:  # an escaped error, reported as the interpreter would
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def matrix(src: Path) -> str:
    """The script's output for the ``alp`` package in ``src``."""
    src = src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("alp.cli")
    if Path(cli.__file__).resolve().parent != src / "alp":
        raise RuntimeError(f"alp is already imported from {cli.__file__}, not from {src}")
    lines = [f"# numpy {numpy.__version__}"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop("ALP_SEED", None)
        os.chdir(tmp)
        try:
            root, before = Path(tmp), {}
            for number, cli_args in enumerate(invocations(), 1):
                code, stdout, stderr = run(cli, cli_args)
                after = snapshot(root)
                lines += [f"## {number:02d} alp {' '.join(cli_args)}",
                          f"{number:02d} exit {code}",
                          f"{number:02d} stdout {sha256(stdout)}",
                          f"{number:02d} stderr {sha256(stderr)}"]
                lines += [f"{number:02d} file {name} {digest}"
                          for name, digest in after.items() if before.get(name) != digest]
                before = after
        finally:
            os.chdir(cwd)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="the src directory to run")
    args = parser.parse_args(argv)
    sys.stdout.write(matrix(args.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
