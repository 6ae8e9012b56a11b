"""Hash everything a fixed list of ``alp`` invocations writes.

Usage: ``python tests/cli_matrix.py --src DIR``

Each invocation runs ``python -m alp.cli`` with DIR (a checkout's ``src``)
on ``PYTHONPATH``, ``ALP_SEED`` unset, in one fresh temporary directory and
with relative paths, so that stdout compares across checkouts. The first two
synthesize the inputs: 2 users x 2 full days, and a ``--trip`` one. For each
invocation the script prints a header line with its arguments, then one line
each for its exit code, its stdout, its stderr and every file it created or
changed, with the sha256 of the bytes. To check that a change keeps the
command line's output, diff the output for the parent's ``src`` against the
output for the change's. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
    ]
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): sha256(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="the src directory to run")
    args = parser.parse_args(argv)
    env = {k: v for k, v in os.environ.items() if k != "ALP_SEED"}
    env["PYTHONPATH"] = str(args.src.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        root, before = Path(tmp), {}
        for number, cli_args in enumerate(invocations(), 1):
            done = subprocess.run([sys.executable, "-m", "alp.cli", *cli_args], cwd=root, env=env,
                                  capture_output=True, check=False)
            after = snapshot(root)
            print(f"## {number:02d} alp {' '.join(cli_args)}")
            print(f"{number:02d} exit {done.returncode}")
            print(f"{number:02d} stdout {sha256(done.stdout)}")
            print(f"{number:02d} stderr {sha256(done.stderr)}")
            for name, digest in after.items():
                if before.get(name) != digest:
                    print(f"{number:02d} file {name} {digest}")
            before = after
    return 0


if __name__ == "__main__":
    sys.exit(main())
