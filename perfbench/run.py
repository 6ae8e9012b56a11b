"""Benchmark the ``alp`` command-line tool on seeded synthetic workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online-geoi --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One invocation measures one workload. It synthesizes the workload's input
from the seed with ``alp synth`` (cached per (shape, seed) under
``.perfbench/``), times several fresh interpreters that import ``alp.cli``
and load that input (``setup_s``), then runs the real CLI from the
checkout's ``src/`` as a child process, one at a time, until ``--seconds``
have passed. Every run's outputs are checked and hashed; runs of one
invocation must write identical bytes. With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics (per-run metrics are
means over the runs, ``setup_s`` is the median of its set-ups);
with ``--trace 1`` one untraced and one traced run (see ``traced_cli.py``)
give the per-layer metrics instead. ``--workload all`` runs every workload
untraced and then traced, and rewrites ``BENCHMARK.json`` from the tables
below. A detailed JSON record of each invocation goes to
``.perfbench/results/``.

Exit codes: 0 when the measurement completed (the JSON line says whether
every run was correct), 1 when the benchmark itself could not run, 2 when
the checkout holds no ``src/alp`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REPORT = "report"
CHILD_TIMEOUT_S = 150.0
# No CLI run starts unless it is expected to end within this many seconds
# of the invocation's start, which keeps every invocation under 180 s.
BUDGET_S = 150.0


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


@dataclass(frozen=True)
class Workload:
    """A fixed input shape (``alp synth`` flags) and the ``alp`` command run on it."""

    name: str
    why: str
    synth: tuple
    command: tuple
    setup_runs: int = 5

    @property
    def online(self) -> bool:
        return self.command[0] == "online"

    @property
    def outputs(self) -> list:
        if self.online:
            return [f"{REPORT}.csv", f"{REPORT}.json", f"{REPORT}_protected.csv"]
        return [f"{REPORT}_protected.csv"]

    @property
    def epsilon(self) -> float | None:
        """The fixed geo-i epsilon of a static command, else None."""
        args = list(self.command)
        if "geo-i" in args and "--param" in args:
            name, value = args[args.index("--param") + 1].split("=")
            if name == "epsilon":
                return float(value)
        return None


WORKLOADS = (
    Workload(
        "online-geoi",
        "Tuned geo-i on 4 dwell-heavy full days: every layer runs; POI extraction, the "
        "distortion kd-tree and the noise sampler dominate, and the thread pool runs.",
        synth=("--users", "4", "--days", "1", "--pois", "3", "--sample-period", "240"),
        command=("online", "--lppm", "geo-i", "--workers", "2", "--t-min", "0.2"),
    ),
    Workload(
        "protect-geoi",
        "Static geo-i over 200k records: CSV parse and write plus the noise transform; "
        "bypasses metrics and optimizer, and shows memory.",
        synth=("--users", "10", "--days", "7", "--pois", "3", "--sample-period", "30"),
        command=("protect", "--lppm", "geo-i", "--param", "epsilon=0.01"),
    ),
)

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("records_per_s", "records/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    ("metrics.extract_pois.calls", "count", "lower"),
    ("metrics.extract_pois.s", "s", "lower"),
    ("metrics.extract_pois.records", "count", "lower"),
    ("metrics.pois.s", "s", "lower"),
    ("metrics.distortion.s", "s", "lower"),
    ("metrics.coverage.s", "s", "lower"),
    ("metrics.bind.calls", "count", "lower"),
    ("metrics.bind.s", "s", "lower"),
    ("lppm.apply.calls", "count", "lower"),
    ("lppm.apply.s", "s", "lower"),
    ("lppm.records_out", "count", "lower"),
    ("lppm.apply_per_cost", "ratio", "lower"),
    ("optimizer.anneal.calls", "count", "lower"),
    ("optimizer.anneal.s_p50", "s", "lower"),
    ("optimizer.anneal.s_max", "s", "lower"),
    ("optimizer.cost.calls", "count", "lower"),
    ("optimizer.cost.s", "s", "lower"),
    ("optimizer.cost.self_s", "s", "lower"),
    ("optimizer.cost.distinct_frac", "ratio", "higher"),
    ("optimizer.mean_cost", "cost", "lower"),
    ("io.load_dataset.s", "s", "lower"),
    ("io.write.s", "s", "lower"),
    ("io.records_in", "count", "lower"),
    ("io.bytes_out", "bytes", "lower"),
    ("geo.latlon_arrays.calls", "count", "lower"),
    ("geo.latlon_arrays.s", "s", "lower"),
    ("pipeline.split_daily_batches.s", "s", "lower"),
    ("io.self_s", "s", "lower"),
    ("geo.self_s", "s", "lower"),
    ("lppm.self_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("optimizer.self_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)

RUN_SECONDS = 45


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def run_child(argv: list, cwd: Path, log_path: Path) -> tuple:
    """Run a child to completion: (exit code, wall s, user+sys s, peak RSS MiB).

    Wall time runs from spawn to exit; CPU time and peak RSS come from
    ``wait4``, so they belong to this child alone.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def log_tail(path: Path, lines: int = 3) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def make_input(workload: Workload, seed: int) -> Path:
    """The workload's input CSV for this seed, synthesized once and cached."""
    key = "-".join(a.lstrip("-") for a in workload.synth)
    path = WORK / "inputs" / f"{key}-seed{seed}.csv"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        log = path.with_suffix(".log")
        code, *_ = run_child([sys.executable, "-m", "alp.cli", "synth", *workload.synth,
                              "--seed", str(seed), "--out", str(path)], path.parent, log)
        if code != 0 or not path.exists():
            raise BenchError(f"alp synth failed ({code}): {log_tail(log)}")
    return path


SETUP_CODE = "import sys, alp, alp.cli, alp.io; alp.io.load_dataset(sys.argv[1])"
IMPORT_CODE = "import alp, alp.cli; print(alp.__file__)"


def measure_setup(workload: Workload, input_path: Path) -> list:
    """Wall times of fresh interpreters importing alp.cli and loading the input.

    An untimed import first compiles bytecode and checks that ``alp`` comes
    from this checkout's ``src/``.
    """
    log = WORK / "setup.log"
    code, *_ = run_child([sys.executable, "-c", IMPORT_CODE], WORK, log)
    if code != 0 or log.read_text(encoding="utf-8").strip() != str(SRC / "alp" / "__init__.py"):
        raise BenchError(f"cannot import alp from {SRC} ({code}): {log_tail(log)}")
    times = []
    for _ in range(workload.setup_runs):
        code, wall, *_ = run_child([sys.executable, "-c", SETUP_CODE, str(input_path)], WORK, log)
        if code != 0:
            raise BenchError(f"setup failed ({code}): {log_tail(log)}")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# Runs and their checks
# ---------------------------------------------------------------------------

@dataclass
class Run:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    hashes: dict
    problems: list


@dataclass
class Session:
    """The runs of one invocation on one input, checked against each other."""

    workload: Workload
    seed: int
    input_path: Path
    raw: checks.TraceTable
    runs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    mean_cost: float = 0.0

    def cli_args(self, out_dir: Path) -> list:
        args = [*self.workload.command, "--input", str(self.input_path), "--seed", str(self.seed)]
        if self.workload.online:
            return args + ["--out-dir", str(out_dir), "--name", REPORT]
        return args + ["--out", str(out_dir / f"{REPORT}_protected.csv")]

    def run(self, stats_path: Path | None = None) -> Run:
        run_dir = WORK / "runs" / self.workload.name / ("traced" if stats_path else "plain")
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        if stats_path is None:
            argv = [sys.executable, "-m", "alp.cli", *self.cli_args(run_dir)]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(stats_path), "--",
                    *self.cli_args(run_dir)]
        code, wall, cpu, rss = run_child(argv, run_dir, run_dir / "cli.log")
        run = Run(code, wall, cpu, rss, {}, [])
        if code != 0:
            run.problems.append(f"exit code {code}: {log_tail(run_dir / 'cli.log')}")
        else:
            self.verify(run, run_dir)
        self.runs.append(run)
        return run

    def verify(self, run: Run, run_dir: Path):
        missing = [name for name in self.workload.outputs if not (run_dir / name).exists()]
        if missing:
            run.problems.append(f"missing outputs: {', '.join(missing)}")
            return
        run.hashes = {name: checks.sha256(run_dir / name) for name in self.workload.outputs}
        key = tuple(sorted(run.hashes.items()))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self.check_content(run_dir)
            except (ValueError, KeyError, IndexError) as exc:
                self.verdicts[key] = [f"unreadable output: {exc!r}"]
        run.problems.extend(self.verdicts[key])
        first = next(r.hashes for r in self.runs + [run] if r.hashes)
        if run.hashes != first:
            run.problems.append("output bytes differ from the first run of this set")

    def check_content(self, run_dir: Path) -> list:
        problems = []
        if self.workload.online:
            problems, self.mean_cost = checks.check_report(
                self.raw, run_dir / f"{REPORT}.csv", run_dir / f"{REPORT}.json")
        if "geo-i" in self.workload.command:
            protected = checks.read_trace_csv(run_dir / f"{REPORT}_protected.csv")
            problems += checks.check_geo_i_protected(self.raw, protected, self.workload.epsilon)
        return problems

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.problems)


def start_session(workload: Workload, seed: int) -> Session:
    input_path = make_input(workload, seed)
    return Session(workload, seed, input_path, checks.read_trace_csv(input_path))


def summarize(values: list, value=statistics.fmean) -> dict:
    """The reported ``value`` of a series, with its median and quartiles."""
    fig = {"value": value(values), "median": statistics.median(values), "n": len(values)}
    if len(values) > 1:
        fig["q1"], _, fig["q3"] = statistics.quantiles(values, n=4)
    return fig


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced: set-up times, then CLI runs until ``seconds`` have passed."""
    t0 = time.perf_counter()
    session = start_session(workload, seed)
    setup = measure_setup(workload, session.input_path)
    # Another run starts only if, taking as long as the last one, it ends
    # within ``seconds``; the first run always happens.
    start = time.perf_counter()
    while True:
        run = session.run()
        now = time.perf_counter()
        if now - start + run.wall_s > seconds or now - t0 + run.wall_s > BUDGET_S:
            break
    # The host's speed drifts in phases of tens of seconds, so per-run
    # figures are means over the runs, which follow that drift more smoothly
    # than the median of a few runs does.
    runs = session.runs
    series = {
        "wall_s": [r.wall_s for r in runs],
        "records_per_s": [len(session.raw) / r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setup,
    }
    figures = {name: summarize(v) for name, v in series.items() if name != "setup_s"}
    figures["setup_s"] = summarize(setup, statistics.median)
    return result(session, figures, END_TO_END, series=series)


def measure_traced(workload: Workload, seed: int) -> dict:
    """One untraced and one traced run; per-layer figures from the traced one."""
    session = start_session(workload, seed)
    plain = session.run()
    stats_path = WORK / "runs" / f"{workload.name}-layers.json"
    traced = session.run(stats_path)
    layers, spans = {}, {}
    if traced.code == 0:
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        layers, spans = stats["layers"], stats["spans"]
    layers["optimizer.mean_cost"] = session.mean_cost
    layers["trace_overhead_s"] = traced.wall_s - plain.wall_s
    figures = {name: summarize([value]) for name, value in layers.items()}
    return result(session, figures, PER_LAYER, spans=spans)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "src_lines": src_lines(),
    }


def result(session: Session, figures: dict, table: tuple, **extra) -> dict:
    attempted, failed = len(session.runs), session.failed
    return {
        "workload": session.workload.name,
        "why": session.workload.why,
        "seed": session.seed,
        "input": {"path": str(session.input_path.relative_to(ROOT)), "records": len(session.raw)},
        "machine": machine(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": sorted({p for r in session.runs for p in r.problems}),
        "hashes": session.runs[0].hashes,
        "mean_cost": session.mean_cost if session.workload.online else None,
        "metrics": {spec[0]: dict(figures.get(spec[0], summarize([0.0])), unit=spec[1])
                    for spec in table},
        **extra,
    }


def describe(res: dict) -> list:
    """Human-readable lines for one result."""
    m = res["machine"]
    lines = [
        f"workload {res['workload']} (seed {res['seed']}): {res['why']}",
        f"machine nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"scipy={m['scipy']}; src/ lines={m['src_lines']}",
        f"input {res['input']['path']} records={res['input']['records']}",
        f"runs attempted={res['attempted']} failed={res['failed']} "
        f"failed_frac={res['failed_frac']:.3f}",
    ]
    if res["mean_cost"] is not None:
        lines.append(f"mean_cost {res['mean_cost']!r} (report cost column)")
    for name, fig in res["metrics"].items():
        spread = f" median={fig['median']:.6g} q1={fig['q1']:.6g} q3={fig['q3']:.6g}" \
            if "q1" in fig else ""
        lines.append(f"{name} {fig['value']!r} {fig['unit']}{spread} n={fig['n']}")
    lines += [f"sha256 {name} {digest}" for name, digest in res["hashes"].items()]
    lines += [f"problem: {p}" for p in res["problems"]]
    return lines


def save(res: dict, trace: int):
    path = WORK / "results" / f"{res['workload']}-seed{res['seed']}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(res, indent=1, sort_keys=True), encoding="utf-8")


def summary_line(results: list, prefix: bool) -> str:
    metrics = {}
    for res in results:
        for name, fig in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": fig["value"], "unit": fig["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alp" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'alp'} is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    everything = args.workload == "all"
    plan = [(w, t) for w in WORKLOADS for t in (0, 1)] if everything else [
        (next(w for w in WORKLOADS if w.name == args.workload), args.trace)]
    results = []
    try:
        for workload, trace in plan:
            res = measure_traced(workload, args.seed) if trace else \
                measure(workload, args.seed, args.seconds)
            save(res, trace)
            print("\n".join(describe(res)), flush=True)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if everything:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n",
                                             encoding="utf-8")
    print(summary_line(results, prefix=everything))
    return 0


if __name__ == "__main__":
    sys.exit(main())
