"""Self-test of the benchmark at tiny input sizes.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "online-geoi": dict(synth=("--users", "1", "--days", "2", "--pois", "2", "--sample-period", "900"),
                        extra=("--t-min", "0.3")),
    "protect-geoi": dict(synth=("--users", "2", "--days", "1", "--pois", "2", "--sample-period", "60"),
                         extra=()),
}


def tiny(workload):
    shape = TINY[workload.name]
    return dataclasses.replace(workload, synth=shape["synth"],
                               command=workload.command + shape["extra"], setup_runs=1)


@pytest.mark.parametrize("workload", run.WORKLOADS, ids=lambda w: w.name)
def test_every_metric_is_emitted_with_its_unit(workload):
    small = tiny(workload)
    untraced = run.measure(small, seed=3, seconds=0)
    traced = run.measure_traced(small, seed=3)
    for res, table in ((untraced, run.END_TO_END), (traced, run.PER_LAYER)):
        assert res["correct"], res["problems"]
        assert res["attempted"] >= 1 and res["failed"] == 0
        line = json.loads(run.summary_line([res], prefix=False))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [spec[0] for spec in table]
        for name, unit, *_ in table:
            assert line["metrics"][name]["unit"] == unit
            assert isinstance(line["metrics"][name]["value"], (int, float))
    assert untraced["hashes"] == traced["hashes"], "tracing changed the outputs"
    for name in ("wall_s", "records_per_s", "cpu_s", "peak_rss_mb", "setup_s"):
        assert untraced["metrics"][name]["value"] > 0


def test_traced_counts_match_the_workload():
    res = run.measure_traced(tiny(run.WORKLOADS[0]), seed=3)
    layers = {name: fig["value"] for name, fig in res["metrics"].items()}
    assert layers["optimizer.anneal.calls"] == 2  # one per (user, day)
    assert layers["lppm.apply_per_cost"] > 6  # 2 objectives x median of 3, plus the final apply
    assert 0 < layers["optimizer.cost.distinct_frac"] <= 1
    assert layers["io.records_in"] == res["input"]["records"]


def test_manifest_matches_benchmark_json():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == run.manifest()


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "online-geoi",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
