"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import exact  # noqa: E402
import workloads  # noqa: E402
from run import KNOWN_DEFECTS, PER_LAYER, Run, layer_metrics, unit_of  # noqa: E402

SEED = 1


def traced(workload: str, seed: int = SEED) -> dict:
    """Set up once and make one traced pass; keep only what the tests read."""
    run = Run(workload, seed)
    try:
        run.setup()
        tracer, _, _ = run.traced_pass()
    finally:
        run.cleanup()
    return {"digest": run.digests.pop(), "mismatched": run.mismatched,
            "metrics": layer_metrics(tracer, 1.0), "tasks": run.tasks}


@pytest.fixture(scope="module")
def twice():
    return {w: (traced(w), traced(w)) for w in workloads.WORKLOADS}


def test_outcomes_are_the_constructed_ones(twice):
    for workload, (first, _) in twice.items():
        known = {name for wl, name in KNOWN_DEFECTS if wl == workload}
        assert first["mismatched"] <= known, workload
        # every workload carries perturbed copies that must fail exactly
        assert any(t.code == workloads.EXIT_FAIL for t in first["tasks"]), workload


def test_report_digest_repeats_for_one_seed(twice):
    for workload, (first, second) in twice.items():
        assert first["digest"] == second["digest"], workload
        other = Run(workload, SEED + 1)
        try:
            other.setup()
        finally:
            other.cleanup()
        assert other.digests != {first["digest"]}, workload


def test_exact_counters_repeat_for_one_seed(twice):
    exact_counts = ("series.mul.products", "series.peak_terms",
                    "operad.compose.enumerated", "operad.compose.hit_ratio",
                    "series.mul.useful_ratio")
    for workload, (first, second) in twice.items():
        a, b = first["metrics"], second["metrics"]
        calls = [m for m in a if m.endswith(".calls")]
        assert calls
        for metric in calls + list(exact_counts):
            assert a[metric] == b[metric], (workload, metric)


def test_each_workload_bypasses_its_layers(twice):
    bv_models = twice["bv-models"][0]["metrics"]
    assert bv_models["series.invert.calls"] == 0
    assert bv_models["ode.solve.calls"] == 0
    deep_chain = twice["deep-chain"][0]["metrics"]
    assert all(v == 0 for m, v in deep_chain.items()
               if m.startswith("bv.") and m.endswith(".calls"))
    for workload, (first, _) in twice.items():
        used = first["metrics"]["operad.compose.calls"] > 0
        assert used == (workload == "task-mix"), workload


def test_tracer_restores_the_package():
    run = Run("task-mix", SEED)
    try:
        run.setup()
        series = sys.modules["novikov.series"].NovikovSeries
        before = (run.cli.run, run.cli.solve_second_order, series.__dict__["__radd__"],
                  series.__dict__["from_json"])
        run.traced_pass()
        after = (run.cli.run, run.cli.solve_second_order, series.__dict__["__radd__"],
                 series.__dict__["from_json"])
    finally:
        run.cleanup()
    assert before == after


def test_exact_arithmetic():
    assert exact.inverse([1, -1], 5) == [1] * 5
    # psi = 1, eta = 0, z2 = -1/4: rho'' + rho = 0, so rho = cos q
    rho = exact.solve_chain_ode([1], [], [Fraction(-1, 4)], 1, 0, 6)
    assert rho == [1, 0, Fraction(-1, 2), 0, Fraction(1, 24), 0]


def test_benchmark_json_declares_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m, unit_of(m)) for m in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "task-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
