"""Every BENCH_*.json at the repository root is a complete pair record, and
scripts/bench_record.py, which writes them, keeps every pair it runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = [m["name"] for m in END_TO_END]
BOUNDS = {m["name"]: m for m in END_TO_END}
SIDES = ("parent", "change")


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    doc = json.loads(path.read_text())
    assert doc["runs"]
    for run in doc["runs"]:
        where = f"{path.name} {run['workload']} seed {run['seed']}"
        assert isinstance(run["seed"], int), where
        assert run["pairs"] >= 1, where
        assert run["python"], where
        for side in SIDES:
            assert run["host_factor"][side] > 0, where
            assert run["correct"][side] is True, where
        digests = run["report_digest"]
        assert len(digests["parent"]) == 1, where
        assert digests["parent"] == digests["change"], where
        assert set(run["metrics"]) == set(METRICS), where
        for name, m in run["metrics"].items():
            for side in SIDES:
                q = m[side]
                assert q["q1"] <= q["median"] <= q["q3"], (where, name, side)
            assert 0 <= m["wins"] <= run["pairs"], (where, name)
            # records written before verdicts existed have none
            if "verdict" in m:
                assert m["verdict"] == bench_record.verdict(
                    BOUNDS[name], m["parent"], m["change"], m["wins"], run["pairs"]), (where, name)


# ---------------------------------------------------------------------------
# scripts/bench_record.py: pair numbering and the summary's pair keys
# ---------------------------------------------------------------------------


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _bench_record()


def fake_run(tree, workload, seed):
    value = 2.0 if tree == "change" else 1.0
    return {"result": {"correct": True, "failed": 0, "attempted": 10,
                       "metrics": {name: {"value": value} for name in METRICS}},
            "report_digest": "d", "host_factor": 1.0}


def batch(monkeypatch, out, n, workload="bv-models", seed=1):
    monkeypatch.setattr(bench_record, "run_once", fake_run)
    bench_record.main(["pairs", "--parent", "parent", "--change", "change",
                       "--workload", workload, "--seed", str(seed),
                       "--pairs", str(n), "--out", str(out)])


def test_a_second_batch_numbers_its_pairs_on(tmp_path, monkeypatch, capsys):
    runs = tmp_path / "runs.jsonl"
    batch(monkeypatch, runs, 3)
    batch(monkeypatch, runs, 2, seed=7)
    batch(monkeypatch, runs, 2)
    seed1 = [r for r in bench_record.read_runs(runs) if r["seed"] == 1]
    assert sorted({r["pair"] for r in seed1}) == [0, 1, 2, 3, 4]
    # pair 3 is odd: the change runs first
    assert [r["side"] for r in seed1 if r["pair"] == 3] == ["change", "parent"]
    out = tmp_path / "BENCH_x.json"
    bench_record.main(["record", "--out", str(out), str(runs)])
    record = {r["seed"]: r for r in json.loads(out.read_text())["runs"]}
    assert record[1]["pairs"] == 5 and record[7]["pairs"] == 2
    assert record[1]["metrics"]["tasks_per_s"]["wins"] == 5
    assert record[1]["metrics"]["setup_s"]["wins"] == 0


def test_batches_in_two_files_are_all_counted(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    batch(monkeypatch, first, 3)
    batch(monkeypatch, second, 2)
    out = tmp_path / "BENCH_x.json"
    bench_record.main(["record", "--out", str(out), str(first), str(second)])
    assert json.loads(out.read_text())["runs"][0]["pairs"] == 5


def test_a_side_run_twice_in_one_pair_is_an_error(tmp_path, monkeypatch, capsys):
    runs = tmp_path / "runs.jsonl"
    batch(monkeypatch, runs, 1)
    with open(runs, "a") as fh:
        fh.write(runs.read_text().splitlines()[0] + "\n")
    with pytest.raises(ValueError, match="pair 0 .* two parent runs"):
        bench_record.main(["record", "--out", str(tmp_path / "BENCH_x.json"), str(runs)])


def test_the_record_states_the_run_length(tmp_path, monkeypatch, capsys):
    runs = tmp_path / "runs.jsonl"
    batch(monkeypatch, runs, 1)
    out = tmp_path / "BENCH_x.json"
    bench_record.main(["record", "--out", str(out), str(runs)])
    assert f"--seconds {bench_record.SECONDS} " in json.loads(out.read_text())["command"]


# ---------------------------------------------------------------------------
# the verdict of each metric on synthetic runs
# ---------------------------------------------------------------------------


def verdicts(parent, change, name):
    """The summary's verdicts for pairs whose *name* values are *parent*
    and *change*, every other metric at 1.0 on both sides."""
    runs = []
    for i, values in enumerate(zip(parent, change)):
        for side, value in zip(SIDES, values):
            metrics = {m: {"value": value if m == name else 1.0} for m in METRICS}
            runs.append({"file": "runs.jsonl", "pair": i, "side": side,
                         "workload": "bv-models", "seed": 1, "python": "3",
                         "host_factor": 1.0, "report_digest": "d",
                         "result": {"correct": True, "failed": 0, "attempted": 10,
                                    "metrics": metrics}})
    summary = bench_record.summarize(runs, END_TO_END)["metrics"]
    return {m: v["verdict"] for m, v in summary.items()}


PARENT = [100, 98, 102, 101, 99, 100, 97, 103, 100, 100]  # q1 99.25, q3 100.75


@pytest.mark.parametrize("change, want", [
    ([v + 5 for v in PARENT], "gain"),
    # 9 of 10 wins are enough
    ([v + 5 for v in PARENT[:9]] + [90], "gain"),
    # 8 of 10 are not, however large the median gain
    ([v + 50 for v in PARENT[:8]] + [90, 90], "level"),
    # every pair won, but by less than the parent's IQR of 1.5
    ([v + 1 for v in PARENT], "level"),
    # 20% slower is within the bound of 0.25, 30% is not
    ([v * 0.8 for v in PARENT], "level"),
    ([v * 0.7 for v in PARENT], "worse"),
], ids=["gain", "nine-wins", "eight-wins", "within-iqr", "within-bound", "past-bound"])
def test_verdict_of_a_higher_is_better_metric(change, want):
    got = verdicts(PARENT, change, "tasks_per_s")
    assert got["tasks_per_s"] == want
    assert {v for m, v in got.items() if m != "tasks_per_s"} == {"level"}


@pytest.mark.parametrize("change, want", [
    ([v - 5 for v in PARENT], "gain"),
    ([v + 5 for v in PARENT], "level"),
    ([v * 1.11 for v in PARENT], "worse"),
], ids=["lower", "higher-within-bound", "past-bound"])
def test_verdict_of_a_lower_is_better_metric(change, want):
    # peak_rss_mb has a bound of 0.1
    assert verdicts(PARENT, change, "peak_rss_mb")["peak_rss_mb"] == want
