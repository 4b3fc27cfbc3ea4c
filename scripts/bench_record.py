"""Parent/change pairs of the benchmark, and the BENCH_*.json record built from them.

Run alternating pairs of ``bench/run.py`` on two checkouts (the parent
commit and the change), appending one JSON line per run:

    python3 scripts/bench_record.py pairs --parent DIR --change DIR \\
        --workload bv-models --seed 1 --pairs 10 --out runs.jsonl

Every run lasts SECONDS seconds on both sides.  A batch appended to a run
file numbers its pairs on from the pairs of that workload and seed already
in it; pair i runs the parent first when i is even and the change first
when it is odd.  Then summarize every (workload, seed) of the run files
into a record at the repository root:

    python3 scripts/bench_record.py record --out BENCH_7.json runs.jsonl ...

Per workload and seed the record holds the pair count, the parent and
change median and quartiles of every end-to-end metric of BENCHMARK.json,
the pairs the change wins and a verdict (:func:`verdict`), both sides'
``report_digest``, the Python version and the host factor (the median
ratio of unscaled to scaled call time, as ``bench/run.py`` prints it).
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SECONDS = 25
COMMAND = f"python3 bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0"


def run_once(tree: str, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "report_digest": re.search(r"report_digest (\S+)", proc.stdout).group(1),
            "host_factor": float(re.search(r"host at (\S+)x", proc.stdout).group(1))}


def read_runs(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def pairs(args) -> None:
    trees = {"parent": args.parent, "change": args.change}
    done = {r["pair"] for r in (read_runs(args.out) if Path(args.out).exists() else ())
            if (r["workload"], r["seed"]) == (args.workload, args.seed)}
    first = max(done, default=-1) + 1
    for i in range(first, first + args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            rec = run_once(trees[side], args.workload, args.seed)
            rec.update(workload=args.workload, seed=args.seed, pair=i, side=side,
                       python=platform.python_version())
            with open(args.out, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            shown = {k: round(m["value"], 4) for k, m in rec["result"]["metrics"].items()}
            print(side, i, shown, flush=True)


def spread(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(metric: dict, parent: dict, change: dict, wins: int, pairs: int) -> str:
    """``worse`` when the change median is worse than the parent median by
    more than the metric's relative ``bound``; ``gain`` when the change
    wins at least 9 of 10 pairs and its median is better by more than the
    parent's interquartile range; ``level`` otherwise."""
    better = change["median"] - parent["median"]
    if metric["better"] != "higher":
        better = -better
    if -better > metric["bound"] * abs(parent["median"]):
        return "worse"
    if 10 * wins >= 9 * pairs and better > parent["q3"] - parent["q1"]:
        return "gain"
    return "level"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The record of one workload and seed.  A pair is keyed by its run
    file and number; a side that appears twice in one pair is an error."""
    by_pair = {}
    for rec in runs:
        pair = by_pair.setdefault((rec["file"], rec["pair"]), {})
        if rec["side"] in pair:
            raise ValueError(f"{rec['file']}: pair {rec['pair']} of {rec['workload']} "
                             f"seed {rec['seed']} has two {rec['side']} runs")
        pair[rec["side"]] = rec
    complete = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    side_runs = {side: [p[side] for p in complete] for side in SIDES}
    first = complete[0]["parent"]
    out = {
        "workload": first["workload"],
        "seed": first["seed"],
        "pairs": len(complete),
        "python": sorted({r["python"] for r in runs}),
        "host_factor": {s: statistics.median(r["host_factor"] for r in side_runs[s])
                        for s in SIDES},
        "report_digest": {s: sorted({r["report_digest"] for r in side_runs[s]})
                          for s in SIDES},
        "correct": {s: all(r["result"]["correct"] for r in side_runs[s]) for s in SIDES},
        "failed": {s: sorted({r["result"]["failed"] / r["result"]["attempted"]
                              for r in side_runs[s]}) for s in SIDES},
        "metrics": {},
    }
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {s: [r["result"]["metrics"][name]["value"] for r in side_runs[s]]
                  for s in SIDES}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        out["metrics"][name] = {"unit": m["unit"], "better": m["better"],
                                "parent": parent, "change": change, "wins": wins,
                                "verdict": verdict(m, parent, change, wins, len(complete))}
    return out


def record(args) -> None:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    groups: dict = {}
    for path in args.runs:
        for rec in read_runs(path):
            rec["file"] = path
            groups.setdefault((rec["workload"], rec["seed"]), []).append(rec)
    doc = {"command": f"{COMMAND}, parent and change alternating within each pair",
           "runs": [summarize(groups[key], metrics) for key in sorted(groups)]}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", required=True)
    r = sub.add_parser("record")
    r.add_argument("--out", required=True)
    r.add_argument("runs", nargs="+")
    args = parser.parse_args(argv)
    (pairs if args.command == "pairs" else record)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
