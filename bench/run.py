"""Closed-loop batch-verification benchmark for novikov.

Run from the repository root:

    python3 bench/run.py --workload deep-chain --seed 1 --seconds 25 --trace 0

One caller in one process, no threads: each task file goes through
``novikov.cli.run(path, "json")`` (the entry point of ``novikov run``) only
after the previous one returned.  Set-up (import, input generation and one
warm-up pass) is repeated SETUP_REPS times; the timed loop then runs whole
passes over the task pool until ``--seconds`` have elapsed.  Every result's
exit code and report status are checked against the outcome the generator
fixed.  Reported times are scaled to a reference host speed (see
REFERENCE_CAL_S).  ``--trace 1`` follows the timed loop with one traced pass and
prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3

# Host speed.  On a shared host, other tenants' load switches the CPU
# between a fast and a slow state, about 1.75x apart, for a fraction of a
# second to minutes at a time, and a whole run can fall in either.  Before and after
# every timed call (and each set-up's import and generation) the runner
# times calibrate(), a fixed stdlib kernel of the same kind of work as the
# package's (Fraction products summed into a dict), and scales the call's
# time by REFERENCE_CAL_S / the mean of those two times: every reported
# time is the time the call would take on a host where calibrate() takes
# REFERENCE_CAL_S.  The unscaled figures are printed beside the metrics.
REFERENCE_CAL_S = 0.003
CAL_TERMS = 40

# Tasks whose constructed outcome the package does not reproduce.  They
# still count in `failed`; they do not make the run incorrect.  See README.
KNOWN_DEFECTS = {
    ("bv-models", "polyvector-k-2-axioms"):
        "polyvector_model_with_k omits the products t_i k . t_j x, so the "
        "model is not the BV algebra it describes",
}

PER_LAYER = [
    "series.init.calls", "series.init.self_ms",
    "series.mul.calls", "series.mul.self_ms", "series.mul.products",
    "series.mul.useful_ratio", "series.peak_terms",
    "series.invert.calls", "series.invert.self_ms",
    "series.add.self_ms", "series.d_q.self_ms",
    "useries.mul.calls", "useries.mul.self_ms", "useries.scale.self_ms",
    "ode.solve.calls", "ode.solve.self_ms", "ode.residual.self_ms",
    "quantum.table_mul.calls", "quantum.table_mul.self_ms",
    "quantum.check.self_ms",
    "bv.mul.calls", "bv.mul.self_ms", "bv.bracket.calls", "bv.bracket.self_ms",
    "bv.vec.self_ms", "bv.check.self_ms",
    "operad.compose.calls", "operad.compose.self_ms",
    "operad.compose.enumerated", "operad.compose.hit_ratio",
    "operad.glue.self_ms",
    "cli.run.self_ms", "cli.decode.self_ms", "cli.render.self_ms",
    "trace.overhead_ratio",
]


def fresh_cli():
    """Import novikov.cli from scratch, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "novikov" or n.startswith("novikov.")]:
        del sys.modules[name]
    return importlib.import_module("novikov.cli")


def write_pool(tasks, directory: Path) -> list[str]:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    paths = []
    for k, task in enumerate(tasks):
        path = directory / f"{k:02d}-{task.name}.json"
        path.write_text(task.text)
        paths.append(str(path))
    return paths


def calibrate() -> float:
    """Wall time of the fixed calibration kernel."""
    t0 = time.perf_counter()
    terms = [Fraction(i + 1, 2 * i + 3) for i in range(CAL_TERMS)]
    product: dict[int, Fraction] = {}
    for i, x in enumerate(terms):
        for j, y in enumerate(terms[:CAL_TERMS - i]):
            product[i + j] = product.get(i + j, 0) + x * y
    return time.perf_counter() - t0


def at_reference(seconds: float, cal_before: float, cal_after: float) -> float:
    """*seconds* scaled to a host where calibrate() takes REFERENCE_CAL_S."""
    return seconds * 2 * REFERENCE_CAL_S / (cal_before + cal_after)


def run_task(cli, path: str, task):
    """(seconds, exit code, text, outcome as constructed?) of one call."""
    t0 = time.perf_counter()
    try:
        code, text = cli.run(path, "json")
    except Exception as exc:  # a traceback is a wrong outcome, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", False
    seconds = time.perf_counter() - t0
    ok = code == task.code
    if ok and task.status is not None:
        ok = json.loads(text).get("status") == task.status
    return seconds, code, text, ok


class Run:
    """One workload on one seed: its pool, files and outcome bookkeeping."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.directory = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.pycache = WORK / f"pycache-{workload}-{seed}-{os.getpid()}"
        self.mismatched: set[str] = set()
        self.digests: set[str] = set()
        self.prepare_s: list[float] = []
        self.warm_up_s: list[list[float]] = []

    def setup(self):
        """Import, generate, write and warm up; the digest covers every
        report of the warm-up pass.  Records the scaled times."""
        cal = calibrate()
        t0 = time.perf_counter()
        self.cli = fresh_cli()
        self.tasks = workloads.build(self.workload, self.seed)
        self.paths = write_pool(self.tasks, self.directory)
        seconds = time.perf_counter() - t0
        self.prepare_s.append(at_reference(seconds, cal, calibrate()))
        digest = hashlib.sha256()
        warm_up = []
        for task, _, scaled, code, text, _ in self.calls():
            warm_up.append(scaled)
            digest.update(f"{task.name}\t{code}\n{text}\n".encode())
        self.warm_up_s.append(warm_up)
        self.digests.add(digest.hexdigest())

    def setup_seconds(self) -> float:
        """Scaled set-up time: the median import, generation and writing,
        plus each file's median warm-up call, over the SETUP_REPS set-ups.
        Every set-up imports afresh, so a cache or table the package fills
        on first use is paid again in each warm-up pass."""
        return (statistics.median(self.prepare_s)
                + sum(map(statistics.median, zip(*self.warm_up_s))))

    def calls(self, tracer: Tracer | None = None):
        """Run every task once, in pool order, yielding (task, seconds,
        scaled seconds, exit code, text, outcome as constructed?)."""
        cal = calibrate()
        for k, (task, path) in enumerate(zip(self.tasks, self.paths)):
            if tracer is not None:
                tracer.task_id = k
            seconds, code, text, ok = run_task(self.cli, path, task)
            after = calibrate()
            if not ok:
                self.mismatched.add(task.name)
            yield task, seconds, at_reference(seconds, cal, after), code, text, ok
            cal = after

    def timed_loop(self, seconds: float):
        """Whole passes until *seconds* have elapsed: (latencies, scaled
        latencies, failed, wall time of each pass)."""
        latencies: list[float] = []
        scaled: list[float] = []
        walls: list[float] = []
        failed = 0
        while sum(walls) < seconds:
            t0 = time.perf_counter()
            for _, took, took_scaled, _, _, ok in self.calls():
                latencies.append(took)
                scaled.append(took_scaled)
                failed += not ok
            walls.append(time.perf_counter() - t0)
        return latencies, scaled, failed, walls

    def traced_pass(self) -> tuple[Tracer, float, int]:
        """One pass with every layer wrapped: (tracer, seconds spent in
        the calls, failed)."""
        tracer = Tracer()
        tracer.install()
        seconds = failed = 0
        try:
            for _, took, _, _, _, ok in self.calls(tracer):
                seconds += took
                failed += not ok
        finally:
            tracer.uninstall()
        return tracer, seconds, failed

    def correct(self) -> bool:
        known = {name for wl, name in KNOWN_DEFECTS if wl == self.workload}
        return len(self.digests) == 1 and self.mismatched <= known

    def cleanup(self):
        shutil.rmtree(self.directory, ignore_errors=True)
        shutil.rmtree(self.pycache, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of *n* calls beyond
    its nearest rank (50 when there are too few calls for any)."""
    return max((p for p in range(50, 100) if n - math.ceil(n * p / 100) >= 10), default=50)


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    stats = tracer.layer_stats()
    counts = tracer.counts
    out = {}
    for layer, (calls, own) in stats.items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_ms"] = own * 1000
    products = counts["series.mul.products"]
    enumerated = counts["operad.compose.enumerated"]
    out.update({
        "series.mul.products": products,
        "series.mul.useful_ratio": counts["series.mul.useful"] / products if products else 0.0,
        "series.peak_terms": counts["series.peak_terms"],
        "operad.compose.enumerated": enumerated,
        "operad.compose.hit_ratio":
            counts["operad.compose.outputs"] / enumerated if enumerated else 0.0,
        "trace.overhead_ratio": overhead,
    })
    return out


UNITS = {"calls": "count", "self_ms": "ms", "products": "count",
         "enumerated": "count", "peak_terms": "count"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "novikov" / "cli.py").is_file():
        print(f"benchmark: no package source at {SRC / 'novikov'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    # Bytecode goes to a cache of the run's own, whatever the environment
    # says and whatever an earlier run left in src/: the first set-up
    # compiles the package and every later one loads it from that cache.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(run.pycache)
    try:
        for _ in range(SETUP_REPS):
            run.setup()
        latencies, scaled, failed, walls = run.timed_loop(args.seconds)
        n = len(run.tasks)
        pass_s = statistics.median(sum(latencies[i:i + n]) for i in range(0, len(latencies), n))
        attempted = len(latencies)
        if args.trace:
            tracer, traced_s, traced_failed = run.traced_pass()
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
            attempted += len(run.tasks)
            failed += traced_failed
    finally:
        run.cleanup()

    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 caller  "
          f"{len(run.tasks)} task files x {len(walls)} passes = {len(latencies)} timed tasks "
          f"in {sum(walls):.2f} s, median pass {pass_s:.3f} s in calls")
    print(f"report_digest sha256:{min(run.digests)}"
          + ("" if len(run.digests) == 1 else "  (reports differ between set-ups)"))
    for name in sorted(run.mismatched):
        reason = KNOWN_DEFECTS.get((args.workload, name), "unexpected outcome")
        print(f"mismatch {name}: {reason}")
    if args.trace:
        values = layer_metrics(tracer, traced_s / pass_s)
        metrics = {m: {"value": values[m], "unit": unit_of(m)} for m in PER_LAYER}
        print(f"traced pass {traced_s:.3f} s, {len(tracer.name)} spans")
    else:
        # Each file's typical call: the median of its scaled times over
        # the run's passes.
        typical = [statistics.median(scaled[k::n]) for k in range(n)]
        metrics = {
            "tasks_per_s": {"value": n / sum(typical), "unit": "1/s"},
            "task_p50_ms": {"value": statistics.median(typical) * 1000, "unit": "ms"},
            "task_tail_ms": {"value": max(typical) * 1000, "unit": "ms"},
            "setup_s": {"value": run.setup_seconds(), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        p = tail_percentile(len(latencies))
        tail = percentile(latencies, p)
        beyond = sum(1 for x in latencies if x > tail)
        host = statistics.median(x / y for x, y in zip(latencies, scaled))
        print(f"unscaled, all {len(latencies)} timed calls: p50 {statistics.median(latencies) * 1000:.6g} ms, "
              f"p{p} {tail * 1000:.6g} ms with {beyond} calls beyond it, "
              f"{n / pass_s:.6g} tasks/s at the median pass; "
              f"host at {host:.4g}x the reference time")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.correct(), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
