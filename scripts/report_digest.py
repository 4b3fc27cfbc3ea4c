"""One digest over every report the benchmark pools and the bundled task files produce.

Each task file of the three benchmark pools at seeds 1, 104729 and 7, and
each bundled task file, runs through ``novikov.cli.run`` twice, for the
text and for the JSON report.  The script prints how many outputs it made
and one sha256 over all of them (task name, format, exit code and the
report's bytes, in a fixed order):

    python3 scripts/report_digest.py [--each]

Two trees whose reports are byte-identical print the same line, so a
change meant to keep every report is checked by running this script on the
parent and on the change.  With ``--each`` it first prints one line per
output, in the same order: task name, format, exit code and the sha256 of
the report.  Diffing those lines from two trees names the first report
that moved.  The pools come from ``bench/workloads.py``,
which is only imported; the task files are written to a temporary
directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

# import the pools without leaving bytecode beside them
_writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402
sys.dont_write_bytecode = _writes

from novikov import cli  # noqa: E402

SEEDS = (1, 104729, 7)
FORMATS = ("text", "json")


def bundled() -> list:
    """The bundled task files, by name."""
    return [workloads.Task(f"bundled-{p.stem}", p.read_text(), workloads.EXIT_OK)
            for p in sorted(workloads.TASKFILES.glob("*.json"))]


def pools() -> list:
    """Every task of every workload at every seed, named by both."""
    return [workloads.Task(f"{w}/{seed}/{k:02d}-{t.name}", t.text, t.code)
            for w in workloads.WORKLOADS for seed in SEEDS
            for k, t in enumerate(workloads.build(w, seed))]


def digest(tasks, each: list | None = None) -> tuple[int, str]:
    """(number of outputs, sha256 over them) of *tasks*, each run once per
    format from a file in a temporary directory.  Given a list *each*, one
    line per output is appended to it: task name, format, exit code and the
    sha256 of the report."""
    h, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "task.json"
        for task in tasks:
            path.write_text(task.text)
            for fmt in FORMATS:
                code, text = cli.run(str(path), fmt)
                h.update(f"{task.name}\t{fmt}\t{code}\n{text}\n".encode())
                count += 1
                if each is not None:
                    report = hashlib.sha256(text.encode()).hexdigest()
                    each.append(f"{task.name}\t{fmt}\t{code}\tsha256:{report}")
    return count, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true",
                        help="first print one line per output: task, format, "
                             "exit code and the sha256 of the report")
    args = parser.parse_args(argv)
    each = [] if args.each else None
    count, hexdigest = digest(bundled() + pools(), each)
    for line in each or ():
        print(line)
    print(f"{count} outputs sha256:{hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
