"""scripts/report_digest.py, on the bundled task files alone."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_the_bundled_files_covers_both_formats_and_repeats():
    script = load_script()
    tasks = script.bundled()
    assert len(tasks) == len(list((ROOT / "src" / "novikov" / "taskfiles").glob("*.json")))
    count, first = script.digest(tasks)
    assert count == 2 * len(tasks)
    assert len(first) == 64
    assert script.digest(tasks) == (count, first)
    # a different report is a different digest
    assert script.digest(tasks[1:])[1] != first


# Every report of the three benchmark pools at seeds 1, 104729 and 7 and of
# the bundled task files, in both formats.  A change meant to keep every
# report byte-identical must keep this digest.  The pools come from
# bench/workloads.py, so a benchmark change that edits it re-records the
# digest here, from a run of scripts/report_digest.py on the changed tree.
REPORT_DIGEST = (380, "aa03f20de5119107b10e65c7d944eb7b5350e8d253f9e8f440cf95683bf30ee8")


def test_every_report_is_byte_identical_to_the_recorded_digest():
    script = load_script()
    assert script.digest(script.bundled() + script.pools()) == REPORT_DIGEST
