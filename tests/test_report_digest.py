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
