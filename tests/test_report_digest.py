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


def test_each_adds_one_line_per_output_before_the_digest_line(monkeypatch, capsys):
    script = load_script()
    tasks = script.bundled()
    each = []
    count, first = script.digest(tasks, each)
    assert (count, first) == script.digest(tasks)
    assert len(each) == count
    fields = [line.split("\t") for line in each]
    assert [f[:2] for f in fields] == [[t.name, fmt] for t in tasks for fmt in script.FORMATS]
    assert all(f[2] in "01234" and f[3].startswith("sha256:") and len(f[3]) == 71
               for f in fields)
    # the same report in both formats is two different reports
    assert fields[0][3] != fields[1][3]
    # main prints those lines, then the digest line, which is unchanged
    monkeypatch.setattr(script, "pools", list)
    assert script.main(["--each"]) == 0
    assert capsys.readouterr().out.splitlines() == each + [f"{count} outputs sha256:{first}"]
    assert script.main([]) == 0
    assert capsys.readouterr().out == f"{count} outputs sha256:{first}\n"


# Every report of the three benchmark pools at seeds 1, 104729 and 7 and of
# the bundled task files, in both formats.  A change meant to keep every
# report byte-identical must keep this digest.  The pools come from
# bench/workloads.py, so a benchmark change that edits it re-records the
# digest here, from a run of scripts/report_digest.py on the changed tree.
REPORT_DIGEST = (382, "d056bc1334a6a26601a1c9a17554f5e7a0d635f8b050f42bd50bdda80aec2f08")


def test_every_report_is_byte_identical_to_the_recorded_digest():
    script = load_script()
    assert script.digest(script.bundled() + script.pools()) == REPORT_DIGEST
