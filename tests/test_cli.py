"""CLI dispatch, exit-code taxonomy, and report determinism."""

import hashlib
import json
import shutil
import subprocess
import sys
from importlib import resources

import pytest

from novikov import cli

TASKS = ["riccati_chain.json", "gauss_manin.json", "mirror_suite.json",
         "divisor_relations.json", "bv_axioms.json", "class_equation.json",
         "operad_glue.json"]


def task_path(name: str) -> str:
    return str(resources.files("novikov").joinpath("taskfiles", name))


@pytest.mark.parametrize("name", TASKS)
def test_bundled_tasks_pass(name):
    code, text = cli.run(task_path(name), output="json")
    assert code == 0, text
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert doc["status"] == "pass"
    assert doc["checks"]


# sha256 of each bundled report, pinned so that a refactor which claims to
# change no behaviour can show it changes no byte of any bundled report
GOLDEN = {
    ("riccati_chain.json", "json"): "7cf86b8fcc2f53c169cafd6cd91ffe9a5f9c712c301d0175921d09602bb14f51",
    ("riccati_chain.json", "text"): "bb9f805a9c6d0eac157e809cf8d789e91a0f72be7105de9386ab8b24df5f8da5",
    ("gauss_manin.json", "json"): "104ae0191ee5ad09646c8198d2a69f1870e233c7fd69614f80bf5157ffd1dc2a",
    ("gauss_manin.json", "text"): "980487d92ac1db447ad889c0e1f8361cf8b2ad636e381dda3464ed158b45a2a2",
    ("mirror_suite.json", "json"): "4fa3b42cf84c61d0c9e45b4be0ea04c99133afe37117b7ffbe1df18f2ff37baa",
    ("mirror_suite.json", "text"): "ab1dd0cb1184bf15b7fbbb10057ba7d054a4cea9df0e32a6d9ccae505b775107",
    ("divisor_relations.json", "json"): "a9947887ff6e687cd39dfa3ac4334e96e37b5906da9d3b91df326ee9231d7c9d",
    ("divisor_relations.json", "text"): "4a7176ab9af60972b4b06a71cbcefb2e55a4da049f96b563ede0a86634d74d90",
    ("bv_axioms.json", "json"): "698758b827af95bfa0cc9cddefb873a9d61fead08a0b8f331300699c2cbcf35d",
    ("bv_axioms.json", "text"): "3414cb63d2e9581a493039357d96858d3ab83afb3924277eb596e6adb3d69527",
    ("class_equation.json", "json"): "f8f16ca2bb62edf486dcdac74d65590265268329145b54951367287b46c5acd3",
    ("class_equation.json", "text"): "5b2b389fb7d6876a4e1f3807afa85c768f9048e3becb09ea9843ec7850dd8c7e",
    ("operad_glue.json", "json"): "091a4421246777f9f1954a1d20f42e34e343cb7a5cb558638d3f45ff4c6e6011",
    ("operad_glue.json", "text"): "c9af08e5b2408d5133d6cfc5046dc1288bee4c325888be20802407a5cfb6083b",
}


@pytest.mark.parametrize("name,output", sorted(GOLDEN))
def test_bundled_reports_match_golden_digest(name, output):
    code, text = cli.run(task_path(name), output=output)
    assert code == 0, text
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(name, output)]


def test_riccati_chain_reports_four_equations():
    code, text = cli.run(task_path("riccati_chain.json"), output="json")
    assert code == 0
    names = [c["name"] for c in json.loads(text)["checks"]]
    assert names == ["system-1", "system-2", "second-order", "riccati",
                     "projective"]


def test_gauss_manin_report_exposes_coefficients():
    code, text = cli.run(task_path("gauss_manin.json"), output="json")
    assert code == 0
    doc = json.loads(text)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert "s_eq" in by_name["gauss-manin-e"]["detail"]
    assert "ss_eq" in by_name["gauss-manin-s"]["detail"]


@pytest.mark.parametrize("name", TASKS)
def test_reports_are_deterministic(name):
    first = cli.run(task_path(name), output="json")
    second = cli.run(task_path(name), output="json")
    assert first == second


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "task": "ode",
        "problem": {"psi": {"terms": [{"exp": "1/0", "coeff": "1"}]},
                    "eta": {"terms": []}, "z2": {"terms": []}},
        "checks": [],
    }))
    code, text = cli.run(str(bad))
    assert code == cli.EXIT_PARSE
    assert "parse error" in text


_BV_BASIS = [{"name": "e", "degree": 0}]


@pytest.mark.parametrize("payload, message", [
    ({"task": "bv",
      "model": {"basis": _BV_BASIS,
                "product": [{"left": "e", "right": "e", "result": "1"}]},
      "checks": ["axioms"]}, "vector must be an object"),
    ({"task": "gw",
      "model": {"basis": [{"name": "M", "degree": 2}], "omega": [1]},
      "gw": {}, "checks": ["relations"]}, "vector must be an object"),
    ({"task": "bv", "model": {"basis": _BV_BASIS, "delta": [1]},
      "checks": ["axioms"]}, "vector map must be an object"),
    ({"task": "bv", "model": {"basis": _BV_BASIS, "elements": [1]},
      "checks": ["axioms"]}, "vector map must be an object"),
    ({"task": "gw",
      "model": {"basis": [{"name": "M", "degree": 2}], "restriction": [1]},
      "gw": {}, "checks": ["relations"]}, "vector map must be an object"),
    ([{"task": "bv"}], "task file must be an object"),
    ({"task": ["bv"]}, "unknown task"),
    ({"task": "gw",
      "model": {"basis": [{"name": "M", "degree": 2}], "qpieces": [1]},
      "gw": {}, "checks": ["relations"]}, "qpieces record must be an object"),
    ({"task": "gw", "model": {"basis": [{"name": "M", "degree": 2}]},
      "gw": [1], "checks": ["relations"]}, "gw block must be an object"),
    ({"task": "operad", "action": "glue", "first": [1], "slot": 1,
      "second": {"points": []}}, "disc configuration must be an object"),
], ids=["bv-product-result", "gw-omega", "bv-delta", "bv-elements",
        "gw-restriction", "top-level-array", "task-array", "gw-qpieces-record",
        "gw-block", "operad-config"])
def test_vector_field_not_an_object_is_parse_error(tmp_path, payload, message):
    bad = tmp_path / "vector.json"
    bad.write_text(json.dumps(payload))
    code, text = cli.run(str(bad))
    assert code == cli.EXIT_PARSE, text
    assert message in text


def test_unreadable_json_exit_code(tmp_path):
    bad = tmp_path / "garbled.json"
    bad.write_text("{not json")
    code, _ = cli.run(str(bad))
    assert code == cli.EXIT_PARSE


def test_task_mismatch_is_parse_error():
    code, text = cli.run(task_path("riccati_chain.json"), expect_task="bv")
    assert code == cli.EXIT_PARSE


def test_insufficient_precision_exit_code(tmp_path):
    task = tmp_path / "short.json"
    task.write_text(json.dumps({
        "task": "ode",
        "problem": {
            "psi": {"terms": [{"exp": "0", "coeff": "1"},
                              {"exp": "1", "coeff": "1"}], "trunc": "2"},
            "eta": {"terms": [], "trunc": "2"},
            "z2": {"terms": [], "trunc": "2"}},
        "checks": [{"type": "solve",
                    "seed": {"step": "1", "base": "0", "coeffs": ["1", "0"]},
                    "order": "8"}],
    }))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PRECISION, text


def test_domain_error_exit_code(tmp_path):
    task = tmp_path / "resonant.json"
    task.write_text(json.dumps({
        "task": "ode",
        "problem": {
            "psi": {"terms": [{"exp": "1", "coeff": "1"}], "trunc": "inf"},
            "eta": {"terms": [], "trunc": "inf"},
            "z2": {"terms": [], "trunc": "inf"}},
        "order": "6",
        "checks": [{"type": "solve",
                    "seed": {"step": "1", "base": "0", "coeffs": ["1", "0"]},
                    "order": "6"}],
    }))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_DOMAIN
    assert "ResonantExponent" in text


def test_check_failure_exit_code(tmp_path):
    task = tmp_path / "wrong.json"
    task.write_text(json.dumps({
        "task": "ode",
        "problem": {
            "psi": {"terms": [{"exp": "0", "coeff": "1"}], "trunc": "inf"},
            "eta": {"terms": [], "trunc": "inf"},
            "z2": {"terms": [], "trunc": "inf"}},
        "order": "6",
        "checks": [{"type": "second-order",
                    "rho": {"terms": [{"exp": "2", "coeff": "1"}],
                            "trunc": "inf"}}],
    }))
    code, text = cli.run(str(task), output="json")
    assert code == cli.EXIT_CHECK_FAILED
    assert json.loads(text)["status"] == "fail"


def test_text_output_format():
    code, text = cli.run(task_path("riccati_chain.json"), output="text")
    assert code == 0
    assert text.splitlines()[0].startswith("PASS system-1")
    assert text.splitlines()[-1].startswith("OK: 5/5")


def test_main_entry_point(capsys):
    code = cli.main(["ode", task_path("riccati_chain.json"), "--output", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


@pytest.mark.parametrize("name", TASKS)
def test_reports_are_deterministic_across_processes(name):
    # rendered details are sorted everywhere, so hash randomization must
    # not leak into the byte stream
    outs = set()
    for seed in ("1", "99"):
        proc = subprocess.run(
            [sys.executable, "-m", "novikov.cli", "run", task_path(name),
             "--output", "json"],
            capture_output=True, text=True,
            env={**__import__("os").environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_report_lists_each_check_exactly_once():
    for name in TASKS:
        code, text = cli.run(task_path(name), output="json")
        rows = [(c["name"], c["equation"]) for c in json.loads(text)["checks"]]
        assert len(rows) == len(set(rows)), f"duplicated rows in {name}"


def test_bv_flags_select_checks(capsys):
    code = cli.main(["bv", task_path("bv_axioms.json"), "--axioms",
                     "--output", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    names = {c["name"] for c in doc["checks"]}
    assert "jacobi" in names
    assert "nabla-product" not in names  # leibniz was not requested


def test_console_script_smoke():
    exe = shutil.which("novikov")
    if exe:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "novikov.cli"]
    out = subprocess.run(cmd + ["run", task_path("operad_glue.json")],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "PASS glue" in out.stdout
