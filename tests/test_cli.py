"""CLI dispatch, exit-code taxonomy, and report determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from novikov import bv as bvmod
from novikov import cli
from novikov.graded import MAX_BASIS
from novikov.series import MAX_SERIES_TERMS

TASKS = ["riccati_chain.json", "gauss_manin.json", "mirror_suite.json",
         "divisor_relations.json", "bv_axioms.json", "class_equation.json",
         "operad_glue.json"]


def task_path(name: str) -> str:
    return str(resources.files("novikov").joinpath("taskfiles", name))


def child_env(**extra) -> dict:
    """The environment for a child interpreter that imports the same
    package as this one, installed or not."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra}


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


def _s(*terms, trunc="inf"):
    """A series literal from (exp, coeff) pairs."""
    return {"terms": [{"exp": e, "coeff": c} for e, c in terms], "trunc": trunc}


# psi = 1, eta = z2 = 0: the second-order form is d_q^2 rho = 0, solved by
# rho = 1 + q with sigma = -1, alpha = rho'/rho, lambda = -alpha, theta = q
_FLAT = {"psi": "1", "eta": "0", "z2": "0"}
_INV_1PQ = _s(*((str(k), str((-1) ** k)) for k in range(8)), trunc="8")
_NEG_INV_1PQ = _s(*((str(k), str((-1) ** (k + 1))) for k in range(8)), trunc="8")


def _ode(check):
    return {"task": "ode", "problem": _FLAT, "order": "8", "checks": [check]}


_GW_BASIS = [{"name": "e", "degree": 0}, {"name": "D", "degree": 2},
             {"name": "M", "degree": 2}]
_GW_Q1 = [{"left": "M", "right": "M", "k": 1, "result": {"D": _s(("2", "1"))}},
          {"left": "D", "right": "M", "k": 1, "result": {"D": _s(("2", "-1"))}}]
# a *0 piece that breaks the associativity instance for x = e
_GW_E0 = [{"left": "e", "right": "D", "k": 0, "result": {"D": "1"}}]
# a degree-4 class P, a *0 piece and a cup product that keep the
# associativity instance for z1 but break the u^0 level of the uueq rewrite
_GW_P = {"name": "P", "degree": 4}
_GW_Q0 = [{"left": "D", "right": "D", "k": 0, "result": {"P": "-1"}}]
_GW_CUP = [{"left": "D", "right": "M", "result": {"P": "1"}}]
# the same pieces before the grading rule: D *0 D and D.M on the degree-2 D
_GW_Q0_MISGRADED = [{"left": "D", "right": "D", "k": 0, "result": {"D": "1"}}]
_GW_CUP_MISGRADED = [{"left": "D", "right": "M", "result": {"D": "-1/2"}}]


def _gw(checks, gw, qpieces=_GW_Q1, cup=(), extra=()):
    return {"task": "gw",
            "model": {"basis": _GW_BASIS + list(extra), "unit": "e",
                      "qpieces": qpieces, "cup": list(cup)},
            "gw": gw, "checks": checks}


_Z1 = {"D": _s(("2", "1"))}
_Z2T = {"D": _s(("4", "-1/2"))}
# an odd x with Delta x = e, so Delta k != 0 for k = x
_BV_ODD = {"basis": [{"name": "e", "degree": 0}, {"name": "x", "degree": 1}],
           "product": [{"left": "e", "right": "e", "result": {"e": "1"}},
                       {"left": "e", "right": "x", "result": {"x": "1"}}],
           "delta": {"x": {"e": "1"}}, "elements": {"k": {"x": "1"}}}

# Inline tasks for the row shapes the bundled files leave unpinned, each in
# a passing and (where the identity can fail) a failing variant.  The
# solver is exact, so `solve` has no failing variant.  A misgraded variant
# is a model the grading rule refuses at decode (exit 2); on a graded z1
# the psi-eta round trip is an identity, so psi-eta has only that one.
ROW_SHAPES = {
    "chain-fail": _ode({"type": "chain", "rho": _s(("0", "1"), ("2", "1"))}),
    "system-pass": _ode({"type": "system", "rho": _s(("0", "1"), ("1", "1")),
                         "sigma": "-1"}),
    "system-fail": _ode({"type": "system", "rho": _s(("0", "1"), ("1", "1")),
                         "sigma": "1"}),
    "second-order-pass": _ode({"type": "second-order",
                               "rho": _s(("0", "1"), ("1", "1"))}),
    "second-order-fail": _ode({"type": "second-order",
                               "rho": _s(("0", "1"), ("2", "1"))}),
    "riccati-pass": _ode({"type": "riccati", "alpha": _INV_1PQ}),
    "riccati-fail": _ode({"type": "riccati", "alpha": "1"}),
    "projective-pass": _ode({"type": "projective", "lambda": _NEG_INV_1PQ}),
    "projective-fail": _ode({"type": "projective", "lambda": "1"}),
    "schwarzian-pass": _ode({"type": "schwarzian", "theta": _s(("1", "1"))}),
    "schwarzian-fail": _ode({"type": "schwarzian", "theta": _s(("2", "1"))}),
    "solve-pass": _ode({"type": "solve", "order": "6",
                        "seed": {"step": "1", "base": "0", "coeffs": ["1", "1"]}}),
    "mirror-fail": {"task": "mirror", "order": "6",
                    "a_cases": [{"p0": "1/2", "f": _s(("0", "1"), ("2", "1"))}],
                    "ode_cases": [{"f": _s(("0", "1"), ("2", "1")), "eta": "1"}]},
    "relations-fail": _gw(["relations"], {"z1": _Z1, "gamma": "3"}),
    "psi-eta-misgraded": _gw(["psi-eta"], {"z1": {**_Z1, "e": "1"}, "gamma": "3"}),
    "wdvv-pass": _gw(["wdvv"], {"z1": _Z1}),
    "wdvv-fail": _gw(["wdvv"], {"z1": _Z1}, qpieces=_GW_Q1 + _GW_E0),
    "wdvv-misgraded": _gw(["wdvv"], {"z1": _Z1}, qpieces=_GW_Q1 + _GW_Q0_MISGRADED),
    "relative-pass": _gw(["relative"], {"z1": _Z1, "z2tilde": _Z2T}),
    "relative-fail": _gw(["relative"], {"z1": _Z1, "z2tilde": {"D": "1"}}),
    "relative-no-z2tilde": _gw(["relative"], {"z1": _Z1}),
    "uueq-pass": _gw(["uueq"], {"z1": _Z1, "z2": {"e": "2"}, "z2tilde": _Z2T}),
    "uueq-fail": _gw(["uueq"], {"z1": _Z1, "z2tilde": _Z2T},
                     qpieces=_GW_Q1 + _GW_Q0, cup=_GW_CUP, extra=[_GW_P]),
    "uueq-misgraded": _gw(["uueq"], {"z1": _Z1, "z2tilde": _Z2T},
                          qpieces=_GW_Q1 + _GW_Q0_MISGRADED, cup=_GW_CUP_MISGRADED),
    "r-endomorphism-pass": {"task": "bv", "model": "polyvector-k", "n": 2,
                            "checks": ["r-endomorphism"]},
    "r-endomorphism-fail": {"task": "bv", "model": _BV_ODD,
                            "checks": ["r-endomorphism"]},
    # x.x = y breaks graded commutativity first at the last pair, [x,x]
    "axioms-fail": {"task": "bv", "checks": ["axioms"], "model": {
        **_BV_ODD, "basis": _BV_ODD["basis"] + [{"name": "y", "degree": 2}],
        "product": _BV_ODD["product"] + [
            {"left": "e", "right": "y", "result": {"y": "1"}},
            {"left": "x", "right": "x", "result": {"y": "1"}}]}},
    "axioms-misgraded": {"task": "bv", "checks": ["axioms"],
                         "model": {**_BV_ODD, "product": _BV_ODD["product"] + [
                             {"left": "x", "right": "x", "result": {"e": "1"}}]}},
    # float mode, which no bundled file reaches: an exact host whose slot
    # framing 1/12 is not a quarter turn, taking a float insert with a
    # marked point (its imaginary part prints as 0.06249999999999999) ...
    "glue-mixed-pass": {"task": "operad", "action": "glue", "slot": 2, "first": {
        "points": [{"re": "-1/2", "im": "0", "r": "1/4"},
                   {"re": "1/2", "im": "0", "r": "1/4"}], "framings": ["0", "1/12"]},
        "second": {"mode": "float", "points": [{"re": "0", "im": "0.5", "r": "0.25"}],
                   "z": {"re": "0.5", "im": "0"}}},
    # ... an all-float glue at non-quarter framings, the host's marked point kept ...
    "glue-float-pass": {"task": "operad", "action": "glue", "slot": 2, "first": {
        "mode": "float", "points": [{"re": "0.5", "im": "0", "r": "0.25"},
                                    {"re": "-0.5", "im": "0", "r": "0.25"}],
        "framings": ["1/3", "1/6"], "z": {"re": "0", "im": "0.5"}},
        "second": {"mode": "float", "points": [{"re": "0.5", "im": "0.25", "r": "0.25"},
                                               {"re": "-0.5", "im": "0", "r": "0.25"}],
                   "framings": ["1/8", "0"]}},
    # ... and tangent discs, which pass under the float tolerance only
    "validate-float-pass": {"task": "operad", "action": "validate", "config": {
        "mode": "float", "points": [{"re": "0.5", "im": "0", "r": "0.25"},
                                    {"re": "0", "im": "0", "r": "0.25"}]}},
    "validate-exact-fail": {"task": "operad", "action": "validate", "config": {
        "points": [{"re": "1/2", "im": "0", "r": "1/4"},
                   {"re": "0", "im": "0", "r": "1/4"}]}},
}

ROW_GOLDEN = {
    ("chain-fail", "json"): "9f0b654e3757e8e475e5ad531e1af5c1bac7878de66726422f7338074b6c2a42",
    ("chain-fail", "text"): "e7a7492801fe6326dfbfd50299b2e7ca50d1dcc2b59fa7adea3111f1d291568d",
    ("system-pass", "json"): "4d61cc8e34d8170e368d403d446ef30eb674cf3367ba2b3b079bf580afdd0dc7",
    ("system-pass", "text"): "b27970ac726ec1ec5ffa655ac3caf0fb062b98b418131a86920508ea456295ad",
    ("system-fail", "json"): "0dda7321485ededba21ce59dc3dda8e6ee37776eeabcef546fb9ae3bf0562da6",
    ("system-fail", "text"): "244f1bf95ac776f5b37a1a7696681c96a04611a814b6e5affd1f1958577f2d06",
    ("second-order-pass", "json"): "fa5fe1d302fc9e84260f573d63309ffff96ab08f2a045d473effe612efae5f92",
    ("second-order-pass", "text"): "dfcd877f853f25fb7461e8ffa5c9ba755bc8aa7a2ee5068bf78babebfcc7ace2",
    ("second-order-fail", "json"): "b413b9cd6e666f52b449bada24e894e8a9a5384c64b6e352b1bb0f7bf9ca890e",
    ("second-order-fail", "text"): "22b9d507dfc4946196ce6ae2ac6a0d9ee090d799edeefea75113db6fb08a965c",
    ("riccati-pass", "json"): "7c92ed90f7911fd154ca71a35b7069c0acd9f55f3fceb4e20f395bb08646185f",
    ("riccati-pass", "text"): "3900b3ce87cf9c0a1a0d6f95753027d4412db40ffce000f02827c81400546105",
    ("riccati-fail", "json"): "3fd335d3c0f9a01290c1bcee52a4a3586073853afba8585bae8488eb349c598c",
    ("riccati-fail", "text"): "b10ca95e252e82664da56781a824a55f869333a77469e7b8004e6a65067e5c85",
    ("projective-pass", "json"): "514b848f50ade89842d6bb2c01c3a7e6d0ce3266ce181f32c45ed4794a9e3c67",
    ("projective-pass", "text"): "c2c6bc4b831020d236aaa0f7a1556dbd4bf9cd6140a4657af0329eafc62a3649",
    ("projective-fail", "json"): "986c2bb0f0cb41e50af94632c99b9de7e6c4d7a4f956e2b7f30862851bb82980",
    ("projective-fail", "text"): "eccb8d99b86c029aedd0b56e2174040888983ece6ce2480c72bcab74ca4f35f0",
    ("schwarzian-pass", "json"): "31628854e661441ff369cb15eaab7a0b6c4d1567de0add8587797b7fe052d4c1",
    ("schwarzian-pass", "text"): "ab9c5661854a2f2fc7ab0de15d46305505ce1134c0d786515b99318e117ab104",
    ("schwarzian-fail", "json"): "6b2be7ce19c864f678ec2d917920e2363f30ad7c0cf5a94938d31273cd16430f",
    ("schwarzian-fail", "text"): "510d6d783c26c20022f07abbb3f22563e17104d0e76631729128d07242299ca9",
    ("solve-pass", "json"): "f54229fb20cd9e36e6220b11c810fd1310fcb4198de014049c47359eee11b690",
    ("solve-pass", "text"): "2ee6994c7e1452dc13d74aab436b2aa1199b85b83d174560fc53b77777fb065e",
    ("mirror-fail", "json"): "f26c463d68779bb2078eb9cc4d826bf2473a16a3acd5b1fae4800580566cc2b1",
    ("mirror-fail", "text"): "49c1d611f0632f54e08c49c1423671d1c72771561974f22cefbf54ed126c3f47",
    ("relations-fail", "json"): "c2510942047f8f931425d1095fab10d5dfd6d5cb912a7428c530bae1597c1394",
    ("relations-fail", "text"): "2ce4a40f0be1e4368850aa8370e81121eeb9c531580d0b8167fdb118252442f6",
    ("psi-eta-misgraded", "json"): "6abe904686db97dad333d197d59ff1f1d812993bd6f4b550ee6cbc6738b2f0e6",
    ("psi-eta-misgraded", "text"): "6abe904686db97dad333d197d59ff1f1d812993bd6f4b550ee6cbc6738b2f0e6",
    ("wdvv-pass", "json"): "0daba317d0485b6d7b9e126de51fe36fc048d22a370e96a97b2bd031b81d5bb6",
    ("wdvv-pass", "text"): "c7ec78a664c97200d95ae8ef93062704b844ce8bd3da4de0271fb47c6a046557",
    ("wdvv-fail", "json"): "06f48ba7f8532958676d0727daeb965bbc0f1a64e2d7d9098b5524c3b598cabc",
    ("wdvv-fail", "text"): "8367e951f58b718329be1300b1cae9ca3e7682e51afee5c53f548a6f612f2725",
    ("wdvv-misgraded", "json"): "e65fb4050f0405edb7f00558abf18d932c5eb731abc2be9d335ed39a845a7527",
    ("wdvv-misgraded", "text"): "e65fb4050f0405edb7f00558abf18d932c5eb731abc2be9d335ed39a845a7527",
    ("relative-pass", "json"): "956b8e5332cfd9f83926bd51ec65176d83de4a2353757426e5c2dbcb56e5e1a7",
    ("relative-pass", "text"): "439ddc065a9fb283304b95791e9c1dd2881d7dc1df9a91b924f882e587abaf5a",
    ("relative-fail", "json"): "6024ecfd409d9a4877aa4b9b940cdb38e3d9d4e6fa73bebd374e1ebf4d5b4efd",
    ("relative-fail", "text"): "68db57f000e06e862a1ba78a652904f8b493a40b0e4bb2ef9e06b89ecce0f486",
    ("relative-no-z2tilde", "json"): "02e3a36dd6d9354e31c0076d7ae1789ca65eebe1836f5ccaa704896ceed1977e",
    ("relative-no-z2tilde", "text"): "e9d74de4d72c971e4b3ca43af8dd08f3d7ee442bce1adfad1fab2a36b8f3b14e",
    ("uueq-pass", "json"): "98c0d60aff2833c75d457316e716021fea7ea68977b69436d376f0fc551fade5",
    ("uueq-pass", "text"): "7fd58828d7e7860e245b430c5ba5510805b5e0398cec5e4d389bce07a66f02e1",
    ("uueq-fail", "json"): "0be338b0becead6907cf9df1f91e9821f8fcae4cd31bd81ffce0a16adf9cf31c",
    ("uueq-fail", "text"): "7e34ef03c3b0039eb9c5360ef6588932acb0d249099d86d293f1aa56b0f926bb",
    ("uueq-misgraded", "json"): "d64fea07d98f78ba2adc5bb4fe8590a45fcaa49db361cad9dee931dcc3583ae0",
    ("uueq-misgraded", "text"): "d64fea07d98f78ba2adc5bb4fe8590a45fcaa49db361cad9dee931dcc3583ae0",
    ("r-endomorphism-pass", "json"): "4b3b56b79621950d387c71e1b3ee2794017467c7da1aa9507c2956d1fc15d26b",
    ("r-endomorphism-pass", "text"): "4acc6fb5f85874106dca547109b94edb0742c12c7441c40c1147a5aa11dc45c8",
    ("r-endomorphism-fail", "json"): "e2965c3747c1555b0c31cded539f3f9fcce3038b22b59a876c8e9d1dba49bb8d",
    ("r-endomorphism-fail", "text"): "32c5e86f20170fc7d5c1f3ea7a9a3c1a0ccd7fc5ec716e7a7cbeed32b8c23cd6",
    ("axioms-fail", "json"): "80652a0540f42119a9f51c735108bc5922b302aeb8fa3e24a520ff428ea0ea51",
    ("axioms-fail", "text"): "4161c50c98447d17eac1c68a56bccdfcad9389e03f045bae87832e66778df728",
    ("axioms-misgraded", "json"): "1654871b2f92ce3aa60364e42e023033ab54d9866c2cce8b920118d1c5620432",
    ("axioms-misgraded", "text"): "1654871b2f92ce3aa60364e42e023033ab54d9866c2cce8b920118d1c5620432",
    ("glue-mixed-pass", "json"): "8cc53ef1d2f24651f152d06b22244d6455d264ae79706c94c152ca77ccac3c36",
    ("glue-mixed-pass", "text"): "5cba60f8b8bf2d88b28ae534ce97fc3eaef615e1106260fd278072b6592d2039",
    ("glue-float-pass", "json"): "712c6d63c3fe0a9bb9839727612dd7f054dc0dc8bd4aee619fa64bd3a6646b6a",
    ("glue-float-pass", "text"): "c4e906b51c68ece820cec8f9a5d9fad1b4d29428dc3fafee92666d508c9f4e8f",
    ("validate-float-pass", "json"): "b5e837f2c1e3978d29760d7ca154832fb0cfb91ec787c8f8f3712624fe2b802d",
    ("validate-float-pass", "text"): "1fa35c75b263810b6178b6cc841c4037780ef195817b2944915105343216c2cb",
    ("validate-exact-fail", "json"): "15f8e646a1be7c903e1689c57ff52eec5deaa6e40313682d04d4ed41fef19801",
    ("validate-exact-fail", "text"): "8360e28a81f09e38e66b00226b3d5bc0687cecde98e32fa4c81a7c348b273d0b",
}


@pytest.mark.parametrize("shape,output", sorted(ROW_GOLDEN))
def test_row_shapes_match_golden_digest(tmp_path, shape, output):
    task = tmp_path / "task.json"
    task.write_text(json.dumps(ROW_SHAPES[shape]))
    code, text = cli.run(str(task), output=output)
    want = {"fail": cli.EXIT_CHECK_FAILED, "misgraded": cli.EXIT_PARSE}
    assert code == want.get(shape.rsplit("-", 1)[1], cli.EXIT_OK), text
    assert hashlib.sha256(text.encode()).hexdigest() == ROW_GOLDEN[(shape, output)]


_SOLVE = {"type": "solve", "order": "6",
          "seed": {"step": "1", "base": "0", "coeffs": ["1", "1"]}}
_OP = {"arity": 1, "degree": 0, "table": [{"inputs": [0], "output": {"0": "1"}}]}


def _seed(**field):
    return _ode({**_SOLVE, "seed": {**_SOLVE["seed"], **field}})


@pytest.mark.parametrize("payload, trunc", [
    (ROW_SHAPES["second-order-pass"], "x"),
    ({**ROW_SHAPES["second-order-pass"], "order": "x"}, None),
    ({**ROW_SHAPES["riccati-pass"], "order": 7.9}, None),
    (_ode({**_SOLVE, "order": "x"}), None),
    (_seed(step="1/0"), None),
    (_seed(base="x"), None),
    (_seed(coeffs=["1", 0.5]), None),
    ({"task": "mirror", "order": 7.9}, None),
    ({"task": "mirror", "a_cases": [{"p0": "q", "f": "1"}]}, None),
    ({"task": "operad", "action": "compose", "space": [0], "slot": 1, "phi1": _OP,
      "phi2": {**_OP, "table": [{"inputs": [0], "output": {"0": "1/x"}}]}}, None),
    (_gw(["relations"], {"z1": _Z1, "gamma": "q"}), None),
    (_gw(["relations"], {"z1": _Z1, "gamma": 0.1}), None),
], ids=["trunc", "order", "order-float", "solve-order", "seed-step", "seed-base",
        "seed-coeffs", "mirror-order-float", "p0", "operad-coefficient", "gamma",
        "gamma-float"])
def test_rational_literal_outside_a_series_is_parse_error(tmp_path, payload, trunc):
    task = tmp_path / "literal.json"
    task.write_text(json.dumps(payload))
    code, text = cli.run(str(task), trunc=trunc)
    assert code == cli.EXIT_PARSE, text


@pytest.mark.parametrize("coeffs", ["10", {"1": "0", "0": "1"}], ids=["string", "object"])
def test_seed_coeffs_must_be_a_list(tmp_path, coeffs):
    # a string or an object iterates as characters or keys, which read as
    # coefficients ("10" seeded c0 = 1, c1 = 0 and passed)
    task = tmp_path / "seed.json"
    task.write_text(json.dumps(_seed(coeffs=coeffs)))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PARSE, text
    assert "seed coeffs must be a list" in text


# an object of checks iterated as its keys: a bv object ran them and
# passed, an ode object failed on a key read as a check
@pytest.mark.parametrize("payload", [
    {"task": "bv", "model": "polyvector", "n": 2, "checks": {"axioms": True}},
    {**ROW_SHAPES["second-order-pass"], "checks": {"type": "second-order"}},
    {"task": "gw", "checks": {"gauss-manin": True}},
], ids=["bv", "ode", "gw"])
def test_checks_must_be_a_list(tmp_path, payload):
    task = tmp_path / "checks.json"
    task.write_text(json.dumps(payload))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PARSE, text
    assert "checks must be a list, got dict" in text


def _bundled(name, **fields):
    with open(task_path(name)) as fh:
        return {**json.load(fh), **fields}


def _class_equation(edit):
    payload = _bundled("class_equation.json")
    edit(payload["prob"]["psi"])
    return payload


# a JSON boolean is an int to Python, but no rational literal
@pytest.mark.parametrize("edit", [
    lambda psi: psi["terms"][1].update(coeff=True),
    lambda psi: psi.update(trunc=True),
    lambda psi: psi["terms"][0].update(exp=True),
], ids=["coeff", "trunc", "exp"])
def test_boolean_series_literal_is_parse_error(tmp_path, edit):
    task = tmp_path / "bool.json"
    task.write_text(json.dumps(_class_equation(edit)))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PARSE, text
    assert "not a rational literal: True" in text


# at a working order of 0 or below every residual is truncated at or below
# q^0: mirror_suite and class_equation passed every row there, and
# gauss_manin failed a row at a depth it never reached.  class_equation.json
# names no "order", so a psi truncated at q^0 sets a working order of 0.
@pytest.mark.parametrize("payload, trunc", [
    (_bundled("mirror_suite.json", order="0"), None),
    (_bundled("mirror_suite.json", order="-3"), None),
    (_bundled("class_equation.json", order="0"), None),
    (_bundled("gauss_manin.json", order="0"), None),
    (_bundled("riccati_chain.json"), "0"),
    (_class_equation(lambda psi: psi.update(trunc="0")), None),
], ids=["mirror-0", "mirror-minus-3", "class-equation-0", "gauss-manin-0", "trunc-0",
        "psi-trunc-0"])
def test_non_positive_working_order_is_parse_error(tmp_path, payload, trunc):
    task = tmp_path / "order.json"
    task.write_text(json.dumps(payload))
    code, text = cli.run(str(task), trunc=trunc)
    assert code == cli.EXIT_PARSE, text
    assert "is not positive" in text


def test_class_equation_suite_runs_once_per_task(monkeypatch):
    # both check names read their rows from one suite, so the desk model is
    # built once; second-order alone reports only its own row
    built = []
    real = bvmod.nilpotent_class_model
    monkeypatch.setattr(bvmod, "nilpotent_class_model",
                        lambda *args: built.append(args) or real(*args))
    both = _class_equation(lambda psi: None)
    assert both["checks"] == ["class-equation", "second-order"]
    names = [c.name for c in cli.run_bv(both).checks]
    assert len(built) == 1
    assert names == ["class-equation", "nonlinear-a", "nabla-c-s[c=-1]",
                     "nabla-c-s[c=0]", "nabla-c-s[c=1]", "second-order-e"]
    built.clear()
    alone = cli.run_bv({**both, "checks": ["second-order"]})
    assert len(built) == 1
    assert [c.name for c in alone.checks] == ["second-order-e"]


def test_gauge_pieces_are_built_once_per_task(monkeypatch):
    # delta-nabla and gauge share nabla^{-1}; gauge adds nabla~ and nabla~^{-1}
    built = []
    for name in ("nabla_c", "gauge_change"):
        real = getattr(bvmod, name)
        monkeypatch.setattr(bvmod, name, lambda *args, _name=name, _real=real:
                            built.append(_name) or _real(*args))
    with open(task_path("bv_axioms.json")) as fh:
        payload = json.load(fh)
    assert {"delta-nabla", "gauge"} <= set(payload["checks"])
    assert cli.run_bv(payload).passed
    assert sorted(built) == ["gauge_change", "nabla_c", "nabla_c"]


def _glue(slot):
    with open(task_path("operad_glue.json")) as fh:
        return {**json.load(fh), "slot": slot}


def _glue_first(**fields):
    payload = _glue(1)
    payload["first"] = {**payload["first"], **fields}
    return payload


def _tangent(**fields):
    # the tangent discs of ROW_SHAPES: a PASS in float mode, a FAIL in exact
    shape = ROW_SHAPES["validate-float-pass"]
    return {**shape, "config": {**shape["config"], **fields}}


@pytest.mark.parametrize("payload, message", [
    (_glue("0"), "slot 0 out of range 1..1"),
    (_glue(2), "slot 2 out of range 1..1"),
    ({"task": "operad", "action": "compose", "space": [0], "slot": 2,
      "phi1": {"arity": 1, "degree": 0, "table": []},
      "phi2": {"arity": 1, "degree": 0, "table": []}}, "slot 2 out of range 1..1"),
    (_glue_first(points={}), "points must be a list"),
    (_glue_first(framings=["1/4", "1/2"]), "one framing per disc: 2 framings for 1 discs"),
    (_glue_first(framings="1/4"), "framings must be a list"),
    # a JSON boolean is no coordinate, radius or framing, though Fraction
    # and float would read it as 1 or 0
    (_glue_first(framings=[True]), "not a number: True"),
    ({**_glue(1), "second": {**_glue(1)["second"], "points": [
        {"re": False, "im": "0", "r": "1/10"}, {"re": "-1/2", "im": "0", "r": "1/5"}]}},
     "not a number: False"),
    (_glue_first(points=[{"re": "1/2", "im": "0", "r": True}]), "not a number: True"),
    # a JSON float is no exact coordinate and no framing in either mode:
    # Fraction would read 0.1 as 3602879701896397/36028797018963968
    (_glue_first(points=[{"re": 0.1, "im": "0", "r": "1/4"}]),
     "expected a rational, got float"),
    (_glue_first(framings=[0.1]), "expected a rational, got float"),
    (_glue_first(mode="float", points=[{"re": 0.5, "im": 0, "r": 0.25}], framings=[0.1]),
     "expected a rational, got float"),
    # a mode other than "exact" or "float" read as float mode, where the
    # tangent discs pass; an identity flag read by bool() took "no" as true
    *[(_tangent(mode=mode), f"mode must be 'exact' or 'float', got {mode!r}")
      for mode in ("Exact", "exakt", 7, None)],
    *[(_tangent(identity=flag), f"identity must be a boolean, got {flag!r}")
      for flag in ("no", "false", 0.5, 1)],
], ids=["glue-slot-0", "glue-slot-2", "compose-slot-2", "points-object",
        "framing-count", "framings-string", "framing-true", "re-false", "r-true",
        "exact-re-float", "framing-float", "float-mode-framing-float",
        "mode-Exact", "mode-exakt", "mode-7", "mode-null",
        "identity-no", "identity-false-string", "identity-half", "identity-1"])
def test_malformed_operad_field_is_parse_error(tmp_path, payload, message):
    task = tmp_path / "operad.json"
    task.write_text(json.dumps(payload))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PARSE, text
    assert message in text


@pytest.mark.parametrize("payload, error", [
    ({**_glue(1), "first": {**_glue(1)["first"], "z": {"re": "1/2", "im": "1/2"}},
      "second": {**_glue(1)["second"], "z": {"re": "0", "im": "1/2"}}}, "ZConflict"),
    ({"task": "operad", "action": "sign", "phi1_degree": 1, "phi2_degree": 1,
      "slot": 3, "prefix": [0]}, "needs 2 prefix degrees"),
], ids=["two-marked-points", "sign-prefix"])
def test_operad_domain_errors_stay_domain_errors(tmp_path, payload, error):
    task = tmp_path / "operad.json"
    task.write_text(json.dumps(payload))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_DOMAIN, text
    assert error in text


def _sign(**field):
    return {"task": "operad", "action": "sign", "phi1_degree": 1,
            "phi2_degree": 1, "slot": 2, "prefix": [0], **field}


def _compose(space=0, slot=1, generator="0", **op):
    # a non-string generator key becomes "2.9" or "true" in the JSON text
    phi = {**_OP, "table": [{"inputs": [0], "output": {generator: "1"}}], **op}
    return {"task": "operad", "action": "compose", "space": [space],
            "slot": slot, "phi1": phi, "phi2": _OP}


# each integer field of a task file, as a task builder and a valid value
INTEGER_FIELDS = {
    "bv-n": (lambda v: {"task": "bv", "n": v, "checks": ["axioms"]}, 2),
    "bv-degree": (lambda v: {"task": "bv", "checks": ["axioms"], "model": {
        "basis": [{"name": "e", "degree": v}],
        "product": [{"left": "e", "right": "e", "result": {"e": "1"}}]}}, 0),
    "gw-degree": (lambda v: _gw(["relations"], {"z1": _Z1}) | {"model": {
        "basis": [*_GW_BASIS[:2], {"name": "M", "degree": v}], "unit": "e",
        "qpieces": _GW_Q1}}, 2),
    "gw-k": (lambda v: _gw(["relations"], {"z1": _Z1},
                           qpieces=[{**_GW_Q1[0], "k": v}, _GW_Q1[1]]), 1),
    "glue-slot": (_glue, 1),
    "sign-phi1-degree": (lambda v: _sign(phi1_degree=v), 1),
    "sign-phi2-degree": (lambda v: _sign(phi2_degree=v), 1),
    "sign-slot": (lambda v: _sign(slot=v), 2),
    "sign-prefix": (lambda v: _sign(prefix=[v]), 0),
    "compose-space": (lambda v: _compose(space=v), 0),
    "compose-slot": (lambda v: _compose(slot=v), 1),
    "compose-arity": (lambda v: _compose(arity=v), 1),
    "compose-degree": (lambda v: _compose(degree=v), 0),
    "compose-generator": (lambda v: _compose(generator=v), "0"),
    "compose-inputs": (lambda v: _compose(table=[{"inputs": [v],
                                                  "output": {"0": "1"}}]), 0),
}


# a decimal string past int()'s digit limit is a malformed literal too
@pytest.mark.parametrize("bad", ["x", 2.9, True, "9" * 5000],
                         ids=["string", "float", "bool", "too-long"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_literal_is_parse_error(tmp_path, field, bad):
    build, good = INTEGER_FIELDS[field]
    task = tmp_path / "integer.json"
    task.write_text(json.dumps(build(good)))
    code, text = cli.run(str(task))
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED), text
    task.write_text(json.dumps(build(bad)))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PARSE, text
    assert "not an integer literal" in text


_BV_E = {"basis": [{"name": "e", "degree": 0}],
         "product": [{"left": "e", "right": "e", "result": {"e": "1"}}]}


def _bv(model):
    return {"task": "bv", "model": model, "checks": ["axioms"]}


def _gw_with(model=(), gw=()):
    task = _gw(["relations"], {"z1": _Z1, **dict(gw)})
    task["model"].update(model)
    return task


@pytest.mark.parametrize("task", [
    _bv({**_BV_E, "product": [{"left": "e", "right": "e", "result": {"zz": "1"}}]}),
    _bv({**_BV_E, "product": [*_BV_E["product"],
                              {"left": "e", "right": "zz", "result": {}}]}),
    _bv({**_BV_E, "delta": {"e": {"zz": "1"}}}),
    _bv({**_BV_E, "delta": {"zz": {"e": "1"}}}),
    _bv({**_BV_E, "bracket": [{"left": "zz", "right": "e", "result": {}}]}),
    _bv({**_BV_E, "bracket": [{"left": "e", "right": "e", "result": {"zz": "0"}}]}),
    _bv({**_BV_E, "unit": "zz"}),
    _bv({**_BV_E, "elements": {"k": {"zz": "1"}}}),
    _bv({**_BV_E, "elements": {"a": {"zz": "1"}}}),
    {"task": "bv", "checks": ["gauge"], "alpha": {"zz": "1"}},
    _gw_with({"cup": [{"left": "zz", "right": "D", "result": {"D": "1"}}]}),
    _gw_with({"cup": [{"left": "D", "right": "D", "result": {"zz": "1"}}]}),
    _gw_with({"qpieces": [{"left": "zz", "right": "M", "k": 1, "result": {"D": "1"}}]}),
    _gw_with({"qpieces": [{"left": "M", "right": "M", "k": 1, "result": {"zz": "1"}}]}),
    _gw_with({"restriction": {"zz": {}}}),
    _gw_with({"restriction": {"D": {"zz": "1"}}}),
    _gw_with({"omega": {"zz": "1"}}),
    _gw_with({"twists": {"zz": "1"}}),
    *(_gw_with(gw={key: {"zz": "1"}}) for key in ("z0", "z1", "z2", "z2tilde")),
    _gw_with({"m_class": "zz"}),
    _gw_with({"unit": "zz"}),
], ids=["product-result", "product-key", "delta-result", "delta-key",
        "bracket-key", "bracket-result", "unit", "element", "element-a", "alpha",
        "cup-key", "cup-result", "qpieces-key", "qpieces-result",
        "restriction-key", "restriction-result", "omega", "twists",
        "gw-z0", "gw-z1", "gw-z2", "gw-z2tilde", "gw-m-class", "gw-unit"])
def test_undeclared_basis_name_is_parse_error(tmp_path, task):
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps(task))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_PARSE, text
    assert "undeclared class 'zz'" in text


def _divisor_relations() -> dict:
    return json.loads(resources.files("novikov").joinpath(
        "taskfiles/divisor_relations.json").read_text())


@pytest.mark.parametrize("field", ["m_class", "unit"])
def test_undeclared_gw_class_field_is_named(tmp_path, field):
    # the bundled divisor relations with the field pointing outside the basis
    task = _divisor_relations()
    task["model"][field] = "zz"
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps(task))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_PARSE, text
    assert f"{field} names undeclared class 'zz'" in text


def test_gw_model_with_declared_names_runs(tmp_path):
    # the base of the gw payloads above decodes and checks
    path = tmp_path / "declared.json"
    path.write_text(json.dumps(_gw_with()))
    code, text = cli.run(str(path))
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED), text


def _divisor_k0() -> dict:
    # every quantum piece at k = 0, so each row lands in degree 2, not 4
    task = _divisor_relations()
    for rec in task["model"]["qpieces"]:
        rec["k"] = 0
    return task


def _bv_axioms(**field) -> dict:
    return {**json.loads(resources.files("novikov").joinpath(
        "taskfiles/bv_axioms.json").read_text()), **field}


# each an ill-graded model or input and the entry its parse error must name
@pytest.mark.parametrize("task, entry", [
    ({"task": "bv", "checks": ["axioms"], "model": {
        "basis": [{"name": "e", "degree": 0}, {"name": "x", "degree": 2},
                  {"name": "y", "degree": 0}],
        "product": [{"left": "e", "right": n, "result": {n: "1"}} for n in "exy"],
        "delta": {"x": {"y": "1"}}}},
     "delta of 'x' has an entry on 'y' of degree 0, expected degree 1"),
    (_divisor_k0() | {"gw": _divisor_relations()["gw"] | {"z0": {"D": "1"}}},
     "qpieces row ('M', 'M') has an entry on 'D' of degree 2, expected degree 4"),
    (_divisor_relations() | {"gw": _divisor_relations()["gw"] | {"z0": {"D": "1"}}},
     "gw z0 has an entry on 'D' of degree 2, expected degree 4"),
    (_bv({**_BV_E, "bracket": [{"left": "e", "right": "e", "result": {"e": "1"}}]}),
     "bracket row ('e', 'e') has an entry on 'e' of degree 0, expected degree -1"),
    (_gw_with({"restriction": {"D": {"e": "1"}}}),
     "restriction of 'D' has an entry on 'e' of degree 0, expected degree 2"),
    (_gw_with(gw={"z2tilde": {"e": _s(trunc="3")}}),
     "gw z2tilde has an entry on 'e' of degree 0, expected degree 2"),
    (_bv_axioms(alpha={"t1": "1"}),
     "alpha has an entry on 't1' of degree 0, expected degree 1"),
    ({"task": "bv", "checks": ["delta-nabla"],
      "model": {**_BV_ODD, "elements": {"a": {"x": "1"}}}},
     "element 'a' has an entry on 'x' of degree 1, expected degree 0"),
    (_bv({**_BV_ODD, "elements": {"theta": {"e": "2"}}}),
     "element 'theta' has an entry on 'e' of degree 0, expected degree 1"),
    (_bv({**_BV_ODD, "elements": {"kappa": {"x": _s(trunc="3")}}}),
     "element 'kappa' has an entry on 'x' of degree 1, expected degree 0"),
], ids=["bv-delta-degree-minus-2", "divisor-k0", "divisor-z0", "bracket",
        "restriction", "z2tilde-truncated-zero", "gauge-alpha", "element-a-odd",
        "element-theta-even", "element-kappa-truncated-zero"])
def test_misgraded_entry_is_parse_error(tmp_path, task, entry):
    path = tmp_path / "misgraded.json"
    path.write_text(json.dumps(task))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_PARSE, text
    assert text == f"parse error: {entry}"


@pytest.mark.parametrize("result", [{"T": "1"}, {"zz": "1"}], ids=["graded", "undeclared"])
def test_negative_k_quantum_piece_is_parse_error(tmp_path, result):
    # |T| = 6 = |M| + |M| + 2, so the row itself passes the grading rule;
    # k is refused before the row is decoded
    task = _divisor_relations()
    task["model"]["basis"].append({"name": "T", "degree": 6})
    task["model"]["qpieces"].append({"left": "M", "right": "M", "k": -1, "result": result})
    path = tmp_path / "negative_k.json"
    path.write_text(json.dumps(task))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_PARSE, text
    assert text == ("parse error: qpieces row ('M', 'M') has k = -1: "
                    "quantum pieces with k < 0 are zero")


def _with_basis(task: dict, basis: list) -> dict:
    return {**task, "model": {**task["model"], "basis": basis}}


@pytest.mark.parametrize("task, name", [
    # passed all ten axiom rows with exit 0 when the later degree won
    (_with_basis(_bv({**_BV_E, "product": [
        *_BV_E["product"], {"left": "e", "right": "x", "result": {"x": "1"}}]}),
        [{"name": "e", "degree": 0}, {"name": "x", "degree": 1},
         {"name": "x", "degree": 2}]), "x"),
    (_with_basis(_divisor_relations(), [{"name": "D", "degree": 2},
                                        {"name": "M", "degree": 2},
                                        {"name": "D", "degree": 4}]), "D"),
], ids=["bv", "gw"])
def test_repeated_basis_name_is_parse_error(tmp_path, task, name):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(task))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_PARSE, text
    assert text == f"parse error: basis declares {name!r} twice"


def test_exact_zero_on_any_class_is_graded(tmp_path):
    # an exact zero is no entry at all, wherever it sits
    path = tmp_path / "zero.json"
    task = _gw(["relative"], {"z1": _Z1, "z2tilde": {**_Z2T, "e": _s()}})
    path.write_text(json.dumps(task))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_OK, text


def test_gw_order_is_the_psi_eta_working_order(tmp_path):
    # psi = q^-1/(q^2 + q^3) needs a working order: "order" gives it, as
    # --trunc does
    task = _divisor_relations()
    task["gw"]["z1"]["D"]["terms"].append({"exp": "3", "coeff": "1"})
    task["checks"] = ["psi-eta"]
    path = tmp_path / "psi-eta.json"
    path.write_text(json.dumps(task))
    assert cli.run(str(path))[0] == cli.EXIT_DOMAIN
    by_trunc = cli.run(str(path), trunc="6")
    path.write_text(json.dumps(task | {"order": "6"}))
    assert cli.run(str(path)) == by_trunc
    assert by_trunc[0] == cli.EXIT_OK, by_trunc[1]


def _row(inputs, output="0"):
    return {"inputs": inputs, "output": {output: "1"}}


# an operation table on the 2-generator space (degrees 0, 0): each case is
# phi1 at arity 1 and the field its parse error must name
@pytest.mark.parametrize("table, field", [
    ([_row([1, 1])], "inputs"),
    ([_row([])], "inputs"),
    ([{"inputs": 5, "output": {"0": "1"}}], "inputs"),
    ([_row([5])], "inputs"),
    ([_row([-1])], "inputs"),
    ([_row([0], output="2")], "output"),
    ([_row([1]), _row([1], output="0")], "inputs"),
    ([_row([1]), _row(["1"])], "inputs"),
    ([{"inputs": [0], "output": [1]}], "output"),
    ([[0]], "table"),
    (5, "table"),
], ids=["too-long", "empty", "not-a-list", "input-out-of-range",
        "input-negative", "output-out-of-range", "repeated", "repeated-as-string",
        "output-not-an-object", "record-not-an-object", "table-not-a-list"])
def test_malformed_operation_table_is_parse_error(tmp_path, table, field):
    phi = {"arity": 1, "degree": 0, "table": [_row([0])]}
    payload = {"task": "operad", "action": "compose", "space": [0, 0],
               "slot": 1, "phi1": phi, "phi2": phi}
    task = tmp_path / "compose.json"
    task.write_text(json.dumps(payload))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_OK, text
    task.write_text(json.dumps({**payload, "phi1": {**phi, "table": table}}))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PARSE, text
    assert f"phi1 {field}" in text


@pytest.mark.parametrize("payload, field", [
    (_sign(prefix=5), "prefix"),
    ({**_compose(), "space": 5}, "space"),
], ids=["prefix", "space"])
def test_non_list_space_or_prefix_names_the_field(tmp_path, payload, field):
    task = tmp_path / "operad.json"
    task.write_text(json.dumps(payload))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PARSE, text
    assert f"{field} must be a list, got int" in text


@pytest.mark.xfail(strict=True, reason="a residual truncated below the working "
                   "order still passes (ROADMAP item 2)")
def test_truncated_residual_does_not_pass_vacuously(tmp_path):
    task = tmp_path / "shallow.json"
    task.write_text(json.dumps(_ode({"type": "second-order",
                                     "rho": _s(("0", "5"), ("1", "7"), trunc="2")})))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PRECISION, text


@pytest.mark.xfail(strict=True, reason="a residual truncated below the working "
                   "order still passes (ROADMAP item 2)")
def test_truncated_mirror_residual_does_not_pass_vacuously(tmp_path):
    # f = 1 + O(h^1) and eta = 9 + O(h^1) leave a residual of O(h^-1):
    # nothing below the working order was checked
    task = tmp_path / "shallow-mirror.json"
    task.write_text(json.dumps({"task": "mirror", "order": "10", "ode_cases": [
        {"f": _s(("0", "1"), trunc="1"), "eta": _s(("0", "9"), trunc="1")}]}))
    code, text = cli.run(str(task))
    assert code == cli.EXIT_PRECISION, text


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
    ({"task": "operad", "action": "compose", "space": [0], "slot": 1,
      "phi1": [1], "phi2": _OP}, "operation 'phi1' must be an object"),
    # an object of terms was read as the exact zero series, so this passed
    (_ode({"type": "second-order", "rho": {"terms": {}}}), "series terms must be a list"),
    # a check whose input block is missing names what it needs
    ({"task": "gw", "checks": ["gauss-manin"]}, "check 'gauss-manin' needs a problem block"),
    ({"task": "gw", "gw": {}, "checks": ["wdvv"]}, "check 'wdvv' needs model and gw blocks"),
    ({"task": "bv", "checks": ["class-equation"]},
     "check 'class-equation' needs a problem block"),
], ids=["bv-product-result", "gw-omega", "bv-delta", "bv-elements",
        "gw-restriction", "top-level-array", "task-array", "gw-qpieces-record",
        "gw-block", "operad-config", "operad-operation", "series-terms-object",
        "gw-no-prob", "gw-no-model", "bv-no-prob"])
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
            env=child_env(PYTHONHASHSEED=seed))
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
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert "PASS glue" in out.stdout


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # every `novikov run` pays the package's import before its task, and
    # dataclasses, with the inspect it imports, and typing take several
    # milliseconds; -S keeps installed packages' start-up hooks out of it
    code = ("import sys, novikov.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# caps on the work a task file can ask for
# ---------------------------------------------------------------------------


_BV_ALL = ["axioms", "leibniz", "delta-nabla", "gauge"]


@pytest.mark.parametrize("task, trunc, cap", [
    (_ode({"type": "solve", "order": "100000",
           "seed": {"step": "1", "base": "0", "coeffs": ["1", "0"]}}), None,
     "MAX_SOLVE_TERMS"),
    (_ode({"type": "solve", "order": str(cli.MAX_SOLVE_TERMS // 2 + 1),
           "seed": {"step": "1/2", "base": "0", "coeffs": ["1", "0"]}}), None,
     "MAX_SOLVE_TERMS"),
    ({"task": "bv", "n": 10 ** 9, "checks": ["axioms"]}, None, "MAX_BV_N"),
    ({"task": "bv", "n": cli.MAX_BV_N + 1, "checks": ["axioms"]}, None, "MAX_BV_N"),
    # below n = 2 a model declares no basis name, or no s1 for the
    # class-equation suite, so its checks would pass vacuously
    ({"task": "bv", "model": "polyvector", "n": 0, "checks": _BV_ALL}, None, "MAX_BV_N"),
    ({"task": "bv", "model": "polyvector", "n": -2, "checks": _BV_ALL}, None, "MAX_BV_N"),
    ({"task": "bv", "model": "polyvector-k", "n": 0, "checks": _BV_ALL}, None, "MAX_BV_N"),
    ({"task": "bv", "model": "polyvector-k", "n": -2, "checks": _BV_ALL}, None, "MAX_BV_N"),
    ({"task": "bv", "n": 1, "order": "8", "prob": _FLAT, "checks": ["class-equation"]}, None,
     "MAX_BV_N"),
    ({"task": "mirror", "order": "1000000",
      "a_cases": [{"p0": "1/2", "f": _s(("0", "1"), ("2", "1"))}]}, None, "MAX_ORDER"),
    (_ode({"type": "second-order", "rho": _s(("0", "1"), ("1", "1"))}), "1000000",
     "MAX_ORDER"),
    ({"task": "ode", "problem": dict(_FLAT, psi=_s(("0", "1"), trunc=str(10 ** 6))),
      "checks": [{"type": "second-order", "rho": _s(("0", "1"), ("1", "1"))}]}, None,
     "MAX_ORDER"),
    ({"task": "bv", "n": 2, "order": "1000000", "prob": _FLAT,
      "checks": ["class-equation"]}, None, "MAX_ORDER"),
    ({"task": "gw", "order": "1000000", "prob": _FLAT, "checks": ["gauss-manin"]}, None,
     "MAX_ORDER"),
    (_gw(["psi-eta"], {"z1": _Z1, "gamma": "3"}) | {"order": "100000000"}, None,
     "MAX_ORDER"),
    (_with_basis(_bv(_BV_E), [{"name": f"b{i}", "degree": 0}
                              for i in range(MAX_BASIS + 1)]), None, "MAX_BASIS"),
    # entries that could not be read: the size is refused before any is
    (_with_basis(_divisor_relations(), [{}] * (MAX_BASIS + 1)), None, "MAX_BASIS"),
    ({"task": "mirror", "a_cases": [{"p0": "1/2", "f": _s(
        *((str(i), "1") for i in range(MAX_SERIES_TERMS + 1)))}]}, None, "MAX_SERIES_TERMS"),
    ({"task": "ode", "problem": dict(_FLAT, psi={"terms": [{}] * (MAX_SERIES_TERMS + 1)}),
      "checks": [{"type": "second-order", "rho": "1"}]}, None, "MAX_SERIES_TERMS"),
], ids=["solve-order-100000", "solve-half-step", "bv-n-huge", "bv-n-one-over",
        "bv-n-0", "bv-n-minus-2", "bv-k-n-0", "bv-k-n-minus-2", "bv-class-equation-n-1",
        "mirror-order-1000000", "trunc-1000000", "problem-truncated-at-1000000",
        "bv-class-equation-order-1000000", "gw-order-1000000", "psi-eta-order-100000000",
        "bv-basis-one-over", "gw-basis-one-over", "series-literal-one-over",
        "series-literal-unreadable-one-over"])
def test_oversized_request_is_refused_fast(tmp_path, monkeypatch, task, trunc, cap):
    # refused before any work: neither the solver, nor a model builder, nor
    # a residual or mirror kernel runs
    started = []
    for name in ("solve_second_order", "second_order_residual", "log_derivative",
                 "mirror_a"):
        monkeypatch.setattr(cli, name, lambda *a: started.append(a))
    for name in ("polyvector_model", "polyvector_model_with_k"):
        monkeypatch.setattr(cli.bvmod, name, lambda *a: started.append(a))
    for name in ("gauss_manin_check", "psi_eta_check", "divisor_relations_check"):
        monkeypatch.setattr(cli.qmod, name, lambda *a: started.append(a))
    monkeypatch.setattr(cli.bvmod, "check_bv_axioms", lambda *a: started.append(a))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(task))
    code, text = cli.run(str(path), trunc=trunc)
    assert code == cli.EXIT_PARSE, text
    assert cap in text
    assert started == []


@pytest.mark.parametrize("steps", [
    # two steps put more exponents below q^2 than any run could walk
    [f"1/{10 ** 2500 + 1}", f"1/{10 ** 2400 + 3}"],
    # 300 incommensurable steps: each finished exponent opens up to 299 new
    # pending sums, so the pending set, not the finished exponents, grows
    [f"1/{10 ** 6 + i}" for i in range(1, 301)],
], ids=["two-tiny-steps", "300-incommensurable-steps"])
def test_invert_walk_past_its_cap_is_a_domain_error(tmp_path, steps):
    # the walk stops at its cap, exit 4, within the subprocess timeout
    f = _s(("0", "1"), *((step, "1") for step in steps))
    path = tmp_path / "tiny-steps.json"
    path.write_text(json.dumps({"task": "mirror", "order": "2",
                                "a_cases": [{"p0": "1", "f": f}]}))
    out = subprocess.run([sys.executable, "-m", "novikov.cli", "run", str(path)],
                         capture_output=True, text=True, env=child_env(), timeout=30)
    assert out.returncode == cli.EXIT_DOMAIN, out.stderr
    assert out.stdout.startswith("NovikovError: the inverse needs more than "
                                 "MAX_INVERT_PRODUCTS")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter has no int -> str digit limit")
def test_residual_past_the_digit_limit_is_a_domain_error(tmp_path):
    # 4*z2*psi^2 has 6001 digits: rendering it is refused by name, exit 4
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "task": "ode", "problem": {"psi": "1" + "0" * 3000, "eta": "0", "z2": "1"},
        "checks": [{"type": "second-order", "rho": "1"}]}))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_DOMAIN, text
    assert text.startswith("NovikovError: cannot render a coefficient of")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter has no int -> str digit limit")
def test_composed_coefficient_past_the_digit_limit_is_a_domain_error(tmp_path):
    # two 3001-digit coefficients compose to one of 6001 digits, refused by
    # name like a series coefficient, exit 4
    op = {"arity": 1, "degree": 0,
          "table": [{"inputs": [0], "output": {"0": "1" + "0" * 3000}}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"task": "operad", "action": "compose", "space": [0],
                                "slot": 1, "phi1": op, "phi2": op}))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_DOMAIN, text
    assert text.startswith("NovikovError: cannot render a coefficient of 19932 bits")


def test_requests_at_the_caps_run(tmp_path):
    # the caps sit above the benchmark's and the planned large workload's
    # sizes (order 300, n = 16)
    assert cli.MAX_SOLVE_TERMS >= 2 * 300 and cli.MAX_BV_N >= 16
    assert cli.MAX_ORDER >= 600
    # an explicit model may be as large as the polyvector model at MAX_BV_N
    assert MAX_BASIS == 2 * cli.MAX_BV_N
    path = tmp_path / "at-cap.json"
    path.write_text(json.dumps(_ode({
        "type": "solve", "order": str(cli.MAX_SOLVE_TERMS),
        "seed": {"step": "1", "base": "0", "coeffs": ["1", "1"]}})))
    code, text = cli.run(str(path))
    assert code == cli.EXIT_OK, text
    # the working order cap is inclusive
    code, text = cli.run(task_path("riccati_chain.json"), trunc=str(cli.MAX_ORDER))
    assert code == cli.EXIT_OK, text
    # so is the least n, for every model and the class-equation suite
    for task in ({"task": "bv", "model": "polyvector", "n": 2, "checks": _BV_ALL},
                 {"task": "bv", "model": "polyvector-k", "n": 2, "checks": _BV_ALL},
                 {"task": "bv", "n": 2, "order": "8", "prob": _FLAT,
                  "checks": ["class-equation"]}):
        path.write_text(json.dumps(task))
        code, text = cli.run(str(path))
        assert code == cli.EXIT_OK, text


# ---------------------------------------------------------------------------
# mutated task files
# ---------------------------------------------------------------------------

# ill-typed, unreadable, oversized, tiny, negative and non-finite literals
FUZZ_VALUES = [[1], None, {}, "1/0", 10 ** 400, "-1/1000000", 1.5, True, "", "inf", 0, -2]


def _leaves(doc, path=()):
    """The path of each value in *doc* that is not a nonempty object or array."""
    if isinstance(doc, (dict, list)) and doc:
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _replaced(doc, path, value):
    if not path:
        return value
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return doc


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(TASKS), st.data(), st.sampled_from(FUZZ_VALUES))
def test_mutated_bundled_task_ends_with_an_exit_code(tmp_path, name, data, value):
    # one leaf of a bundled file replaced: a documented exit code, no
    # exception, and no run that takes long
    doc = json.loads(resources.files("novikov").joinpath("taskfiles", name).read_text())
    leaf = data.draw(st.sampled_from(list(_leaves(doc))))
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(_replaced(doc, leaf, value)))
    started = time.perf_counter()
    code, _ = cli.run(str(path))
    assert 0 <= code <= 4
    assert time.perf_counter() - started < 5
