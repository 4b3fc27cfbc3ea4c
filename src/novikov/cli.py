"""Batch front end: read a task file, dispatch, emit a verification report.

Exit codes: 0 all checks pass, 1 some check failed, 2 parse error,
3 insufficient precision, 4 other domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import bv as bvmod
from . import operad as opmod
from . import quantum as qmod
from .errors import (
    InsufficientPrecision,
    NovikovError,
    ParseError,
    require_list,
    require_object,
)
from .graded import homogeneous, vec_from_json
from .ode import (
    LatticeSeed,
    ODEProblem,
    log_derivative,
    mirror_a,
    mirror_a_residual,
    mirror_ode_residual,
    projective_residual,
    riccati_residual,
    schwarz_residual,
    second_order_residual,
    sigma_from_rho,
    solve_second_order,
    system_residual,
)
from .report import Report
from .series import INF, NovikovSeries, integer, rat

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_DOMAIN = 4

#: Most lattice terms, ``(order - base)/step``, that a ``solve`` check may
#: ask for.  The solver is quadratic in this count (about 0.2 s for 1000
#: terms of ``rho'' + rho = 0``); the bundled and benchmark files ask for
#: at most 60.
MAX_SOLVE_TERMS = 1000

#: Largest ``n`` a ``bv`` task may give.  ``polyvector`` models have 2n
#: basis names and the axioms check is at worst cubic in that (it visits
#: only the cases a nonzero row reaches).  A full ``polyvector`` task at
#: n = 24 (axioms, leibniz, delta-nabla and gauge) takes about 0.15 s on
#: Python 3.11, best of 12, nearly all of it the axioms check; the
#: bundled and benchmark files give at most 6.  The smallest ``n`` is 2:
#: below it a model declares no basis name (n <= 0), so its checks pass
#: vacuously, or no class ``s1`` for the class-equation suite (n = 1).
MAX_BV_N = 24

#: Highest working order a task may ask for: an ``"order"``, ``--trunc``,
#: or a problem series' truncation when ``"order"`` is absent.  Series
#: work grows with the order and coefficient sizes with it, so the cost is
#: steeper than quadratic: ``mirror_suite.json`` takes about 0.85 s at
#: order 600 and 2.7 s at 1000, and ran past 25 s at 3000.  The bundled
#: and benchmark files ask for at most 60.
MAX_ORDER = 1000


def _series(data) -> NovikovSeries:
    return NovikovSeries.from_json(data)


def _order(value) -> Fraction:
    """A working order, refused at or below 0 and above :data:`MAX_ORDER`
    before any work: at order 0 or below every residual is truncated at or
    below q^0, so a check could pass, or fail, without looking."""
    order = rat(value)
    if order <= 0:
        raise ParseError(f"working order {order} is not positive")
    if order > MAX_ORDER:
        raise ParseError(f"working order {order} is above MAX_ORDER = {MAX_ORDER}")
    return order


def _working_order(payload: dict, trunc, fallback, *series_list) -> Fraction | None:
    """*trunc* (``--trunc``, already read) if given, else ``"order"``, else
    the least finite truncation of *series_list*, else *fallback*."""
    if trunc is not None:
        return trunc
    if "order" in payload:
        return _order(payload["order"])
    finite = [s.truncation for s in series_list if s.truncation != INF]
    if finite:
        return _order(min(finite))
    return fallback


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------


def run_ode(payload: dict, trunc=None) -> Report:
    prob = ODEProblem.from_json(payload["problem"])
    order = _working_order(payload, trunc, Fraction(8), prob.psi, prob.eta, prob.z2)
    report = Report()
    for check in require_list(payload.get("checks", []), "checks"):
        kind = check["type"]
        if kind == "chain":
            rho = _series(check["rho"]).truncate(order)
            sigma = sigma_from_rho(rho, prob, order)
            r1, r2 = system_residual(rho, sigma, prob)
            report.residual("system-1", "d_q rho + psi*sigma = 0", r1)
            report.residual("system-2", "d_q sigma + 4*z2*psi*rho + eta*sigma = 0", r2)
            report.residual("second-order",
                            "d_q^2 rho + (eta - psi'/psi) d_q rho - 4*z2*psi^2*rho = 0",
                            second_order_residual(rho, prob, order))
            alpha = rho.invert(order) * rho.d_q()
            report.residual("riccati",
                            "d_q a + a^2 + (eta - psi'/psi)*a - 4*z2*psi^2 = 0",
                            riccati_residual(alpha, prob, order))
            lam = -(prob.psi.invert(order) * alpha)
            report.residual("projective", "d_q l - psi*l^2 + eta*l + 4*z2*psi = 0",
                            projective_residual(lam, prob))
        elif kind == "system":
            report.residual("system", "first-order linear system",
                            *system_residual(_series(check["rho"]),
                                             _series(check["sigma"]), prob))
        elif kind == "second-order":
            report.residual("second-order", "second-order form",
                            second_order_residual(_series(check["rho"]), prob, order))
        elif kind == "riccati":
            report.residual("riccati", "riccati form",
                            riccati_residual(_series(check["alpha"]), prob, order))
        elif kind == "projective":
            report.residual("projective", "projective form",
                            projective_residual(_series(check["lambda"]), prob))
        elif kind == "schwarzian":
            report.residual("schwarzian", "schwarzian form",
                            schwarz_residual(_series(check["theta"]), prob, order))
        elif kind == "solve":
            seed = LatticeSeed.from_json(check["seed"])
            solve_order = rat(check["order"])
            if (solve_order - seed.base_exponent) / seed.step > MAX_SOLVE_TERMS:
                raise ParseError(
                    f"solve order {solve_order} asks for more than MAX_SOLVE_TERMS = "
                    f"{MAX_SOLVE_TERMS} lattice terms")
            rho = solve_second_order(prob, seed, solve_order)
            report.residual("solve", "lattice recursion solves the second-order form",
                            second_order_residual(rho, prob, order),
                            detail=f"rho = {rho.render()}")
        else:
            raise ParseError(f"unknown ode check type {kind!r}")
    return report


def run_gw(payload: dict, trunc=None) -> Report:
    report = Report()
    model = gw = prob = None
    if "model" in payload:
        model = qmod.CohomologyModel.from_json(payload["model"])
    if "gw" in payload:
        gw = qmod.GWData.from_json(payload["gw"])
        if model is not None:
            for key, degree in (("z0", 4), ("z1", 2), ("z2", 0), ("z2tilde", 2)):
                homogeneous(getattr(gw, key) or {}, model.degrees, degree, f"gw {key}")
    if "prob" in payload:
        prob = ODEProblem.from_json(payload["prob"])
    # psi-eta works at --trunc or "order", exactly when neither is given;
    # gauss-manin falls back to the problem's truncation
    psi_eta_order = _working_order(payload, trunc, None)
    order = None
    if prob is not None:
        order = _working_order(payload, trunc, Fraction(8), prob.psi, prob.eta, prob.z2)
    needs_model = {"relations", "wdvv", "relative", "psi-eta", "uueq"}
    for name in require_list(payload.get("checks", []), "checks"):
        if name in needs_model and (model is None or gw is None):
            raise ParseError(f"check {name!r} needs model and gw blocks")
        if name == "gauss-manin" and prob is None:
            raise ParseError("check 'gauss-manin' needs a problem block")
        if name == "relations":
            report.checks += qmod.divisor_relations_check(model, gw).checks
        elif name == "wdvv":
            report.checks += qmod.wdvv_check(model, gw).checks
        elif name == "relative":
            report.checks += qmod.relative_z2_check(model, gw).checks
        elif name == "psi-eta":
            report.checks += qmod.psi_eta_check(model, gw, psi_eta_order).checks
        elif name == "gauss-manin":
            report.checks += qmod.gauss_manin_check(prob, order).checks
        elif name == "uueq":
            report.checks += qmod.uueq_rewrite_check(model, gw).checks
        else:
            raise ParseError(f"unknown gw check {name!r}")
    return report


def run_mirror(payload: dict, trunc=None) -> Report:
    report = Report()
    order = _working_order(payload, trunc, Fraction(10))
    for case in payload.get("a_cases", []):
        p0 = rat(case["p0"])
        f = _series(case["f"])
        l = log_derivative(f, order)
        a = mirror_a(p0, f, order)
        report.residual(f"mirror-a[p0={p0}]",
                        "d_h a + a^2 + 2*l*a + (d_h l + l^2) = 0",
                        mirror_a_residual(a, l), var="h")
    for case in payload.get("ode_cases", []):
        f = _series(case["f"])
        l = log_derivative(f, order)
        eta = case.get("eta", "inverse")
        if eta == "inverse":
            cand = f.invert(order)
        elif eta == "h-over-f":
            cand = NovikovSeries.monomial(1, 1) * f.invert(order)
        else:
            cand = _series(eta)
        report.residual(f"mirror-ode[eta={eta if isinstance(eta, str) else 'series'}]",
                        "d_h^2 eta + 2*l*d_h eta + (d_h l + l^2)*eta = 0",
                        mirror_ode_residual(cand, l), var="h")
    return report


def run_bv(payload: dict, trunc=None) -> Report:
    report = Report()
    spec = payload.get("model", "polyvector")
    n = integer(payload.get("n", 4))
    if not 2 <= n <= MAX_BV_N:
        raise ParseError(f"n = {n} is outside the range 2 to MAX_BV_N = {MAX_BV_N}")
    prob = order = None
    if "prob" in payload:
        prob = ODEProblem.from_json(payload["prob"])
        order = _working_order(payload, trunc, Fraction(8), prob.psi, prob.eta, prob.z2)
    if spec == "polyvector":
        model = bvmod.polyvector_model(n)
    elif spec == "polyvector-k":
        model = bvmod.polyvector_model_with_k(n)
    elif isinstance(spec, dict):
        model = bvmod.BVModel.from_json(spec)
    else:
        raise ParseError(f"unknown bv model {spec!r}")
    nabla = bvmod.Connection()
    a = model.distinguished_a()
    # nabla^{-1} and the class-equation suite, each built once per task
    minus1 = functools.cache(lambda: bvmod.nabla_c(nabla, a, -1, model))
    suite = None
    for name in require_list(payload.get("checks", []), "checks"):
        if name == "axioms":
            report.checks += bvmod.check_bv_axioms(model).checks
        elif name == "leibniz":
            report.checks += bvmod.check_leibniz(nabla, model).checks
        elif name == "delta-nabla":
            report.checks += bvmod.check_delta_nabla(nabla, a, model).checks
            report.checks += bvmod.check_minus1_delta(minus1(), a, model).checks
        elif name == "gauge":
            alpha = vec_from_json(payload.get("alpha", {}))
            tilde, a_tilde = bvmod.gauge_change(nabla, alpha, a, model)
            gauged = bvmod.check_delta_nabla(tilde, a_tilde, model)
            for row in gauged.checks:
                row.name = f"{row.name}[gauged]"
            report.checks += gauged.checks
            report.checks += bvmod.minus1_ambiguity_check(
                minus1(), bvmod.nabla_c(tilde, a_tilde, -1, model), alpha, model).checks
        elif name == "r-endomorphism":
            report.checks += bvmod.r_endomorphism_check(model).checks
        elif name in ("class-equation", "second-order"):
            if prob is None:
                raise ParseError(f"check {name!r} needs a problem block")
            if suite is None:
                suite = bvmod.class_equation_suite(prob, n, order)
            if name == "class-equation":
                rows = suite.checks
            else:
                rows = [c for c in suite.checks if c.name == "second-order-e"]
            # the equation suite subsumes the standalone second-order row;
            # a payload asking for both still reports it once
            present = {(c.name, c.equation) for c in report.checks}
            report.checks += [c for c in rows
                              if (c.name, c.equation) not in present]
        else:
            raise ParseError(f"unknown bv check {name!r}")
    return report


def _slot(payload: dict, arity: int) -> int:
    """The ``"slot"`` field, an input of an operation of *arity* inputs."""
    slot = integer(payload["slot"])
    if not 1 <= slot <= arity:
        raise ParseError(f"slot {slot} out of range 1..{arity}")
    return slot


def run_operad(payload: dict, trunc=None) -> Report:
    report = Report()
    action = payload.get("action")
    if action == "validate":
        cfg = opmod.DiscConfiguration.from_json(payload["config"])
        ok, problems = opmod.validate(cfg)
        report.add("validate", "disc configuration invariants", ok,
                   "; ".join(problems) if problems else "valid")
    elif action == "glue":
        c1 = opmod.DiscConfiguration.from_json(payload["first"])
        c2 = opmod.DiscConfiguration.from_json(payload["second"])
        out = opmod.glue(c1, _slot(payload, c1.arity()), c2)
        ok, problems = opmod.validate(out)
        report.add("glue", "rescale, rotate, insert", ok,
                   json.dumps(out.to_json(), sort_keys=True))
    elif action == "sign":
        sign = opmod.koszul_sign(integer(payload["phi1_degree"]),
                                 integer(payload["phi2_degree"]),
                                 integer(payload["slot"]),
                                 [integer(d) for d in
                                  require_list(payload.get("prefix", []), "prefix")])
        report.add("sign", "composition-law sign", True, str(sign))
    elif action == "compose":
        space = tuple(integer(d) for d in require_list(payload["space"], "space"))
        phi1 = opmod.GradedOperation.from_json(payload["phi1"], space, "phi1")
        phi2 = opmod.GradedOperation.from_json(payload["phi2"], space, "phi2")
        out = opmod.compose(phi1, _slot(payload, phi1.arity), phi2)
        report.add("compose", "signed operadic insertion", True, out.json_text())
    else:
        raise ParseError(f"unknown operad action {action!r}")
    return report


RUNNERS = {
    "ode": run_ode,
    "gw": run_gw,
    "mirror": run_mirror,
    "bv": run_bv,
    "operad": run_operad,
}


# ---------------------------------------------------------------------------
# report rendering and entry point
# ---------------------------------------------------------------------------


def render_report(task: str, report: Report, output: str) -> str:
    if output == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "task": task,
            "status": "pass" if report.passed else "fail",
            "checks": [c.to_json() for c in report.checks],
        }
        return json.dumps(doc, indent=2)
    lines = []
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"{mark} {c.name} [{c.equation}] {c.detail}")
    lines.append(f"{'OK' if report.passed else 'FAILED'}: "
                 f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks")
    return "\n".join(lines)


def run(path: str, output: str = "text", trunc=None,
        expect_task: str | None = None,
        check_override: list[str] | None = None) -> tuple[int, str]:
    try:
        with open(path) as fh:
            payload = require_object(json.load(fh), "task file")
    except (OSError, json.JSONDecodeError, ParseError) as exc:
        return EXIT_PARSE, f"parse error: {exc}"
    task = payload.get("task")
    if expect_task is not None and task != expect_task:
        return EXIT_PARSE, (f"parse error: task file declares {task!r}, "
                            f"subcommand expects {expect_task!r}")
    if not isinstance(task, str) or task not in RUNNERS:
        return EXIT_PARSE, f"parse error: unknown task {task!r}"
    if check_override:
        payload = dict(payload, checks=check_override)
    try:
        if trunc is not None:
            trunc = _order(trunc)
        report = RUNNERS[task](payload, trunc)
    except ParseError as exc:
        return EXIT_PARSE, f"parse error: {exc}"
    except (KeyError, TypeError) as exc:
        return EXIT_PARSE, f"parse error: missing or malformed field {exc}"
    except InsufficientPrecision as exc:
        return EXIT_PRECISION, f"insufficient precision: {exc}"
    except (NovikovError, ZeroDivisionError, ValueError, IndexError) as exc:
        return EXIT_DOMAIN, f"{type(exc).__name__}: {exc}"
    text = render_report(task, report, output)
    return (EXIT_OK if report.passed else EXIT_CHECK_FAILED), text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="novikov",
        description="exact residual checks for the series-equation engine")
    sub = parser.add_subparsers(dest="command", required=True)
    bv_flags = ("axioms", "leibniz", "delta-nabla", "gauge", "class-equation",
                "second-order", "r-endomorphism")
    for name in (*RUNNERS, "run"):
        p = sub.add_parser(name)
        p.add_argument("file", help="JSON task file")
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--trunc", default=None,
                       help="override working order, e.g. 8 or 17/2")
        if name == "bv":
            for flag in bv_flags:
                p.add_argument(f"--{flag}", dest="bv_checks",
                               action="append_const", const=flag,
                               help=f"run the {flag} checks")
    args = parser.parse_args(argv)
    expect = None if args.command == "run" else args.command
    checks = getattr(args, "bv_checks", None)
    code, text = run(args.file, args.output, args.trunc, expect_task=expect,
                     check_override=checks)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
