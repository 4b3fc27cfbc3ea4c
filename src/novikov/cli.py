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
from json.encoder import encode_basestring_ascii as quoted

from . import bv as bvmod
from . import operad as opmod
from . import quantum as qmod
from .errors import InsufficientPrecision, NovikovError, ParseError, each, field, one_of, shown
from .graded import vec_from_json
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


def _series(data: dict, key: str) -> NovikovSeries:
    return field(data, key, NovikovSeries.from_json)


def _order(value) -> Fraction:
    """A working order, refused at or below 0 and above :data:`MAX_ORDER`
    before any work: at order 0 or below every residual is truncated at or
    below q^0, so a check could pass, or fail, without looking."""
    order = rat(value)
    if order <= 0:
        raise ParseError(f"working order {shown(order, str)} is not positive")
    if order > MAX_ORDER:
        raise ParseError(f"working order {shown(order, str)} is above MAX_ORDER = {MAX_ORDER}")
    return order


def _working_order(payload: dict, trunc, fallback, block: str | None = None,
                   prob: ODEProblem | None = None) -> Fraction | None:
    """*trunc* (``--trunc``, already read) if given, else ``"order"``, else
    the least finite truncation of *prob*, the problem at ``payload[block]``,
    else *fallback*."""
    order = trunc if trunc is not None else field(payload, "order", _order, None)
    if order is not None or prob is None:
        return fallback if order is None else order
    least, key = min((getattr(prob, key).truncation, key) for key in prob._fields)
    try:
        return fallback if least == INF else _order(least)
    except ParseError as exc:
        raise exc.at("trunc").at(key).at(block) from None


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------


def run_ode(payload: dict, trunc=None) -> Report:
    prob = field(payload, "problem", ODEProblem.from_json)
    order = _working_order(payload, trunc, Fraction(8), "problem", prob)
    report = Report()
    # the one-series forms: check type -> the key of its series, its residual
    forms = {"second-order": ("rho", lambda s: second_order_residual(s, prob, order)),
             "riccati": ("alpha", lambda s: riccati_residual(s, prob, order)),
             "projective": ("lambda", lambda s: projective_residual(s, prob)),
             "schwarzian": ("theta", lambda s: schwarz_residual(s, prob, order))}

    def run_check(check: dict):
        kind = field(check, "type", one_of(("chain", "system", "solve", *forms)))
        if kind == "chain":
            rho = _series(check, "rho").truncate(order)
            sigma = sigma_from_rho(rho, prob, order)
            r1, r2 = system_residual(rho, sigma, prob)
            report.residual("system-1", "d_q rho + psi*sigma = 0", r1)
            report.residual("system-2", "d_q sigma + 4*z2*psi*rho + eta*sigma = 0", r2)
            report.residual("second-order",
                            "d_q^2 rho + (eta - psi'/psi) d_q rho - 4*z2*psi^2*rho = 0",
                            second_order_residual(rho, prob, order))
            alpha = log_derivative(rho, order)
            report.residual("riccati",
                            "d_q a + a^2 + (eta - psi'/psi)*a - 4*z2*psi^2 = 0",
                            riccati_residual(alpha, prob, order))
            lam = -(prob.psi.invert(order) * alpha)
            report.residual("projective", "d_q l - psi*l^2 + eta*l + 4*z2*psi = 0",
                            projective_residual(lam, prob))
        elif kind == "system":
            report.residual("system", "first-order linear system",
                            *system_residual(_series(check, "rho"),
                                             _series(check, "sigma"), prob))
        elif kind == "solve":
            seed = field(check, "seed", LatticeSeed.from_json)
            solve_order = field(check, "order", rat)
            if (solve_order - seed.base_exponent) / seed.step > MAX_SOLVE_TERMS:
                raise ParseError(
                    f"solve order {shown(solve_order, str)} asks for more than MAX_SOLVE_TERMS = "
                    f"{MAX_SOLVE_TERMS} lattice terms").at("order")
            rho = solve_second_order(prob, seed, solve_order)
            report.residual("solve", "lattice recursion solves the second-order form",
                            second_order_residual(rho, prob, order),
                            detail=f"rho = {rho.render()}")
        else:
            key, residual = forms[kind]
            report.residual(kind, f"{kind} form", residual(_series(check, key)))

    field(payload, "checks", lambda checks: each(checks, run_check), [])
    return report


#: Each gw check and the name of its function in :mod:`novikov.quantum`,
#: looked up when it runs, as the benchmark's tracer wraps module functions.
GW_CHECKS = {"relations": "divisor_relations_check", "wdvv": "wdvv_check",
             "relative": "relative_z2_check", "psi-eta": "psi_eta_check",
             "gauss-manin": "gauss_manin_check", "uueq": "uueq_rewrite_check"}


def run_gw(payload: dict, trunc=None) -> Report:
    report = Report()
    model = field(payload, "model", qmod.CohomologyModel.from_json, None)
    gw = field(payload, "gw", lambda data: qmod.GWData.from_json(
        data, None if model is None else model.degrees), None)
    prob = field(payload, "prob", ODEProblem.from_json, None)
    # psi-eta works at --trunc or "order" when one is given, else at z1's
    # own precision; gauss-manin falls back to the problem's truncation
    psi_eta_order = _working_order(payload, trunc, None)
    order = prob and _working_order(payload, trunc, Fraction(8), "prob", prob)

    def run_check(name):
        if one_of(GW_CHECKS)(name) == "gauss-manin":
            if prob is None:
                raise ParseError("check 'gauss-manin' needs a problem block")
            args = (prob, order)
        elif model is None or gw is None:
            raise ParseError(f"check {name!r} needs model and gw blocks")
        else:
            args = (model, gw, psi_eta_order) if name == "psi-eta" else (model, gw)
        report.checks += getattr(qmod, GW_CHECKS[name])(*args).checks

    field(payload, "checks", lambda names: each(names, run_check), [])
    return report


def run_mirror(payload: dict, trunc=None) -> Report:
    report = Report()
    order = _working_order(payload, trunc, Fraction(10))

    def a_case(case: dict):
        p0 = field(case, "p0", rat)
        l = log_derivative(_series(case, "f"), order)
        a = mirror_a(p0, l, order)
        report.residual(f"mirror-a[p0={shown(p0, str)}]",
                        "d_h a + a^2 + 2*l*a + (d_h l + l^2) = 0",
                        mirror_a_residual(a, l), var="h")

    def ode_case(case: dict):
        f = _series(case, "f")
        l = log_derivative(f, order)
        eta = field(case, "eta", default="inverse")
        if eta == "inverse":
            cand = f.invert(order)
        elif eta == "h-over-f":
            cand = NovikovSeries.monomial(1, 1) * f.invert(order)
        else:
            cand = _series(case, "eta")
        report.residual(f"mirror-ode[eta={eta if isinstance(eta, str) else 'series'}]",
                        "d_h^2 eta + 2*l*d_h eta + (d_h l + l^2)*eta = 0",
                        mirror_ode_residual(cand, l), var="h")

    field(payload, "a_cases", lambda cases: each(cases, a_case), [])
    field(payload, "ode_cases", lambda cases: each(cases, ode_case), [])
    return report


BV_CHECKS = ("axioms", "leibniz", "delta-nabla", "gauge", "class-equation",
             "second-order", "r-endomorphism")
BV_MODELS = {"polyvector": bvmod.polyvector_model,
             "polyvector-k": bvmod.polyvector_model_with_k}


def run_bv(payload: dict, trunc=None) -> Report:
    report = Report()
    n = field(payload, "n", integer, 4)
    if not 2 <= n <= MAX_BV_N:
        raise ParseError(f"n = {shown(n, str)} is outside the range 2 to "
                         f"MAX_BV_N = {MAX_BV_N}").at("n")
    prob = field(payload, "prob", ODEProblem.from_json, None)
    order = prob and _working_order(payload, trunc, Fraction(8), "prob", prob)
    model = field(payload, "model", lambda spec: (
        bvmod.BVModel.from_json(spec) if isinstance(spec, dict)
        else BV_MODELS[one_of(BV_MODELS)(spec)](n)), None) or bvmod.polyvector_model(n)
    alpha = field(payload, "alpha", lambda x: vec_from_json(x, model.degrees, 1), {})
    nabla = bvmod.Connection()
    a = model.distinguished_a()
    # nabla^{-1} and the class-equation suite, each built once per task
    minus1 = functools.cache(lambda: bvmod.nabla_c(nabla, a, -1, model))
    suite = functools.cache(lambda: bvmod.class_equation_suite(prob, n, order))

    def run_check(name):
        if one_of(BV_CHECKS)(name) in ("class-equation", "second-order") and prob is None:
            raise ParseError(f"check {name!r} needs a problem block")
        if name == "axioms":
            report.checks += bvmod.check_bv_axioms(model).checks
        elif name == "leibniz":
            report.checks += bvmod.check_leibniz(nabla, model).checks
        elif name == "delta-nabla":
            report.checks += bvmod.check_delta_nabla(nabla, a, model).checks
            report.checks += bvmod.check_minus1_delta(minus1(), a, model).checks
        elif name == "gauge":
            tilde, a_tilde = bvmod.gauge_change(nabla, alpha, a, model)
            gauged = bvmod.check_delta_nabla(tilde, a_tilde, model)
            for row in gauged.checks:
                row.name = f"{row.name}[gauged]"
            report.checks += gauged.checks
            report.checks += bvmod.minus1_ambiguity_check(
                minus1(), bvmod.nabla_c(tilde, a_tilde, -1, model), alpha, model).checks
        elif name == "r-endomorphism":
            report.checks += bvmod.r_endomorphism_check(model).checks
        else:
            rows = suite().checks
            if name == "second-order":
                rows = [c for c in rows if c.name == "second-order-e"]
            # the equation suite subsumes the standalone second-order row;
            # a payload asking for both still reports that row object once
            report.checks += [c for c in rows if all(c is not r for r in report.checks)]

    field(payload, "checks", lambda names: each(names, run_check), [])
    return report


def run_operad(payload: dict, trunc=None) -> Report:
    report = Report()
    action = field(payload, "action", one_of(("validate", "glue", "sign", "compose")))

    if action == "validate":
        cfg = field(payload, "config", opmod.DiscConfiguration.from_json)
        ok, problems = opmod.validate(cfg)
        report.add("validate", "disc configuration invariants", ok,
                   "; ".join(problems) if problems else "valid")
    elif action == "glue":
        c1 = field(payload, "first", opmod.DiscConfiguration.from_json)
        c2 = field(payload, "second", opmod.DiscConfiguration.from_json)
        out = opmod.glue(c1, field(payload, "slot", integer), c2)
        ok, problems = opmod.validate(out)
        report.add("glue", "rescale, rotate, insert", ok,
                   json.dumps(out.to_json(), sort_keys=True))
    elif action == "sign":
        sign = opmod.koszul_sign(*(field(payload, key, integer) for key in
                                   ("phi1_degree", "phi2_degree", "slot")),
                                 field(payload, "prefix", lambda d: each(d, integer), []))
        report.add("sign", "composition-law sign", True, str(sign))
    else:
        space = tuple(field(payload, "space", lambda d: each(d, integer)))
        phi1, phi2 = (field(payload, key, lambda d: opmod.GradedOperation.from_json(d, space))
                      for key in ("phi1", "phi2"))
        out = opmod.compose(phi1, field(payload, "slot", integer), phi2)
        report.add("compose", "signed operadic insertion", True, out.json_text())
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
        # json.dumps(doc, indent=2)'s text in one pass (with an indent it takes
        # its pure-Python encoder), each string escaped as that encoder does
        rows = ",".join(
            f'\n    {{\n      "name": {quoted(c.name)},\n'
            f'      "equation": {quoted(c.equation)},\n'
            f'      "status": "{"pass" if c.passed else "fail"}",\n'
            f'      "detail": {quoted(c.detail)}\n    }}' for c in report.checks)
        checks = f"[{rows}\n  ]" if rows else "[]"
        return (f'{{\n  "schema": {SCHEMA_VERSION},\n  "task": {quoted(task)},\n'
                f'  "status": "{"pass" if report.passed else "fail"}",\n'
                f'  "checks": {checks}\n}}')
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
            payload = json.load(fh)
    # a ValueError: malformed JSON, bytes that are not UTF-8, or an integer
    # literal past the interpreter's digit limit
    except (OSError, ValueError) as exc:
        return EXIT_PARSE, f"parse error: {exc}"
    try:
        # a subcommand other than run reads only its own task
        task = field(payload, "task", one_of(RUNNERS if expect_task is None else (expect_task,)))
        if check_override:
            payload = dict(payload, checks=check_override)
        if trunc is not None:
            trunc = _order(trunc)
        report = RUNNERS[task](payload, trunc)
    except ParseError as exc:
        at = f" at {exc.pointer}" if exc.path else ""
        return EXIT_PARSE, f"parse error{at}: {exc}"
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
    for name in (*RUNNERS, "run"):
        p = sub.add_parser(name)
        p.add_argument("file", help="JSON task file")
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--trunc", default=None,
                       help="override working order, e.g. 8 or 17/2")
        if name == "bv":
            for flag in BV_CHECKS:
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
