"""Batch front end: read a task file, dispatch, emit a verification report.

Exit codes: 0 all checks pass, 1 some check failed, 2 parse error,
3 insufficient precision, 4 other domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bv as bvmod
from . import operad as opmod
from . import quantum as qmod
from .errors import InsufficientPrecision, NovikovError, ParseError
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
from .series import INF, NovikovSeries

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_DOMAIN = 4


def _series(data) -> NovikovSeries:
    return NovikovSeries.from_json(data)


def _working_order(payload: dict, trunc, *series_list) -> Fraction:
    if trunc is not None:
        return Fraction(trunc)
    if "order" in payload:
        return Fraction(payload["order"])
    finite = [s.truncation for s in series_list
              if s is not None and s.truncation != INF]
    if finite:
        return min(finite)
    return Fraction(8)


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------


def run_ode(payload: dict, trunc=None) -> Report:
    prob = ODEProblem.from_json(payload["problem"])
    order = _working_order(payload, trunc, prob.psi, prob.eta, prob.z2)
    report = Report()
    for check in payload.get("checks", []):
        kind = check["type"]
        if kind == "chain":
            rho = _series(check["rho"]).truncate(order)
            sigma = sigma_from_rho(rho, prob, order)
            r1, r2 = system_residual(rho, sigma, prob)
            report.add("system-1", "d_q rho + psi*sigma = 0",
                       r1.is_zero(), r1.render())
            report.add("system-2", "d_q sigma + 4*z2*psi*rho + eta*sigma = 0",
                       r2.is_zero(), r2.render())
            res = second_order_residual(rho, prob, order)
            report.add("second-order",
                       "d_q^2 rho + (eta - psi'/psi) d_q rho - 4*z2*psi^2*rho = 0",
                       res.is_zero(), res.render())
            alpha = rho.invert(order) * rho.d_q()
            res = riccati_residual(alpha, prob, order)
            report.add("riccati",
                       "d_q a + a^2 + (eta - psi'/psi)*a - 4*z2*psi^2 = 0",
                       res.is_zero(), res.render())
            lam = -(prob.psi.invert(order) * alpha)
            res = projective_residual(lam, prob)
            report.add("projective",
                       "d_q l - psi*l^2 + eta*l + 4*z2*psi = 0",
                       res.is_zero(), res.render())
        elif kind == "system":
            r1, r2 = system_residual(_series(check["rho"]),
                                     _series(check["sigma"]), prob)
            ok = r1.is_zero() and r2.is_zero()
            report.add("system", "first-order linear system", ok,
                       f"({r1.render()}, {r2.render()})")
        elif kind == "second-order":
            res = second_order_residual(_series(check["rho"]), prob, order)
            report.add("second-order", "second-order form",
                       res.is_zero(), res.render())
        elif kind == "riccati":
            res = riccati_residual(_series(check["alpha"]), prob, order)
            report.add("riccati", "riccati form", res.is_zero(), res.render())
        elif kind == "projective":
            res = projective_residual(_series(check["lambda"]), prob)
            report.add("projective", "projective form",
                       res.is_zero(), res.render())
        elif kind == "schwarzian":
            res = schwarz_residual(_series(check["theta"]), prob, order)
            report.add("schwarzian", "schwarzian form",
                       res.is_zero(), res.render())
        elif kind == "solve":
            seed = LatticeSeed.from_json(check["seed"])
            rho = solve_second_order(prob, seed, Fraction(check["order"]))
            res = second_order_residual(rho, prob, order)
            report.add("solve", "lattice recursion solves the second-order form",
                       res.is_zero(), f"rho = {rho.render()}")
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
    if "prob" in payload:
        prob = ODEProblem.from_json(payload["prob"])
    order = None
    if prob is not None:
        order = _working_order(payload, trunc, prob.psi, prob.eta, prob.z2)
    needs_model = {"relations", "wdvv", "relative", "psi-eta", "uueq"}
    for name in payload.get("checks", []):
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
            psi_order = Fraction(trunc) if trunc is not None else None
            report.checks += qmod.psi_eta_check(model, gw, psi_order).checks
        elif name == "gauss-manin":
            eq = qmod.EqModuleModel(prob, order=order)
            report.checks += qmod.gauss_manin_check(eq).checks
        elif name == "uueq":
            report.checks += qmod.uueq_rewrite_check(model, gw).checks
        else:
            raise ParseError(f"unknown gw check {name!r}")
    return report


def run_mirror(payload: dict, trunc=None) -> Report:
    report = Report()
    order = Fraction(trunc) if trunc is not None else Fraction(payload.get("order", 10))
    for case in payload.get("a_cases", []):
        p0 = Fraction(case["p0"])
        f = _series(case["f"])
        l = log_derivative(f, order) if not f.is_zero() else NovikovSeries.zero()
        a = mirror_a(p0, f, order)
        res = mirror_a_residual(a, l)
        report.add(f"mirror-a[p0={p0}]",
                   "d_h a + a^2 + 2*l*a + (d_h l + l^2) = 0",
                   res.is_zero(), res.render("h"))
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
        res = mirror_ode_residual(cand, l)
        report.add(f"mirror-ode[eta={eta if isinstance(eta, str) else 'series'}]",
                   "d_h^2 eta + 2*l*d_h eta + (d_h l + l^2)*eta = 0",
                   res.is_zero(), res.render("h"))
    return report


def run_bv(payload: dict, trunc=None) -> Report:
    report = Report()
    spec = payload.get("model", "polyvector")
    n = int(payload.get("n", 4))
    if spec == "polyvector":
        model = bvmod.polyvector_model(n)
    elif spec == "polyvector-k":
        model = bvmod.polyvector_model_with_k(n)
    elif isinstance(spec, dict):
        model = bvmod.BVModel.from_json(spec)
    else:
        raise ParseError(f"unknown bv model {spec!r}")
    nabla = bvmod.Connection()
    prob = None
    if "prob" in payload:
        prob = ODEProblem.from_json(payload["prob"])
    a = model.distinguished_a()
    for name in payload.get("checks", []):
        if name == "axioms":
            report.checks += bvmod.check_bv_axioms(model).checks
        elif name == "leibniz":
            report.checks += bvmod.check_leibniz(nabla, model).checks
        elif name == "delta-nabla":
            report.checks += bvmod.check_delta_nabla(nabla, a, model).checks
            report.checks += bvmod.check_minus1_delta(nabla, a, model).checks
        elif name == "gauge":
            alpha = vec_from_json(payload.get("alpha", {}))
            tilde, a_tilde = bvmod.gauge_change(nabla, alpha, a, model)
            gauged = bvmod.check_delta_nabla(tilde, a_tilde, model)
            for row in gauged.checks:
                row.name = f"{row.name}[gauged]"
            report.checks += gauged.checks
            report.checks += bvmod.minus1_ambiguity_check(nabla, alpha, a, model).checks
        elif name == "r-endomorphism":
            report.checks += bvmod.r_endomorphism_check(model).checks
        elif name in ("class-equation", "second-order"):
            if prob is None:
                raise ParseError(f"check {name!r} needs a problem block")
            order = _working_order(payload, trunc, prob.psi, prob.eta, prob.z2)
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
        out = opmod.glue(c1, int(payload["slot"]), c2)
        ok, problems = opmod.validate(out)
        report.add("glue", "rescale, rotate, insert", ok,
                   json.dumps(out.to_json(), sort_keys=True))
    elif action == "sign":
        sign = opmod.koszul_sign(int(payload["phi1_degree"]),
                                 int(payload["phi2_degree"]),
                                 int(payload["slot"]),
                                 [int(d) for d in payload.get("prefix", [])])
        report.add("sign", "composition-law sign", True, str(sign))
    elif action == "compose":
        space = tuple(int(d) for d in payload["space"])
        def load_op(raw):
            table = {}
            for rec in raw.get("table", []):
                table[tuple(rec["inputs"])] = {
                    int(g): Fraction(c) for g, c in rec["output"].items()}
            return opmod.GradedOperation(space=space, arity=int(raw["arity"]),
                                         degree=int(raw["degree"]), table=table)
        phi1 = load_op(payload["phi1"])
        phi2 = load_op(payload["phi2"])
        out = opmod.compose(phi1, int(payload["slot"]), phi2)
        rendered = [{"inputs": list(k),
                     "output": {str(g): str(c) for g, c in sorted(v.items())}}
                    for k, v in sorted(out.table.items())]
        report.add("compose", "signed operadic insertion", True,
                   json.dumps({"arity": out.arity, "degree": out.degree,
                               "table": rendered}, sort_keys=True))
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
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return EXIT_PARSE, f"parse error: {exc}"
    task = payload.get("task")
    if expect_task is not None and task != expect_task:
        return EXIT_PARSE, (f"parse error: task file declares {task!r}, "
                            f"subcommand expects {expect_task!r}")
    if task not in RUNNERS:
        return EXIT_PARSE, f"parse error: unknown task {task!r}"
    if check_override:
        payload = dict(payload, checks=check_override)
    try:
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
