"""Seeded task files for the benchmark workloads, each with the outcome
it must produce.

Every expected outcome follows from how the input was built: ODE inputs
come from the recurrences in ``exact``, BV models are isomorphic copies
of a known BV algebra, disc configurations are disjoint by placement, and
each error case violates a documented precondition.  Perturbed copies
change one value below the working order (or store a table entry
inconsistently) in a way that must show in a residual, so they must exit
1 with status "fail".  The package under test is never consulted.

The structure of each pool (task kinds, orders, model sizes) is fixed;
the seed only draws coefficients, so the cost of a pool varies little
from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import exact

TASKFILES = Path(__file__).resolve().parents[1] / "src" / "novikov" / "taskfiles"

EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_PRECISION, EXIT_DOMAIN = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class Task:
    """One task file and the outcome ``novikov run`` must report for it:
    the exit code and, for codes 0 and 1, the report status."""

    name: str
    text: str
    code: int

    @property
    def status(self) -> str | None:
        return {EXIT_OK: "pass", EXIT_FAIL: "fail"}.get(self.code)


def _task(name: str, payload: dict, code: int = EXIT_OK) -> Task:
    return Task(name, json.dumps(payload), code)


def _bundled(name: str) -> Task:
    return Task(f"bundled-{name}", (TASKFILES / f"{name}.json").read_text(),
                EXIT_OK)


def _rat(rnd: random.Random, top: int = 5, den: int = 3) -> Fraction:
    return Fraction(rnd.choice((-1, 1)) * rnd.randint(1, top),
                    rnd.randint(1, den))


def _rats(rnd: random.Random, n: int) -> list:
    return [_rat(rnd) for _ in range(n)]


def _bump(rnd: random.Random, coeffs: list, lo: int, hi: int) -> list:
    """A copy of *coeffs* with one coefficient in [lo, hi) changed by a
    nonzero amount."""
    out = list(coeffs)
    k = rnd.randrange(lo, hi)
    out[k] += _rat(rnd)
    return out


# ---------------------------------------------------------------------------
# ODE chain inputs
# ---------------------------------------------------------------------------


def _problem(rnd: random.Random, degree: int) -> tuple[list, list, list]:
    """Polynomial (psi, eta, z2) of the given degree, psi[0] != 0.  No
    q^-1 or q^-2 terms, so the indicial factor at q^k is k*(k-1)."""
    return _rats(rnd, degree + 1), _rats(rnd, degree + 1), _rats(rnd, degree + 1)


def _problem_json(psi, eta, z2, trunc="inf") -> dict:
    return {"psi": exact.to_json(psi, trunc), "eta": exact.to_json(eta, trunc),
            "z2": exact.to_json(z2, trunc)}


def _ode_task(name, prob, order, check, code=EXIT_OK) -> Task:
    return _task(name, {"task": "ode", "output": "json", "problem": prob,
                        "order": str(order), "checks": [check]}, code)


def _chain(rnd, name, order, degree, kind="chain", perturb=False) -> Task:
    """A chain or second-order check on the exact solution below q^order.

    A perturbed rho changes c_k for 2 <= k < order; rho'' then moves the
    second-order residual at q^(k-2) by delta*k*(k-1), below its
    truncation q^(order-2)."""
    psi, eta, z2 = _problem(rnd, degree)
    rho = exact.solve_chain_ode(psi, eta, z2, _rat(rnd), _rat(rnd), order)
    if perturb:
        rho = _bump(rnd, rho, 2, order)
    check = {"type": kind, "rho": exact.to_json(rho, order)}
    return _ode_task(name, _problem_json(psi, eta, z2), order, check,
                     EXIT_FAIL if perturb else EXIT_OK)


def _solve(rnd, name, order, degree) -> Task:
    psi, eta, z2 = _problem(rnd, degree)
    check = {"type": "solve", "order": str(order),
             "seed": {"step": "1", "base": "0",
                      "coeffs": [str(_rat(rnd)), str(_rat(rnd))]}}
    return _ode_task(name, _problem_json(psi, eta, z2), order, check)


def _schwarzian(rnd, name, order, degree, perturb=False) -> Task:
    """theta = rho1/rho2 for two independent solutions, rho1 = a*q + ...
    and rho2 = b + ..., so d_q theta is invertible.  A perturbed theta
    changes theta_k for 3 <= k < order, which moves S_q theta at q^(k-3)
    by delta*k*(k-1)*(k-2)/theta_1, below the residual's truncation
    q^(order-3)."""
    psi, eta, z2 = _problem(rnd, degree)
    rho1 = exact.solve_chain_ode(psi, eta, z2, 0, _rat(rnd), order)
    rho2 = exact.solve_chain_ode(psi, eta, z2, _rat(rnd), _rat(rnd), order)
    theta = exact.mul(rho1, exact.inverse(rho2, order), order)
    if perturb:
        theta = _bump(rnd, theta, 3, order)
    check = {"type": "schwarzian", "theta": exact.to_json(theta, order)}
    return _ode_task(name, _problem_json(psi, eta, z2), order, check,
                     EXIT_FAIL if perturb else EXIT_OK)


# ---------------------------------------------------------------------------
# mirror and gw inputs
# ---------------------------------------------------------------------------


def _mirror_a(rnd, name, order, degree) -> Task:
    """The a-identity holds for every f with f(0) != 0."""
    f = _rats(rnd, degree + 1)
    cases = [{"p0": str(_rat(rnd)), "f": exact.to_json(f, "inf")}]
    return _task(name, {"task": "mirror", "output": "json", "order": str(order),
                        "a_cases": cases, "ode_cases": []})


def _mirror_ode(rnd, name, order, degree, perturb=False) -> Task:
    """eta = (u0 + u1*h)/f solves the mirror ODE, whose residual is
    (f*eta)''/f.  A perturbed eta changes eta_k for 2 <= k < order,
    moving the residual at h^(k-2) by delta*k*(k-1), below its
    truncation h^(order-2)."""
    f = _rats(rnd, degree + 1)
    eta = exact.mul(_rats(rnd, 2), exact.inverse(f, order), order)
    if perturb:
        eta = _bump(rnd, eta, 2, order)
    cases = [{"f": exact.to_json(f, "inf"), "eta": exact.to_json(eta, order)}]
    if not perturb:
        cases.insert(0, {"f": exact.to_json(f, "inf"), "eta": "inverse"})
    return _task(name, {"task": "mirror", "output": "json", "order": str(order),
                        "a_cases": [], "ode_cases": cases},
                 EXIT_FAIL if perturb else EXIT_OK)


def _gauss_manin(rnd, name, order, degree) -> Task:
    """The Gauss-Manin identities hold for every invertible psi."""
    psi, eta, z2 = _problem(rnd, degree)
    prob = _problem_json(psi, eta, z2)
    prob["eta"]["terms"].append({"exp": "-1", "coeff": str(_rat(rnd))})
    return _task(name, {"task": "gw", "output": "json", "order": str(order),
                        "prob": prob, "checks": ["gauss-manin"]})


def _psi_eta(rnd, name, order) -> Task:
    """psi = q^-1/z1_D and eta = psi*z1_M - gamma*q^-1 reconstruct omega
    for any z1 whose D-component is invertible; z1 is known below
    q^order, which bounds psi."""
    model = {"basis": [{"name": "D", "degree": 2}, {"name": "M", "degree": 2}]}
    gw = {"z1": {"D": exact.to_json(_rats(rnd, order), order),
                 "M": exact.to_json(_rats(rnd, order), order)},
          "gamma": str(_rat(rnd))}
    return _task(name, {"task": "gw", "output": "json", "model": model,
                        "gw": gw, "checks": ["psi-eta"]})


def _divisor(rnd, name, perturb=False) -> Task:
    """With z1 = c*q^d*D and *^(1) entries M.M = c*q^d D,
    D.M = c*(d-g)*q^d D, D.D = c*(d-g)^2*q^d D the three divisor
    relations hold (g = gamma is kept off the integers, so no entry
    vanishes).  A perturbed D.D breaks W*W."""
    c, d = _rat(rnd), rnd.randint(1, 4)
    g = Fraction(2 * rnd.randint(-3, 3) + 1, 2)

    def mono(x):
        return {"D": {"terms": [{"exp": str(d), "coeff": str(x)}], "trunc": "inf"}}

    dd = c * (d - g) ** 2 + (c if perturb else 0)
    model = {"basis": [{"name": "D", "degree": 2}, {"name": "M", "degree": 2}],
             "qpieces": [
                 {"left": "M", "right": "M", "k": 1, "result": mono(c)},
                 {"left": "D", "right": "M", "k": 1, "result": mono(c * (d - g))},
                 {"left": "D", "right": "D", "k": 1, "result": mono(dd)}]}
    gw = {"z1": mono(c), "gamma": str(g)}
    return _task(name, {"task": "gw", "output": "json", "model": model,
                        "gw": gw, "checks": ["relations", "psi-eta"]},
                 EXIT_FAIL if perturb else EXIT_OK)


# ---------------------------------------------------------------------------
# BV inputs
# ---------------------------------------------------------------------------


def _alpha(rnd, odd_names: list) -> dict:
    """A degree-1 gauge parameter with short truncated coefficients."""
    out = {}
    for name in rnd.sample(odd_names, min(2, len(odd_names))):
        terms = [{"exp": str(e), "coeff": str(_rat(rnd))}
                 for e in sorted(rnd.sample(range(4), 2))]
        out[name] = {"terms": terms, "trunc": "9"}
    return out


def _named_bv(rnd, name, model, n, checks) -> Task:
    payload = {"task": "bv", "output": "json", "model": model, "n": n,
               "checks": checks}
    if "gauge" in checks:
        payload["alpha"] = _alpha(rnd, [f"t{i}x" for i in range(1, n)])
    return _task(name, payload)


class _Algebra:
    """K[t]/(t^n) tensor an odd line, written in a rescaled basis
    u_i = l_i*t^i, v_i = m_i*t^i*x (l_0 = 1 keeps u_0 the unit) with
    Delta = (t d/dt + s) d/dx.  The shift s adds a first-order part to
    Delta, so this is a BV algebra isomorphic to a polyvector model with
    a twisted operator."""

    def __init__(self, rnd, n: int):
        self.degrees = {**{f"u{i}": 0 for i in range(n)},
                        **{f"v{i}": 1 for i in range(n)}}
        scale = {"u0": Fraction(1)}
        scale.update({b: _rat(rnd) for b in self.degrees if b != "u0"})
        shift = _rat(rnd)
        self.product = {}
        for i in range(n):
            for j in range(n - i):
                for left, right, out in ((f"u{i}", f"u{j}", f"u{i+j}"),
                                         (f"u{i}", f"v{j}", f"v{i+j}")):
                    if left == right or (left, right)[::-1] not in self.product:
                        self.product[(left, right)] = {
                            out: scale[left] * scale[right] / scale[out]}
        self.delta = {}
        for i in range(n):
            c = (i + shift) * scale[f"v{i}"] / scale[f"u{i}"]
            if c:
                self.delta[f"v{i}"] = {f"u{i}": c}

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for a, xa in x.items():
            for b, yb in y.items():
                entry = self.product.get((a, b))
                sign = 1
                if entry is None:
                    entry = self.product.get((b, a), {})
                    sign = (-1) ** (self.degrees[a] * self.degrees[b])
                for z, c in entry.items():
                    out[z] = out.get(z, 0) + sign * xa * yb * c
        return {z: c for z, c in out.items() if c}

    def apply_delta(self, x: dict) -> dict:
        out: dict = {}
        for a, xa in x.items():
            for z, c in self.delta.get(a, {}).items():
                out[z] = out.get(z, 0) + xa * c
        return {z: c for z, c in out.items() if c}

    def bracket(self, a: str, b: str) -> dict:
        """[a,b] = Delta(a.b) - (Delta a).b - (-1)^|a| a.(Delta b)."""
        x, y = {a: 1}, {b: 1}
        out = self.apply_delta(self.mul(x, y))
        for z, c in self.mul(self.apply_delta(x), y).items():
            out[z] = out.get(z, 0) - c
        sign = (-1) ** self.degrees[a]
        for z, c in self.mul(x, self.apply_delta(y)).items():
            out[z] = out.get(z, 0) - sign * c
        return {z: c for z, c in out.items() if c}

    def bracket_table(self) -> dict:
        names = list(self.degrees)
        table = {}
        for i, a in enumerate(names):
            for b in names[i:]:
                entry = self.bracket(a, b)
                if entry:
                    table[(a, b)] = entry
        return table


def _rows(table: dict) -> list:
    return [{"left": l, "right": r,
             "result": {z: exact.to_json([c], "inf") for z, c in entry.items()}}
            for (l, r), entry in table.items()]


def _explicit_bv(rnd, name, n, checks, with_bracket=False, perturb=None) -> Task:
    """An explicit-JSON model; *perturb* is "product" (one entry stored a
    second time under the swapped key with twice the value commutativity
    implies) or "bracket" (one supplied bracket entry off by one), each of
    which the axioms check must report."""
    alg = _Algebra(rnd, n)
    product = dict(alg.product)
    if perturb == "product":
        key = ("u1", "v0")
        (z, c), = product[key].items()
        product[key[::-1]] = {z: 2 * c}
    model = {"basis": [{"name": b, "degree": d} for b, d in alg.degrees.items()],
             "unit": "u0", "product": _rows(product),
             "delta": {b: {z: exact.to_json([c], "inf") for z, c in img.items()}
                       for b, img in alg.delta.items()}}
    if with_bracket or perturb == "bracket":
        table = alg.bracket_table()
        if perturb == "bracket":
            key = next(iter(table))
            table[key] = {z: c + 1 for z, c in table[key].items()}
        model["bracket"] = _rows(table)
    payload = {"task": "bv", "output": "json", "model": model, "checks": checks}
    if "gauge" in checks:
        payload["alpha"] = _alpha(rnd, [f"v{i}" for i in range(n)])
    return _task(name, payload, EXIT_FAIL if perturb else EXIT_OK)


def _class_equation(rnd, name, n) -> Task:
    """The class-equation suite holds for any psi with psi(0) != 0: the
    nilpotent model's connection is defined from the equation itself."""
    psi, eta, z2 = _problem(rnd, 1)
    return _task(name, {"task": "bv", "output": "json", "model": "polyvector",
                        "n": n, "order": "8",
                        "prob": _problem_json(psi, eta, z2, 9),
                        "checks": ["class-equation"]})


# ---------------------------------------------------------------------------
# operad inputs
# ---------------------------------------------------------------------------

_SITES = [("1/2", "0"), ("0", "1/2"), ("-1/2", "0"), ("0", "-1/2")]
_RADII = ["1/10", "1/8", "1/6", "1/5", "1/4"]
_TURNS = ["0", "1/4", "1/2", "3/4"]


def _config(rnd, k: int, marked=False, overlap=False) -> dict:
    """k discs on distinct sites at distance 1/2 from the origin with radius
    at most 1/4: each lies in the open unit disc and neighbours are
    sqrt(2)/2 > 1/2 apart.  *overlap* gives two neighbouring discs radius
    2/5 (sum 4/5 > sqrt(2)/2, still contained)."""
    sites = sorted(rnd.sample(range(4), k))
    radii = [rnd.choice(_RADII) for _ in sites]
    if overlap:
        sites = [0, 1] + sites[2:]
        radii[0] = radii[1] = "2/5"
    out = {"mode": "exact",
           "points": [{"re": _SITES[s][0], "im": _SITES[s][1], "r": r}
                      for s, r in zip(sites, radii)],
           "framings": [rnd.choice(_TURNS) for _ in sites]}
    if marked:
        out["z"] = {"re": "0", "im": "0"}
    return out


def _operation(rnd, gens: int, arity: int, density: float) -> dict:
    table = []
    for inputs in itertools.product(range(gens), repeat=arity):
        if rnd.random() < density:
            table.append({"inputs": list(inputs),
                          "output": {str(rnd.randrange(gens)): str(_rat(rnd))}})
    return {"arity": arity, "degree": rnd.randint(-1, 1), "table": table}


def _compose(rnd, name, gens, a1, a2) -> Task:
    return _task(name, {"task": "operad", "output": "json", "action": "compose",
                        "space": [rnd.randint(0, 2) for _ in range(gens)],
                        "slot": rnd.randint(1, a1),
                        "phi1": _operation(rnd, gens, a1, 0.3),
                        "phi2": _operation(rnd, gens, a2, 0.3)})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def bv_models(rnd: random.Random) -> list[Task]:
    axioms = ["axioms", "leibniz", "delta-nabla", "gauge"]
    light = ["leibniz", "delta-nabla", "gauge"]
    return [
        _bundled("bv_axioms"),
        _named_bv(rnd, "polyvector-3-axioms", "polyvector", 3, ["axioms"]),
        _named_bv(rnd, "polyvector-5", "polyvector", 5, light),
        _named_bv(rnd, "polyvector-6", "polyvector", 6, light),
        _named_bv(rnd, "polyvector-4-gauge", "polyvector", 4, ["gauge"]),
        _named_bv(rnd, "polyvector-k-2-axioms", "polyvector-k", 2,
                  ["axioms", "r-endomorphism"]),
        _named_bv(rnd, "polyvector-k-3", "polyvector-k", 3,
                  light + ["r-endomorphism"]),
        _explicit_bv(rnd, "explicit-3-axioms", 3, axioms, with_bracket=True),
        _explicit_bv(rnd, "explicit-4", 4, light),
        _explicit_bv(rnd, "explicit-3-bad-product", 3, ["axioms"],
                     perturb="product"),
        _explicit_bv(rnd, "explicit-3-bad-bracket", 3, ["axioms"],
                     perturb="bracket"),
    ]


def deep_chain(rnd: random.Random) -> list[Task]:
    return [
        _chain(rnd, "chain-30", 30, 2),
        _chain(rnd, "chain-36-bad", 36, 2, perturb=True),
        _chain(rnd, "second-order-60", 60, 3, kind="second-order"),
        _chain(rnd, "second-order-60-bad", 60, 3, kind="second-order",
               perturb=True),
        _solve(rnd, "solve-60", 60, 3),
        _schwarzian(rnd, "schwarzian-36", 36, 2),
        _schwarzian(rnd, "schwarzian-30-bad", 30, 2, perturb=True),
        _mirror_a(rnd, "mirror-a-40", 40, 8),
        _mirror_ode(rnd, "mirror-ode-50", 50, 8),
        _mirror_ode(rnd, "mirror-ode-40-bad", 40, 8, perturb=True),
        _gauss_manin(rnd, "gauss-manin-40", 40, 3),
        _gauss_manin(rnd, "gauss-manin-60", 60, 3),
        _psi_eta(rnd, "psi-eta-36", 36),
    ]


def _bad_literal(rnd) -> Task:
    psi, eta, z2 = _problem(rnd, 1)
    prob = _problem_json(psi, eta, z2)
    prob["z2"]["terms"][0]["coeff"] = "1/0"
    return _ode_task("parse-bad-literal", prob, 8,
                     {"type": "second-order", "rho": exact.to_json([1], 8)},
                     EXIT_PARSE)


def task_mix(rnd: random.Random) -> list[Task]:
    light = ["class_equation", "divisor_relations", "gauss_manin",
             "mirror_suite", "operad_glue", "riccati_chain"]
    one = exact.to_json([1], "inf")
    zero = exact.to_json([], "inf")
    solve = {"type": "solve", "order": "10",
             "seed": {"step": "1", "base": "0", "coeffs": ["1", "0"]}}
    m = rnd.randint(2, 4)
    resonant = {"psi": one, "eta": {"terms": [{"exp": "-1", "coeff": str(1 - m)}],
                                    "trunc": "inf"}, "z2": zero}
    off_lattice = {"psi": one, "eta": {"terms": [{"exp": "1/2", "coeff": str(_rat(rnd))}],
                                       "trunc": "inf"}, "z2": zero}
    coarse = {"psi": exact.to_json([1, _rat(rnd)], 3), "eta": zero, "z2": zero}
    degs = [rnd.randint(0, 3) for _ in range(3)]
    return [_bundled(name) for name in light] + [
        _chain(rnd, "chain-8", 8, 1),
        _chain(rnd, "chain-8-bad", 8, 1, perturb=True),
        _solve(rnd, "solve-10", 10, 1),
        _schwarzian(rnd, "schwarzian-8", 8, 1),
        _mirror_a(rnd, "mirror-a-10", 10, 2),
        _mirror_ode(rnd, "mirror-ode-10", 10, 2),
        _divisor(rnd, "divisor"),
        _divisor(rnd, "divisor-bad", perturb=True),
        _gauss_manin(rnd, "gauss-manin-8", 8, 1),
        _task("validate", {"task": "operad", "output": "json", "action": "validate",
                           "config": _config(rnd, 3, marked=True)}),
        _task("validate-overlap", {"task": "operad", "output": "json",
                                   "action": "validate",
                                   "config": _config(rnd, 3, overlap=True)},
              EXIT_FAIL),
        _task("glue", {"task": "operad", "output": "json", "action": "glue",
                       "first": _config(rnd, 3, marked=True), "slot": rnd.randint(1, 3),
                       "second": _config(rnd, 2)}),
        _task("sign", {"task": "operad", "output": "json", "action": "sign",
                       "phi1_degree": degs[0], "phi2_degree": degs[1], "slot": 2,
                       "prefix": [degs[2]]}),
        _compose(rnd, "compose-2o2", 4, 2, 2),
        _compose(rnd, "compose-3o2", 5, 3, 2),
        _compose(rnd, "compose-3o3", 6, 3, 3),
        _named_bv(rnd, "polyvector-2", "polyvector", 2, ["leibniz", "delta-nabla"]),
        _named_bv(rnd, "polyvector-3-leibniz", "polyvector", 3, ["leibniz"]),
        _explicit_bv(rnd, "explicit-2-bad-product", 2, ["leibniz", "axioms"],
                     perturb="product"),
        _class_equation(rnd, "class-equation-2", 2),
        _class_equation(rnd, "class-equation-3", 3),
        _bad_literal(rnd),
        _task("parse-missing-problem", {"task": "ode", "output": "json",
                                        "checks": []}, EXIT_PARSE),
        Task("parse-not-json", '{"task": "ode", ', EXIT_PARSE),
        _task("parse-unknown-task", {"task": "spectral-sequence"}, EXIT_PARSE),
        _task("parse-unknown-check", {"task": "gw", "output": "json",
                                      "checks": ["no-such-check"]}, EXIT_PARSE),
        _ode_task("precision-coarse-psi", coarse, 10, solve, EXIT_PRECISION),
        _ode_task("domain-resonant", resonant, 10, solve, EXIT_DOMAIN),
        _ode_task("domain-off-lattice", off_lattice, 10, solve, EXIT_DOMAIN),
        _task("domain-two-marked-points", {
            "task": "operad", "output": "json", "action": "glue",
            "first": _config(rnd, 2, marked=True), "slot": 1,
            "second": _config(rnd, 2, marked=True)}, EXIT_DOMAIN),
        _task("domain-sign-prefix", {"task": "operad", "output": "json",
                                     "action": "sign", "phi1_degree": 1,
                                     "phi2_degree": 1, "slot": 3,
                                     "prefix": [0]}, EXIT_DOMAIN),
    ]


WORKLOADS = {"bv-models": bv_models, "deep-chain": deep_chain, "task-mix": task_mix}


def build(workload: str, seed: int) -> list[Task]:
    """The task pool of *workload* for *seed*, in run order."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
