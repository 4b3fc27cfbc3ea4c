"""Acceptance suite: one test per criterion, exact (zero-residual) tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from _generators import adjacent_root_problem, delta_nabla_residual, random_problem, seed_for
from novikov import cli
from novikov.bv import (
    ClassTerms,
    Connection,
    check_bv_axioms,
    check_delta_nabla,
    check_leibniz,
    class_equation_suite,
    gauge_change,
    minus1_ambiguity_check,
    nabla_c,
    nablac_s_residual,
    polyvector_model,
)
from novikov.errors import GlueError, ResonantExponent
from novikov.graded import vec_add, vec_is_zero, vec_sub
from novikov.ode import (
    log_derivative,
    mirror_a,
    mirror_a_residual,
    mirror_ode_residual,
    projective_residual,
    riccati_residual,
    schwarz_residual,
    schwarzian,
    second_order_residual,
    sigma_from_rho,
    solve_second_order,
    system_residual,
)
from novikov.quantum import (
    CohomologyModel,
    GWData,
    gauss_manin_check,
    psi_eta_check,
    solve_psi_eta,
)
from novikov.operad import (
    Disc,
    DiscConfiguration,
    GradedOperation,
    compose,
    glue,
    koszul_sign,
    validate,
)
from novikov.series import NovikovSeries

F = Fraction
ONE = NovikovSeries.one()


def S(*terms, trunc=None):
    return NovikovSeries(terms, trunc if trunc is not None else float("inf"))


def _criterion(num: int, desc: str, problems: list[str]):
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {status} {desc}")
    assert not problems, f"criterion {num}: {problems[:5]}"


# ---------------------------------------------------------------------------


def test_criterion_1_equation_chain_suite():
    started = time.monotonic()
    problems: list[str] = []
    rng = random.Random(101)
    solved = resonant = 0
    for trial in range(50):
        gap = F(1, 2) if trial % 5 != 4 else F(rng.randint(2, 4), 2)
        prob, d1, d2 = random_problem(rng, gap, trunc=8)
        base = d1 if gap == F(1, 2) else d1  # always start from the small root
        order = base + 5
        try:
            rho1 = solve_second_order(prob, seed_for(base, (F(1), F(0))), order)
        except ResonantExponent:
            resonant += 1
            continue
        solved += 1
        res = second_order_residual(rho1, prob, order=8)
        if not res.is_zero():
            problems.append(f"trial {trial}: second-order residual {res.render()}")
        sigma = sigma_from_rho(rho1, prob, order=8)
        r1, r2 = system_residual(rho1, sigma, prob)
        if not (r1.is_zero() and r2.is_zero()):
            problems.append(f"trial {trial}: system residual")
        alpha = rho1.invert() * rho1.d_q()
        if not riccati_residual(alpha, prob, order=8).is_zero():
            problems.append(f"trial {trial}: riccati residual")
        lam = -(prob.psi.invert(order=8) * alpha)
        if not projective_residual(lam, prob).is_zero():
            problems.append(f"trial {trial}: projective residual")
        # quotient of two independent solutions (second seed is free on the
        # adjacent-root lattice)
        rho2 = solve_second_order(prob, seed_for(base, (F(0), F(1))), order)
        theta = rho2 * rho1.invert()
        if not schwarz_residual(theta, prob, order=8).is_zero():
            problems.append(f"trial {trial}: schwarzian residual")
    if solved < 30 or resonant == 0:
        problems.append(f"unbalanced outcomes: {solved} solved, {resonant} resonant")
    elapsed = time.monotonic() - started
    if elapsed >= 10:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _criterion(1, f"equation chain on 50 random problems "
                  f"({solved} solved, {resonant} resonant, {elapsed:.2f}s)",
               problems)


def test_criterion_2_schwarzian_oracle():
    problems = []
    if not schwarzian(S((1, 1))).is_zero():
        problems.append("schwarzian(q) != 0")
    if schwarzian(S((2, 1))) != S((-2, F(-3, 2))):
        problems.append("schwarzian(q^2) != -(3/2)q^-2")
    rng = random.Random(7)
    theta = S((1, 1), (2, -1), (3, 2), trunc=6)
    base = schwarzian(theta, order=6)
    count = 0
    while count < 20:
        a, b, c = (F(rng.randint(-4, 4)) for _ in range(3))
        d = F(rng.randint(1, 4))
        if a * d - b * c == 0:
            continue
        count += 1
        num = a * theta + NovikovSeries.monomial(b, 0)
        den = c * theta + NovikovSeries.monomial(d, 0)
        out = schwarzian(num * den.invert(order=6), order=6)
        order = min(out.truncation, base.truncation)
        if not out.equal_up_to(base, order):
            problems.append(f"moebius ({a},{b},{c},{d}) changed the schwarzian")
    _criterion(2, "schwarzian oracle and 20 moebius transforms", problems)


def test_criterion_3_mirror_suite():
    started = time.monotonic()
    problems = []
    fs = [ONE, S((0, 1), (1, 1)), S((0, 1), (1, 1), (2, 1))]
    for p0, f in itertools.product((0, 1, -1, 2, -2, 3), fs):
        l = log_derivative(f, order=10)
        a = mirror_a(p0, l, order=10)
        res = mirror_a_residual(a, l)
        if not res.is_zero():
            problems.append(f"a-residual p0={p0}: {res.render('h')}")
    for f in fs:
        l = log_derivative(f, order=10)
        inv = f.invert(order=10)
        for name, eta in (("1/f", inv), ("h/f", S((1, 1)) * inv)):
            res = mirror_ode_residual(eta, l)
            if not res.is_zero():
                problems.append(f"ode-residual eta={name}: {res.render('h')}")
    elapsed = time.monotonic() - started
    if elapsed >= 1:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _criterion(3, f"mirror identities at order h^10 ({elapsed:.2f}s)", problems)


def test_criterion_4_psi_eta_solver():
    problems = []
    model = CohomologyModel(degrees={"D": 2, "M": 2})
    gw = GWData(z1={"D": S((2, 1))}, gamma=F(3))
    psi, eta = solve_psi_eta(model, gw)
    if psi != S((-3, 1)):
        problems.append(f"psi = {psi.render()} != q^-3")
    if eta != S((-1, -3)):
        problems.append(f"eta = {eta.render()} != -3q^-1")
    rng = random.Random(19)
    for trial in range(20):
        gamma = F(rng.randint(-8, 8), rng.choice([1, 2]))
        z1 = {"D": NovikovSeries([(F(rng.randint(-4, 6), 2), rng.randint(1, 4)),
                                  (F(rng.randint(7, 14), 2), rng.randint(-3, 3))],
                                 truncation=10),
              "M": NovikovSeries([(F(rng.randint(-4, 6), 2), rng.randint(-3, 3))],
                                 truncation=10)}
        report = psi_eta_check(model, GWData(z1=z1, gamma=gamma))
        if not report.passed:
            problems.append(f"trial {trial}: round-trip failed")
    _criterion(4, "psi/eta solver: pencil example and 20 round-trips", problems)


def test_criterion_5_gauss_manin_reproduction():
    problems = []
    rng = random.Random(23)
    for trial in range(20):
        prob, _, _ = adjacent_root_problem(rng)
        report = gauss_manin_check(prob)
        if not report.passed:
            problems.append(f"trial {trial}: "
                            + "; ".join(c.detail for c in report.checks if not c.passed))
    _criterion(5, "rank-3 connection derivation on 20 random problems", problems)


def test_criterion_6_bv_suite():
    problems = []
    model = polyvector_model(4)
    axioms = check_bv_axioms(model)
    if not axioms.passed:
        problems.append("axioms: " + "; ".join(c.name for c in axioms.checks if not c.passed))
    nabla = Connection()
    a = model.unit_vec()
    rng = random.Random(29)
    for trial in range(20):
        alpha = {n: NovikovSeries([(rng.randint(0, 3), F(rng.randint(-3, 3)))],
                                  truncation=8)
                 for n, d in model.degrees.items() if d == 1}
        tilde, a_tilde = gauge_change(nabla, alpha, a, model)
        if not check_delta_nabla(tilde, a_tilde, model).passed:
            problems.append(f"gauge trial {trial}: delta-nabla broken")
        if not minus1_ambiguity_check(nabla_c(nabla, a, -1, model),
                                      nabla_c(tilde, a_tilde, -1, model), alpha, model).passed:
            problems.append(f"gauge trial {trial}: ambiguity residual nonzero")
    # injected defects must fail with the predicted residuals
    perturbation = model.basis_vec("t1x")
    bad_a = vec_add(a, perturbation)
    for n in model.degrees:
        x = model.basis_vec(n)
        res = delta_nabla_residual(nabla, bad_a, x, model)
        if not vec_is_zero(vec_sub(res, model.bracket(perturbation, x))):
            problems.append(f"perturbed-a residual at {n} is not [w,{n}]")
    q_model = polyvector_model(3)
    q_model.product[("t1", "t1")] = {"t2": S((0, 1), (1, 1))}
    leib = check_leibniz(Connection(), q_model)
    if leib.passed:
        problems.append("q-dependent product entry not detected")
    _criterion(6, "BV axioms, 20 gauge changes, injected defects", problems)


def test_criterion_7_class_equation_equivalence():
    problems = []
    rng = random.Random(31)
    for trial in range(20):
        prob, _, _ = adjacent_root_problem(rng)
        suite = class_equation_suite(prob, n=4, order=8)
        if not suite.passed:
            problems.append(f"trial {trial}: "
                            + "; ".join(c.name for c in suite.checks if not c.passed))
    # scalar shadow against the projective form
    for trial in range(10):
        prob, _, _ = adjacent_root_problem(rng)
        lam = NovikovSeries([(F(rng.randint(0, 4), 2), F(rng.randint(-3, 3)))
                             for _ in range(3)], truncation=8)
        from novikov.bv import BVModel
        scalar_model = BVModel(degrees={"e": 0},
                               product={("e", "e"): {"e": ONE}})
        res = nablac_s_residual(Connection(), 0,
                                ClassTerms.of(prob, scalar_model, {"e": lam}))
        shadow = res.get("e", NovikovSeries.zero())
        target = projective_residual(lam, prob)
        order = min(shadow.truncation, target.truncation)
        if not shadow.equal_up_to(target, order):
            problems.append(f"shadow trial {trial}: mismatch")
    _criterion(7, "equation equivalence chain on K[s]/(s^4), 20 problems",
               problems)


def test_criterion_8_operad_suite():
    problems = []
    ident = DiscConfiguration.identity()
    sample = DiscConfiguration(points=[Disc(F(1, 2), F(0), F(1, 5))],
                               framings=[F(1, 4)])
    out = glue(sample, 1, ident)
    if out.points != sample.points or out.framings != sample.framings:
        problems.append("identity law failed")

    quarters = [F(0), F(1, 4), F(1, 2), F(3, 4)]
    slots = [(F(1, 2), F(0)), (F(-1, 2), F(0)), (F(0), F(1, 2)), (F(0), F(-1, 2))]
    rng = random.Random(37)

    def rand_config(quarter=True):
        n = rng.randint(1, 3)
        centers = rng.sample(slots, n)
        taus = [rng.choice(quarters) if quarter else F(rng.randint(0, 11), 12)
                for _ in range(n)]
        return DiscConfiguration(points=[Disc(re, im, F(1, 5)) for re, im in centers],
                                 framings=taus)

    def glued(first, slot, second):
        # GlueError in, or refused, is GlueError out
        if GlueError in (first, second):
            return GlueError
        try:
            return glue(first, slot, second)
        except GlueError:
            return GlueError

    for trial in range(100):
        a, b, c = rand_config(), rand_config(), rand_config()
        i = rng.randint(1, a.arity())
        j = rng.randint(1, b.arity())
        nested = glue(a, i, glue(b, j, c))
        sequential = glue(glue(a, i, b), i + j - 1, c)
        if nested.to_json() != sequential.to_json():
            problems.append(f"exact associativity trial {trial}")
        if not validate(sequential)[0]:
            problems.append(f"validity lost at trial {trial}")
    # twelfth-turn framings: a slot framing off the quarter turns leaves
    # Q(i), so both bracketings refuse it alike, and agree exactly otherwise
    for trial in range(30):
        a, b, c = (rand_config(quarter=False) for _ in range(3))
        i = rng.randint(1, a.arity())
        j = rng.randint(1, b.arity())
        quarter = a.framing(i) in quarters and b.framing(j) in quarters
        nested, sequential = (
            x if x is GlueError else x.to_json()
            for x in (glued(a, i, glued(b, j, c)), glued(glued(a, i, b), i + j - 1, c)))
        if nested != sequential or (nested is GlueError) == quarter:
            problems.append(f"twelfth-turn associativity trial {trial}")

    def sign_oracle(d1, d2, prefix):
        sign = 1
        for passed in [d1] + list(prefix):
            if (d2 * passed) % 2:
                sign = -sign
        return sign

    for arity in (1, 2, 3):
        for d1, d2 in itertools.product((0, 1), repeat=2):
            for degrees in itertools.product((0, 1), repeat=arity):
                for slot in range(1, arity + 1):
                    prefix = list(degrees[:slot - 1])
                    if koszul_sign(d1, d2, slot, prefix) != \
                            sign_oracle(d1, d2, prefix):
                        problems.append(f"sign mismatch {d1},{d2},{slot},{prefix}")

    # signed compose associativity: elementary operations exhaust the
    # general case by linearity of the tables; spaces of dim <= 2 already
    # realize every prefix-degree pattern, larger spaces are sampled
    def elementary(space, arity, degree):
        gens = range(len(space))
        for inputs in itertools.product(gens, repeat=arity):
            for out_gen in gens:
                yield GradedOperation(space=space, arity=arity, degree=degree,
                                      table={tuple(inputs): {out_gen: 1}})

    def assoc_failures(space, sample_every=1):
        count = 0
        for d1, d2, d3 in itertools.product((0, 1), repeat=3):
            trio = itertools.product(elementary(space, 2, d1),
                                     elementary(space, 2, d2),
                                     elementary(space, 1, d3))
            for idx, (p1, p2, p3) in enumerate(trio):
                if idx % sample_every:
                    continue
                for i in (1, 2):
                    for j in (1, 2):
                        lhs = compose(compose(p1, i, p2), i + j - 1, p3)
                        rhs = compose(p1, i, compose(p2, j, p3))
                        if lhs != rhs:
                            count += 1
        return count

    for space in ((0,), (0, 1), (1, 1)):
        bad = assoc_failures(space)
        if bad:
            problems.append(f"compose associativity failed {bad}x on {space}")
    for space in ((0, 1, 1), (0, 1, 0, 1)):
        bad = assoc_failures(space, sample_every=97)
        if bad:
            problems.append(f"compose associativity failed {bad}x on {space}")
    _criterion(8, "gluing laws, koszul signs, signed compose associativity",
               problems)


def test_criterion_9_cli_determinism():
    problems = []
    from importlib import resources
    names = ["riccati_chain.json", "gauss_manin.json", "mirror_suite.json",
             "divisor_relations.json", "bv_axioms.json", "class_equation.json",
             "operad_glue.json"]
    for name in names:
        path = str(resources.files("novikov").joinpath("taskfiles", name))
        first = cli.run(path, output="json")
        second = cli.run(path, output="json")
        if first != second:
            problems.append(f"{name}: reports differ between runs")
        if first[0] != 0:
            problems.append(f"{name}: exit {first[0]}")
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w") as fh:
            json.dump({"task": "ode",
                       "problem": {"psi": {"terms": [{"exp": "1/0", "coeff": "1"}]},
                                   "eta": {"terms": []}, "z2": {"terms": []}},
                       "checks": []}, fh)
        if cli.run(bad)[0] != cli.EXIT_PARSE:
            problems.append("malformed exponent did not exit 2")
        failing = os.path.join(tmp, "fail.json")
        with open(failing, "w") as fh:
            json.dump({"task": "ode", "order": "6",
                       "problem": {"psi": {"terms": [{"exp": "0", "coeff": "1"}]},
                                   "eta": {"terms": []}, "z2": {"terms": []}},
                       "checks": [{"type": "second-order",
                                   "rho": {"terms": [{"exp": "2", "coeff": "1"}]}}]},
                      fh)
        if cli.run(failing)[0] != cli.EXIT_CHECK_FAILED:
            problems.append("failing check did not exit 1")
    _criterion(9, "byte-identical reports and exit-code taxonomy", problems)
