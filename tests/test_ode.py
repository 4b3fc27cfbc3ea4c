"""Equation-chain residuals, the lattice solver, and the mirror identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import adjacent_root_problem, random_problem, seed_for
from novikov import cli, ode
from novikov.bv import (
    ClassTerms,
    nabla_c,
    nablac_s_residual,
    nilpotent_class_model,
    nonlinear_a_residual,
    second_order_on_e,
)
from novikov.errors import (
    InconsistentSeed,
    InsufficientPrecision,
    LatticeMismatch,
    NovikovError,
    ResonantExponent,
)
from novikov.ode import (
    _lattice_coeffs,
    LatticeSeed,
    ODEProblem,
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
from novikov.graded import vec_add, vec_scale
from novikov.quantum import E_EQ, S_EQ, SS_EQ, gauss_manin_derivation
from novikov.series import INF, NovikovSeries
from novikov.useries import USeries

F = Fraction
ONE = NovikovSeries.one()
ZERO = NovikovSeries.zero()


def S(*terms, trunc=None):
    return NovikovSeries(terms, trunc if trunc is not None else float("inf"))


def prob(psi=ONE, eta=ZERO, z2=ZERO):
    return ODEProblem(psi, eta, z2)


# ---------------------------------------------------------------------------
# first-order system
# ---------------------------------------------------------------------------


def test_system_constant_solution():
    r1, r2 = system_residual(ONE, ZERO, prob())
    assert r1.is_zero() and r2.is_zero()


def test_system_affine_solution():
    # rho = 1 + q, sigma = -1: d_q rho + sigma = 0, d_q sigma = 0
    r1, r2 = system_residual(S((0, 1), (1, 1)), S((0, -1)), prob())
    assert r1.is_zero() and r2.is_zero()


def test_system_non_solution():
    r1, r2 = system_residual(S((1, 1)), ZERO, prob())
    assert r1 == ONE
    assert r2.is_zero()


def test_sigma_from_rho():
    assert sigma_from_rho(S((0, 1), (1, 1)), prob()) == S((0, -1))
    assert sigma_from_rho(ONE, prob(psi=S((0, 3), (1, 1)), eta=ONE)).is_zero()
    assert sigma_from_rho(S((2, 1)), prob(psi=S((1, 1)))) == S((0, -2))
    # a constant rho divides by psi's leading term: the exact zero has none,
    # and O(q^2) may hide one above its truncation
    with pytest.raises(ZeroDivisionError):
        sigma_from_rho(ONE, prob(psi=ZERO))
    with pytest.raises(InsufficientPrecision, match="below q\\^2"):
        sigma_from_rho(ONE, prob(psi=NovikovSeries.zero(2)))


# ---------------------------------------------------------------------------
# second-order form
# ---------------------------------------------------------------------------


def test_second_order_coeffs_trivial():
    pr = prob()
    p, r = pr.p_coefficient(), pr.r_coefficient
    assert p.is_zero() and r.is_zero()


def test_second_order_coeffs_log_term():
    pr = prob(psi=S((1, 1)))
    p, r = pr.p_coefficient(), pr.r_coefficient
    assert p == S((-1, -1))
    assert r.is_zero()


def test_second_order_coeffs_constant_potential():
    pr = prob(z2=S((0, F(1, 4))))
    p, r = pr.p_coefficient(), pr.r_coefficient
    assert p.is_zero()
    assert r == S((0, -1))


def _cosh_oracle(order: int) -> NovikovSeries:
    # brute-force recursion for rho'' = rho: c_k = c_{k-2} / (k (k-1))
    c = {0: F(1), 1: F(0)}
    for k in range(2, order):
        c[k] = c[k - 2] / (k * (k - 1))
    return NovikovSeries(((k, v) for k, v in c.items()), truncation=order)


def test_second_order_residual_cosh():
    pr = prob(z2=S((0, F(1, 4))))
    assert second_order_residual(_cosh_oracle(8), pr).is_zero()


def test_second_order_residual_affine_and_defect():
    assert second_order_residual(S((0, 5), (1, -2)), prob()).is_zero()
    assert second_order_residual(S((2, 1)), prob()) == S((0, 2))


# ---------------------------------------------------------------------------
# Riccati / projective
# ---------------------------------------------------------------------------


def test_riccati_log_derivative_of_affine():
    alpha = S((0, 1), (1, 1)).invert(order=8)  # rho^{-1} d_q rho for rho = 1+q
    assert riccati_residual(alpha, prob()).is_zero()


def test_riccati_trivial_and_defect():
    assert riccati_residual(ZERO, prob()).is_zero()
    assert riccati_residual(ONE, prob()) == ONE


def test_projective_from_riccati_example():
    lam = -(S((0, 1), (1, 1)).invert(order=8))
    assert projective_residual(lam, prob()).is_zero()
    assert projective_residual(ZERO, prob()).is_zero()
    assert projective_residual(ONE, prob()) == S((0, -1))


# ---------------------------------------------------------------------------
# Schwarzian
# ---------------------------------------------------------------------------


def test_schwarzian_affine_vanishes():
    assert schwarzian(S((1, 1))).is_zero()


def test_schwarzian_square():
    # d^2/d = 1/q; d_q(1/q) - (1/2)(1/q)^2 = -3/(2 q^2)
    assert schwarzian(S((2, 1))) == S((-2, F(-3, 2)))


def test_schwarzian_constant_raises():
    with pytest.raises(ZeroDivisionError):
        schwarzian(ONE)


def test_schwarz_residual_affine():
    assert schwarz_residual(S((1, 1)), prob()).is_zero()


def test_schwarz_residual_square_equals_schwarzian():
    assert schwarz_residual(S((2, 1)), prob()) == schwarzian(S((2, 1)))


def test_schwarz_residual_quotient_of_solutions():
    pr = prob(z2=S((0, F(1, 4))))
    seed = LatticeSeed(step=F(1), base_exponent=F(0), coeffs=(F(1), F(0)))
    rho1 = solve_second_order(pr, seed, order=10)
    seed2 = LatticeSeed(step=F(1), base_exponent=F(0), coeffs=(F(0), F(1)))
    rho2 = solve_second_order(pr, seed2, order=10)
    theta = rho2 * rho1.invert()
    assert schwarz_residual(theta, pr).is_zero()


def test_moebius_invariance():
    rng = random.Random(11)
    theta = S((1, 1), (2, 1), (3, -2), trunc=7)
    base = schwarzian(theta, order=7)
    for _ in range(8):
        a, b, c = (F(rng.randint(-3, 3)) for _ in range(3))
        d = F(rng.choice([1, 2, -1, 3]))
        if a * d - b * c == 0:
            continue
        num = a * theta + NovikovSeries.monomial(b, 0)
        den = c * theta + NovikovSeries.monomial(d, 0)
        image = num * den.invert(order=7)
        out = schwarzian(image, order=7)
        order = min(out.truncation, base.truncation)
        assert out.equal_up_to(base, order)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_solver_reproduces_cosh():
    pr = prob(z2=S((0, F(1, 4))))
    seed = LatticeSeed(step=F(1), base_exponent=F(0), coeffs=(F(1), F(0)))
    rho = solve_second_order(pr, seed, order=8)
    assert rho == _cosh_oracle(8)


def test_solver_flat_equation_two_seeds():
    seed1 = LatticeSeed(step=F(1), base_exponent=F(0), coeffs=(F(1), F(0)))
    assert solve_second_order(prob(), seed1, order=6) == ONE.truncate(6)
    seed2 = LatticeSeed(step=F(1), base_exponent=F(0), coeffs=(F(0), F(1)))
    assert solve_second_order(prob(), seed2, order=6) == S((1, 1), trunc=6)


def test_solver_resonant_exponent():
    # psi = q gives p = -1/q, indicial polynomial d(d-1) - d = d^2 - 2d
    # with roots 0 and 2; from base 0 the recursion dies at exponent 2.
    pr = prob(psi=S((1, 1)))
    seed = LatticeSeed(step=F(1), base_exponent=F(0), coeffs=(F(1), F(0)))
    with pytest.raises(ResonantExponent):
        solve_second_order(pr, seed, order=6)


def test_solver_inconsistent_seed():
    # rho'' = rho admits no solution 1 + q + ... with c_1 = 1 forced wrong:
    # the order-q^{-1} equation reads I(1)*c_1 = 0 with I(1) = 0... use a
    # problem where I(e0) != 0 instead: base exponent 1 for rho'' = 0 needs
    # c_0 * I(1) = 0 with I(1) = 0; pick base 1/2 where I(1/2) = -1/4 != 0.
    seed = LatticeSeed(step=F(1), base_exponent=F(1, 2), coeffs=(F(1), F(0)))
    with pytest.raises(InconsistentSeed):
        solve_second_order(prob(), seed, order=4)


def test_solver_lattice_mismatch():
    pr = prob(eta=S((F(-1, 3), 1), trunc=8))
    seed = LatticeSeed(step=F(1, 2), base_exponent=F(0), coeffs=(F(1), F(0)))
    with pytest.raises(LatticeMismatch):
        solve_second_order(pr, seed, order=6)


def test_random_chain_consistency():
    rng = random.Random(2024)
    for _ in range(12):
        pr, d1, _ = adjacent_root_problem(rng)
        rho = solve_second_order(pr, seed_for(d1), order=d1 + 6)
        assert second_order_residual(rho, pr).is_zero()
        sigma = sigma_from_rho(rho, pr, order=8)
        r1, r2 = system_residual(rho, sigma, pr)
        assert r1.is_zero() and r2.is_zero()
        alpha = rho.invert() * rho.d_q()
        assert riccati_residual(alpha, pr).is_zero()
        lam = -(pr.psi.invert(order=8) * alpha)
        assert projective_residual(lam, pr).is_zero()


def test_random_resonance_from_smaller_root():
    rng = random.Random(7)
    hits = 0
    for _ in range(10):
        pr, d1, d2 = random_problem(rng, gap=F(2))
        # larger root always succeeds
        rho = solve_second_order(pr, seed_for(d2), order=d2 + 5)
        assert second_order_residual(rho, pr).is_zero()
        try:
            solve_second_order(pr, seed_for(d1), order=d1 + 5)
        except ResonantExponent:
            hits += 1
    assert hits == 10


def oracle_solve(prob, seed, order):
    """The Fraction recurrence the integer solver replaced: every product of
    the known part is a Fraction operation."""
    order = F(order)
    e0, step = seed.base_exponent, seed.step
    if e0 >= order:
        raise ValueError("requested order lies at or below the base exponent")
    vpsi = prob.psi.valuation()
    inv_order = order - e0 + 2 + 2 * abs(vpsi if vpsi != INF else 0)
    p, r = prob.p_coefficient(inv_order), prob.r_coefficient
    P0, R0 = p.coefficient(-1), r.coefficient(-2)
    kmax = int((order - e0) / step)
    if e0 + kmax * step >= order:
        kmax -= 1
    if p.truncation <= kmax * step - 1 or r.truncation <= kmax * step - 2:
        raise InsufficientPrecision(
            f"coefficients known below q^{min(p.truncation, r.truncation + 1)} "
            f"cannot drive the recursion to q^{order}")
    # _lattice_coeffs gives the stored numerators over the series' den
    P = {j: F(n, p.den) for j, n in
         _lattice_coeffs(p, -1, step, min(order - e0 - 1, p.truncation), "p").items()}
    R = {j: F(n, r.den) for j, n in
         _lattice_coeffs(r, -2, step, min(order - e0 - 2, r.truncation), "r").items()}
    coeffs = {}
    for k in range(kmax + 1):
        d = e0 + k * step
        known = F(0)
        for j in range(k):
            cj = coeffs.get(j)
            if not cj:
                continue
            known += cj * ((e0 + j * step) * P.get(k - j, F(0)) + R.get(k - j, F(0)))
        factor = d * (d - 1) + P0 * d + R0
        if k < 2:
            ck = seed.coeffs[k]
            if factor * ck + known != 0:
                raise InconsistentSeed(
                    f"seeded coefficient c_{k} violates the order-q^{d - 2} "
                    f"equation: {factor}*{ck} + {known} != 0")
            coeffs[k] = ck
        else:
            if factor == 0:
                raise ResonantExponent(
                    f"indicial factor vanishes at exponent {d}; the lattice "
                    f"recursion does not determine c_{k}")
            coeffs[k] = -known / factor
    return NovikovSeries(((e0 + k * step, c) for k, c in coeffs.items()),
                         truncation=order)


def solve_outcome(solver, *args):
    try:
        return solver(*args)
    except (NovikovError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


mixed_coeffs = st.builds(F, st.integers(min_value=-9, max_value=9),
                         st.integers(min_value=1, max_value=7))


@st.composite
def solver_cases(draw):
    """A problem with indicial roots d1 and d1 + gap on the lattice of
    *step*, and a seed at one of the roots or off them.  A gap of two or
    more steps makes the smaller root resonant; a seed off the roots, or a
    c_1 not fitted to the order-1 equation, is inconsistent."""
    step = draw(st.sampled_from([F(1), F(1, 2), F(1, 3)]))
    d1 = draw(st.builds(F, st.integers(min_value=-6, max_value=6),
                        st.sampled_from([1, 2, 3])))
    gap = step * draw(st.integers(min_value=0, max_value=4))
    d2 = d1 + gap
    v = draw(st.builds(F, st.integers(min_value=-3, max_value=3),
                       st.sampled_from([1, 2, 3])))
    lead = draw(mixed_coeffs.filter(bool))
    n = draw(st.integers(min_value=0, max_value=4))
    trunc = draw(st.one_of(st.just(INF), st.integers(min_value=4, max_value=12)))

    def rest(base):
        return [(base + j * step, draw(mixed_coeffs)) for j in range(1, n + 1)]

    psi = NovikovSeries([(v, lead)] + rest(v))
    # p = eta - psi'/psi has q^-1 coefficient eta_(-1) - v, and
    # r = -4*z2*psi^2 has q^-2 coefficient -4*z2_(-2-2v)*lead^2
    eta = NovikovSeries([(-1, 1 - d1 - d2 + v)] + rest(F(-1)), trunc)
    z2 = NovikovSeries([(-2 - 2 * v, -d1 * d2 / (4 * lead * lead))]
                       + rest(-2 - 2 * v), trunc)
    pr = ODEProblem(psi, eta, z2)
    e0 = draw(st.sampled_from([d1, d2, d1 + step / 2]))
    c0 = draw(mixed_coeffs)
    c1 = draw(mixed_coeffs)
    if draw(st.booleans()):
        # fit c_1 to the order-1 equation where its factor allows
        p, r = pr.p_coefficient(12), pr.r_coefficient
        d = e0 + step
        factor = d * (d - 1) + (1 - d1 - d2) * d + d1 * d2
        if factor:
            c1 = -c0 * (e0 * p.coefficient(step - 1) + r.coefficient(step - 2)) / factor
    order = e0 + draw(st.integers(min_value=1, max_value=10)) * step
    return pr, LatticeSeed(step=step, base_exponent=e0, coeffs=(c0, c1)), order


@settings(max_examples=200, deadline=None)
@given(solver_cases())
def test_solver_matches_fraction_recurrence(case):
    pr, seed, order = case
    assert solve_outcome(solve_second_order, pr, seed, order) == \
        solve_outcome(oracle_solve, pr, seed, order)


# ---------------------------------------------------------------------------
# residual relations between the chain forms, away from a solution
# ---------------------------------------------------------------------------


@st.composite
def chain_non_solutions(draw):
    """A problem with psi of valuation 0, eta of valuation -1 or 0 and z2 of
    valuation -2 to 0, known to q^order, q^(order+2) or exactly, and a
    dense rho of valuation 0 truncated at q^order: almost never a solution,
    so the residuals relate nonzero series."""
    order = draw(st.integers(min_value=4, max_value=12))
    trunc = draw(st.sampled_from([INF, order, order + 2]))

    def series(val, trunc, n):
        lead = draw(mixed_coeffs.filter(bool))
        return NovikovSeries([(val, lead)] + [(val + k, draw(mixed_coeffs))
                                              for k in range(1, n)], trunc)

    pr = ODEProblem(series(0, trunc, 4), series(draw(st.sampled_from([-1, 0])), trunc, 4),
                    series(draw(st.sampled_from([-2, -1, 0])), trunc, 4))
    return pr, series(0, order, order), order


# Each relation is an exact identity between residuals, truncation included:
# every side is known through q^(order - 2), two orders below rho's, lost to
# the derivatives and the poles of p and r.  On a solution both sides are
# zero, which pins neither the relation nor the truncation.
@settings(max_examples=200, deadline=None)
@given(chain_non_solutions())
def test_riccati_residual_is_the_second_order_residual_over_rho(case):
    pr, rho, order = case
    rho_inv = rho.invert(order)
    lhs = riccati_residual(rho_inv * rho.d_q(), pr, order)
    rhs = rho_inv * second_order_residual(rho, pr, order)
    assert lhs == rhs
    assert lhs.truncation == order - 2


@settings(max_examples=200, deadline=None)
@given(chain_non_solutions())
def test_projective_residual_is_minus_the_riccati_residual_over_psi(case):
    pr, rho, order = case
    psi_inv = pr.psi.invert(order)
    alpha = rho.invert(order) * rho.d_q()
    lhs = projective_residual(-(psi_inv * alpha), pr)
    rhs = -(psi_inv * riccati_residual(alpha, pr, order))
    assert lhs == rhs
    assert lhs.truncation == order - 2


@settings(max_examples=200, deadline=None)
@given(chain_non_solutions())
def test_system_residuals_of_sigma_from_rho(case):
    pr, rho, order = case
    first, second = system_residual(rho, sigma_from_rho(rho, pr, order), pr)
    # sigma = -psi^-1 d_q rho solves the first equation, through q^(order - 1)
    assert first.is_zero() and first.truncation == order - 1
    rhs = -(pr.psi.invert(order) * second_order_residual(rho, pr, order))
    assert second == rhs
    assert second.truncation == order - 2


# ---------------------------------------------------------------------------
# the problem's coefficients: one definition, each built once
# ---------------------------------------------------------------------------


@st.composite
def formula_draws(draw):
    """A problem with psi of valuation 0 truncated at q^order, eta and z2
    truncated or exact, and truncated inputs for every form: each at its own
    order, theta with an invertible d_q theta."""
    order = draw(st.integers(min_value=4, max_value=10))

    def series(val, n, trunc=None):
        trunc = trunc or draw(st.sampled_from([INF, order, order + 2]))
        lead = draw(mixed_coeffs.filter(bool))
        return NovikovSeries([(val, lead)] + [(val + k, draw(mixed_coeffs))
                                              for k in range(1, n)], trunc)

    def problem():
        return ODEProblem(series(0, 3, order), series(draw(st.sampled_from([-1, 0])), 3),
                          series(draw(st.sampled_from([-2, -1, 0])), 3))

    inputs = [series(v, order, draw(st.integers(min_value=2, max_value=order)))
              for v in (0, 0, 0, 0, 1)]
    return problem(), problem(), inputs, order


# Each form equals its formula written out here, in the operand order it
# had before the problem owned 4*z2*psi and r; == compares truncations too.
@settings(max_examples=100, deadline=None)
@given(formula_draws())
def test_forms_equal_their_written_out_formulas(case):
    pr, other, (rho, sigma, alpha, lam, theta), order = case
    psi, eta, z2 = pr.psi, pr.eta, pr.z2
    p = eta - psi.d_q() * psi.invert(order)
    assert pr.p_coefficient(order) == p
    assert pr.coupling == 4 * z2 * psi
    assert pr.r_coefficient == -4 * z2 * psi * psi
    assert system_residual(rho, sigma, pr) == (
        rho.d_q() + psi * sigma, sigma.d_q() + 4 * z2 * psi * rho + eta * sigma)
    assert second_order_residual(rho, pr, order) == (
        rho.d_q().d_q() + p * rho.d_q() + -4 * z2 * psi * psi * rho)
    assert riccati_residual(alpha, pr, order) == (
        alpha.d_q() + alpha * alpha + p * alpha - 4 * z2 * psi * psi)
    assert projective_residual(lam, pr) == (
        lam.d_q() - psi * lam * lam + eta * lam + 4 * z2 * psi)
    d1 = theta.d_q()
    ratio = d1.d_q() * d1.invert(order)
    assert schwarz_residual(theta, pr, order) == (
        ratio.d_q() - F(1, 2) * ratio * ratio + p.d_q() + F(1, 2) * p * p
        + 8 * z2 * psi * psi)

    # the class-equation forms of pr under the connection that solves other
    model, nabla, s = nilpotent_class_model(other, 4)
    e = model.unit_vec()
    nabla_s = vec_add(vec_scale(other.psi, model.mul(s, s)), vec_scale(-other.eta, s),
                      vec_scale(-4 * other.z2 * other.psi, e))
    assert nabla.apply(s) == nabla_s
    t = ClassTerms.of(pr, model, s)
    fz = 4 * z2 * psi
    assert nonlinear_a_residual(nabla, t, p) == vec_add(
        nabla.apply(t.a), model.mul(t.a, t.a), vec_scale(p, t.a), vec_scale(-(fz * psi), e))
    for c in (-1, 0, 1):
        conn = nabla_c(nabla, t.a, c, model)
        assert nablac_s_residual(conn, c, t) == vec_add(
            conn.apply(s), vec_scale((F(c) - 1) * psi, t.ss), vec_scale(eta, s),
            vec_scale(fz, e))
    one = nabla_c(nabla, t.a, 1, model)
    first = one.apply(e)
    assert second_order_on_e(one, t, p) == vec_add(
        one.apply(first), vec_scale(p, first), vec_scale(-(fz * psi), e))

    psi_inv, q_inv = psi.invert(order), NovikovSeries.monomial(1, -1)
    log_psi = psi.d_q() * psi_inv
    u, u2 = USeries.u_power(1), USeries.u_power(2)
    w = {S_EQ: u.scale(psi)}
    ww = {SS_EQ: u2.scale(2 * psi * psi), S_EQ: u2.scale(-(psi * (eta - log_psi - q_inv))),
          E_EQ: u2.scale(-4 * z2 * psi * psi)}
    w_coeff = USeries({1: psi_inv.d_q() - psi_inv * q_inv})
    assert gauss_manin_derivation(pr, order) == (
        w, vec_add(vec_scale(w_coeff, w), vec_scale(USeries.scalar(psi_inv), ww)))


def test_each_coefficient_is_built_once_per_problem(monkeypatch):
    pr = prob(psi=S((0, 2), (1, 1), trunc=6), z2=S((0, 3), (2, 1), trunc=6))
    assert pr.coupling is pr.coupling
    assert pr.r_coefficient is pr.r_coefficient
    assert pr.p_coefficient(6) is pr.p_coefficient(6)
    # one chain task makes the product z2*psi^2, of either sign, once, and
    # takes the log-derivative of psi, for p, once
    task = {"task": "ode", "order": "6", "checks": [{"type": "chain", "rho": {
                "terms": [{"exp": "0", "coeff": "1"}, {"exp": "1", "coeff": "5"}]}}],
            "problem": {"psi": pr.psi.to_json(), "eta": "0", "z2": pr.z2.to_json()}}
    r = pr.r_coefficient
    built = []
    real = NovikovSeries.__mul__

    def spy(a, b):
        out = real(a, b)
        if out == r or out == -r:
            built.append(out)
        return out

    logged = []
    real_log = ode.log_derivative

    def log_spy(f, order=None):
        logged.append(f)
        return real_log(f, order)

    monkeypatch.setattr(NovikovSeries, "__mul__", spy)
    monkeypatch.setattr(NovikovSeries, "__rmul__", spy)
    monkeypatch.setattr(ode, "log_derivative", log_spy)
    report = cli.run_ode(task)
    assert [c.name for c in report.checks] == [
        "system-1", "system-2", "second-order", "riccati", "projective"]
    assert len(built) == 1
    assert [f for f in logged if f == pr.psi] == [pr.psi]


# ---------------------------------------------------------------------------
# mirror identities (variable h)
# ---------------------------------------------------------------------------


@st.composite
def mirror_non_solutions(draw):
    """eta and f of valuation 0, dense and truncated at h^order: eta almost
    never solves the mirror equation for l = (d_h f)/f."""
    order = draw(st.integers(min_value=4, max_value=12))

    def series():
        lead = draw(mixed_coeffs.filter(bool))
        return NovikovSeries([(0, lead)] + [(k, draw(mixed_coeffs)) for k in range(1, order)],
                             order)

    return series(), series(), order


# For a = eta^-1 d_h eta, d_h^2 eta = (d_h a + a^2) eta, so the mirror ODE
# residual of eta is eta times the a-equation residual of a, truncation
# included: both sides are known through h^(order - 2).
@settings(max_examples=200, deadline=None)
@given(mirror_non_solutions())
def test_mirror_ode_residual_is_eta_times_the_a_residual(case):
    eta, f, order = case
    l = log_derivative(f, order)
    lhs = mirror_ode_residual(eta, l)
    assert lhs == eta * mirror_a_residual(eta.invert(order) * eta.d_q(), l)
    assert lhs.truncation == order - 2


def test_mirror_a_geometric_expansion():
    a = mirror_a(2, log_derivative(ONE, 4), order=4)
    assert a == S((0, -2), (1, -4), (2, -8), (3, -16), trunc=4)


def test_mirror_a_zero():
    assert mirror_a(0, log_derivative(ONE, 6), order=6).is_zero()


def test_mirror_a_two_pole_sum():
    f = S((0, 1), (1, 1))
    a = mirror_a(1, log_derivative(f, 5), order=5)
    # 1/(h-1) - 1/(1+h) = -(1+h+h^2+...) - (1-h+h^2-...) = -2 - 2h^2 - 2h^4...
    assert a == S((0, -2), (2, -2), (4, -2), trunc=5)


def test_mirror_a_residual_vanishes():
    a = mirror_a(2, log_derivative(ONE, 8), order=8)
    assert mirror_a_residual(a, ZERO).is_zero()


def test_mirror_a_residual_polynomial_sampling():
    f = S((0, 1), (1, 1), (2, 1))
    l = log_derivative(f, order=10)
    for p0 in (0, 1, -1, 2, -2, 3):
        a = mirror_a(p0, l, order=10)
        assert mirror_a_residual(a, l).is_zero()


def test_mirror_ode_solutions():
    for f in (ONE, S((0, 1), (1, 1)), S((0, 1), (1, 1), (2, 1))):
        l = log_derivative(f, order=10)
        inv = f.invert(order=10)
        assert mirror_ode_residual(inv, l).is_zero()
        assert mirror_ode_residual(S((1, 1)) * inv, l).is_zero()


def test_mirror_ode_defect():
    assert mirror_ode_residual(ONE, ONE) == ONE  # d_h l + l^2 = 1 for l = 1
