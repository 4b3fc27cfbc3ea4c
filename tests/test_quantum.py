"""Quantum-product relations, the psi/eta solver, and the rank-3 derivation."""

import dataclasses
import random
from fractions import Fraction

import pytest

from _generators import adjacent_root_problem
from novikov.errors import DegreeMismatch, NoSolution, ParseError, PrerequisiteFailed
from novikov.graded import homogeneous, vec_add, vec_is_zero, vec_scale, vec_sub
from novikov.ode import ODEProblem
from novikov.quantum import (
    CohomologyModel,
    GWData,
    divisor_relations_check,
    gauss_manin_check,
    gauss_manin_derivation,
    psi_eta_check,
    quantum_connection,
    relative_z2,
    relative_z2_check,
    solve_psi_eta,
    uueq_rewrite_check,
    wdvv_check,
    wdvv_residual,
)
from novikov.series import NovikovSeries
from novikov.useries import USeries

F = Fraction
ONE = NovikovSeries.one()
Q_INV = NovikovSeries.monomial(1, -1)


def S(*terms, trunc=None):
    return NovikovSeries(terms, trunc if trunc is not None else float("inf"))


# ---------------------------------------------------------------------------
# two-class divisor model: products defined by the divisor formulas
# ---------------------------------------------------------------------------


def two_class_model(gamma=F(3)):
    z1 = S((2, 1))  # q^2 * D
    qp1 = {
        ("M", "M"): {"D": z1},
        ("D", "M"): {"D": (2 - gamma) * z1},
        ("D", "D"): {"D": (2 - gamma) ** 2 * z1},
    }
    model = CohomologyModel(degrees={"D": 2, "M": 2}, qpieces={1: qp1})
    gw = GWData(z1={"D": z1}, gamma=gamma)
    return model, gw


def test_divisor_relations_round_trip():
    model, gw = two_class_model()
    report = divisor_relations_check(model, gw)
    assert report.passed, [c.detail for c in report.checks if not c.passed]


def test_divisor_relations_injected_defect():
    model, gw = two_class_model()
    bad = vec_add(model.qpieces[1][("M", "M")], {"M": S((1, 1))})
    model.qpieces[1][("M", "M")] = bad
    report = divisor_relations_check(model, gw)
    first = report.checks[0]
    assert not first.passed
    assert first.detail == "(q^1)*M"  # residual is exactly q*M


# ---------------------------------------------------------------------------
# psi / eta solver
# ---------------------------------------------------------------------------


def test_solve_psi_eta_pencil_example():
    model, gw = two_class_model(gamma=F(3))
    psi, eta = solve_psi_eta(model, gw)
    assert psi == S((-3, 1))
    assert eta == S((-1, -3))


def test_solve_psi_eta_parametric_leading_behaviour():
    gamma = F(5)
    zeta = S((0, 2), (1, 1), trunc=6)
    model = CohomologyModel(degrees={"D": 2, "M": 2})
    gw = GWData(z1={"D": S((gamma - 1, 1)), "M": zeta}, gamma=gamma)
    psi, eta = solve_psi_eta(model, gw)
    assert psi == S((-gamma, 1))
    assert eta == psi * zeta - gamma * Q_INV


def test_solve_psi_eta_no_solution():
    model = CohomologyModel(degrees={"D": 2, "M": 2})
    gw = GWData(z1={"M": ONE}, gamma=F(1))
    with pytest.raises(NoSolution):
        solve_psi_eta(model, gw)


def test_psi_eta_round_trip_randomized():
    rng = random.Random(5)
    model = CohomologyModel(degrees={"D": 2, "M": 2})
    for _ in range(20):
        gamma = F(rng.randint(-6, 6), rng.choice([1, 2]))
        z1_d = NovikovSeries(
            [(F(rng.randint(-4, 8), 2), F(rng.randint(1, 5)))]
            + [(F(rng.randint(9, 16), 2), F(rng.randint(-3, 3)))],
            truncation=12)
        z1_m = NovikovSeries([(F(rng.randint(-4, 8), 2), F(rng.randint(-3, 3)))],
                             truncation=12)
        gw = GWData(z1={"D": z1_d, "M": z1_m}, gamma=gamma)
        report = psi_eta_check(model, gw)
        assert report.passed, report.checks[0].detail


# ---------------------------------------------------------------------------
# associativity instance (WDVV) and relative reduction
# ---------------------------------------------------------------------------


def wdvv_model(rng=None, kill_point=False):
    """Four-class model {1, D, M, P} whose *0 entries are solved from the
    associativity instance, given free choices elsewhere."""
    rng = rng or random.Random(1)

    def rand_series(val=0):
        return NovikovSeries(
            [(val + j, F(rng.randint(-2, 3))) for j in range(3)], truncation=9)

    d11, d12, d22 = (F(rng.randint(1, 4)) for _ in range(3))
    a = NovikovSeries([(2, 1), (3, F(rng.randint(-2, 2)))], truncation=9)
    a_inv = a.invert(order=5)
    y = rand_series(1)                      # P *1 M coefficient
    alpha_d, alpha_m = rand_series(1), rand_series(1)   # D *1 M components
    cup = {
        ("1", "1"): {"1": ONE}, ("1", "D"): {"D": ONE}, ("1", "M"): {"M": ONE},
        ("1", "P"): {"P": ONE},
        ("D", "D"): {"P": NovikovSeries.monomial(d11, 0)},
        ("D", "M"): {"P": NovikovSeries.monomial(d12, 0)},
        ("M", "M"): {"P": NovikovSeries.monomial(d22, 0)},
    }
    s11 = (d12 * y + alpha_d * d12 + alpha_m * d22) * a_inv
    s12 = (d22 * y + a * d12) * a_inv
    qp0 = dict(cup)
    qp0[("D", "D")] = {"P": s11}
    qp0[("D", "M")] = {"P": s12}
    qp0[("M", "M")] = {"P": rand_series()}
    qp1 = {
        ("M", "M"): {"D": a},
        ("D", "M"): {"D": alpha_d, "M": alpha_m},
        ("D", "D"): {"D": rand_series(), "M": rand_series()},
        ("P", "M"): {"P": y},
    }
    restriction = None
    if kill_point:
        restriction = {"1": {"1": ONE}, "D": {"D": ONE}, "M": {}, "P": {}}
    model = CohomologyModel(degrees={"1": 0, "D": 2, "M": 2, "P": 4},
                            cup=cup, qpieces={0: qp0, 1: qp1}, unit="1",
                            restriction=restriction)
    gw = GWData(z1={"D": a})
    return model, gw


def test_wdvv_constructed_model_passes():
    model, gw = wdvv_model()
    report = wdvv_check(model, gw)
    assert report.passed, [c.detail for c in report.checks if not c.passed]


def test_wdvv_zero_input():
    model, gw = wdvv_model()
    assert vec_is_zero(wdvv_residual({}, model, gw))


def test_quantum_mul_unit_and_zero():
    model, gw = wdvv_model()
    for n in model.degrees:
        x = model.basis_vec(n)
        out = model.quantum_mul(model.basis_vec("1"), x)
        assert vec_is_zero(vec_sub(out, x)), n
        assert vec_is_zero(model.quantum_mul(x, {}))


def test_wdvv_defect_without_correction_terms():
    model, gw = wdvv_model()
    model.qpieces[1] = {}
    res = wdvv_residual(model.basis_vec("M"), model, gw)
    expected = model.quantum_piece(model.basis_vec("M"), gw.z1, 0)
    assert not vec_is_zero(res)
    assert vec_is_zero(vec_sub(res, expected))


def test_relative_reduction():
    model, gw = wdvv_model()
    half = relative_z2(model, gw)
    gw.z2tilde = vec_add(vec_scale(F(1, 2), model.quantum_piece(
        gw.z1, model.m_vec(), 1)), {"M": S((3, 7))})
    report = relative_z2_check(model, gw)
    assert report.passed  # the M-part of z2~ dies under restriction
    assert vec_is_zero(vec_sub(model.restrict(gw.z2tilde), half))


def test_relative_reduction_mismatch():
    model, gw = wdvv_model()
    gw.z2tilde = vec_add(relative_z2(model, gw), {"D": S((3, 1))})
    report = relative_z2_check(model, gw)
    assert not report.passed
    res = vec_sub(model.restrict(gw.z2tilde), relative_z2(model, gw))
    assert vec_is_zero(vec_sub(res, {"D": S((3, 1))}))


def test_relative_reduction_zero_z1():
    model, gw = wdvv_model()
    gw.z1 = {}
    assert vec_is_zero(relative_z2(model, gw))


# ---------------------------------------------------------------------------
# quantum connection on the fibre complement
# ---------------------------------------------------------------------------


def e_side_model():
    qp0 = {("1", "1"): {"1": ONE}, ("1", "D"): {"D": ONE},
           ("D", "D"): {}}
    return CohomologyModel(degrees={"1": 0, "D": 2}, qpieces={0: qp0},
                           unit="1", omega={"D": Q_INV})


def test_connection_on_unit():
    model = e_side_model()
    out = quantum_connection(model.basis_vec("1"), model)
    assert out["D"] == USeries({0: Q_INV})
    assert out.get("1", USeries()).is_zero()


def test_connection_leibniz_random_scalar():
    rng = random.Random(9)
    model = e_side_model()
    for _ in range(6):
        f = NovikovSeries([(F(rng.randint(-2, 6), 2), F(rng.randint(-3, 3)))
                           for _ in range(3)], truncation=7)
        x = {"1": S((0, 2), (1, 1), trunc=7), "D": S((1, -1), trunc=7)}
        lhs = quantum_connection(vec_scale(f, x), model)
        rhs = vec_add(vec_scale(USeries.scalar(f), quantum_connection(x, model)),
                       {k: USeries({1: f.d_q() * s}) for k, s in x.items()})
        assert vec_is_zero(vec_sub(lhs, rhs))


def test_connection_on_scaled_omega_matches_twist_formula():
    # D(psi^{-1} W) = u psi^{-1}(-psi'/psi - q^{-1}) W + psi^{-1} (W *_E W)
    model = e_side_model()
    psi = S((0, 1), (1, 2), trunc=8)
    psi_inv = psi.invert()
    x = vec_scale(psi_inv, model.omega)
    out = quantum_connection(x, model)
    coeff = psi_inv * (-(psi.d_q() * psi.invert()) - Q_INV)
    expect = vec_add(vec_scale(USeries({1: coeff}), {k: USeries.scalar(s) for k, s in model.omega.items()}),
                      {k: USeries.scalar(psi_inv * s)
                       for k, s in model.quantum_piece(model.omega, model.omega, 0).items()})
    assert vec_is_zero(vec_sub(out, expect))


def test_twisted_basis_derivative():
    model = CohomologyModel(degrees={"W": 2}, twists={"W": -Q_INV})
    psi = S((0, 1), (1, 1), trunc=6)
    out = model.d_q({"W": psi})
    assert out["W"] == psi.d_q() - Q_INV * psi


# ---------------------------------------------------------------------------
# Gauss-Manin derivation over the u-extension
# ---------------------------------------------------------------------------


def lattice_problem(rng: random.Random) -> ODEProblem:
    prob, _, _ = adjacent_root_problem(rng)
    return prob


def test_gauss_manin_randomized():
    rng = random.Random(31)
    for _ in range(20):
        prob = lattice_problem(rng)
        order = rng.choice([None, rng.randint(4, 12)])
        report = gauss_manin_check(prob, order)
        assert report.passed, (order, [c.detail for c in report.checks if not c.passed])


def test_gauss_manin_degenerate_dictionary():
    prob = ODEProblem(ONE, NovikovSeries.zero(), NovikovSeries.zero())
    gamma_e, u_gamma_s = gauss_manin_derivation(prob)
    assert gamma_e["s_eq"] == USeries({1: ONE})
    assert u_gamma_s["ss_eq"] == USeries({2: 2 * ONE})
    assert u_gamma_s.get("s_eq", USeries()).is_zero()
    assert u_gamma_s.get("e_eq", USeries()).is_zero()


# ---------------------------------------------------------------------------
# u^2-level rewrite
# ---------------------------------------------------------------------------


def uueq_model(rng=None):
    model, gw = wdvv_model(rng, kill_point=True)
    gw.z2 = {"1": S((1, 3), trunc=9)}
    gw.z2tilde = vec_add(relative_z2(model, gw), {"M": S((2, 5))})
    return model, gw


def test_uueq_rewrite_passes():
    model, gw = uueq_model()
    report = uueq_rewrite_check(model, gw)
    assert report.passed, [c.detail for c in report.checks if not c.passed]


def test_uueq_prerequisite_failure():
    model, gw = uueq_model()
    # break the associativity instance in a fresh model: the used one keeps its rows
    qp0 = {**model.qpieces[0], ("D", "D"): {"P": ONE}}
    model = dataclasses.replace(model, qpieces={**model.qpieces, 0: qp0})
    with pytest.raises(PrerequisiteFailed, match="associativity instance fails for z1"):
        uueq_rewrite_check(model, gw)


def test_uueq_relative_reduction_prerequisite_failure():
    model, gw = uueq_model()
    # D survives the restriction to E, so this z2~ disagrees with (1/2)(z1 *1 M)|E
    gw.z2tilde = vec_add(gw.z2tilde, {"D": S((1, 1))})
    with pytest.raises(PrerequisiteFailed, match="relative reduction fails"):
        uueq_rewrite_check(model, gw)


def test_uueq_zero_z1():
    model, gw = uueq_model()
    gw.z1 = {}
    gw.z2tilde = {"M": S((2, 5))}  # restricts to zero, consistent with z1 = 0
    report = uueq_rewrite_check(model, gw)
    assert report.passed


def test_uueq_rejects_off_unit_z2():
    model, gw = uueq_model()
    gw.z2 = {"D": ONE}
    with pytest.raises(DegreeMismatch):
        uueq_rewrite_check(model, gw)


def test_degree_bookkeeping():
    model, gw = wdvv_model()
    x, y = model.basis_vec("D"), model.basis_vec("M")
    for k, table in model.qpieces.items():
        out = model.quantum_piece(x, y, k)
        live = [model.degrees[n] for n, s in out.items() if not s.is_zero()]
        assert all(d == 2 + 2 - 2 * k for d in live)


def test_model_degree_validation():
    # the grading rule on a model built in code: each *^(k) entry drops
    # degree by 2k and z^(k) lives in degree 4 - 2k
    model, gw = wdvv_model()
    deg = model.degrees
    for k, table in model.qpieces.items():
        for (l, r), entry in table.items():
            homogeneous(entry, deg, deg[l] + deg[r] - 2 * k, f"*{k} row {(l, r)}")
    for k, z in enumerate((gw.z0, gw.z1, gw.z2)):
        homogeneous(z, deg, 4 - 2 * k, f"z{k}")
    with pytest.raises(ParseError, match="'P' of degree 4, expected degree 2"):
        homogeneous({"P": ONE}, deg, deg["M"] + deg["M"] - 2, "M *1 M")
    with pytest.raises(ParseError, match="z1 has an entry on 'P'"):
        homogeneous({"P": ONE}, deg, 2, "z1")
