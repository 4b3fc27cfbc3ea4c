"""BV axioms, connection identities, and the distinguished-element chain."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import adjacent_root_problem
from novikov.bv import (
    BVModel,
    Connection,
    class_equation_residual,
    check_bv_axioms,
    check_delta_nabla,
    check_leibniz,
    check_minus1_delta,
    delta_nabla_residual,
    gauge_change,
    minus1_ambiguity_check,
    nabla_c,
    nablac_s_residual,
    nilpotent_class_model,
    nonlinear_a_residual,
    polyvector_model,
    polyvector_model_with_k,
    r_endomorphism_check,
    second_order_on_e,
)
from novikov.graded import vec_add, vec_is_zero, vec_scale, vec_sub
from novikov.ode import ODEProblem, projective_residual
from novikov.series import INF, NovikovSeries

F = Fraction
ONE = NovikovSeries.one()


def S(*terms, trunc=None):
    return NovikovSeries(terms, trunc if trunc is not None else float("inf"))


def failures(report):
    return [(c.name, c.detail) for c in report.failures()]


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_polyvector_axioms():
    model = polyvector_model(4)
    report = check_bv_axioms(model)
    assert report.passed, failures(report)


def test_one_dimensional_model():
    model = BVModel(degrees={"e": 0}, product={("e", "e"): {"e": ONE}})
    assert check_bv_axioms(model).passed


def test_axioms_detect_derivation_delta():
    # replace Delta by the odd derivation d/dx but keep the honest bracket
    # table: the bracket no longer matches its defining formula
    model = polyvector_model(4)
    table = {}
    for n1 in model.degrees:
        for n2 in model.degrees:
            table[(n1, n2)] = model.bracket(model.basis_vec(n1),
                                            model.basis_vec(n2))
    broken = BVModel(degrees=model.degrees, product=model.product,
                     delta={f"t{i}x": {f"t{i}": ONE} for i in range(4)},
                     unit="t0", bracket_table=table)
    report = check_bv_axioms(broken)
    by_name = {c.name: c.passed for c in report.checks}
    assert not by_name["delta-bracket"]
    assert by_name["delta-squared"]


# ---------------------------------------------------------------------------
# the bracket's structure constants against the defining formula
# ---------------------------------------------------------------------------


@st.composite
def model_and_vectors(draw, truncations):
    factory = draw(st.sampled_from([polyvector_model, polyvector_model_with_k]))
    model = factory(draw(st.integers(min_value=1, max_value=4)))
    names = sorted(model.degrees)
    series = st.builds(
        NovikovSeries,
        st.lists(st.tuples(st.integers(min_value=-2, max_value=4),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4)),
                 max_size=2),
        truncations)
    vector = st.dictionaries(st.sampled_from(names), series, max_size=5)
    return model, draw(vector), draw(vector)


@settings(max_examples=80, deadline=None)
@given(model_and_vectors(st.just(INF)))
def test_bracket_constants_match_formula_exactly(case):
    model, x1, x2 = case
    assert model.bracket(x1, x2) == model._derived_bracket(x1, x2)


@settings(max_examples=80, deadline=None)
@given(model_and_vectors(st.integers(min_value=1, max_value=6)))
def test_bracket_constants_match_formula_below_truncation(case):
    model, x1, x2 = case
    assert vec_is_zero(vec_sub(model.bracket(x1, x2), model._derived_bracket(x1, x2)))


def test_bracket_constants_fill_lazily_and_stay_out_of_the_model():
    model, fresh = polyvector_model(3), polyvector_model(3)
    shown = repr(model)
    model.bracket(model.basis_vec("t1x"), model.basis_vec("t1"))
    assert list(model._bracket_constants) == [("t1x", "t1")]
    assert model == fresh
    assert repr(model) == shown == repr(fresh)


def test_bracket_name_without_degree():
    model = polyvector_model(2)
    with pytest.raises(KeyError):
        model.bracket({"nope": ONE}, model.basis_vec("t1"))
    # a zero coefficient is skipped before its degree is looked up
    assert model.bracket({"nope": NovikovSeries.zero(3)}, model.basis_vec("t1")) == {}


def test_modified_bracket_examples():
    model = polyvector_model(4)
    tx, t = model.basis_vec("t1x"), model.basis_vec("t1")
    # [tx, t] = Delta(t^2 x) - Delta(tx).t = 2t^2 - t^2 = t^2
    plain = model.bracket(tx, t)
    assert vec_is_zero(vec_sub(plain, {"t2": ONE}))
    # [tx, t]^{-1} = [tx, t] + Delta(tx).t = t^2 + t^2
    mod = model.modified_bracket(tx, t)
    assert vec_is_zero(vec_sub(mod, {"t2": 2 * ONE}))
    # with Delta x1 = 0 both brackets agree
    x1 = model.basis_vec("t2")
    assert vec_is_zero(vec_sub(model.modified_bracket(x1, tx),
                               model.bracket(x1, tx)))


def test_modified_bracket_commutes_with_delta():
    # [x1, Delta x2]^{-1} = -(-1)^|x1| Delta [x1, x2]^{-1}
    model = polyvector_model(4)
    for n1 in model.degrees:
        x1 = model.basis_vec(n1)
        sign = (-1) ** model.degrees[n1]
        for n2 in model.degrees:
            x2 = model.basis_vec(n2)
            lhs = model.modified_bracket(x1, model.delta_apply(x2))
            rhs = vec_scale(-sign, model.delta_apply(model.modified_bracket(x1, x2)))
            assert vec_is_zero(vec_sub(lhs, rhs)), (n1, n2)


# ---------------------------------------------------------------------------
# connections: family, Leibniz, delta interaction, gauge
# ---------------------------------------------------------------------------


def random_alpha(model, rng):
    series = lambda: NovikovSeries(
        [(rng.randint(0, 3), F(rng.randint(-3, 3)))], truncation=8)
    return {n: series() for n, d in model.degrees.items() if d == 1}


def test_nabla_c_family():
    model = polyvector_model(3)
    nabla = Connection()
    a = {"t1": ONE}
    assert nabla_c(nabla, a, 0, model).linear == nabla.linear
    assert nabla_c(nabla, {}, 5, model).linear == nabla.linear
    minus1 = nabla_c(nabla, a, -1, model)
    out = minus1.apply(model.unit_vec(), model)
    assert vec_is_zero(vec_add(out, a))  # nabla^{-1} e = -a


def test_leibniz_constant_structure():
    model = polyvector_model(4)
    report = check_leibniz(Connection(), model)
    assert report.passed, failures(report)


def test_leibniz_q_dependent_entry_fails():
    model = polyvector_model(3)
    model.product[("t1", "t1")] = {"t2": S((0, 1), (1, 1))}
    report = check_leibniz(Connection(), model)
    row = report.checks[0]
    assert not row.passed
    # residual is the differentiated entry
    assert "(1)*t2" in row.detail


def test_delta_nabla_trivial_and_perturbed():
    model = polyvector_model(4)
    nabla = Connection()
    assert check_delta_nabla(nabla, model.unit_vec(), model).passed
    assert check_delta_nabla(nabla, {}, model).passed
    w = model.basis_vec("t1x")
    bad = vec_add(model.unit_vec(), w)
    for n in model.degrees:
        x = model.basis_vec(n)
        res = delta_nabla_residual(nabla, bad, x, model)
        assert vec_is_zero(vec_sub(res, model.bracket(w, x)))


def test_gauge_covariance():
    rng = random.Random(3)
    model = polyvector_model(4)
    nabla = Connection()
    a = model.unit_vec()
    for _ in range(10):
        alpha = random_alpha(model, rng)
        tilde, a_tilde = gauge_change(nabla, alpha, a, model)
        assert check_delta_nabla(tilde, a_tilde, model).passed
        assert check_leibniz(tilde, model).passed
        assert minus1_ambiguity_check(nabla, alpha, a, model).passed


def test_distinguished_a_from_bounding_data():
    model = polyvector_model(4)
    theta = {"t2x": NovikovSeries([(1, F(3))], truncation=9)}
    kappa = {"t1": NovikovSeries([(0, F(1, 2))], truncation=9)}
    model.elements["theta"] = theta
    model.elements["kappa"] = kappa
    a = model.distinguished_a()
    expect = vec_sub(model.delta_apply(theta), kappa)
    assert vec_is_zero(vec_sub(a, expect))
    model.elements["a"] = model.unit_vec()
    assert model.distinguished_a() == model.unit_vec()


def test_gauge_identity_direction():
    model = polyvector_model(3)
    nabla = Connection()
    tilde, a_tilde = gauge_change(nabla, {}, model.unit_vec(), model)
    assert tilde.linear == {n: {} for n in model.degrees}
    assert vec_is_zero(vec_sub(a_tilde, model.unit_vec()))


def central_extension_model():
    # unit e, an even class g with Delta g = h, and the odd h itself; all
    # products among {g, h} vanish, so the bracket is identically zero and
    # g is bracket-central with Delta g != 0
    model = BVModel(
        degrees={"e": 0, "g": 0, "h": -1},
        product={("e", "e"): {"e": ONE}, ("e", "g"): {"g": ONE},
                 ("e", "h"): {"h": ONE}, ("g", "g"): {}, ("g", "h"): {},
                 ("h", "h"): {}},
        delta={"g": {"h": ONE}})
    return model


def test_minus1_delta_with_exact_a():
    model = polyvector_model(4)
    report = check_minus1_delta(Connection(), model.unit_vec(), model)
    assert report.passed, failures(report)
    assert {c.name for c in report.checks} == {
        "minus1-delta-commutator", "minus1-delta-compatible"}


def test_minus1_delta_nonzero_delta_a():
    model = central_extension_model()
    assert check_bv_axioms(model).passed
    nabla = Connection()
    a = model.basis_vec("g")
    assert check_delta_nabla(nabla, a, model).passed
    report = check_minus1_delta(nabla, a, model)
    # only the commutator identity runs, and it pins the (Delta a).x form
    assert [c.name for c in report.checks] == ["minus1-delta-commutator"]
    assert report.passed
    minus1 = nabla_c(nabla, a, -1, model)
    e = model.unit_vec()
    commutator = vec_sub(minus1.apply(model.delta_apply(e), model),
                         model.delta_apply(minus1.apply(e, model)))
    assert vec_is_zero(vec_sub(commutator, model.basis_vec("h")))


# ---------------------------------------------------------------------------
# rotation endomorphism
# ---------------------------------------------------------------------------


def test_r_endomorphism_with_central_k():
    model = polyvector_model_with_k(3)
    report = r_endomorphism_check(model)
    assert report.passed, failures(report)
    for n in (2, 3):
        report = check_bv_axioms(polyvector_model_with_k(n))
        assert report.passed, failures(report)


def test_r_endomorphism_unit():
    model = polyvector_model(3)
    model.elements["k"] = model.unit_vec()
    report = r_endomorphism_check(model)
    assert report.passed
    for n in model.degrees:
        assert vec_is_zero(model.bracket(model.unit_vec(), model.basis_vec(n)))


def test_r_endomorphism_defect():
    model = polyvector_model(3)
    model.elements["k"] = model.basis_vec("t1x")  # Delta(t1x) = t0 != 0
    report = r_endomorphism_check(model)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["delta-k"].passed
    assert not by_name["r-two-forms"].passed
    x = model.basis_vec("t1")
    diff = vec_sub(model.modified_bracket(model.elements["k"], x),
                   model.bracket(model.elements["k"], x))
    dk = model.delta_apply(model.elements["k"])
    assert vec_is_zero(vec_sub(diff, model.mul(dk, x)))


# ---------------------------------------------------------------------------
# the distinguished-element equation and its equivalent forms
# ---------------------------------------------------------------------------


def sample_problem(rng):
    prob, _, _ = adjacent_root_problem(rng)
    return prob


def test_class_equation_by_construction():
    rng = random.Random(17)
    for _ in range(10):
        prob = sample_problem(rng)
        model, nabla, s = nilpotent_class_model(prob, n=4)
        assert vec_is_zero(class_equation_residual(nabla, s, prob, model))


def test_equivalence_chain():
    rng = random.Random(23)
    for _ in range(10):
        prob = sample_problem(rng)
        model, nabla, s = nilpotent_class_model(prob, n=4)
        a = vec_scale(-prob.psi, s)
        assert vec_is_zero(nonlinear_a_residual(nabla, a, prob, model, order=8))
        for c in (-1, 0, 1):
            assert vec_is_zero(nablac_s_residual(nabla, s, prob, c, model))
        assert vec_is_zero(second_order_on_e(nabla, s, prob, model, order=8))


def test_nabla1_kills_nonlinear_term():
    rng = random.Random(29)
    prob = sample_problem(rng)
    model, nabla, s = nilpotent_class_model(prob, n=4)
    a = vec_scale(-prob.psi, s)
    one = nabla_c(nabla, a, 1, model)
    res = vec_add(one.apply(s, model), vec_scale(prob.eta, s),
                  vec_scale(4 * prob.z2 * prob.psi, model.unit_vec()))
    assert vec_is_zero(res)


def test_nabla_c_on_unit_matches_scaled_class():
    rng = random.Random(31)
    prob = sample_problem(rng)
    model, nabla, s = nilpotent_class_model(prob, n=4)
    a = vec_scale(-prob.psi, s)
    for c in (-1, 0, 1, 2):
        conn = nabla_c(nabla, a, c, model)
        out = conn.apply(model.unit_vec(), model)
        assert vec_is_zero(vec_sub(out, vec_scale(-Fraction(c) * prob.psi, s)))


def test_scalar_shadow_matches_projective_residual():
    # rank-1 quotient: s acts by a scalar series; the equation's residual
    # collapses onto the projective form
    rng = random.Random(37)
    for _ in range(8):
        prob = sample_problem(rng)
        lam = NovikovSeries([(F(rng.randint(0, 4), 2), F(rng.randint(-3, 3)))
                             for _ in range(3)], truncation=8)
        model = BVModel(degrees={"e": 0}, product={("e", "e"): {"e": ONE}})
        s = {"e": lam}
        res = class_equation_residual(Connection(), s, prob, model)
        shadow = res.get("e", NovikovSeries.zero())
        target = projective_residual(lam, prob)
        order = min(shadow.truncation, target.truncation)
        assert shadow.equal_up_to(target, order)


def test_zero_class_forces_vanishing_source():
    prob = ODEProblem(ONE, NovikovSeries.zero(), NovikovSeries.zero())
    model, nabla, _ = nilpotent_class_model(prob, n=4)
    assert vec_is_zero(class_equation_residual(nabla, {}, prob, model))
