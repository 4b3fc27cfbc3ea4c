"""BV axioms, connection identities, and the distinguished-element chain."""

import copy
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import adjacent_root_problem, delta_nabla_residual
from novikov import bv
from novikov.bv import (
    BVModel,
    ClassTerms,
    Connection,
    check_bv_axioms,
    check_delta_nabla,
    check_leibniz,
    check_minus1_delta,
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
from novikov.graded import (
    accumulate,
    contract,
    index,
    integral_rows,
    linear_apply,
    signed_rows,
    sweep,
    vec_add,
    vec_get,
    vec_is_zero,
    vec_render,
    vec_scale,
    vec_sub,
)
from novikov.ode import ODEProblem, projective_residual
from novikov.report import Report, vanishes
from novikov.series import INF, NovikovSeries

F = Fraction
ONE = NovikovSeries.one()


def S(*terms, trunc=None):
    return NovikovSeries(terms, trunc if trunc is not None else float("inf"))


def failures(report):
    return [(c.name, c.detail) for c in report.checks if not c.passed]


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
# the compiled checks against per-tuple oracles
# ---------------------------------------------------------------------------


def table_mul(table, degrees, x, y):
    """The signed bilinear product of x and y straight from a structure
    table: a pair stored in one order serves the other with the Koszul
    sign (-1)^(|a||b|), and a pair stored in neither order is zero."""
    out = {}
    for kx, sx in x.items():
        for ky, sy in y.items():
            entry, sign = table.get((kx, ky)), 1
            if entry is None:
                entry = table.get((ky, kx))
                if entry is None:
                    continue
                sign = (-1) ** (degrees[kx] * degrees[ky])
            for kz, sz in entry.items():
                term = (sx * sy) * (sz if sign > 0 else -sz)
                out[kz] = out[kz] + term if kz in out else term
    return out


@st.composite
def tables_and_vectors(draw):
    """A structure table over a few names of mixed parity, each unordered
    pair stored in one order, the other, both, neither or as an empty row,
    with entries among exact and truncated zeros, q^0 constants and other
    series; and two vectors over those names."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    degrees = {n: draw(st.sampled_from([-1, 0, 1, 2, 3])) for n in names}
    entry = st.one_of(
        small_series,
        st.builds(NovikovSeries.zero, st.one_of(st.just(INF), st.integers(1, 4))),
        st.builds(NovikovSeries.monomial,
                  st.fractions(min_value=-3, max_value=3, max_denominator=3), st.just(0)))
    row = st.dictionaries(st.sampled_from(names), entry, min_size=1, max_size=3)
    table = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            stored = draw(st.sampled_from(["ab", "ba", "both", "neither", "empty"]))
            if stored in ("ab", "both"):
                table[(a, b)] = draw(row)
            if stored in ("ba", "both"):
                table[(b, a)] = draw(row)
            if stored == "empty":
                table[(a, b)] = {}
    vector = st.fixed_dictionaries({n: entry for n in names})
    return table, degrees, draw(vector), draw(vector)


@settings(max_examples=100, deadline=None)
@given(tables_and_vectors())
def test_contract_over_signed_rows_matches_table_oracle(case):
    table, degrees, x, y = case
    got = contract(signed_rows(table, degrees), x, y)
    want = table_mul(table, degrees, x, y)
    assert vec_is_zero(vec_sub(got, want))
    assert vec_render(got) == vec_render(want)


@settings(max_examples=100, deadline=None)
@given(tables_and_vectors(), st.integers(min_value=-2, max_value=2), st.booleans())
def test_sweep_adds_each_case_as_accumulate_does(case, f, left):
    # one pass adds the product of every first vector with every row it
    # meets; a case that no product reaches is absent, and accumulate
    # leaves it empty
    table, degrees, x, y = case
    rows = signed_rows(table, degrees)
    # the reference for a left index reads each row under its swapped pair
    reference = {(b, a): row for (a, b), row in rows.items()} if left else rows
    # a name with no row has an empty image, which reaches nothing
    images = {a: {} for a in degrees} | {a: row for (a, _), row in rows.items()}
    first = {"x": x, "y": y}
    want = {(k, n): accumulate({}, reference, v, n, f)
            for k, v in first.items() for n in degrees}
    assert sweep({}, first, index(rows, left), lambda k, n: ((k, n), f)) == {
        key: v for key, v in want.items() if v}
    want = {k: accumulate({}, images, v, scale=f) for k, v in first.items()}
    assert sweep({}, first, index(images), lambda k, n: (k, f)) == {
        k: v for k, v in want.items() if v}


@settings(max_examples=60, deadline=None)
@given(tables_and_vectors(), st.integers(min_value=-2, max_value=2))
def test_vector_helpers_and_kernels_leave_their_inputs_as_they_were(case, f):
    # the identity checks hand the model's rows to these as they are
    table, degrees, x, y = case
    rows = signed_rows(table, degrees)
    images = {a: row for (a, _), row in rows.items()}
    swapped = {(b, a): row for (a, b), row in rows.items()}
    before = copy.deepcopy((rows, x, y))
    contract(rows, x, y)
    linear_apply(images, x)
    for a in degrees:
        accumulate({}, rows, x, a, f)
        accumulate(dict(x), swapped, y, a, y[next(iter(y))])
    sweep({}, {"x": x, "y": y}, index(rows, left=True), lambda k, n: ((k, n), f))
    vec_add(x, y, x)
    vec_sub(x, y)
    vec_scale(f, y)
    vec_is_zero(x)
    vec_render(y)
    assert (rows, x, y) == before


class Oracle:
    """A model's operations straight from its tables: the signed table
    multiply, the linear Delta, and the bracket of each pair of basis names
    from its defining formula on basis vectors."""

    def __init__(self, model):
        self.model, self.degrees = model, model.degrees
        self.constants = {}

    def basis(self, name):
        return {name: ONE}

    def mul(self, x, y):
        return table_mul(self.model.product, self.degrees, x, y)

    def delta_apply(self, x):
        return linear_apply(self.model.delta, x)

    def bracket(self, x1, x2):
        # an exact zero is dropped; a truncated one carries unseen terms
        live = {k: s for k, s in x1.items() if s.exps or s.truncation != INF}
        for a in live:
            if a not in self.degrees:
                raise KeyError(a)
            for b in x2:
                if (a, b) not in self.constants:
                    x, y, sign = self.basis(a), self.basis(b), (-1) ** self.degrees[a]
                    self.constants[(a, b)] = vec_sub(
                        self.delta_apply(self.mul(x, y)),
                        vec_add(self.mul(self.delta_apply(x), y),
                                vec_scale(sign, self.mul(x, self.delta_apply(y)))))
        return table_mul(self.constants, self.degrees, live, x2)

    def supplied_bracket(self, x1, x2):
        if self.model.bracket_table is None:
            return self.bracket(x1, x2)
        return table_mul(self.model.bracket_table, self.degrees, x1, x2)


def oracle_bv_axioms(model):
    """The BV axioms, one residual per basis tuple through the oracle."""
    o = Oracle(model)
    report = Report()
    basis = [(n, o.basis(n)) for n in model.degrees]
    pairs = [(n1, x1, n2, x2) for n1, x1 in basis for n2, x2 in basis]
    triples = [(n1, x1, n2, x2, n3, x3)
               for n1, x1, n2, x2 in pairs for n3, x3 in basis]
    deg = model.degrees
    e = o.basis(model.unit)
    report.identity("unit", "e.x = x",
                    ((f"e.{n}", vec_sub(o.mul(e, x), x)) for n, x in basis))
    report.identity("commutativity", "",
                    ((f"[{n1},{n2}]",
                      vec_sub(o.mul(x1, x2),
                              vec_scale((-1) ** (deg[n1] * deg[n2]), o.mul(x2, x1))))
                     for n1, x1, n2, x2 in pairs))
    report.identity("associativity", "",
                    ((f"({n1}.{n2}).{n3}",
                      vec_sub(o.mul(o.mul(x1, x2), x3), o.mul(x1, o.mul(x2, x3))))
                     for n1, x1, n2, x2, n3, x3 in triples))
    report.residual("delta-e", "", o.delta_apply(e))
    report.identity("delta-squared", "",
                    ((f"Delta^2 {n}", o.delta_apply(o.delta_apply(x))) for n, x in basis))
    if model.bracket_table is not None:
        report.identity("delta-bracket", "",
                        ((f"[{n1},{n2}]",
                          vec_sub(o.supplied_bracket(x1, x2), o.bracket(x1, x2)))
                         for n1, x1, n2, x2 in pairs))
    report.identity("antisymmetry", "",
                    ((f"[{n2},{n1}]",
                      vec_sub(o.bracket(x2, x1),
                              vec_scale((-1) ** (deg[n1] * deg[n2]), o.bracket(x1, x2))))
                     for n1, x1, n2, x2 in pairs))
    report.identity("derivation-bracket", "",
                    ((f"[{n1},{n2}.{n3}]",
                      vec_sub(o.bracket(x1, o.mul(x2, x3)),
                              vec_add(o.mul(o.bracket(x1, x2), x3),
                                      vec_scale((-1) ** ((deg[n1] + 1) * deg[n2]),
                                                o.mul(x2, o.bracket(x1, x3))))))
                     for n1, x1, n2, x2, n3, x3 in triples))
    report.identity("jacobi", "",
                    ((f"jacobi({n1},{n2},{n3})",
                      vec_add(vec_scale((-1) ** deg[n1], o.bracket(x1, o.bracket(x2, x3))),
                              vec_scale((-1) ** (deg[n1] * (deg[n2] + deg[n3]) + deg[n2]),
                                        o.bracket(x2, o.bracket(x3, x1))),
                              vec_scale((-1) ** (deg[n3] * (deg[n1] + deg[n2] + 1)),
                                        o.bracket(x3, o.bracket(x1, x2)))))
                     for n1, x1, n2, x2, n3, x3 in triples))
    report.identity("e-is-ideal", "",
                    ((f"[e,{n}]", o.bracket(e, x)) for n, x in basis))
    report.identity("delta-bracket-2", "",
                    ((f"({n1},{n2})",
                      vec_add(o.delta_apply(o.bracket(x1, x2)),
                              o.bracket(o.delta_apply(x1), x2),
                              vec_scale((-1) ** deg[n1], o.bracket(x1, o.delta_apply(x2)))))
                     for n1, x1, n2, x2 in pairs))
    return report


def oracle_leibniz(nabla, model):
    """The two Leibniz rules, one residual per basis pair through the oracle."""
    o = Oracle(model)
    report = Report()
    basis = [(n, o.basis(n)) for n in model.degrees]
    pairs = [(n1, x1, n2, x2) for n1, x1 in basis for n2, x2 in basis]
    apply = nabla.apply
    report.identity("nabla-product", "",
                    ((f"({n1},{n2})",
                      vec_sub(apply(o.mul(x1, x2)),
                              vec_add(o.mul(apply(x1), x2), o.mul(x1, apply(x2)))))
                     for n1, x1, n2, x2 in pairs))
    report.identity("nabla-bracket", "",
                    ((f"({n1},{n2})",
                      vec_sub(apply(o.bracket(x1, x2)),
                              vec_add(o.bracket(apply(x1), x2), o.bracket(x1, apply(x2)))))
                     for n1, x1, n2, x2 in pairs))
    return report


def as_series(v):
    """A residual entry as a series: a rational is the exact constant."""
    return v if isinstance(v, NovikovSeries) else NovikovSeries.monomial(v, 0)


def decided(check, *args):
    """The rows of ``check(*args)`` and every case behind them: (row name,
    case label, residual divided back by the identity's factor, with
    rational entries made series and exact zeros dropped), truncated zeros
    kept."""
    cases = []
    identity = Report.identity

    def recording(self, name, equation, items, label=None, den=1):
        items = list(items)
        for key, res in items:
            res = {k: as_series(v) for k, v in vec_scale(F(1, den), res).items()}
            cases.append((name, key if label is None else label.format(*key),
                          {k: s for k, s in res.items() if s.terms or s.truncation != INF}))
        return identity(self, name, equation, items, label, den)

    with mock.patch.object(Report, "identity", recording):
        report = check(*args)
    return [(c.name, c.passed, c.detail) for c in report.checks], cases


def assert_matches_oracle(got, want):
    """*got* and *want*, from :func:`decided`, of a check and its oracle:
    the rows agree in full, each case the check evaluates is the oracle's
    case, in the oracle's order, and each oracle case the check skips has an
    empty residual, the one a case that no row reaches would have."""
    (rows, cases), (want_rows, want_cases) = got, want
    assert rows == want_rows
    evaluated = {case[:2] for case in cases}
    assert cases == [case for case in want_cases if case[:2] in evaluated]
    assert [case for case in want_cases if case[:2] not in evaluated and case[2]] == []


# check_bv_axioms checks these identities once per orbit of the rotations
# of their basis tuple (a swap, for a pair); the oracle checks every case
ORBIT_IDENTITIES = ("commutativity", "antisymmetry", "jacobi")


def case_tuple(name, label):
    """The basis tuple of a case of an orbit identity, read from its label;
    antisymmetry labels the pair (n1, n2) as [n2,n1]."""
    names = tuple(label.removeprefix("jacobi").strip("()[]").split(","))
    return names[::-1] if name == "antisymmetry" else names


def representative(t, model):
    """The rotation of t whose tuple of declaration ranks is least."""
    rank = {n: i for i, n in enumerate(model.degrees)}
    return min((t[i:] + t[:i] for i in range(len(t))),
               key=lambda u: [rank[n] for n in u])


def rotation_sign(t, degrees):
    """The residual at the rotation t[1:] + t[:1] over the residual at t:
    -(-1)^(|x1||x2|) for a pair, (-1)^(|x1|(|x2|+|x3|)) for a triple."""
    d = [degrees[n] for n in t]
    if len(t) == 2:
        return -(-1) ** (d[0] * d[1])
    return (-1) ** (d[0] * (d[1] + d[2]))


def at_representatives(decision, model):
    """*decision*, from :func:`decided`, with the cases of the orbit
    identities restricted to the orbit representatives."""
    def kept(name, label):
        if name not in ORBIT_IDENTITIES:
            return True
        t = case_tuple(name, label)
        return representative(t, model) == t

    rows, cases = decision
    return rows, [case for case in cases if kept(*case[:2])]


def exterior_model():
    """Exterior algebra on two odd classes, whose odd products reach the
    swap sign: y.x = -xy.  Not a BV algebra; only the oracle cares."""
    names = {"e": 0, "x": 1, "y": 1, "xy": 2}
    product = {("e", n): {n: ONE} for n in names}
    product[("x", "y")] = {"xy": ONE}
    delta = {"x": {"e": ONE}, "y": {"e": 2 * ONE}, "xy": {"x": ONE, "y": -ONE}}
    return BVModel(degrees=names, product=product, delta=delta, unit="e")


def rescaled(base, scale):
    """The product and Delta tables of *base* in the basis ``scale[b] * b``."""
    inverse = {b: s.invert() for b, s in scale.items()}
    product = {(l, r): {z: s * scale[l] * scale[r] * inverse[z] for z, s in entry.items()}
               for (l, r), entry in base.product.items()}
    delta = {b: {z: s * scale[b] * inverse[z] for z, s in image.items()}
             for b, image in base.delta.items()}
    return product, delta


def supplied_brackets(model):
    """The bracket of each unordered pair of basis names, by the oracle: a
    supplied bracket table that agrees with the derived one."""
    o, names = Oracle(model), list(model.degrees)
    return {(a, b): o.bracket(o.basis(a), o.basis(b))
            for i, a in enumerate(names) for b in names[i:]}


small_series = st.builds(
    NovikovSeries,
    st.lists(st.tuples(st.integers(min_value=-1, max_value=3),
                       st.fractions(min_value=-3, max_value=3, max_denominator=3)),
             max_size=2),
    st.one_of(st.just(INF), st.integers(min_value=1, max_value=5)))


@st.composite
def bv_models(draw):
    """A polyvector (n <= 4), polyvector-k (n <= 3, 12 names: n = 4 costs
    the oracle seconds per example) or exterior model, optionally in a
    basis rescaled by rationals or by monomials c*q^k, with some product
    rows truncated and given a truncated zero O(q^3), one entry perturbed,
    and a supplied bracket table."""
    base = draw(st.one_of(
        st.builds(polyvector_model, st.integers(min_value=1, max_value=4)),
        st.builds(polyvector_model_with_k, st.integers(min_value=1, max_value=3)),
        st.builds(exterior_model)))
    names = list(base.degrees)
    kind = draw(st.sampled_from(["plain", "rational", "q-dependent"]))
    nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    if kind == "plain":
        scale = {b: ONE for b in names}
    else:
        power = st.integers(min_value=-1, max_value=2) if kind == "q-dependent" else st.just(0)
        scale = {b: NovikovSeries.monomial(draw(nonzero), draw(power)) for b in names}
    product, delta = rescaled(base, scale)
    cut = draw(st.sampled_from([None, 2, 3, 5]))
    if cut is not None:
        for pair in draw(st.lists(st.sampled_from(sorted(product)), max_size=6)):
            product[pair] = {draw(st.sampled_from(names)): NovikovSeries.zero(3),
                             **{z: s.truncate(cut) for z, s in product[pair].items()}}
    perturb = draw(st.sampled_from([None, "product", "swapped", "delta"]))
    if perturb == "product":
        pair = draw(st.sampled_from(sorted(product)))
        z = draw(st.sampled_from(names))
        product[pair] = {**product[pair], z: vec_add(product[pair], {z: draw(small_series)})[z]}
    elif perturb == "swapped":
        # the swapped order stored as well, at twice the value commutativity implies
        l, r = draw(st.sampled_from([p for p in sorted(product) if p[::-1] not in product]))
        product[(r, l)] = vec_scale(2 * (-1) ** (base.degrees[l] * base.degrees[r]),
                                    product[(l, r)])
    elif perturb == "delta":
        b, z = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        value = draw(st.one_of(small_series, st.builds(NovikovSeries.zero, st.just(2))))
        delta[b] = {**delta.get(b, {}), z: value}
    model = BVModel(degrees=dict(base.degrees), product=product, delta=delta,
                    unit=base.unit)
    if draw(st.booleans()):
        # each unordered pair once: the other order takes the swap sign
        table = supplied_brackets(model)
        if draw(st.booleans()):
            pair = draw(st.sampled_from(sorted(table)))
            table[pair] = vec_add(table[pair], {draw(st.sampled_from(names)): draw(small_series)})
        model.bracket_table = table
    return model


@st.composite
def connections(draw, names):
    images = st.dictionaries(st.sampled_from(names), small_series, max_size=2)
    return Connection(draw(st.dictionaries(st.sampled_from(names), images, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(bv_models())
def test_axioms_match_per_tuple_oracle(model):
    assert_matches_oracle(decided(check_bv_axioms, model),
                          at_representatives(decided(oracle_bv_axioms, model), model))


@settings(max_examples=60, deadline=None)
@given(bv_models())
def test_skipped_cases_are_signed_copies_of_their_representatives(model):
    # what lets check_bv_axioms skip them: each oracle case of an orbit
    # identity is its representative's residual times the product of the
    # rotation signs from the representative to it
    _, cases = decided(oracle_bv_axioms, model)
    residual = {(name, case_tuple(name, label)): res
                for name, label, res in cases if name in ORBIT_IDENTITIES}
    skipped = 0
    for (name, t), res in residual.items():
        rep = representative(t, model)
        u, sign = rep, 1
        while u != t:
            sign *= rotation_sign(u, model.degrees)
            u = u[1:] + u[:1]
        assert res == {k: s * sign for k, s in residual[(name, rep)].items()}, (name, t)
        skipped += rep != t
    assert skipped


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leibniz_matches_per_tuple_oracle(data):
    model = data.draw(bv_models())
    nabla = data.draw(st.one_of(st.just(Connection()), connections(sorted(model.degrees))))
    assert_matches_oracle(decided(check_leibniz, nabla, model),
                          decided(oracle_leibniz, nabla, model))


def rescaled_rational_model():
    """``polyvector_model_with_k(2)`` with every class but the unit scaled
    by a rational, and its supplied brackets: a BV model of rational rows
    in every family."""
    base = polyvector_model_with_k(2)
    scale = {b: NovikovSeries.monomial(F(1) if b == base.unit else F(2 * i + 3, i + 2), 0)
             for i, b in enumerate(base.degrees)}
    product, delta = rescaled(base, scale)
    model = BVModel(degrees=dict(base.degrees), product=product, delta=delta, unit=base.unit)
    model.bracket_table = supplied_brackets(model)
    return model


def test_rational_model_axioms_make_no_fraction_arithmetic():
    # each row family is put over one integer denominator, so once its rows
    # are built a model of rational rows whose identities hold is checked
    # with int products and sums alone; the unit keeps scale 1
    model = rescaled_rational_model()
    rows = [model.product_rows, model.delta_rows, model.bracket_rows,
            model.brackets_of(model.degrees)]
    assert all(any(isinstance(v, Fraction) and v.denominator > 1
                   for row in family.values() for v in row.values()) for family in rows)
    calls = Counter()

    def counted(name):
        real = getattr(Fraction, name)

        def op(self, other):
            calls[name] += 1
            return real(self, other)
        return op

    with mock.patch.multiple(Fraction, **{name: counted(name) for name in (
            "__mul__", "__rmul__", "__add__", "__radd__")}):
        report = check_bv_axioms(model)
    assert report.passed, failures(report)
    assert calls == Counter()


def test_each_axiom_case_is_decided_once():
    # a case's residual comes over its identity's factor and is decided
    # once, by Report.identity, as it comes; delta-e is the one other row
    model = rescaled_rational_model()
    calls = []

    def counted(x):
        calls.append(x)
        return vec_is_zero(x)

    with mock.patch("novikov.report.vec_is_zero", counted), \
            mock.patch("novikov.graded.vec_is_zero", counted):
        rows, cases = decided(check_bv_axioms, model)
    assert all(passed for _, passed, _ in rows)
    assert len(calls) == len(cases) + 1


def test_failing_rational_cases_are_divided_back():
    # a case's residual is evaluated over d or d * d, d the one denominator
    # of all four row families, and divided back where it fails.  Here the
    # families' own denominators are 29393, 374, 2618 and 102, so d is
    # their lcm 1939938, and every identity fails, so a wrong factor in any
    # one changes its detail
    base = polyvector_model(3)
    names = list(base.degrees)
    scale = {b: NovikovSeries.monomial(F(p, 2 ** i), 0)
             for i, (b, p) in enumerate(zip(names, (5, 7, 11, 13, 17, 19)))}
    product, delta = rescaled(base, scale)
    product[("t1", "t0")] = vec_add(product[("t1", "t0")], {"t1": S((0, F(2, 7)))})
    delta["t0"] = {"t1x": S((0, F(3, 5)), (1, F(1, 4)), trunc=2)}
    model = BVModel(degrees=dict(base.degrees), product=product, delta=delta, unit="t0")
    table = supplied_brackets(model)
    table[("t1", "t1x")] = vec_add(table[("t1", "t1x")], {"t1": S((0, F(1, 3)))})
    model.bracket_table = table
    bracket = model.brackets_of(names)
    families = (model.product_rows, model.delta_rows, bracket, model.bracket_rows)
    assert [integral_rows(rows)[1] for rows in families] == [29393, 374, 2618, 102]
    assert integral_rows(*families)[1] == 1939938
    assert [(c.name, c.passed, c.detail) for c in check_bv_axioms(model).checks] == [
        ("unit", False, "e.t0: (4)*t0"),
        ("commutativity", False, "[t0,t1]: (-2/7)*t1"),
        ("associativity", False, "(t0x.t1).t0: (-22/13)*t1x"),
        ("delta-e", False, "(3/5 + 1/4*q^1 + O(q^2))*t1x"),
        ("delta-squared", False, "Delta^2 t0: (39/110 + 13/88*q^1 + O(q^2))*t1"),
        ("delta-bracket", False, "[t1,t1x]: (1/3)*t1"),
        ("antisymmetry", False, "[t1x,t0]: (-13/77)*t1"),
        ("derivation-bracket", False, "[t0,t0.t0]: (15 + 25/4*q^1 + O(q^2))*t1x"),
        ("jacobi", False, "jacobi(t0,t0,t0x): (21/2 + 35/8*q^1 + O(q^2))*t1x"),
        ("e-is-ideal", False, "[e,t0]: (-3 - 5/4*q^1 + O(q^2))*t1x"),
        ("delta-bracket-2", False, "(t0,t0): (-1443/770 - 481/616*q^1 + O(q^2))*t1"),
    ]


def test_truncated_zero_first_factor_matches_oracle():
    # bracket() keeps a first factor that is a truncated zero, as the
    # oracle's bracket does; here it meets one in [Delta x1, x2] and in
    # [nabla x1, x2]
    model = polyvector_model(4)
    model.delta["t0"] = {"t1x": NovikovSeries.zero(2)}
    nabla = Connection({"t1": {"t1x": NovikovSeries.zero(2)}})
    assert_matches_oracle(decided(check_bv_axioms, model),
                          at_representatives(decided(oracle_bv_axioms, model), model))
    assert_matches_oracle(decided(check_leibniz, nabla, model),
                          decided(oracle_leibniz, nabla, model))


def test_jacobi_sums_every_rotation_equal_to_its_triple():
    # with Delta t0 = t0, [t0,[t0,t0]] = 1*t0 and the three rotations of
    # (t0,t0,t0) are the one triple, so its residual sums all three signs
    model = polyvector_model(2)
    model.delta["t0"] = {"t0": ONE}
    got = decided(check_bv_axioms, model)
    assert ("jacobi", "jacobi(t0,t0,t0)", {"t0": S((0, 3))}) in got[1]
    assert ("jacobi", False, "jacobi(t0,t0,t0): (3)*t0") in got[0]
    assert_matches_oracle(got, at_representatives(decided(oracle_bv_axioms, model), model))


def test_a_negative_degree_signs_as_its_parity():
    # every sign is (-1)^p for an integer p, which depends on p mod 2 only,
    # so a class of degree -1 checks as one of degree 1 or 3; the sign
    # (-1) ** p is the float -1.0 at p = -1, which no entry may become
    def model(h):
        names = {"e": 0, "h": h, "g": 0, "k": 1}
        product = {("e", n): {n: ONE} for n in names}
        product.update({("e", "h"): {"g": S((0, F(1, 3)))}, ("h", "k"): {"g": S((0, F(1, 2)))},
                        ("g", "k"): {"h": ONE}})
        return BVModel(degrees=names, product=product, delta={"k": {"k": 3 * ONE}}, unit="e")

    report = check_bv_axioms(model(-1))
    assert report == check_bv_axioms(model(1)) == check_bv_axioms(model(3))
    assert ("jacobi", "jacobi(h,k,k): (9)*h") in failures(report)
    assert check_leibniz(Connection({"k": {"h": ONE}}), model(-1)) == check_leibniz(
        Connection({"k": {"h": ONE}}), model(1))


def test_checks_evaluate_only_the_cases_a_row_reaches():
    # the cases each identity reaches; associativity's 80 and
    # derivation-bracket's 114 are of the 8^3 = 512 basis triples each
    for model, counts in ((polyvector_model(4), (8, 16, 80, 14, 114, 26, 3, 9)),
                          (polyvector_model_with_k(2), (8, 14, 64, 9, 72, 16, 2, 6))):
        _, cases = decided(check_bv_axioms, model)
        assert Counter(name for name, _, _ in cases) == dict(zip(
            ("unit", "commutativity", "associativity", "antisymmetry",
             "derivation-bracket", "jacobi", "e-is-ideal", "delta-bracket-2"), counts))
    # constant rows and no linear part: nabla moves no row, and no bracket
    # row is built to find that out
    model = polyvector_model(8)
    rows, cases = decided(check_leibniz, Connection(), model)
    assert cases == []
    assert [passed for _, passed, _ in rows] == [True, True]
    assert model._bracket_constants == {}
    # nor does Delta commute with it, and a = 0 brackets nothing
    rows, cases = decided(check_delta_nabla, Connection(), {}, polyvector_model(8))
    assert (rows, cases) == ([("delta-nabla", True, "0")], [])
    # the connection rows at the default connection and a, then gauged:
    # delta-nabla, delta-nabla[gauged], minus1-delta-commutator and
    # minus1-delta-compatible
    for model, counts in ((polyvector_model(4), [3, 4, 3, 3]),
                          (polyvector_model_with_k(2), [2, 4, 2, 2])):
        nabla, a = Connection(), model.distinguished_a()
        tilde, a_tilde = gauge_change(nabla, random_alpha(model, random.Random(3)), a, model)
        _, minus1_cases = decided(check_minus1_delta, nabla_c(nabla, a, -1, model), a, model)
        reached = Counter(name for name, _, _ in minus1_cases)
        assert [len(decided(check_delta_nabla, nabla, a, model)[1]),
                len(decided(check_delta_nabla, tilde, a_tilde, model)[1]),
                reached["minus1-delta-commutator"], reached["minus1-delta-compatible"]] == counts


def oracle_apply(nabla, x):
    """nabla x: d_q of each coefficient plus the linear part."""
    return vec_add({k: s.d_q() for k, s in x.items()}, linear_apply(nabla.linear, x))


def oracle_nabla_c(o, nabla, a, c):
    """nabla^c x = nabla x + c*a.x, nabla itself when c or a is zero."""
    if c == 0 or vec_is_zero(a):
        return Connection(dict(nabla.linear))
    return Connection({n: vec_add(nabla.linear.get(n, {}), vec_scale(c, o.mul(a, o.basis(n))))
                       for n in o.degrees})


def oracle_delta_nabla(nabla, a, model):
    o = Oracle(model)
    report = Report()
    report.identity("delta-nabla", "",
                    ((n, vec_add(oracle_apply(nabla, o.delta_apply(x)),
                                 vec_scale(-1, o.delta_apply(oracle_apply(nabla, x))),
                                 o.bracket(a, x)))
                     for n, x in ((n, o.basis(n)) for n in model.degrees)))
    return report


def oracle_minus1_delta(nabla, a, model):
    o = Oracle(model)
    report = Report()
    minus1, da = oracle_nabla_c(o, nabla, a, -1), o.delta_apply(a)
    basis = [(n, o.basis(n)) for n in model.degrees]
    commutators = [vec_sub(oracle_apply(minus1, o.delta_apply(x)),
                           o.delta_apply(oracle_apply(minus1, x))) for _, x in basis]
    report.identity("minus1-delta-commutator", "",
                    ((n, vec_sub(c, o.mul(da, x))) for (n, x), c in zip(basis, commutators)))
    if vec_is_zero(da):
        report.identity("minus1-delta-compatible", "",
                        ((n, c) for (n, _), c in zip(basis, commutators)))
    return report


def oracle_gauge_change(o, nabla, alpha, a):
    """nabla~ x = nabla x - [alpha, x] and a~ = a + Delta(alpha)."""
    return (Connection({n: vec_sub(nabla.linear.get(n, {}), o.bracket(alpha, o.basis(n)))
                        for n in o.degrees}),
            vec_add(a, o.delta_apply(alpha)))


def oracle_minus1_ambiguity(nabla, alpha, a, model):
    o = Oracle(model)
    report = Report()
    tilde, a_tilde = oracle_gauge_change(o, nabla, alpha, a)
    minus1 = oracle_nabla_c(o, nabla, a, -1)
    minus1_tilde = oracle_nabla_c(o, tilde, a_tilde, -1)
    report.identity("minus1-ambiguity", "",
                    ((n, vec_sub(oracle_apply(minus1_tilde, x),
                                 vec_sub(oracle_apply(minus1, x),
                                         vec_add(o.delta_apply(o.mul(alpha, x)),
                                                 o.mul(alpha, o.delta_apply(x))))))
                     for n, x in ((n, o.basis(n)) for n in model.degrees)))
    return report


@st.composite
def connection_data(draw):
    """A model, a connection on it, an element a over any names and a gauge
    alpha of degree 1, each coefficient among series and truncated zeros."""
    model = draw(bv_models())
    names = sorted(model.degrees)
    odd = [n for n in names if model.degrees[n] == 1]
    a = draw(st.dictionaries(st.sampled_from(names), small_series, max_size=3))
    alpha = draw(st.dictionaries(st.sampled_from(odd), small_series, max_size=2))
    nabla = draw(st.one_of(st.just(Connection()), connections(names)))
    return model, nabla, a, alpha


@settings(max_examples=60, deadline=None)
@given(connection_data())
def test_delta_nabla_checks_match_per_name_oracle(case):
    model, nabla, a, _ = case
    assert_matches_oracle(decided(check_delta_nabla, nabla, a, model),
                          decided(oracle_delta_nabla, nabla, a, model))
    assert_matches_oracle(decided(check_minus1_delta, nabla_c(nabla, a, -1, model), a, model),
                          decided(oracle_minus1_delta, nabla, a, model))


@settings(max_examples=60, deadline=None)
@given(connection_data())
def test_gauge_checks_match_per_name_oracle(case):
    model, nabla, a, alpha = case
    tilde, a_tilde = gauge_change(nabla, alpha, a, model)
    assert_matches_oracle(decided(minus1_ambiguity_check, nabla_c(nabla, a, -1, model),
                                  nabla_c(tilde, a_tilde, -1, model), alpha, model),
                          decided(oracle_minus1_ambiguity, nabla, alpha, a, model))
    want_tilde, want_a = oracle_gauge_change(Oracle(model), nabla, alpha, a)
    assert_matches_oracle(decided(check_delta_nabla, tilde, a_tilde, model),
                          decided(oracle_delta_nabla, want_tilde, want_a, model))


def test_minus1_ambiguity_sums_alpha_delta_x_as_the_oracle():
    # alpha.(Delta n) is summed as (alpha_k * d) * p, as the oracle's table
    # product sums it: with d = 1 + O(q) and two alpha terms that cancel at
    # w, the regrouped d * (alpha.b) would keep a q^2 that this sum truncates
    model = BVModel(degrees={"e": 0, "x": 1, "y": 1, "b": 0, "w": 1, "n": 1},
                    product={("x", "b"): {"w": S((0, 1), (2, 1))}, ("y", "b"): {"w": ONE}},
                    delta={"n": {"b": S((0, 1), trunc=1)}}, unit="e")
    alpha = {"x": ONE, "y": -ONE}

    def oracle(model):
        # both connections zero: the residual is Delta(alpha.x) + alpha.(Delta x)
        o = Oracle(model)
        report = Report()
        report.identity("minus1-ambiguity", "",
                        ((n, vec_add(o.delta_apply(o.mul(alpha, x)),
                                     o.mul(alpha, o.delta_apply(x))))
                         for n, x in ((n, o.basis(n)) for n in model.degrees)))
        return report

    assert_matches_oracle(decided(minus1_ambiguity_check, Connection(), Connection(), alpha,
                                  model), decided(oracle, model))


def rows_of(model):
    """Every row the identity checks read, each bracket row filled first."""
    model.brackets_of(model.degrees)
    return (model.product_rows, model.delta_rows, model.bracket_rows,
            model._bracket_constants)


def assert_checks_leave_rows(model, nabla):
    before = copy.deepcopy(rows_of(model))
    axioms, leibniz = check_bv_axioms(model), check_leibniz(nabla, model)
    assert rows_of(model) == before
    # and a second run over the rows the first one read decides the same
    assert check_bv_axioms(model) == axioms
    assert check_leibniz(nabla, model) == leibniz


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_checks_leave_the_model_rows_as_they_were(data):
    model = data.draw(bv_models())
    assert_checks_leave_rows(model, data.draw(connections(sorted(model.degrees))))


def test_checks_leave_series_and_truncated_zero_rows_as_they_were():
    model = polyvector_model(3)
    model.product[("t1", "t1")] = {"t2": S((0, 1), (1, 1)), "t1": NovikovSeries.zero(3)}
    model.delta["t2x"] = {"t2": S((0, 2), trunc=4), "t1": NovikovSeries.zero(2)}
    nabla = Connection({"t1": {"t1x": S((1, 1), trunc=3)}})
    rows = rows_of(model)
    assert NovikovSeries.zero(3) in rows[0][("t1", "t1")].values()
    assert S((0, 2), trunc=4) in rows[1]["t2x"].values()
    assert_checks_leave_rows(model, nabla)


def count_series_products(monkeypatch):
    calls = []
    original = NovikovSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(NovikovSeries, "__mul__", counted)
    monkeypatch.setattr(NovikovSeries, "__rmul__", counted)
    return calls


def test_constant_model_checks_make_no_series_products(monkeypatch):
    model = polyvector_model(8)
    calls = count_series_products(monkeypatch)
    assert check_bv_axioms(model).passed
    assert check_leibniz(Connection(), model).passed
    assert not calls


def test_q_dependent_entry_makes_series_products(monkeypatch):
    model = polyvector_model(3)
    model.product[("t1", "t1")] = {"t2": S((0, 1), (1, 1))}
    calls = count_series_products(monkeypatch)
    assert not check_leibniz(Connection(), model).passed
    assert calls


# ---------------------------------------------------------------------------
# the bracket's structure constants against the defining formula
# ---------------------------------------------------------------------------


def homogeneous_parts(model, x):
    parts = {}
    for k, s in x.items():
        if not s.is_zero():
            parts.setdefault(model.degrees[k], {})[k] = s
    return parts


def derived_bracket(model, x1, x2):
    """Delta(x1.x2) - (Delta x1).x2 - (-1)^|x1| x1.(Delta x2) through the
    model's mul and Delta; x1 is split into homogeneous parts for the sign."""
    return vec_add(*(
        vec_sub(model.delta_apply(model.mul(part, x2)),
                vec_add(model.mul(model.delta_apply(part), x2),
                        vec_scale((-1) ** deg, model.mul(part, model.delta_apply(x2)))))
        for deg, part in homogeneous_parts(model, x1).items()))


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
    assert model.bracket(x1, x2) == derived_bracket(model, x1, x2)


@settings(max_examples=80, deadline=None)
@given(model_and_vectors(st.integers(min_value=1, max_value=6)))
def test_bracket_constants_match_formula_below_truncation(case):
    model, x1, x2 = case
    assert vec_is_zero(vec_sub(model.bracket(x1, x2), derived_bracket(model, x1, x2)))


def test_bracket_constants_fill_lazily_and_stay_out_of_the_model():
    model, fresh = polyvector_model(3), polyvector_model(3)
    shown = repr(model)
    model.bracket(model.basis_vec("t1x"), model.basis_vec("t1"))
    # the rows of the first factor t1x are built together, and no other
    assert {a for a, _ in model._bracket_constants} == {"t1x"}
    assert model._bracket_constants[("t1x", "t1")] == {"t2": 1}
    assert model == fresh
    assert repr(model) == shown == repr(fresh)


def test_bracket_name_without_degree():
    model = polyvector_model(2)
    with pytest.raises(KeyError):
        model.bracket({"nope": ONE}, model.basis_vec("t1"))
    # an exact zero is dropped before its degree is looked up
    assert model.bracket({"nope": NovikovSeries.zero()}, model.basis_vec("t1")) == {}
    # a truncated zero stands for unseen terms, so its name is looked up
    with pytest.raises(KeyError):
        model.bracket({"nope": NovikovSeries.zero(3)}, model.basis_vec("t1"))


def least_truncation(x):
    """The least truncation over the entries of *x*; a rational is exact."""
    return min((c.truncation for c in x.values() if isinstance(c, NovikovSeries)),
               default=INF)


@settings(max_examples=120, deadline=None)
@given(model_and_vectors(st.one_of(st.just(INF), st.integers(min_value=1, max_value=6))))
def test_bracket_keeps_truncations_in_either_order(case):
    model, x, y = case
    assert least_truncation(model.bracket(x, y)) == least_truncation(model.bracket(y, x))


def test_bracket_keeps_a_truncated_zero_of_its_first_factor():
    model, t1, zero2 = polyvector_model(2), {"t1": ONE}, NovikovSeries.zero(2)
    assert model.bracket({"t0x": zero2}, t1) == {"t1": zero2}
    assert model.bracket(t1, {"t0x": zero2}) == {"t1": zero2}


def modified_bracket(model, x1, x2):
    """[x1, x2]^{-1} = [x1, x2] + (Delta x1).x2, the modified bracket the
    rotation endomorphism's second form reads."""
    return vec_add(model.bracket(x1, x2), model.mul(model.delta_apply(x1), x2))


def test_modified_bracket_examples():
    model = polyvector_model(4)
    tx, t = model.basis_vec("t1x"), model.basis_vec("t1")
    # [tx, t] = Delta(t^2 x) - Delta(tx).t = 2t^2 - t^2 = t^2
    plain = model.bracket(tx, t)
    assert vec_is_zero(vec_sub(plain, {"t2": ONE}))
    # [tx, t]^{-1} = [tx, t] + Delta(tx).t = t^2 + t^2
    mod = modified_bracket(model, tx, t)
    assert vec_is_zero(vec_sub(mod, {"t2": 2 * ONE}))
    # with Delta x1 = 0 both brackets agree
    x1 = model.basis_vec("t2")
    assert vec_is_zero(vec_sub(modified_bracket(model, x1, tx),
                               model.bracket(x1, tx)))


def test_modified_bracket_commutes_with_delta():
    # [x1, Delta x2]^{-1} = -(-1)^|x1| Delta [x1, x2]^{-1}
    model = polyvector_model(4)
    for n1 in model.degrees:
        x1 = model.basis_vec(n1)
        sign = (-1) ** model.degrees[n1]
        for n2 in model.degrees:
            x2 = model.basis_vec(n2)
            lhs = modified_bracket(model, x1, model.delta_apply(x2))
            rhs = vec_scale(-sign, model.delta_apply(modified_bracket(model, x1, x2)))
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
    out = minus1.apply(model.unit_vec())
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
        assert minus1_ambiguity_check(nabla_c(nabla, a, -1, model),
                                      nabla_c(tilde, a_tilde, -1, model), alpha, model).passed


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
    e = model.unit_vec()
    report = check_minus1_delta(nabla_c(Connection(), e, -1, model), e, model)
    assert report.passed, failures(report)
    assert {c.name for c in report.checks} == {
        "minus1-delta-commutator", "minus1-delta-compatible"}


def test_minus1_delta_nonzero_delta_a():
    model = central_extension_model()
    assert check_bv_axioms(model).passed
    nabla = Connection()
    a = model.basis_vec("g")
    assert check_delta_nabla(nabla, a, model).passed
    minus1 = nabla_c(nabla, a, -1, model)
    report = check_minus1_delta(minus1, a, model)
    # only the commutator identity runs, and it pins the (Delta a).x form
    assert [c.name for c in report.checks] == ["minus1-delta-commutator"]
    assert report.passed
    e = model.unit_vec()
    commutator = vec_sub(minus1.apply(model.delta_apply(e)),
                         model.delta_apply(minus1.apply(e)))
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


def test_r_endomorphism_stops_at_the_first_failing_name(monkeypatch):
    model = polyvector_model_with_k(3)
    model.elements["k"] = model.basis_vec("t1x")  # Delta k = t1, and t1.t0 = t1
    # each name's residual is decided once, so one decision is one name
    calls = []
    monkeypatch.setattr(bv, "vanishes", lambda res: calls.append(res) or vanishes(res))
    row = r_endomorphism_check(model).checks[-1]
    assert len(model.degrees) == 12 and len(calls) == 1
    assert (row.name, row.passed) == ("r-two-forms", False)
    assert row.detail == "t0: (-1)*t1 (= -(Delta k).t0)"


def test_r_endomorphism_defect():
    model = polyvector_model(3)
    model.elements["k"] = model.basis_vec("t1x")  # Delta(t1x) = t0 != 0
    report = r_endomorphism_check(model)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["delta-k"].passed
    assert not by_name["r-two-forms"].passed
    x = model.basis_vec("t1")
    diff = vec_sub(modified_bracket(model, model.elements["k"], x),
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
        assert vec_is_zero(nablac_s_residual(nabla, 0, ClassTerms.of(prob, model, s)))


def test_equivalence_chain():
    rng = random.Random(23)
    for _ in range(10):
        prob = sample_problem(rng)
        model, nabla, s = nilpotent_class_model(prob, n=4)
        t, p = ClassTerms.of(prob, model, s), prob.p_coefficient(8)
        assert vec_is_zero(nonlinear_a_residual(nabla, t, p))
        for c in (-1, 0, 1):
            assert vec_is_zero(nablac_s_residual(nabla_c(nabla, t.a, c, model), c, t))
        assert vec_is_zero(second_order_on_e(nabla_c(nabla, t.a, 1, model), t, p))


def test_nabla1_kills_nonlinear_term():
    rng = random.Random(29)
    prob = sample_problem(rng)
    model, nabla, s = nilpotent_class_model(prob, n=4)
    a = vec_scale(-prob.psi, s)
    one = nabla_c(nabla, a, 1, model)
    res = vec_add(one.apply(s), vec_scale(prob.eta, s),
                  vec_scale(4 * prob.z2 * prob.psi, model.unit_vec()))
    assert vec_is_zero(res)


def test_nabla_c_on_unit_matches_scaled_class():
    rng = random.Random(31)
    prob = sample_problem(rng)
    model, nabla, s = nilpotent_class_model(prob, n=4)
    a = vec_scale(-prob.psi, s)
    for c in (-1, 0, 1, 2):
        conn = nabla_c(nabla, a, c, model)
        out = conn.apply(model.unit_vec())
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
        res = nablac_s_residual(Connection(), 0, ClassTerms.of(prob, model, s))
        shadow = res.get("e", NovikovSeries.zero())
        target = projective_residual(lam, prob)
        order = min(shadow.truncation, target.truncation)
        assert shadow.equal_up_to(target, order)


def test_zero_class_forces_vanishing_source():
    prob = ODEProblem(ONE, NovikovSeries.zero(), NovikovSeries.zero())
    model, nabla, _ = nilpotent_class_model(prob, n=4)
    assert vec_is_zero(nablac_s_residual(nabla, 0, ClassTerms.of(prob, model, {})))


@st.composite
def class_equation_draws(draw):
    """The nilpotent model of an adjacent-root problem at n = 2..5, with its
    own connection, under which every form vanishes, or a random one with
    truncated series images, under which the forms are residuals of a
    non-solution."""
    prob = sample_problem(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    model, nabla, s = nilpotent_class_model(prob, draw(st.integers(2, 5)))
    if draw(st.booleans()):
        nabla = draw(connections(sorted(model.degrees)))
    return model, nabla, ClassTerms.of(prob, model, s)


def coefficient_pairs(x, y):
    """The coefficients of x and y at each name either has; a missing one
    is the exact zero."""
    return [(vec_get(x, k), vec_get(y, k)) for k in sorted(set(x) | set(y))]


@settings(max_examples=60, deadline=None)
@given(class_equation_draws())
def test_class_equation_forms_relate_away_from_a_solution(case):
    model, nabla, t = case
    # the c*a.s of nabla^c cancels the c*psi*s.s term, truncations included
    forms = {c: nablac_s_residual(nabla_c(nabla, t.a, c, model), c, t) for c in (-1, 0, 1)}
    for c in (-1, 1):
        for got, want in coefficient_pairs(forms[c], forms[0]):
            assert got == want, c
    # a = -psi*s: nonlinear-a agrees with -psi times the class equation
    # below each entry's lesser truncation, and, dividing by psi in p,
    # never knows more
    lhs = nonlinear_a_residual(nabla, t, t.prob.p_coefficient(8))
    for got, want in coefficient_pairs(lhs, vec_scale(-t.prob.psi, forms[0])):
        assert (got - want).is_zero(), (got, want)
        assert got.truncation <= want.truncation, (got, want)
