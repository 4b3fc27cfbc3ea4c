"""Arithmetic and truncation contracts of the scalar series type."""

import sys
from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novikov.errors import InsufficientPrecision, NovikovError, ParseError
from novikov import series
from novikov.series import INF, NovikovSeries

F = Fraction


def S(*terms, trunc=INF):
    return NovikovSeries(terms, trunc)


# ---------------------------------------------------------------------------
# add / mul / d_q / invert examples
# ---------------------------------------------------------------------------


def test_add_cancellation():
    a = S((F(1, 2), 1), (1, 2))
    b = S((F(1, 2), -1))
    assert a + b == S((1, 2))


def test_add_identity():
    a = S((0, 1), (1, 5), trunc=7)
    assert a + NovikovSeries.zero() == a


def test_add_truncation_drops_unknown_orders():
    # (1 + q | T=2) + (q^2 | T=3): the q^2 term lies beyond the result's
    # truncation min(2, 3) = 2 and must not be kept.
    a = S((0, 1), (1, 1), trunc=2)
    b = S((2, 1), trunc=3)
    out = a + b
    assert out == S((0, 1), (1, 1), trunc=2)


def test_mul_telescoping():
    a = S((0, 1), (1, 1))
    b = S((0, 1), (1, -1), (2, 1), (3, -1), trunc=4)
    out = a * b
    # (1+q)(1-q+q^2-q^3) = 1 - q^4, truncated at min(inf+0, 4+0) = 4
    assert out == S((0, 1), trunc=4)


def test_mul_monomials_add_exponents():
    a = NovikovSeries.monomial(1, F(3, 2))
    b = NovikovSeries.monomial(1, F(-1, 2))
    assert a * b == S((1, 1))


def test_mul_by_exact_zero_is_exact_zero():
    a = S((0, 2), (1, 1), trunc=5)
    out = a * NovikovSeries.zero()
    assert out.is_zero()
    assert out.truncation == INF


def test_mul_of_truncated_zeros_keeps_truncation():
    # the valuation of a zero known below q^T is at least T, so the product
    # is known below q^(5+3); exact zero times anything stays exact zero
    assert NovikovSeries.zero(5) * NovikovSeries.zero(3) == NovikovSeries.zero(8)
    assert NovikovSeries.zero(5) * NovikovSeries.zero() == NovikovSeries.zero()
    assert NovikovSeries.zero() * NovikovSeries.zero(3) == NovikovSeries.zero()
    a, b = NovikovSeries.zero(F(-1, 2)), NovikovSeries.zero(F(1, 3))
    assert a * b == NovikovSeries.zero(F(-1, 6))
    # against a stored term the bound min(5 + 2, 9 + 5) is unchanged
    assert NovikovSeries.zero(5) * S((2, 1), trunc=9) == NovikovSeries.zero(7)


def test_invert_binomial_matches_geometric_expansion():
    a = S((0, 2), (1, 1))
    inv = a.invert(order=4)
    assert inv == S((0, F(1, 2)), (1, F(-1, 4)), (2, F(1, 8)), (3, F(-1, 16)),
                    trunc=4)
    # independent check: multiply back
    assert (a * inv).equal_up_to(NovikovSeries.one(), 4)


def test_invert_monomial():
    assert NovikovSeries.monomial(1, 3).invert() == S((-3, 1))


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        NovikovSeries.zero().invert()
    with pytest.raises(ZeroDivisionError):
        NovikovSeries.zero(truncation=2).invert()


def test_invert_exact_multiterm_requires_order():
    with pytest.raises(ValueError):
        S((0, 1), (1, 1)).invert()


def test_invert_truncation_propagation():
    # val 1, T = 5: inverse is exact below 5 - 2 = 3
    a = S((1, 1), (2, 1), trunc=5)
    assert a.invert().truncation == 3


def test_d_q_power_rule():
    assert S((F(5, 2), 3)).d_q() == S((F(3, 2), F(15, 2)))


def test_d_q_constant():
    assert NovikovSeries.one().d_q().is_zero()


def test_d_q_negative_exponent():
    assert S((-1, 1)).d_q() == S((-2, -1))


def test_d_q_truncation():
    assert S((0, 1), trunc=3).d_q().truncation == 2


# ---------------------------------------------------------------------------
# equal_up_to
# ---------------------------------------------------------------------------


def test_equal_up_to_ignores_high_terms():
    a = S((0, 1), (1, 1), trunc=4)
    b = S((0, 1), (1, 1), (F(7, 2), 1), trunc=4)
    assert a.equal_up_to(b, 3)


def test_equal_up_to_detects_difference():
    assert not NovikovSeries.one().equal_up_to(S((0, 1), (1, 1)), 3)


def test_equal_up_to_insufficient_precision():
    a = S((0, 1), trunc=1)
    b = S((0, 1), trunc=1)
    with pytest.raises(InsufficientPrecision):
        a.equal_up_to(b, 2)


# ---------------------------------------------------------------------------
# field axioms on random lattice series (exponents in (1/2)Z)
# ---------------------------------------------------------------------------

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
exponents = st.integers(min_value=-4, max_value=7).map(lambda n: F(n, 2))


@st.composite
def lattice_series(draw, min_terms=0):
    n = draw(st.integers(min_value=min_terms, max_value=4))
    terms = [(draw(exponents), draw(coeffs)) for _ in range(n)]
    return NovikovSeries(terms, truncation=6)


@settings(max_examples=60)
@given(lattice_series(), lattice_series(), lattice_series())
def test_add_associative_and_distributive(a, b, c):
    lhs = (a + b) + c
    assert lhs.equal_up_to(a + (b + c), lhs.truncation)
    # a*(b + c) can be known further than a*b + a*c: when b + c cancels to a
    # truncated zero, its valuation bound exceeds those of b and c
    d, e = a * (b + c), a * b + a * c
    assert d.equal_up_to(e, min(d.truncation, e.truncation))


@settings(max_examples=60)
@given(lattice_series(min_terms=1).filter(lambda s: not s.is_zero()))
def test_mul_by_inverse_is_one(a):
    inv = a.invert()
    prod = a * inv
    if prod.truncation > 0:
        assert prod.equal_up_to(NovikovSeries.one(), prod.truncation)


@settings(max_examples=60)
@given(lattice_series(), lattice_series())
def test_leibniz_rule(a, b):
    lhs = (a * b).d_q()
    rhs = a.d_q() * b + a * b.d_q()
    order = min(lhs.truncation, rhs.truncation)
    assert lhs.equal_up_to(rhs, order)


@settings(max_examples=60)
@given(lattice_series(), lattice_series())
def test_truncation_monotonic(a, b):
    assert (a + b).truncation <= min(a.truncation, b.truncation)
    assert (a * b).truncation <= min(a.truncation + b.valuation(),
                                     b.truncation + a.valuation())
    assert a.d_q().truncation <= a.truncation - 1


# ---------------------------------------------------------------------------
# the kernels against the expansions they replaced
# ---------------------------------------------------------------------------


def valuation_bound(a):
    """The lowest term, or the truncation of a series with no stored term."""
    return a.valuation() if a.terms else a.truncation


def oracle_mul(a, b):
    """Every term product, handed to the public constructor."""
    trunc = min(a.truncation + valuation_bound(b), b.truncation + valuation_bound(a))
    return NovikovSeries(((ea + eb, ca * cb)
                          for ea, ca in a.terms for eb, cb in b.terms), trunc)


def oracle_invert(a, order=None):
    """``1/(1 + x)`` summed as the geometric series of full products."""
    if not a.terms:
        raise ZeroDivisionError("no invertible leading term within truncation")
    v = a.valuation()
    lead = a.terms[0][1]
    target = a.truncation - 2 * v
    if order is not None:
        target = min(target, F(order))
    if target == INF and len(a.terms) > 1:
        raise ValueError("inverse of a multi-term exact series is infinite")
    head = NovikovSeries.monomial(1 / lead, -v)
    if len(a.terms) == 1:
        return head.truncate(target)
    rel = target + v
    x = NovikovSeries(((e - v, c / lead) for e, c in a.terms[1:]), rel)
    acc = NovikovSeries.one(rel)
    power = NovikovSeries.one(rel)
    while True:
        power = oracle_mul(power, -x).truncate(rel)
        if power.is_zero():
            break
        acc = acc + power
    return oracle_mul(head, acc).truncate(target)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


# steps with denominators 2, 3 and 5 at once: the exponent monoid is not
# one lattice
mixed_exponents = st.builds(F, st.integers(min_value=-6, max_value=12),
                            st.sampled_from([1, 2, 3, 5]))
truncations = st.one_of(st.just(INF), mixed_exponents)


def literal(x):
    """The rational *x* as the constructor may receive it: itself, an int
    when whole, or a string, reduced ("1/2") or not ("2/4")."""
    forms = [st.just(x), st.just(str(x)),
             st.integers(min_value=2, max_value=4).map(
                 lambda m: f"{x.numerator * m}/{x.denominator * m}")]
    if x.denominator == 1:
        forms.append(st.just(int(x)))
    return st.one_of(forms)


@st.composite
def mixed_literals(draw, max_terms=5):
    """``(pairs, truncation)`` for the constructor: literal pairs with
    repeated exponents, zero coefficients, unreduced strings and, now and
    then, a negated copy of every pair, so that the sum cancels fully."""
    raw = draw(st.lists(st.tuples(mixed_exponents, coeffs), max_size=max_terms))
    if raw and draw(st.integers(min_value=0, max_value=7)) == 0:
        raw = raw + [(e, -c) for e, c in raw]
    pairs = [(draw(literal(e)), draw(literal(c))) for e, c in raw]
    trunc = draw(truncations)
    return pairs, trunc if trunc == INF else draw(literal(trunc))


@st.composite
def lattice_literals(draw):
    """``(pairs, truncation)`` on integer exponents with an integer
    truncation, where products and sums land on the truncation often."""
    small = st.integers(min_value=-3, max_value=6)
    raw = draw(st.lists(st.tuples(small, coeffs), max_size=5))
    pairs = [(draw(literal(F(e))), draw(literal(c))) for e, c in raw]
    return pairs, draw(st.one_of(st.just(INF), small.map(F)))


@st.composite
def mixed_series(draw, max_terms=5):
    return NovikovSeries(*draw(mixed_literals(max_terms)))


@st.composite
def invertible_literals(draw):
    """``(pairs, truncation)``: a nonzero leading term at a valuation that
    may be negative, then terms above it at offsets with mixed
    denominators, all as literals."""
    v = draw(st.builds(F, st.integers(min_value=-6, max_value=4),
                       st.sampled_from([1, 2, 3])))
    lead = draw(coeffs.filter(bool))
    offsets = st.builds(F, st.integers(min_value=1, max_value=6),
                        st.sampled_from([2, 3, 5]))
    rest = draw(st.lists(st.tuples(offsets, coeffs), max_size=5))
    terms = [(v, lead)] + [(v + d, c) for d, c in rest]
    pairs = [(draw(literal(e)), draw(literal(c))) for e, c in terms]
    trunc = draw(truncations.filter(lambda t: t > v))
    return pairs, trunc if trunc == INF else draw(literal(trunc))


@st.composite
def invertible_series(draw):
    return NovikovSeries(*draw(invertible_literals()))


@settings(max_examples=150)
@given(mixed_series(), mixed_series())
def test_mul_matches_full_product(a, b):
    assert a * b == oracle_mul(a, b)


# one stored term, or none when the drawn term lies at or above the
# truncation (a truncated zero) or the series is exact zero
one_term_series = st.one_of(
    st.builds(lambda e, c, t: NovikovSeries([(e, c)], t),
              mixed_exponents, coeffs.filter(bool), truncations),
    st.builds(NovikovSeries.zero, truncations))
scalars = st.one_of(st.integers(min_value=-4, max_value=4), coeffs)


@settings(max_examples=200)
@given(one_term_series, one_term_series)
def test_one_term_mul_matches_full_product(a, b):
    assert a * b == oracle_mul(a, b)


@settings(max_examples=100)
@given(scalars, st.one_of(one_term_series, mixed_series()))
def test_scalar_mul_matches_full_product(c, a):
    expected = oracle_mul(NovikovSeries.monomial(c, 0), a)
    assert c * a == expected
    assert a * c == expected


@settings(max_examples=100)
@given(st.one_of(mixed_series(), one_term_series,
                 st.builds(NovikovSeries.zero, mixed_exponents)))
def test_mul_by_exact_one_is_the_series(a):
    # exact, truncated and truncated-zero series alike: an exact 1 has
    # valuation 0, so the truncation stays
    for got in (a * 1, 1 * a, a * F(1), F(1) * a):
        assert got == a
        assert got.truncation == a.truncation
        assert got.render() == a.render()


@settings(max_examples=150, deadline=None)
@given(invertible_series(), st.one_of(st.none(), mixed_exponents))
def test_invert_matches_geometric_expansion(a, order):
    assert outcome(a.invert, order) == outcome(oracle_invert, a, order)


def test_invert_steps_half_third_fifth():
    a = S((-1, 3), (F(-1, 2), 1), (F(-2, 3), -2), (F(-4, 5), F(1, 2)), trunc=3)
    inv = a.invert(order=F(5, 2))
    assert inv == oracle_invert(a, F(5, 2))
    assert len(inv.terms) > 20
    assert (a * inv).equal_up_to(NovikovSeries.one(), F(3, 2))


@settings(max_examples=40)
@given(invertible_series(), st.integers(min_value=0, max_value=3))
def test_invert_to_order_at_or_below_minus_valuation_is_empty(a, below):
    order = -a.valuation() - below
    inv = a.invert(order)
    assert inv == NovikovSeries.zero(min(a.truncation - 2 * a.valuation(), order))
    assert inv == oracle_invert(a, order)


def test_invert_200_terms_is_not_cubic():
    # The geometric expansion took about 30 s here; the recurrence takes
    # well under a second.
    a = S((0, 2), *((i, F(i % 11 - 5, i % 3 + 1)) for i in range(1, 200)))
    inv = a.invert(200)
    assert inv.truncation == 200
    assert (a * inv).equal_up_to(NovikovSeries.one(), 200)


def test_invert_walk_is_capped(monkeypatch):
    # 1 + q^(1/(10^6+1)) + q^(1/(10^5+3)) puts 50,601 exponents below
    # q^(1/1000) and runs without end to q^2: refused by name
    a = S((0, 1), (F(1, 10 ** 6 + 1), 1), (F(1, 10 ** 5 + 3), 1))
    with pytest.raises(NovikovError, match="MAX_INVERT_PRODUCTS = 20000"):
        a.invert(order=2)
    # the cap counts coefficient products and is inclusive: 1/(1+q) to q^11
    # finishes 11 exponents with 10 products, the last having no step below
    # the order
    monkeypatch.setattr(series, "MAX_INVERT_PRODUCTS", 10)
    assert len(S((0, 1), (1, 1)).invert(order=11).exps) == 11
    with pytest.raises(NovikovError, match="MAX_INVERT_PRODUCTS = 10 "):
        S((0, 1), (1, 1)).invert(order=12)
    # each finished exponent counts every step below the order, so many
    # steps reach the cap after few exponents: for 1 + q + ... + q^10 to
    # q^11, b_0 makes 10 products and b_1 another 9
    many = S(*((k, 1) for k in range(11)))
    assert many.invert(order=2).exps == [0, 1]
    with pytest.raises(NovikovError, match="MAX_INVERT_PRODUCTS = 10 "):
        many.invert(order=11)


# ---------------------------------------------------------------------------
# bigint numerators and denominators
# ---------------------------------------------------------------------------

PRIMES = [p for p in range(2, 420) if all(p % d for d in range(2, p))][:80]


def test_invert_steps_with_new_denominators():
    # the step coefficients have denominators 2, 3, 5, ..., so the lcm of
    # the finished coefficients' denominators grows at several steps
    a = S((0, 1), *((i, F(1, p)) for i, p in enumerate(PRIMES[:10], start=1)),
          trunc=40)
    inv = a.invert(30)
    assert inv == oracle_invert(a, 30)
    lcms = set(accumulate((c.denominator for _, c in inv.terms), lcm))
    assert len(lcms) > 5


def test_mul_of_coprime_denominators():
    a = S(*((F(i, 2), F(i % 7 - 3, p)) for i, p in enumerate(PRIMES[:40])),
          trunc=F(41, 2))
    b = S(*((F(i, 3), F(1 - i, p)) for i, p in enumerate(PRIMES[40:80])))
    out = a * b
    assert out == oracle_mul(a, b)
    assert out.truncation == F(41, 2)
    assert max(c.denominator for _, c in out.terms).bit_length() > 100


def test_mul_of_an_order_60_inverse():
    a = S((0, F(3, 7)), *((i, F(i % 5 - 2, PRIMES[i])) for i in range(1, 20)),
          trunc=80)
    inv = a.invert(60)
    assert inv == oracle_invert(a, 60)
    assert len(inv.terms) == 60
    b = S(*((F(i, 2), F(1, PRIMES[i])) for i in range(40)), trunc=F(45, 2))
    assert inv * b == oracle_mul(inv, b)
    assert inv * inv == oracle_mul(inv, inv)


# ---------------------------------------------------------------------------
# results built without the public constructor stay canonical
# ---------------------------------------------------------------------------


@st.composite
def overlapping_pairs(draw):
    """Two mixed series; the second repeats some exponents of the first,
    some with the cancelling coefficient, and has its own truncation."""
    a = draw(mixed_series())
    b = draw(mixed_series())
    shared = draw(st.lists(st.tuples(st.sampled_from(a.terms), st.booleans()),
                           max_size=len(a.terms))) if a.terms else []
    extra = [(e, -c if cancel else c) for (e, c), cancel in shared]
    return a, NovikovSeries(b.terms + tuple(extra), draw(truncations))


def assert_canonical(s):
    exps = [e for e, _ in s.terms]
    assert all(type(e) is Fraction for e in exps)
    assert all(x < y for x, y in zip(exps, exps[1:]))
    assert all(type(c) is Fraction and c != 0 for _, c in s.terms)
    assert all(e < s.truncation for e in exps)
    assert s.truncation == INF or type(s.truncation) is Fraction


@settings(max_examples=200)
@given(overlapping_pairs(), truncations)
def test_add_neg_d_q_truncate_are_canonical(pair, order):
    a, b = pair
    trunc = min(a.truncation, b.truncation)
    neg_b = tuple((e, -c) for e, c in b.terms)
    expected = [
        (a + b, NovikovSeries(a.terms + b.terms, trunc)),
        (a - b, NovikovSeries(a.terms + neg_b, trunc)),
        (-b, NovikovSeries(neg_b, b.truncation)),
        (a + (-a), NovikovSeries.zero(a.truncation)),
        (a.d_q(), NovikovSeries(((e - 1, c * e) for e, c in a.terms), a.truncation - 1)),
        (a.truncate(order), NovikovSeries(a.terms, min(a.truncation, order))),
    ]
    for got, want in expected:
        assert got == want
        assert_canonical(got)


# ---------------------------------------------------------------------------
# an independent reference over plain {exponent: coefficient} dicts
# ---------------------------------------------------------------------------
#
# A reference series is a pair (terms, trunc): a dict of nonzero Fraction
# coefficients keyed by Fraction exponents below trunc, and trunc, a
# Fraction or INF.  It reads literals with Fraction alone and never looks
# at how NovikovSeries stores a series.


def ref(pairs, trunc=INF):
    t = INF if trunc == INF else F(trunc)
    terms = {}
    for e, c in pairs:
        e, c = F(e), F(c)
        if e < t:
            terms[e] = terms.get(e, 0) + c
    return {e: c for e, c in terms.items() if c}, t


def ref_scalar(c):
    return ({F(0): F(c)} if c else {}), INF


def ref_low(a):
    """A lower bound of the valuation: the lowest term, else the truncation."""
    terms, t = a
    return min(terms) if terms else t


def ref_add(a, b):
    t = min(a[1], b[1])
    return ref(list(a[0].items()) + list(b[0].items()), t)


def ref_neg(a):
    return {e: -c for e, c in a[0].items()}, a[1]


def ref_mul(a, b):
    t = min(a[1] + ref_low(b), b[1] + ref_low(a))
    return ref([(ea + eb, ca * cb) for ea, ca in a[0].items()
                for eb, cb in b[0].items()], t)


def ref_d_q(a):
    return ref([(e - 1, c * e) for e, c in a[0].items()], a[1] - 1)


def ref_truncate(a, order):
    t = min(a[1], order)
    return ref(a[0].items(), t)


def ref_invert(a, order=None):
    """``q^-v/lead`` times the geometric sum of ``-x``, with every power
    cut at the relative order."""
    terms, t = a
    if not terms:
        raise ZeroDivisionError("no leading term")
    v = min(terms)
    lead = terms[v]
    target = t - 2 * v
    if order is not None:
        target = min(target, F(order))
    if target == INF and len(terms) > 1:
        raise ValueError("infinite expansion")
    rel = target + v
    minus_x = ({e - v: -c / lead for e, c in terms.items() if e != v}, INF)
    total, power = ({}, INF), ({F(0): F(1)}, INF)
    while power[0]:
        total = ref_add(total, power)
        power = ref_truncate(ref_mul(power, minus_x), rel)
    return ref([(e - v, c / lead) for e, c in total[0].items()], target)


def ref_render(a, var="q"):
    def exp(e):
        return str(e) if e.denominator == 1 else f"({e})"

    out = ""
    for e, c in sorted(a[0].items()):
        mag = abs(c)
        body = str(mag) if e == 0 else f"{var}^{exp(e)}" if mag == 1 else f"{mag}*{var}^{exp(e)}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = body if c > 0 else "-" + body
    if a[1] == INF:
        return out or "0"
    tail = f"O({var}^{exp(a[1])})"
    return f"{out} + {tail}" if out else tail


def assert_matches(got, want):
    assert got.terms == tuple(sorted(want[0].items()))
    assert got.truncation == want[1]
    assert got.render() == ref_render(want)
    assert got.render("h") == ref_render(want, "h")


# the second operand: a series, or a scalar that the operators take as an
# exact constant (zero included)
series_literals = st.one_of(mixed_literals(), lattice_literals())
operands = st.one_of(series_literals, scalars)


def build(x):
    return NovikovSeries(*x) if isinstance(x, tuple) else x


def ref_of(x):
    return ref(*x) if isinstance(x, tuple) else ref_scalar(x)


# an exact zero, a truncated zero (its one term at the truncation), a sum
# that cancels fully, unreduced literals, and scalar operands
@settings(max_examples=200)
@given(series_literals, operands, truncations)
@example(([(0, 1)], F(1)), ([(0, 1), (1, 1)], INF), F(1))
@example(([], INF), ([("1", "2")], F(3)), F(1))
@example(([("5/2", "1")], "5/2"), ([("-1", "1/3")], INF), INF)
@example(([("1/2", "1"), ("2/4", "-1")], INF), ([("2/4", "3/6")], "8/4"), F(1, 2))
@example(([("2/4", "3/6"), (0, "-4/6")], "9/3"), F(-1, 2), F(7, 5))
@example(([(1, 1), ("1/3", "2/4")], F(4)), 0, INF)
@example(([(-1, 1)], INF), 3, F(-2))
def test_kernels_match_the_dict_reference(a_lit, b_lit, order):
    a, b = NovikovSeries(*a_lit), build(b_lit)
    ra, rb = ref(*a_lit), ref_of(b_lit)
    assert_matches(a, ra)
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(b * a, ref_mul(ra, rb))
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(b + a, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, ref_neg(rb)))
    assert_matches(b - a, ref_add(rb, ref_neg(ra)))
    assert_matches(-a, ref_neg(ra))
    assert_matches(a.d_q(), ref_d_q(ra))
    assert_matches(a.truncate(order), ref_truncate(ra, order))
    assert_matches(a + (-a), ref_add(ra, ref_neg(ra)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(invertible_literals(), mixed_literals()),
       st.one_of(st.none(), mixed_exponents))
@example(([], F(3)), None)
@example(([("2/4", "-3/6"), ("3/2", "2/4"), ("4/3", "1")], "18/4"), F(3))
@example(([("1", "2")], INF), None)
@example(([("1", "2"), ("2", "1")], INF), None)
def test_invert_matches_the_dict_reference(a_lit, order):
    a, ra = NovikovSeries(*a_lit), ref(*a_lit)
    got = outcome(a.invert, order)
    want = outcome(ref_invert, ra, order)
    if isinstance(want, tuple):
        assert_matches(got, want)
    else:
        assert got is want


# ---------------------------------------------------------------------------
# the dot-product path of __mul__ against the dict reference
# ---------------------------------------------------------------------------


def lattice(exps, trunc=INF, scale=1):
    """The literal of terms at ``e/scale`` for each *e*, coefficients
    varied so that no product cancels by accident."""
    return [(F(e, scale), F((-1) ** i * (i % 7 + 1), i % 5 + 1))
            for i, e in enumerate(exps)], trunc


def dense_taken(monkeypatch, a, b):
    """(a * b, whether it took the dot-product path)."""
    laid = []
    lay = series._lattice
    monkeypatch.setattr(series, "_lattice",
                        lambda *args: laid.append(1) or lay(*args))
    return a * b, bool(laid)


def with_gaps(n, span):
    """*n* exponents from 0 over *span* slots, the gaps spread out."""
    return sorted({round(i * (span - 1) / (n - 1)) for i in range(n)})


@pytest.mark.parametrize("a_lit, b_lit, dense", [
    # no gaps, at and below the 6-term minimum
    (lattice(range(6)), lattice(range(6)), True),
    (lattice(range(5)), lattice(range(60)), False),
    (lattice(range(2)), lattice(range(60), 40), False),
    # gapped: span_a * span_b at, and one slot past, 5/4 of len_a * len_b
    (lattice(with_gaps(8, 10)), lattice(range(8)), True),
    (lattice(with_gaps(8, 11)), lattice(range(8)), False),
    # gapped at span = 2 len and 2 len + 1
    (lattice(with_gaps(10, 20)), lattice(with_gaps(10, 20)), False),
    (lattice(with_gaps(10, 21)), lattice(range(10)), False),
    # mixed scales: whole exponents over the half-integer scale leave gaps,
    # half-integer exponents on both sides stay dense
    (lattice(range(16), scale=2), lattice(range(8)), False),
    (lattice(range(1, 16, 2), scale=2), lattice(range(1, 30, 2), scale=2), False),
    (lattice(range(16), scale=2), lattice(range(1, 13), 7, scale=2), True),
    (lattice(range(6), scale=6), lattice(range(8), scale=2), False),
    # negative exponents
    (lattice(range(-7, 3)), lattice(range(-3, 9), 9), True),
    # truncated just above the last term: the result stops at the lower
    # of the two truncations, one term long past the lowest product
    (lattice(range(6), 6), lattice(range(10, 20), 20), True),
    (lattice(range(-3, 9), F(17, 2)), lattice(range(6), F(11, 2)), True),
    # an exact operand times a truncated one
    (lattice(range(30)), lattice(range(30), 30), True),
    (lattice(range(60)), lattice(range(59), 59), True),
])
def test_dot_product_matches_the_dict_reference(monkeypatch, a_lit, b_lit, dense):
    a, b = NovikovSeries(*a_lit), NovikovSeries(*b_lit)
    want = ref_mul(ref(*a_lit), ref(*b_lit))
    for x, y in ((a, b), (b, a)):
        got, taken = dense_taken(monkeypatch, x, y)
        assert taken is dense
        assert_matches(got, want)
        assert_canonical(got)


@st.composite
def dense_literals(draw):
    """``(pairs, truncation)`` of 6 to 16 terms over at most twice as many
    lattice slots, the truncation exact, past the last term or among them."""
    n = draw(st.integers(min_value=6, max_value=16))
    lo = draw(st.integers(min_value=-6, max_value=6))
    span = draw(st.integers(min_value=n, max_value=2 * n))
    exps = sorted(draw(st.sets(st.integers(min_value=lo + 1, max_value=lo + span - 2),
                               min_size=n - 2, max_size=n - 2)) | {lo, lo + span - 1})
    pairs = [(F(e, 2), draw(coeffs.filter(bool))) for e in exps]
    trunc = draw(st.one_of(st.just(INF), st.integers(min_value=lo + span, max_value=lo + 3 * span),
                           st.integers(min_value=lo + n, max_value=lo + span)))
    return pairs, trunc if trunc == INF else F(trunc, 2)


@settings(max_examples=150)
@given(dense_literals(), dense_literals())
def test_dense_products_match_the_dict_reference(a_lit, b_lit):
    a, b = NovikovSeries(*a_lit), NovikovSeries(*b_lit)
    assert_matches(a * b, ref_mul(ref(*a_lit), ref(*b_lit)))
    assert_matches(b * a, ref_mul(ref(*a_lit), ref(*b_lit)))


# ---------------------------------------------------------------------------
# d_q and invert are computed once per series
# ---------------------------------------------------------------------------


def fresh(a):
    return NovikovSeries(a.terms, a.truncation)


def test_invert_is_kept_per_order():
    a = S((0, 2), (1, F(1, 3)), (2, -1), trunc=12)
    five, three = a.invert(5), a.invert(3)
    assert (five.truncation, three.truncation) == (5, 3)
    assert five == fresh(a).invert(5) and three == fresh(a).invert(3)
    # the same order, as an int, a Fraction or a string, is one entry
    assert a.invert(5) is five and a.invert(F(5)) is five and a.invert("10/2") is five
    assert a.invert() == fresh(a).invert() and a.invert() is a.invert()
    assert a.invert(INF) is a.invert(INF) and a.invert(INF) == a.invert()
    # a malformed order is refused whatever is kept
    for order in ("terms", "d_q", "x"):
        with pytest.raises(ParseError):
            a.invert(order)
    with pytest.raises(TypeError):
        a.invert(5.0)


@settings(max_examples=60, deadline=None)
@given(st.one_of(invertible_series(), mixed_series()),
       st.one_of(st.none(), mixed_exponents))
def test_kept_d_q_and_invert_equal_fresh_ones(a, order):
    d = a.d_q()
    assert a.d_q() is d
    assert fields(d) == fields(fresh(a).d_q())
    assert d.d_q() is d.d_q()
    got = outcome(a.invert, order)
    want = outcome(fresh(a).invert, order)
    if isinstance(want, NovikovSeries):
        assert fields(got) == fields(want)
        assert a.invert(order) is got
        assert a.terms == fresh(a).terms
    else:
        assert got is want


def test_a_refused_invert_is_refused_on_every_call(monkeypatch):
    monkeypatch.setattr(series, "MAX_INVERT_PRODUCTS", 10)
    a = S((0, 1), (1, 1))
    for _ in range(3):
        with pytest.raises(NovikovError, match="MAX_INVERT_PRODUCTS = 10 "):
            a.invert(order=12)
    # the refusals kept nothing, and a smaller order is still made
    assert a._cache is None
    assert len(a.invert(order=11).exps) == 11
    for _ in range(2):
        with pytest.raises(NovikovError, match="MAX_INVERT_PRODUCTS"):
            a.invert(order=12)
        with pytest.raises(ValueError, match="pass order="):
            a.invert()
    with pytest.raises(ZeroDivisionError):
        NovikovSeries.zero(3).invert(1)


def fields(s):
    return s.exps, s.scale, s.nums, s.den, s.truncation


@settings(max_examples=100)
@given(series_literals, series_literals, truncations)
@example(([(0, 1), ("1/2", "1/2")], INF), ([], INF), F(1, 2))
def test_equal_series_by_different_routes_are_equal(a_lit, b_lit, order):
    a, b = NovikovSeries(*a_lit), NovikovSeries(*b_lit)
    ra = ref(*a_lit)
    t = min(a.truncation, b.truncation)
    cut = ref_truncate(ra, order)
    left, right = a.truncate(order), NovikovSeries(sorted(cut[0].items()), cut[1])
    assert left == right and hash(left) == hash(right)
    assert fields(left) == fields(right)
    # the reduced literals, the JSON round trip, and results of the kernels
    routes = [
        NovikovSeries(sorted(ra[0].items()), ra[1]),
        NovikovSeries.from_json(a.to_json()),
        a + NovikovSeries.zero(),
        a * 1,
        F(1, 2) * (2 * a),
        -(-a),
        a.truncate(INF),
    ]
    for other in routes:
        assert other == a
        assert hash(other) == hash(a)
        assert fields(other) == fields(a)
    left, right = (a + b) - b, a.truncate(t)
    assert left == right and hash(left) == hash(right)
    assert fields(left) == fields(right)


@pytest.mark.parametrize("value", [0, 1, -3, F(1, 3), F(-7, 2)])
def test_exact_constant_hashes_as_its_rational(value):
    # __eq__ reads a rational as the exact constant, so hash must agree
    const = NovikovSeries([(0, value)])
    assert const == value and hash(const) == hash(value)
    assert len({const, value}) == 1
    # a truncated constant or a monomial is no rational
    assert NovikovSeries([(0, value)], 5) != value
    assert NovikovSeries([(1, 1)]) != 1


@pytest.mark.parametrize("literals", [
    [("2/4", "3/6"), ("1/2", "-1/2"), ("4/2", "6/4")],
    [("0", "2/4")], [(0, F(1, 2))], [("-0/3", "5/10")],
])
def test_unreduced_literals_store_reduced(literals):
    s = NovikovSeries(literals)
    assert fields(s) == fields(NovikovSeries((F(e), F(c)) for e, c in literals))
    assert fields(NovikovSeries([("2/4", "1"), ("1/2", "-1")], 3)) == ([], 1, [], 1, 3)


def test_long_literals():
    # a long literal is read in full, and one past int()'s digit limit is a
    # ParseError, whichever side of the pair it is on
    n = "3" * 250
    assert NovikovSeries([(0, f"{n}/{n}1")]).terms == ((0, F(int(n), int(n + "1"))),)
    for pair in [("9" * 5000, 1), (0, "9" * 5000), (0, "1/" + "9" * 5000)]:
        with pytest.raises(ParseError):
            NovikovSeries([pair])


# ---------------------------------------------------------------------------
# rendering and JSON round-trip
# ---------------------------------------------------------------------------


def test_render_canonical():
    s = S((-1, F(1, 2)), (2, 3), trunc=5)
    assert s.render() == "1/2*q^-1 + 3*q^2 + O(q^5)"


def test_render_zero_and_signs():
    assert NovikovSeries.zero().render() == "0"
    assert S((0, 1), (1, -1)).render() == "1 - q^1"
    assert S((F(1, 2), 1)).render() == "q^(1/2)"


@pytest.mark.parametrize("terms, text", [
    # coefficients stored as 2/6, 3/6 and 6/6 reduce term by term
    (((F(1, 2), F(1, 3)), (F(2, 3), F(1, 2)), (1, 1)),
     "1/3*q^(1/2) + 1/2*q^(2/3) + q^1"),
    # exponents stored as 3/6 and -4/6 reduce term by term
    (((F(-2, 3), F(-1, 2)), (F(1, 2), F(1, 6))), "-1/2*q^(-2/3) + 1/6*q^(1/2)"),
    # a negative rational exponent and a unit coefficient
    (((F(-3, 2), -1), (0, 2)), "-q^(-3/2) + 2"),
    # +-1 at q^0 renders as the constant, first or later
    (((0, -1), (1, 2)), "-1 + 2*q^1"),
    (((0, 1), (F(1, 3), F(-4, 3))), "1 - 4/3*q^(1/3)"),
    (((-1, 1), (0, -1)), "q^-1 - 1"),
    (((F(-1, 2), F(3, 2)), (0, 1)), "3/2*q^(-1/2) + 1"),
])
def test_render_reduces_each_term_of_the_stored_form(terms, text):
    s = S(*terms)
    assert s.render() == text == ref_render((dict(s.terms), INF))


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="the interpreter has no int -> str digit limit")
def test_render_past_the_digit_limit_is_a_domain_error():
    # the message names the size, from bit_length(), and the limit, which
    # stays as it is
    for s in [NovikovSeries.monomial(10 ** 5000, 0), NovikovSeries.monomial(F(1, 10 ** 5000), 2)]:
        with pytest.raises(NovikovError, match=f"16610 bits.* {DIGIT_LIMIT} digits"):
            s.render()
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


def test_json_round_trip():
    s = S((F(-1, 2), F(2, 3)), (2, -5), trunc=F(17, 2))
    again = NovikovSeries.from_json(s.to_json())
    assert again == s


def test_json_literal_term_count_is_capped():
    cap = series.MAX_SERIES_TERMS
    at_cap = {"terms": [{"exp": str(i), "coeff": "1"} for i in range(cap)]}
    assert len(NovikovSeries.from_json(at_cap).exps) == cap
    # refused before any entry is read
    with pytest.raises(ParseError, match=f"{cap + 1} terms is above MAX_SERIES_TERMS"):
        NovikovSeries.from_json({"terms": [{}] * (cap + 1)})
    # an object is not a list of terms, not even an empty one
    for terms in ({}, {"exp": "0", "coeff": "1"}, "ab", 3):
        with pytest.raises(ParseError, match="series terms must be a list"):
            NovikovSeries.from_json({"terms": terms})


def test_json_malformed_exponent():
    with pytest.raises(ParseError):
        NovikovSeries.from_json({"terms": [{"exp": "1/0", "coeff": "1"}]})
