"""u-extension polynomials: truncation propagation and comparisons."""

from fractions import Fraction

import pytest

from novikov.errors import InsufficientPrecision
from novikov.series import INF, NovikovSeries
from novikov.useries import USeries

F = Fraction
ONE = NovikovSeries.one()


def S(*terms, trunc=INF):
    return NovikovSeries(terms, trunc)


def test_construction_drops_zero_and_out_of_range():
    u = USeries({0: NovikovSeries.zero(), 1: ONE, 3: ONE}, u_truncation=3)
    assert list(u.coeffs) == [1]
    assert u.u_valuation() == 1


def test_add_and_scale():
    a = USeries({0: ONE, 1: S((1, 2))})
    b = USeries({1: S((1, -2)), 2: ONE})
    out = a + b
    assert out.coefficient(0) == ONE
    assert out.coefficient(1).is_zero()
    assert out.coefficient(2) == ONE
    scaled = a.scale(S((1, 3)))
    assert scaled.coefficient(1) == S((2, 6))


def test_mul_truncation_rule():
    a = USeries({1: ONE}, u_truncation=3)
    b = USeries({1: ONE}, u_truncation=4)
    out = a * b
    # min(3 + 1, 4 + 1) = 4, and u^2 survives
    assert out.u_truncation == 4
    assert out.coefficient(2) == ONE


def test_mul_of_truncated_zeros_keeps_truncation():
    # a zero known below u^3 times one known below u^2 is known below u^5;
    # a factor of exact zero still gives exact zero
    assert USeries.zero(3) * USeries.zero(2) == USeries.zero(5)
    assert USeries.zero(3) * USeries.zero() == USeries.zero()
    assert USeries.zero() * USeries.zero(2) == USeries.zero()


def test_times_u_shifts_truncation():
    a = USeries({0: ONE}, u_truncation=2)
    out = a.times_u(2)
    assert out.coefficient(2) == ONE
    assert out.u_truncation == 4


def test_d_q_acts_on_coefficients():
    a = USeries({1: S((2, 3))})
    assert a.d_q().coefficient(1) == S((1, 6))


def test_equal_up_to_and_precision():
    a = USeries({0: S((0, 1), trunc=5)})
    b = USeries({0: S((0, 1), (6, 1), trunc=7)})
    assert a.equal_up_to(b, 5)
    with pytest.raises(InsufficientPrecision):
        a.equal_up_to(b, 6)
    with pytest.raises(InsufficientPrecision):
        USeries({0: ONE}, u_truncation=1).require_precision(2)


def test_render():
    a = USeries({0: ONE, 2: S((1, 2))}, u_truncation=4)
    assert a.render() == "1 + (2*q^1)*u^2 + O(u^4)"
