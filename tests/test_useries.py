"""u-extension polynomials: exact u-powers over truncated q-series."""

from fractions import Fraction

import pytest

from novikov.series import INF, NovikovSeries
from novikov.useries import USeries

F = Fraction
ONE = NovikovSeries.one()


def S(*terms, trunc=INF):
    return NovikovSeries(terms, trunc)


def test_construction_drops_zero_and_out_of_range():
    u = USeries({0: NovikovSeries.zero(), 1: ONE, 3: ONE})
    assert list(u.coeffs) == [1, 3]
    with pytest.raises(ValueError):
        USeries({-1: ONE})


def test_construction_keeps_a_truncated_zero():
    # an exact zero is dropped; O(q^2) stands for unseen terms and stays
    u = USeries({0: NovikovSeries.zero(), 1: NovikovSeries.zero(2)})
    assert u.coeffs == {1: NovikovSeries.zero(2)}
    assert u.is_zero()
    assert u != USeries()
    assert USeries({1: ONE}) != ONE and USeries() != 0
    assert not USeries({1: NovikovSeries.zero(2), 2: ONE}).is_zero()
    # a difference that cancels keeps the least truncation of its terms
    diff = USeries({1: S((0, 1), trunc=8)}) - USeries({1: ONE})
    assert diff.coeffs == {1: NovikovSeries.zero(8)}
    assert repr(diff) == "USeries((O(q^8))*u^1)"


def test_add_and_scale():
    a = USeries({0: ONE, 1: S((1, 2))})
    b = USeries({1: S((1, -2)), 2: ONE})
    out = a + b
    assert out.coefficient(0) == ONE
    assert out.coefficient(1).is_zero()
    assert out.coefficient(2) == ONE
    scaled = a.scale(S((1, 3)))
    assert scaled.coefficient(1) == S((2, 6))
    # equal u-series hash alike
    assert hash(a + b) == hash(USeries({0: ONE, 1: NovikovSeries.zero(), 2: ONE}))


def test_d_q_acts_on_coefficients():
    a = USeries({1: S((2, 3))})
    assert a.d_q().coefficient(1) == S((1, 6))


def test_render():
    a = USeries({0: ONE, 2: S((1, 2))})
    assert a.render() == "1 + (2*q^1)*u^2"
    assert USeries().render() == "0"
