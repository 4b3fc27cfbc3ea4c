"""Polynomials in a degree-2 formal variable ``u`` over Novikov series.

Desk-scale stand-in for the completed ``K[[u]]``: finitely many u-powers,
each with a :class:`NovikovSeries` coefficient.  Every u-power is exact;
precision lives only in the coefficients' q-truncations.
"""

from __future__ import annotations

from fractions import Fraction

from .series import NovikovSeries

_ZERO = NovikovSeries.zero()


class USeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        acc: dict[int, NovikovSeries] = {}
        for k, s in dict(coeffs or {}).items():
            if k < 0:
                raise ValueError("u-powers are nonnegative")
            if not isinstance(s, NovikovSeries):
                s = NovikovSeries.monomial(s, 0)
            if not s.is_zero():
                acc[k] = s
        self.coeffs = dict(sorted(acc.items()))

    @classmethod
    def scalar(cls, s: NovikovSeries) -> "USeries":
        return cls({0: s})

    @classmethod
    def u_power(cls, k: int = 1) -> "USeries":
        return cls({k: NovikovSeries.one()})

    def is_zero(self) -> bool:
        return not self.coeffs  # the constructor drops zero coefficients

    def coefficient(self, k: int) -> NovikovSeries:
        return self.coeffs.get(k, _ZERO)

    def __add__(self, other: "USeries") -> "USeries":
        keys = set(self.coeffs) | set(other.coeffs)
        return USeries({k: self.coefficient(k) + other.coefficient(k) for k in keys})

    def __neg__(self) -> "USeries":
        return USeries({k: -s for k, s in self.coeffs.items()})

    def __sub__(self, other: "USeries") -> "USeries":
        return self + (-other)

    def __mul__(self, other) -> "USeries":
        if isinstance(other, (int, Fraction, NovikovSeries)):
            return self.scale(other)
        acc: dict[int, NovikovSeries] = {}
        for ka, sa in self.coeffs.items():
            for kb, sb in other.coeffs.items():
                k = ka + kb
                acc[k] = acc.get(k, _ZERO) + sa * sb
        return USeries(acc)

    __rmul__ = __mul__

    def scale(self, f) -> "USeries":
        if not isinstance(f, NovikovSeries):
            f = NovikovSeries.monomial(f, 0)
        return USeries({k: f * s for k, s in self.coeffs.items()})

    def d_q(self) -> "USeries":
        return USeries({k: s.d_q() for k, s in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def render(self, var: str = "q") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, s in self.coeffs.items():
            inner = s.render(var)
            parts.append(inner if k == 0 else f"({inner})*u^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"USeries({self.render()})"
