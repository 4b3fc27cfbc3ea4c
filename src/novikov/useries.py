"""Polynomials in a degree-2 formal variable ``u`` over Novikov series.

Desk-scale stand-in for the completed ``K[[u]]``: finitely many u-powers,
each with a :class:`NovikovSeries` coefficient, plus an integer truncation
``U`` (coefficients of ``u^k`` for ``k < U`` are exact).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InsufficientPrecision
from .series import INF, NovikovSeries

_ZERO = NovikovSeries.zero()


class USeries:
    __slots__ = ("coeffs", "u_truncation")

    def __init__(self, coeffs=None, u_truncation=INF):
        acc: dict[int, NovikovSeries] = {}
        for k, s in dict(coeffs or {}).items():
            if k < 0:
                raise ValueError("u-powers are nonnegative")
            if not isinstance(s, NovikovSeries):
                s = NovikovSeries.monomial(s, 0)
            if k < u_truncation and not s.is_zero():
                acc[k] = s
        self.coeffs = dict(sorted(acc.items()))
        self.u_truncation = u_truncation

    @classmethod
    def zero(cls, u_truncation=INF) -> "USeries":
        return cls({}, u_truncation)

    @classmethod
    def scalar(cls, s: NovikovSeries, u_truncation=INF) -> "USeries":
        return cls({0: s}, u_truncation)

    @classmethod
    def u_power(cls, k: int = 1) -> "USeries":
        return cls({k: NovikovSeries.one()})

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.coeffs.values())

    def u_valuation(self):
        live = [k for k, s in self.coeffs.items() if not s.is_zero()]
        return min(live) if live else INF

    def coefficient(self, k: int) -> NovikovSeries:
        return self.coeffs.get(k, _ZERO)

    def __add__(self, other: "USeries") -> "USeries":
        trunc = min(self.u_truncation, other.u_truncation)
        keys = set(self.coeffs) | set(other.coeffs)
        return USeries({k: self.coefficient(k) + other.coefficient(k) for k in keys},
                       trunc)

    def __neg__(self) -> "USeries":
        return USeries({k: -s for k, s in self.coeffs.items()}, self.u_truncation)

    def __sub__(self, other: "USeries") -> "USeries":
        return self + (-other)

    def __mul__(self, other) -> "USeries":
        if isinstance(other, (int, Fraction, NovikovSeries)):
            return self.scale(other)
        trunc = min(self.u_truncation + other.u_valuation(),
                    other.u_truncation + self.u_valuation())
        acc: dict[int, NovikovSeries] = {}
        for ka, sa in self.coeffs.items():
            for kb, sb in other.coeffs.items():
                k = ka + kb
                acc[k] = acc.get(k, _ZERO) + sa * sb
        return USeries(acc, trunc)

    __rmul__ = __mul__

    def scale(self, f) -> "USeries":
        if not isinstance(f, NovikovSeries):
            f = NovikovSeries.monomial(f, 0)
        return USeries({k: f * s for k, s in self.coeffs.items()}, self.u_truncation)

    def times_u(self, n: int = 1) -> "USeries":
        trunc = self.u_truncation if self.u_truncation == INF else self.u_truncation + n
        return USeries({k + n: s for k, s in self.coeffs.items()}, trunc)

    def d_q(self) -> "USeries":
        return USeries({k: s.d_q() for k, s in self.coeffs.items()}, self.u_truncation)

    def __eq__(self, other) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return (self.coeffs == other.coeffs
                and self.u_truncation == other.u_truncation)

    def __hash__(self):
        return hash((tuple(self.coeffs.items()), self.u_truncation))

    def equal_up_to(self, other: "USeries", order) -> bool:
        """Coefficientwise comparison below q-order *order*, for every
        u-power below both u-truncations."""
        utr = min(self.u_truncation, other.u_truncation)
        keys = {k for k in set(self.coeffs) | set(other.coeffs) if k < utr}
        for k in sorted(keys):
            if not self.coefficient(k).equal_up_to(other.coefficient(k), order):
                return False
        return True

    def require_precision(self, u_order: int) -> "USeries":
        if self.u_truncation < u_order:
            raise InsufficientPrecision(
                f"need u-precision {u_order}, have {self.u_truncation}")
        return self

    def render(self, var: str = "q") -> str:
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for k, s in self.coeffs.items():
                inner = s.render(var)
                parts.append(inner if k == 0 else f"({inner})*u^{k}")
            body = " + ".join(parts)
        if self.u_truncation != INF:
            body += f" + O(u^{self.u_truncation})"
        return body

    def __repr__(self) -> str:
        return f"USeries({self.render()})"

    def to_json(self) -> dict:
        out = {"coeffs": {str(k): s.to_json() for k, s in self.coeffs.items()}}
        out["u_trunc"] = "inf" if self.u_truncation == INF else int(self.u_truncation)
        return out
