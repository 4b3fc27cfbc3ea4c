"""Exact single-variable Novikov series with explicit truncation.

A series is a finite sum of terms ``c * q**d`` with rational coefficient
``c`` and rational exponent ``d``, together with a truncation order ``T``:
every term with exponent below ``T`` is exactly represented, nothing is
known at or above ``T``.  ``T = +inf`` means the series is exact.

All arithmetic propagates truncation so that identity checks either hold
exactly, fail exactly, or raise :class:`InsufficientPrecision` - they never
silently pass because terms fell off the end.

The same type doubles as the Laurent-type series field in an auxiliary
variable (``h`` in the mirror computations); only rendering cares about the
variable's name.
"""

from __future__ import annotations

import heapq
import math
import re
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

from .errors import InsufficientPrecision, ParseError

#: Truncation value meaning "exact": comparisons and sums with Fractions
#: behave correctly (Fraction < INF, Fraction + INF == INF).
INF = math.inf

Rat = Union[int, Fraction]
Trunc = Union[Fraction, float]


def rat(x) -> Fraction:
    """A rational literal: a Fraction, an int or a string such as "3/4".
    A malformed string is a ParseError; a float is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational literal: {x!r}") from exc
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def integer(x) -> int:
    """An integer literal: an int (not a bool) or a decimal string such as
    "-3".  Anything else, a float or "2.9" included, is a ParseError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _INTEGER.fullmatch(x):
        try:
            return int(x)
        except ValueError as exc:  # past the interpreter's digit limit
            raise ParseError(f"not an integer literal: {x[:20]!r}...") from exc
    raise ParseError(f"not an integer literal: {x!r}")


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _trunc(x) -> Trunc:
    if x == INF:
        return INF
    return rat(x)


class NovikovSeries:
    """Finite rational-exponent series with a carried truncation order."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: Iterable[tuple[Rat, Rat]] = (), truncation: Trunc = INF):
        trunc = _trunc(truncation)
        acc: dict[Fraction, Fraction] = {}
        for exp, coeff in terms:
            e, c = rat(exp), rat(coeff)
            if c == 0 or e >= trunc:
                continue
            if e in acc:
                c += acc.pop(e)
                if not c:
                    continue
            acc[e] = c
        self.terms: tuple[tuple[Fraction, Fraction], ...] = tuple(sorted(acc.items()))
        self.truncation: Trunc = trunc

    @classmethod
    def _raw(cls, terms: tuple, truncation: Trunc) -> "NovikovSeries":
        """Wrap *terms* as they are: ascending Fraction exponents, each below
        *truncation*, with nonzero Fraction coefficients."""
        out = object.__new__(cls)
        out.terms = terms
        out.truncation = truncation
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: Trunc = INF) -> "NovikovSeries":
        return cls((), truncation)

    @classmethod
    def one(cls, truncation: Trunc = INF) -> "NovikovSeries":
        return cls(((0, 1),), truncation)

    @classmethod
    def monomial(cls, coeff: Rat, exp: Rat, truncation: Trunc = INF) -> "NovikovSeries":
        return cls(((exp, coeff),), truncation)

    @classmethod
    def q(cls) -> "NovikovSeries":
        return cls.monomial(1, 1)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        """True if no nonzero term is stored (zero as far as representable)."""
        return not self.terms

    def valuation(self) -> Trunc:
        """Exponent of the lowest term; +inf for zero by convention."""
        return self.terms[0][0] if self.terms else INF

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ZeroDivisionError("zero series has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, exp: Rat) -> Fraction:
        e = rat(exp)
        for te, tc in self.terms:
            if te == e:
                return tc
        return Fraction(0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def truncate(self, order: Trunc) -> "NovikovSeries":
        trunc = min(self.truncation, _trunc(order))
        return NovikovSeries._raw(_below(self.terms, trunc), trunc)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        other = _coerce(other)
        trunc = min(self.truncation, other.truncation)
        a, b = _below(self.terms, trunc), _below(other.terms, trunc)
        if not a or not b:
            return NovikovSeries._raw(a or b, trunc)
        # merge the two ascending term lists, summing on equal exponents
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (ea, ca), (eb, cb) = a[i], b[j]
            if ea < eb:
                out.append(a[i])
                i += 1
            elif eb < ea:
                out.append(b[j])
                j += 1
            else:
                c = ca + cb
                if c:
                    out.append((ea, c))
                i += 1
                j += 1
        out.extend(a[i:] or b[j:])
        return NovikovSeries._raw(tuple(out), trunc)

    __radd__ = __add__

    def __neg__(self) -> "NovikovSeries":
        return NovikovSeries._raw(tuple((e, -c) for e, c in self.terms),
                                  self.truncation)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "NovikovSeries":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "NovikovSeries":
        other = _coerce(other)
        a, b = self.terms, other.terms
        # min(T_a + v_b, T_b + v_a), where v is a lower bound of the valuation:
        # the lowest term, or for a zero known only below its truncation, that
        # truncation.  A factor of exact zero (T = v = INF) yields exact zero.
        trunc = min(_plus(self.truncation, b[0][0] if b else other.truncation),
                    _plus(other.truncation, a[0][0] if a else self.truncation))
        if len(a) == 1 and len(b) == 1:
            # e_a < T_a and e_b < T_b, so the one product lies below trunc
            (ea, ca), (eb, cb) = a[0], b[0]
            return NovikovSeries._raw(((ea + eb, ca * cb),), trunc)
        # exponents as integers over a common denominator, and coefficients
        # as integer numerators over each operand's coefficient lcm: the sums,
        # the truncation test and the dict below are integer operations, and
        # each output coefficient is reduced once
        scale = _common_denominator(a + b)
        bound = trunc if isinstance(trunc, float) else math.ceil(trunc * scale)
        da, db = _coefficient_lcm(a), _coefficient_lcm(b)
        bterms = _scaled(b, scale, db)
        acc: dict[int, int] = {}
        for ka, na in _scaled(a, scale, da):
            for kb, nb in bterms:
                k = ka + kb
                if k >= bound:
                    break  # the terms ascend, so every later product is too
                p = na * nb
                acc[k] = acc[k] + p if k in acc else p
        d = da * db
        return NovikovSeries._raw(tuple((Fraction(k, scale), Fraction(n, d))
                                        for k, n in sorted(acc.items()) if n), trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NovikovSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = NovikovSeries.one()
        for _ in range(n):
            out = out * self
        return out

    def invert(self, order: Trunc | None = None) -> "NovikovSeries":
        """Multiplicative inverse, exact up to ``T - 2*val`` (capped by *order*).

        The leading term must be nonzero within truncation.  An exact
        multi-term series has an infinite inverse expansion, so *order*
        must then be supplied.

        Write ``a = lead*q^v*(1 + x)`` with ``x = sum_i c_i q^(d_i)``, every
        ``d_i > 0``.  The coefficients of ``1/(1 + x)`` below the relative
        order ``rel = target + v`` satisfy ``b_0 = 1`` and
        ``b_e = -sum_i c_i * b_(e - d_i)``.  They are computed in increasing
        ``e``, walking the monoid generated by the ``d_i`` with a heap (the
        ``d_i`` are arbitrary positive rationals, not steps of one lattice);
        each finished ``b_e`` is pushed into the sums of ``e + d_i``, and an
        exponent enters the heap once.  Exponents are integers over the
        common denominator of the exponents of ``a``, and the sums are
        integers over one common denominator, so each ``b_e`` is reduced
        once.  The cost is
        O(#terms x #monoid exponents below rel) coefficient products.
        """
        if not self.terms:
            raise ZeroDivisionError("no invertible leading term within truncation")
        v = self.valuation()
        lead = self.leading_coefficient()
        target = self.truncation - 2 * v
        if order is not None:
            target = min(target, _trunc(order))
        if target == INF and len(self.terms) > 1:
            raise ValueError(
                "inverse of a multi-term exact series is infinite; pass order=")
        inv_lead = 1 / lead
        if len(self.terms) == 1:
            return NovikovSeries.monomial(inv_lead, -v).truncate(target)
        rel = target + v
        scale = _common_denominator(self.terms)
        shift = v.numerator * (scale // v.denominator)
        # x's terms c_i/lead, negated for the recurrence, at d_i*scale, with
        # integer numerators m_i over their lcm dc
        x = [(e, -c * inv_lead) for e, c in self.terms[1:]]
        dc = _coefficient_lcm(x)
        steps = [(k - shift, m) for k, m in _scaled(x, scale, dc)]
        bound = math.ceil(rel * scale)
        # a pending sum is an integer over dc*L, where L is the lcm of the
        # denominators of the b_e finished so far; b_0 = 1 = dc/(dc*1)
        L = 1
        sums = {0: dc} if bound > 0 else {}
        heap = list(sums)
        out = []
        while heap:
            k = heapq.heappop(heap)
            s = sums.pop(k)
            if not s:
                continue  # contributes nothing to higher exponents
            b = Fraction(s, dc * L)
            grow = b.denominator // math.gcd(L, b.denominator)
            if grow > 1:
                L *= grow
                for n in sums:
                    sums[n] *= grow
            bl = b.numerator * (L // b.denominator)
            out.append((Fraction(k - shift, scale), b * inv_lead))
            for step, m in steps:
                n = k + step
                if n >= bound:
                    break  # the steps ascend
                if n in sums:
                    sums[n] += m * bl
                else:
                    sums[n] = m * bl
                    heapq.heappush(heap, n)
        # the heap yields the exponents in increasing order
        return NovikovSeries._raw(tuple(out), target)

    def d_q(self) -> "NovikovSeries":
        """Termwise derivative ``c*d*q^(d-1)``; truncation drops by one."""
        return NovikovSeries._raw(tuple((e - 1, c * e) for e, c in self.terms if e),
                                  _plus(self.truncation, -1))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (NovikovSeries, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self.terms == other.terms and self.truncation == other.truncation

    def __hash__(self):
        return hash((self.terms, self.truncation))

    def equal_up_to(self, other: "NovikovSeries", order: Rat) -> bool:
        """Compare all terms below *order*; both operands must carry at
        least that much precision, otherwise the comparison is meaningless
        and raises :class:`InsufficientPrecision`."""
        other = _coerce(other)
        d = _trunc(order)
        if min(self.truncation, other.truncation) < d:
            raise InsufficientPrecision(
                f"comparison up to q^{d} needs truncation >= {d}, have "
                f"{self.truncation} and {other.truncation}")
        diff = self - other
        return all(e >= d for e, _ in diff.terms)

    # -- rendering / encoding ---------------------------------------------

    def render(self, var: str = "q") -> str:
        """Canonical text form, e.g. ``1/2*q^-1 + 3*q^2 + O(q^5)``."""
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e, c in self.terms:
                parts.append(_render_term(e, c, var, first=not parts))
            body = "".join(parts)
        if self.truncation != INF:
            tail = f"O({var}^{_render_exp(self.truncation)})"
            body = tail if body == "0" else f"{body} + {tail}"
        return body

    def __repr__(self) -> str:
        return f"NovikovSeries({self.render()})"

    def to_json(self) -> dict:
        return {
            "terms": [{"exp": str(e), "coeff": str(c)} for e, c in self.terms],
            "trunc": "inf" if self.truncation == INF else str(self.truncation),
        }

    @classmethod
    def from_json(cls, data) -> "NovikovSeries":
        if isinstance(data, (int, str)):
            return cls.monomial(data, 0)
        if not isinstance(data, dict):
            raise ParseError(f"series must be an object, got {type(data).__name__}")
        trunc: Trunc = INF
        raw = data.get("trunc", "inf")
        if raw not in ("inf", None):
            trunc = rat(raw)
        return cls([(rec["exp"], rec["coeff"]) for rec in data.get("terms", [])], trunc)


def _plus(t: Trunc, v: Trunc) -> Trunc:
    """``t + v`` for truncations and valuation bounds.  The only float either
    can be is ``INF``; testing the type keeps ``Fraction + INF`` (a float
    conversion inside ``Fraction.__radd__``) off this hot path."""
    return INF if isinstance(t, float) or isinstance(v, float) else t + v


_EXP0 = Fraction(0)


def _common_denominator(terms) -> int:
    return math.lcm(*(e.denominator for e, _ in terms))


def _coefficient_lcm(terms) -> int:
    return math.lcm(*(c.denominator for _, c in terms))


def _scaled(terms, scale: int, denominator: int) -> list[tuple[int, int]]:
    """*terms* with each exponent as an integer over *scale* and each
    coefficient as an integer over *denominator*, multiples of every
    exponent's and every coefficient's denominator."""
    return [(e.numerator * (scale // e.denominator),
             c.numerator * (denominator // c.denominator)) for e, c in terms]


def _below(terms: tuple, trunc: Trunc) -> tuple:
    """The ascending *terms* with exponent below *trunc*."""
    if isinstance(trunc, float) or not terms or terms[-1][0] < trunc:
        return terms
    return terms[:bisect_left(terms, trunc, key=itemgetter(0))]


def _coerce(x) -> NovikovSeries:
    if isinstance(x, NovikovSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return NovikovSeries._raw(((_EXP0, rat(x)),) if x else (), INF)
    raise TypeError(f"cannot treat {type(x).__name__} as a series")


def _render_exp(e) -> str:
    if e == INF:
        return "inf"
    return str(e) if e.denominator == 1 else f"({e})"


def _render_term(e: Fraction, c: Fraction, var: str, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = -c if c < 0 else c
    if e == 0:
        body = str(mag)
    elif mag == 1:
        body = f"{var}^{_render_exp(e)}"
    else:
        body = f"{mag}*{var}^{_render_exp(e)}"
    if first:
        return body if c > 0 else f"-{body}"
    return f" {sign} {body}"


def equal_up_to(a: NovikovSeries, b: NovikovSeries, order: Rat) -> bool:
    return _coerce(a).equal_up_to(b, order)
