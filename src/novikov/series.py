"""Exact single-variable Novikov series with explicit truncation.

A series is a finite sum of terms ``c * q**d`` with rational coefficient
``c`` and rational exponent ``d``, together with a truncation order ``T``:
every term with exponent below ``T`` is exactly represented, nothing is
known at or above ``T``.  ``T = +inf`` means the series is exact.

All arithmetic propagates truncation so that identity checks either hold
exactly, fail exactly, or raise :class:`InsufficientPrecision` - they never
silently pass because terms fell off the end.

A series is stored as integers: exponent numerators over one exponent
scale and coefficient numerators over one coefficient denominator, in
lowest terms as a whole rather than term by term.  Every kernel (products,
sums, ``d_q``, inversion, truncation) works on those integer lists and
reduces once per result, and ``render`` reads them with one gcd per
exponent and one per coefficient.  Fractions appear only at the edges:
literals are read into the integer form, ``coefficient`` and
``valuation`` return Fractions, and ``terms``, the ``(exponent,
coefficient)`` Fraction pairs that ``to_json`` uses, is built on first use.

A product of two operands that are dense on one integer lattice once over
their common scale lays each out as a coefficient list indexed by exponent
offset, 0 where no term is stored, and makes each output coefficient one
C-level dot product of one list against the other reversed; any other
product sums its pairs into a dict.  A series is never mutated, so
``terms``, ``d_q()`` and ``invert(order)`` are each computed once per
series (and order) and kept in one cache slot that stays empty until first
use.

The same type doubles as the Laurent-type series field in an auxiliary
variable (``h`` in the mirror computations); only rendering cares about the
variable's name.
"""

from __future__ import annotations

import heapq
import math
import re
import sys
from bisect import bisect_left
from collections.abc import Iterable
from fractions import Fraction
from operator import mul

from .errors import InsufficientPrecision, NovikovError, ParseError, each, field, shown

#: Truncation value meaning "exact": comparisons and sums with Fractions
#: behave correctly (Fraction < INF, Fraction + INF == INF).
INF = math.inf

Rat = int | Fraction
Trunc = Fraction | float

#: Most terms a series literal may list, refused before any is read.  A
#: series with integer exponents holds at most 1000 terms below the CLI's
#: highest working order; the bundled and benchmark files list at most 60.
MAX_SERIES_TERMS = 2000

#: Most coefficient products ``invert`` may make below its order, each
#: adding one finished coefficient into the pending sum of a higher
#: exponent, so the count bounds the exponents walked and held as well.
#: A step of ``q^(1/N)`` puts about ``N`` exponents below each power of
#: ``q``, and incommensurable steps many more, so a literal with tiny steps
#: would otherwise walk without end.  At the cap (Python 3.11):
#: 1/(1 + q^(1/20)) to order 1000 takes 0.03 s; 1999 incommensurable steps
#: near 10^-6, the longest literal MAX_SERIES_TERMS allows, 0.2 s and
#: 85 MB; 1/(1 + q^(1/20)/3) to order 1000 7 s and 140 MB, since its
#: result over one common denominator grows with the square of its term
#: count.  The benchmark pools make at most 630.
MAX_INVERT_PRODUCTS = 20000


def rat(x) -> Fraction:
    """A rational literal: a Fraction, an int or a string such as "3/4".
    Anything else, a malformed string, a float or a bool (a JSON ``true``,
    which Python counts as an int) included, is a ParseError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"not a rational literal: {shown(x)}")


def integer(x) -> int:
    """An integer literal: an int (not a bool) or a decimal string such as
    "-3".  Anything else, a float or "2.9" included, is a ParseError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _INTEGER.fullmatch(x):
        try:
            return int(x)
        except ValueError as exc:  # past the interpreter's digit limit
            raise ParseError(f"not an integer literal: {shown(x)}") from exc
    raise ParseError(f"not an integer literal: {shown(x)}")


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def ratio(x) -> tuple[int, int]:
    """``rat(x)`` as a ``(numerator, denominator)`` pair, denominator
    positive but not always in lowest terms.  An int or an ``"n"``/``"n/d"``
    string, the forms task files use, is read with ``int()`` and builds no
    Fraction; any other form goes through ``rat``."""
    if type(x) is int:
        return x, 1
    # int() raises a bare ValueError past the interpreter's digit limit
    # (4300 digits); a string of 200 characters or more goes through rat,
    # which turns that into a ParseError
    if type(x) is str and len(x) < 200:
        m = _RATIO.fullmatch(x)
        if m:
            n, d = int(m[1]), int(m[2] or 1)
            if d:
                return n, d
    f = rat(x)
    return f.numerator, f.denominator


def _trunc(x) -> Trunc:
    """A truncation order: ``INF``, spelled ``"inf"`` or ``null`` in JSON as
    well, or a rational literal."""
    if x == INF or x is None or x.__class__ is str and x == "inf":
        return INF
    return rat(x)


class NovikovSeries:
    """Finite rational-exponent series with a carried truncation order.

    Term ``i`` is ``(nums[i]/den) * q^(exps[i]/scale)``: ``exps`` ascends
    strictly, each exponent lies below ``truncation`` (a Fraction, or
    ``INF`` for an exact series) and each ``nums[i]`` is nonzero.
    ``scale`` and ``den`` are the lcms of the exponents' and the
    coefficients' denominators, i.e. ``gcd(scale, *exps) == gcd(den,
    *nums) == 1``, and both are 1 when no term is stored.  The form is
    canonical, so ``==`` and ``hash`` compare the fields.  ``_cache`` is
    ``None`` until ``terms``, ``d_q`` or ``invert`` first stores its result
    in it, keyed by ``"terms"``, ``"d_q"`` or the inverse's order (``None``,
    a Fraction or ``INF``).
    """

    __slots__ = ("exps", "scale", "nums", "den", "truncation", "_cache")

    def __init__(self, terms: Iterable[tuple[Rat, Rat]] = (), truncation: Trunc = INF):
        trunc = _trunc(truncation)
        quads = [(*ratio(exp), *ratio(coeff)) for exp, coeff in terms]
        if isinstance(trunc, float):
            quads = [t for t in quads if t[2]]
        else:
            tn, td = trunc.numerator, trunc.denominator
            quads = [t for t in quads if t[2] and t[0] * td < tn * t[1]]
        scale = math.lcm(*(t[1] for t in quads))
        den = math.lcm(*(t[3] for t in quads))
        acc: dict[int, int] = {}
        for en, ed, cn, cd in quads:
            k, n = en * (scale // ed), cn * (den // cd)
            acc[k] = acc[k] + n if k in acc else n
        exps = sorted(acc)
        # unreduced literals and repeated exponents can leave a common
        # factor, and a repeated exponent can cancel a term
        self.exps, self.scale, self.nums, self.den = _canonical(
            exps, scale, [acc[k] for k in exps], den)
        self.truncation, self._cache = trunc, None

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The ascending ``(exponent, coefficient)`` pairs, as Fractions."""
        cache = self._cache
        if cache is not None and "terms" in cache:
            return cache["terms"]
        s, d = self.scale, self.den
        return _store(self, "terms", tuple((Fraction(k, s), Fraction(n, d))
                                           for k, n in zip(self.exps, self.nums)))

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

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        """True if no nonzero term is stored (zero as far as representable)."""
        return not self.exps

    def valuation(self) -> Trunc:
        """Exponent of the lowest term; +inf for zero by convention."""
        return Fraction(self.exps[0], self.scale) if self.exps else INF

    def coefficient(self, exp: Rat) -> Fraction:
        e = rat(exp)
        if self.scale % e.denominator:
            return Fraction(0)
        k = e.numerator * (self.scale // e.denominator)
        i = bisect_left(self.exps, k)
        if i < len(self.exps) and self.exps[i] == k:
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def truncate(self, order: Trunc) -> "NovikovSeries":
        return _cut(self, _min(self.truncation, _trunc(order)))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        if type(other) is not NovikovSeries:
            other = _coerce(other)
        ta, tb = self.truncation, other.truncation
        # only the operand with the larger truncation can hold terms at or
        # above the result's
        if ta == tb:
            trunc = ta
        elif _min(ta, tb) is tb:
            trunc, self = tb, _cut(self, tb)
        else:
            trunc, other = ta, _cut(other, ta)
        # either operand's truncation now equals trunc
        if not self.exps:
            return other
        if not other.exps:
            return self
        ea, eb, s = _common(self.exps, self.scale, other.exps, other.scale)
        na, nb, d = _common(self.nums, self.den, other.nums, other.den)
        acc = dict(zip(ea, na))
        for k, n in zip(eb, nb):
            acc[k] = acc[k] + n if k in acc else n
        exps = sorted(acc)
        nums = [acc[k] for k in exps]
        return _reduced(exps, s, nums, d, trunc)

    __radd__ = __add__

    def __neg__(self) -> "NovikovSeries":
        return _new(self.exps, self.scale, [-n for n in self.nums], self.den,
                    self.truncation)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "NovikovSeries":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "NovikovSeries":
        if type(other) is not NovikovSeries:
            if isinstance(other, (int, Fraction)):
                # an exact constant has valuation 0, so the truncation stays,
                # and a series is never mutated, so an exact 1 returns it
                if other == 1:
                    return self
                if not other:
                    return _new([], 1, [], 1, INF)
                return _reduced(self.exps, self.scale,
                                _times(self.nums, other.numerator),
                                self.den * other.denominator, self.truncation)
            other = _coerce(other)
        ea, eb = self.exps, other.exps
        sa, sb = self.scale, other.scale
        # min(T_a + v_b, T_b + v_a), where v is a lower bound of the valuation:
        # the lowest term, or for a zero known only below its truncation, that
        # truncation.  A factor of exact zero (T = v = INF) yields exact zero.
        ta, tb = self.truncation, other.truncation
        trunc = _min(_shift(ta, eb[0], sb) if eb else _plus(ta, tb),
                     _shift(tb, ea[0], sa) if ea else _plus(tb, ta))
        if not ea or not eb:
            return _new([], 1, [], 1, trunc)
        ea, eb, s = _common(ea, sa, eb, sb)
        na, nb = self.nums, other.nums
        d = self.den * other.den
        bound = _bound(trunc, s)
        la, lb = len(ea), len(eb)
        spa, spb = ea[-1] - ea[0] + 1, eb[-1] - eb[0] + 1
        # Dense operands, laid out over their spans of lattice slots, take the
        # dot product: at least 6 terms a side and span_a * span_b <= 5/4 *
        # len_a * len_b.  Every slot pair costs a multiplication, zero or not;
        # and a span stays within 5/4 of its term count, so no exponent scale
        # allocates more.  Measured on 150-bit numerators (Python 3.11), the
        # dot product takes, against the dict loop, 1.1-1.5x the time with no
        # gaps at 2-4 terms a side, 0.93-1.04x at 5-6 and 0.6-0.8x from 8 on;
        # at 12 x 40 terms and more, 0.8-0.9x at spans of 1.2x the term
        # count, 0.9-1.1x at 1.33x and 1.15-1.5x at 1.5x.
        if la >= 6 and lb >= 6 and 4 * spa * spb <= 5 * la * lb:
            # output m pairs A[i] with B[m - i], the entry spb - 1 - m + i of
            # the reversed B; map stops at the shorter list
            base = ea[0] + eb[0]
            top = min(spa + spb - 1, bound - base)
            A, B = _lattice(ea, na, spa), _lattice(eb, nb, spb)[::-1]
            nums = [sum(map(mul, A, B[spb - 1 - m:])) for m in range(min(top, spb))]
            nums += [sum(map(mul, A[m - spb + 1:], B)) for m in range(spb, top)]
            return _reduced(list(range(base, base + top)), s, nums, d, trunc)
        acc: dict[int, int] = {}
        for ka, x in zip(ea, na):
            for kb, y in zip(eb, nb):
                k = ka + kb
                if k >= bound:
                    break  # the terms ascend, so every later product is too
                acc[k] = acc[k] + x * y if k in acc else x * y
        exps = sorted(acc)
        return _reduced(exps, s, [acc[k] for k in exps], d, trunc)

    __rmul__ = __mul__

    def invert(self, order: Trunc | None = None) -> "NovikovSeries":
        """Multiplicative inverse, exact up to ``T - 2*val`` (capped by *order*).

        The leading term must be nonzero within truncation: inverting a
        truncated zero such as ``O(q^2)`` is :class:`InsufficientPrecision`,
        inverting the exact zero a ``ZeroDivisionError``.  An exact
        multi-term series has an infinite inverse expansion, so *order*
        must then be supplied.

        Write ``a = lead*q^v*(1 + x)`` with ``x = sum_i c_i q^(d_i)``, every
        ``d_i > 0``.  The coefficients of ``1/(1 + x)`` below the relative
        order ``rel = target + v`` satisfy ``b_0 = 1`` and
        ``b_e = -sum_i c_i * b_(e - d_i)``.  They are computed in increasing
        ``e``, walking the monoid generated by the ``d_i`` with a heap (the
        ``d_i`` are arbitrary positive rationals, not steps of one lattice);
        each finished ``b_e`` is pushed into the sums of ``e + d_i``, and an
        exponent enters the heap once.  Exponents are the stored integers
        over ``scale``, each ``c_i`` is ``-m_i/dc`` for integers ``m_i`` and
        one ``dc``, and the pending sums are integers over one common
        denominator, so each ``b_e`` costs one gcd.  The cost is
        O(#terms x #monoid exponents below rel) coefficient products; a
        walk that would make more than :data:`MAX_INVERT_PRODUCTS` of them
        is a :class:`NovikovError`.
        """
        exps, nums, s = self.exps, self.nums, self.scale
        if not exps:
            if self.truncation == INF:
                raise ZeroDivisionError("the exact zero series has no inverse")
            raise InsufficientPrecision(
                f"no leading term below q^{self.truncation} to invert")
        if order is not None:
            order = _trunc(order)
        cache = self._cache
        if cache is not None and order in cache:
            return cache[order]
        # the valuation v is shift/scale, so T - 2v is one integer shift
        n0, shift = nums[0], exps[0]
        target = _shift(self.truncation, -2 * shift, s)
        if order is not None:
            target = _min(target, order)
        if target == INF and len(exps) > 1:
            raise ValueError(
                "inverse of a multi-term exact series is infinite; pass order=")
        # 1/lead = den/n0; its sign goes to the numerators
        sign = 1 if n0 > 0 else -1
        # c_i = n_i/n0 = -m_i/dc with dc > 0, at d_i*scale = k_i - shift
        g = math.gcd(n0, *nums[1:])
        dc = abs(n0) // g
        steps = [(k - shift, -sign * (n // g)) for k, n in zip(exps[1:], nums[1:])]
        offsets = [step for step, _ in steps]
        bound = _bound(target, s) + shift  # the bound of target + v
        # a pending sum is an integer over dc*L, where L is the lcm of the
        # denominators of the b_e finished so far; b_0 = 1 = dc/(dc*1)
        L = 1
        products = 0
        sums = {0: dc} if bound > 0 else {}
        heap = list(sums)
        out_k, out_n, out_d = [], [], []
        while heap:
            k = heapq.heappop(heap)
            t = sums.pop(k)
            if not t:
                continue  # contributes nothing to higher exponents
            # the steps ascend, so the first `below` of them stay below
            # bound; each is one coefficient product, pending or new
            below = bisect_left(offsets, bound - k)
            products += below
            if products > MAX_INVERT_PRODUCTS:
                raise NovikovError(
                    f"the inverse needs more than MAX_INVERT_PRODUCTS = "
                    f"{MAX_INVERT_PRODUCTS} coefficient products below its order")
            D = dc * L
            g = math.gcd(t, D)
            bn, bd = t // g, D // g
            grow = bd // math.gcd(L, bd)
            if grow > 1:
                L *= grow
                for n in sums:
                    sums[n] *= grow
            bl = bn * (L // bd)
            out_k.append(k - shift)
            out_n.append(bn)
            out_d.append(bd)
            for step, m in steps[:below]:
                n = k + step
                if n in sums:
                    sums[n] += m * bl
                else:
                    sums[n] = m * bl
                    heapq.heappush(heap, n)
        # the heap yields the exponents in increasing order; b_e*den/n0
        # over L*|n0|
        f = sign * self.den
        return _store(self, order, _reduced(
            out_k, s, [bn * (L // bd) * f for bn, bd in zip(out_n, out_d)],
            L * abs(n0), target))

    def d_q(self) -> "NovikovSeries":
        """Termwise derivative ``c*d*q^(d-1)``; truncation drops by one."""
        cache = self._cache
        if cache is not None and "d_q" in cache:
            return cache["d_q"]
        s = self.scale
        exps, nums = [], []
        for k, n in zip(self.exps, self.nums):
            if k:
                exps.append(k - s)
                nums.append(n * k)
        return _store(self, "d_q", _reduced(exps, s, nums, self.den * s,
                                            _shift(self.truncation, -1, 1)))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (NovikovSeries, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return (self.exps == other.exps and self.nums == other.nums
                and self.scale == other.scale and self.den == other.den
                and self.truncation == other.truncation)

    def __hash__(self):
        # an exact constant equals its rational, so it hashes as that rational
        if self.truncation == INF and (not self.exps or self.exps == [0]):
            return hash(Fraction(self.nums[0], self.den) if self.exps else 0)
        return hash((tuple(self.exps), self.scale, tuple(self.nums), self.den,
                     self.truncation))

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
        return diff.is_zero() or diff.valuation() >= d

    # -- rendering / encoding ---------------------------------------------

    def render(self, var: str = "q") -> str:
        """Canonical text form, e.g. ``1/2*q^-1 + 3*q^2 + O(q^5)``, read
        from the stored integers: one gcd per exponent and one per
        coefficient, no Fraction."""
        parts = []
        s, d = self.scale, self.den
        for k, n in zip(self.exps, self.nums):
            mag = -n if n < 0 else n
            if k and mag == d:
                body = f"{var}^{render_ratio(k, s, exponent=True)}"
            else:
                body = render_ratio(mag, d)
                if k:
                    body = f"{body}*{var}^{render_ratio(k, s, exponent=True)}"
            if parts:
                parts.append(f" - {body}" if n < 0 else f" + {body}")
            else:
                parts.append(f"-{body}" if n < 0 else body)
        body = "".join(parts)
        if self.truncation != INF:
            t = self.truncation
            tail = f"O({var}^{render_ratio(t.numerator, t.denominator, exponent=True)})"
            body = f"{body} + {tail}" if body else tail
        return body or "0"

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
        terms = field(data, "terms", each, [])
        if len(terms) > MAX_SERIES_TERMS:
            raise ParseError(f"series literal of {len(terms)} terms is above "
                             f"MAX_SERIES_TERMS = {MAX_SERIES_TERMS}").at("terms")
        trunc = field(data, "trunc", _trunc, INF)
        try:
            return cls([(rec["exp"], rec["coeff"]) for rec in terms], trunc)
        except (ParseError, KeyError, TypeError):
            # only now read the terms one at a time, to name the one that fails
            field(data, "terms", lambda ts: each(ts, lambda rec: (
                field(rec, "exp", rat), field(rec, "coeff", rat))))
            raise


def _new(exps: list, scale: int, nums: list, den: int, trunc: Trunc) -> NovikovSeries:
    """Wrap the lists as they are: they must already be in stored form."""
    out = object.__new__(NovikovSeries)
    out.exps, out.scale, out.nums, out.den = exps, scale, nums, den
    out.truncation, out._cache = trunc, None
    return out


def _store(a: NovikovSeries, key, value):
    """Keep *value* in *a*'s cache under *key*, and return it."""
    if a._cache is None:
        a._cache = {key: value}
    else:
        a._cache[key] = value
    return value


def _canonical(exps: list, scale: int, nums: list, den: int) -> tuple:
    """The stored form of ``sum nums[i]/den * q^(exps[i]/scale)`` for
    ascending *exps* and positive *den*: zero coefficients dropped and the
    common factors divided out."""
    if 0 in nums:
        pairs = [(k, n) for k, n in zip(exps, nums) if n]
        exps, nums = [k for k, _ in pairs], [n for _, n in pairs]
    if not nums:
        return [], 1, [], 1
    g = math.gcd(den, *nums) if den > 1 else 1
    if g > 1:
        nums, den = [n // g for n in nums], den // g
    g = math.gcd(scale, *exps) if scale > 1 else 1
    if g > 1:
        exps, scale = [k // g for k in exps], scale // g
    return exps, scale, nums, den


def _reduced(exps: list, scale: int, nums: list, den: int, trunc: Trunc) -> NovikovSeries:
    """The canonical series of the lists, with every exponent below *trunc*."""
    return _new(*_canonical(exps, scale, nums, den), trunc)


def _cut(a: NovikovSeries, trunc: Trunc) -> NovikovSeries:
    """*a* with truncation *trunc*, at most its own, keeping the terms
    below it."""
    i = bisect_left(a.exps, _bound(trunc, a.scale))
    if i == len(a.exps):
        return a if trunc is a.truncation else _new(a.exps, a.scale, a.nums, a.den, trunc)
    return _reduced(a.exps[:i], a.scale, a.nums[:i], a.den, trunc)


def _lattice(exps: list, nums: list, span: int) -> list:
    """*nums* laid out by exponent offset from ``exps[0]`` over *span*
    slots, 0 where no term is stored; *nums* itself when there is no gap."""
    if span == len(exps):
        return nums
    out = [0] * span
    lo = exps[0]
    for k, n in zip(exps, nums):
        out[k - lo] = n
    return out


def _times(xs: list, m: int) -> list:
    return [x * m for x in xs]


def _common(xs: list, x_unit: int, ys: list, y_unit: int) -> tuple[list, list, int]:
    """The numerators *xs* over *x_unit* and *ys* over *y_unit*, both
    rewritten over the lcm of the two units, and that lcm."""
    if x_unit == y_unit:
        return xs, ys, x_unit
    m = math.lcm(x_unit, y_unit)
    return _times(xs, m // x_unit), _times(ys, m // y_unit), m


def _bound(t: Trunc, scale: int):
    """The least integer ``k`` with ``k/scale >= t`` (``INF`` for ``INF``):
    an exponent numerator over *scale* lies below *t* iff it is below this."""
    if isinstance(t, float):
        return INF
    return -(-t.numerator * scale // t.denominator)


def _min(t: Trunc, u: Trunc) -> Trunc:
    """The smaller truncation, compared in integers."""
    if isinstance(t, float):
        return u
    if isinstance(u, float):
        return t
    return t if t.numerator * u.denominator <= u.numerator * t.denominator else u


def _shift(t: Trunc, k: int, scale: int) -> Trunc:
    """``t + k/scale`` for a truncation *t*."""
    if isinstance(t, float) or not k:
        return t
    n, d = t.numerator, t.denominator
    return Fraction(n * scale + k * d, d * scale)


def _plus(t: Trunc, v: Trunc) -> Trunc:
    """``t + v`` for truncations and valuation bounds.  The only float either
    can be is ``INF``; testing the type keeps ``Fraction + INF`` (a float
    conversion inside ``Fraction.__radd__``) off this hot path."""
    return INF if isinstance(t, float) or isinstance(v, float) else t + v


def _coerce(x) -> NovikovSeries:
    if isinstance(x, NovikovSeries):
        return x
    if isinstance(x, (int, Fraction)):
        if not x:
            return _new([], 1, [], 1, INF)
        return _new([0], 1, [x.numerator], x.denominator, INF)
    raise TypeError(f"cannot treat {type(x).__name__} as a series")


def render_ratio(n: int, d: int, exponent: bool = False) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``, built without a Fraction, and
    in parentheses when it is not whole and *exponent* is set.  A
    coefficient past the interpreter's limit on int -> str conversion is a
    :class:`NovikovError` that names its size and the limit, which stays as
    it is; an exponent raises the interpreter's ValueError."""
    if d > 1:
        g = math.gcd(n, d)
        if g > 1:
            n, d = n // g, d // g
    try:
        if d == 1:
            return str(n)
        return f"({n}/{d})" if exponent else f"{n}/{d}"
    except ValueError:
        if exponent:
            raise
        bits = max(n.bit_length(), d.bit_length())
        raise NovikovError(
            f"cannot render a coefficient of {bits} bits (about "
            f"{int(bits * math.log10(2)) + 1} decimal digits): the interpreter "
            f"converts at most {sys.get_int_max_str_digits()} digits") from None
