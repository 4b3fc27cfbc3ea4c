"""The scalar differential-equation chain and its transforms.

A problem is a coefficient triple (psi, eta, z2).  The chain starts from
the first-order linear system

    d_q rho + psi*sigma            = 0
    d_q sigma + 4*z2*psi*rho + eta*sigma = 0

and, writing p = eta - (d_q psi)/psi, passes through

    second order:  d_q^2 rho + p*d_q rho - 4*z2*psi^2*rho = 0
    Riccati:       d_q alpha + alpha^2 + p*alpha - 4*z2*psi^2 = 0
                   for alpha = rho^{-1} d_q rho
    projective:    d_q lam - psi*lam^2 + eta*lam + 4*z2*psi = 0
                   for lam = rho^{-1} sigma = -psi^{-1} alpha
    Schwarzian:    S_q theta + d_q p + p^2/2 + 8*z2*psi^2 = 0
                   for theta a quotient of two solutions,

with S_q theta = d_q(d_q^2 theta / d_q theta) - (d_q^2 theta / d_q theta)^2 / 2.
:class:`ODEProblem` owns p, 4*z2*psi and r = -4*z2*psi^2 for every form
here and in the class-equation and Gauss-Manin checks.

Each ``*_residual`` function returns the left-hand side; a solution makes it
vanish up to the propagated truncation.  ``solve_second_order`` builds
series solutions order by order on an arithmetic-progression exponent
lattice.  The mirror-side helpers at the bottom live in an auxiliary
variable ``h`` (same series type).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import (InconsistentSeed, InsufficientPrecision, LatticeMismatch, ParseError,
                     ResonantExponent, each, field, shown)
from .record import FrozenRecord
from .series import INF, NovikovSeries, Trunc, _reduced, rat


class ODEProblem(FrozenRecord):
    """Coefficient triple; psi must have a nonzero leading term whenever a
    transform divides by it.  p (per order), 4*z2*psi and r are built on
    first read and kept, never in ``__init__``, so a refused task makes no product."""

    _fields = ("psi", "eta", "z2")

    def __init__(self, psi: NovikovSeries, eta: NovikovSeries, z2: NovikovSeries):
        self._set(psi, eta, z2)

    def p_coefficient(self, order: Trunc | None = None) -> NovikovSeries:
        """eta - (d_q psi)/psi, the first-order coefficient of the second
        order form, built once per *order*."""
        kept = self._p_by_order
        if order not in kept:
            kept[order] = self.eta - log_derivative(self.psi, order)
        return kept[order]

    _p_by_order = cached_property(lambda self: {})

    @cached_property
    def coupling(self) -> NovikovSeries:
        """4*z2*psi, the coefficient of rho in the sigma equation."""
        return 4 * self.z2 * self.psi

    @cached_property
    def r_coefficient(self) -> NovikovSeries:
        """-4*z2*psi^2, the zeroth-order coefficient."""
        return self.coupling * -self.psi

    @classmethod
    def from_json(cls, data: dict) -> "ODEProblem":
        return cls(*(field(data, key, NovikovSeries.from_json) for key in ("psi", "eta", "z2")))


def log_derivative(f: NovikovSeries, order: Trunc | None = None) -> NovikovSeries:
    """(d_q f)/f, the package's one log-derivative (the mirror side reads
    q as h); requires f invertible."""
    return f.d_q() * f.invert(order)


class LatticeSeed(FrozenRecord):
    """Solution ansatz data: exponents run over base_exponent + step*Z>=0,
    and the two lowest coefficients are prescribed."""

    __slots__ = _fields = ("step", "base_exponent", "coeffs")

    def __init__(self, step: Fraction, base_exponent: Fraction,
                 coeffs: tuple[Fraction, Fraction]):
        # the one reader of a seed, so its refusals point at their fields
        if step <= 0:
            raise ParseError("lattice step must be positive").at("step")
        if len(coeffs) != 2:
            raise ParseError("a second-order equation takes two leading coefficients").at("coeffs")
        self._set(step, base_exponent, coeffs)

    @classmethod
    def from_json(cls, data: dict) -> "LatticeSeed":
        return cls(step=field(data, "step", rat), base_exponent=field(data, "base", rat),
                   coeffs=tuple(field(data, "coeffs", lambda c: each(c, rat))))


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def system_residual(rho: NovikovSeries, sigma: NovikovSeries,
                    prob: ODEProblem) -> tuple[NovikovSeries, NovikovSeries]:
    first = rho.d_q() + prob.psi * sigma
    second = sigma.d_q() + prob.coupling * rho + prob.eta * sigma
    return first, second


def sigma_from_rho(rho: NovikovSeries, prob: ODEProblem,
                   order: Trunc | None = None) -> NovikovSeries:
    d = rho.d_q()
    if d.is_zero() and not prob.psi.is_zero():
        return NovikovSeries.zero(d.truncation - prob.psi.valuation())
    # a zero psi raises as its inverse does
    return -(prob.psi.invert(order) * d)


def second_order_residual(rho: NovikovSeries, prob: ODEProblem,
                          order: Trunc | None = None) -> NovikovSeries:
    return rho.d_q().d_q() + prob.p_coefficient(order) * rho.d_q() + prob.r_coefficient * rho


def riccati_residual(alpha: NovikovSeries, prob: ODEProblem,
                     order: Trunc | None = None) -> NovikovSeries:
    return alpha.d_q() + alpha * alpha + prob.p_coefficient(order) * alpha + prob.r_coefficient


def projective_residual(lam: NovikovSeries, prob: ODEProblem) -> NovikovSeries:
    return lam.d_q() - prob.psi * lam * lam + prob.eta * lam + prob.coupling


def schwarzian(theta: NovikovSeries, order: Trunc | None = None) -> NovikovSeries:
    """S_q theta; requires d_q theta invertible."""
    ratio = log_derivative(theta.d_q(), order)
    return ratio.d_q() - Fraction(1, 2) * ratio * ratio


def schwarz_residual(theta: NovikovSeries, prob: ODEProblem,
                     order: Trunc | None = None) -> NovikovSeries:
    p = prob.p_coefficient(order)
    return (schwarzian(theta, order) + p.d_q() + Fraction(1, 2) * p * p
            - 2 * prob.r_coefficient)


# ---------------------------------------------------------------------------
# order-by-order solver
# ---------------------------------------------------------------------------


def _lattice_coeffs(series: NovikovSeries, shift: int, step: Fraction,
                    bound, what: str) -> dict[int, int]:
    """Read off the coefficients of q^(j*step + shift) for integer j >= 0,
    as their stored numerators over ``series.den``.

    *shift* is -1 for the first-order coefficient and -2 for the zeroth;
    terms below *bound* that sit off the lattice (or below the shift) would
    make the residual at an unreachable exponent nonzero, hence
    LatticeMismatch.
    """
    out: dict[int, int] = {}
    scale = series.scale
    limit = INF if bound == INF else math.ceil(bound * scale)
    # j = (k/scale - shift)/step over the stored exponent numerators k
    unit = scale * step.numerator
    for k, n in zip(series.exps, series.nums):
        if k >= limit:
            break  # the exponents ascend
        j, off = divmod((k - shift * scale) * step.denominator, unit)
        if j < 0 or off:
            raise LatticeMismatch(
                f"{what} has a term at q^{Fraction(k, scale)}, not on the lattice "
                f"{shift} + ({step})*Z>=0")
        out[j] = n
    return out


def solve_second_order(prob: ODEProblem, seed: LatticeSeed,
                       order) -> NovikovSeries:
    """Determine rho = sum c_k q^(e0 + k*step) with the seeded c_0, c_1 and
    second_order_residual(rho) = 0 below *order*; an *order* at or below
    e0 is a :class:`ParseError` at ``"order"``.

    The coefficient c_k of a yet-undetermined exponent enters the residual
    multiplied by the indicial factor I(d) = d*(d-1) + P_0*d + R_0 at
    d = e0 + k*step, with P_0 the q^-1 coefficient of p and R_0 the q^-2
    coefficient of r; a vanishing factor there means the recursion does not
    determine the solution and raises ResonantExponent.  The two seeded
    orders are instead checked for consistency (their equations involve no
    new unknown).

    The known part of the order-k equation is
    sum_(j<k) c_j*(e0*P_m + R_m) + j*c_j*(step*P_m) with m = k - j.  All of
    it is integers over fixed denominators: d as dn/dd, I(d) as an integer
    over FD, w_m = e0*P_m + R_m and s_m = step*P_m over one D read from the
    stored numerators of p and r, and c_j, j*c_j over the lcm L of the
    denominators of the c_j so far.  Each order reduces c_k with one gcd,
    and rho is built in stored form from the numerators over L.
    """
    order = Fraction(order)
    e0, step = seed.base_exponent, seed.step
    if e0 >= order:
        raise ParseError(f"solve order {shown(order, str)} lies at or below "
                         f"the base exponent {shown(e0, str)}").at("order")
    vpsi = prob.psi.valuation()
    inv_order = order - e0 + 2 + 2 * abs(vpsi if vpsi != INF else 0)
    p, r = prob.p_coefficient(inv_order), prob.r_coefficient
    kmax = int((order - e0) / step)
    if e0 + kmax * step >= order:
        kmax -= 1
    # the recursion reads P_j = p[j*step - 1], R_j = r[j*step - 2] for
    # j <= kmax; any off-lattice term that could reach residual exponents
    # below order - 2 is a LatticeMismatch
    if p.truncation <= kmax * step - 1 or r.truncation <= kmax * step - 2:
        raise InsufficientPrecision(
            f"coefficients known below q^{min(p.truncation, r.truncation + 1)} "
            f"cannot drive the recursion to q^{order}")
    P = _lattice_coeffs(p, -1, step, min(order - e0 - 1, p.truncation), "p")
    R = _lattice_coeffs(r, -2, step, min(order - e0 - 2, r.truncation), "r")
    # P_m = P[m]/pd, R_m = R[m]/rd; P_0 and R_0 are the q^-1 and q^-2
    # coefficients, which always sit on the lattice
    pd, rd = p.den, r.den
    en, ed, sn, sd = e0.numerator, e0.denominator, step.numerator, step.denominator
    D = math.lcm(ed * pd, sd * pd, rd)
    we, wr, ws = en * (D // (ed * pd)), D // rd, sn * (D // (sd * pd))
    W = [we * P.get(m, 0) + wr * R.get(m, 0) for m in range(kmax + 1)]
    S = [ws * P.get(m, 0) for m in range(kmax + 1)]
    # d = dn/dd, dn = dn0 + k*dstep; I(d) = (dn*(dn - dd)*pd*rd + P0*dn*dd*rd
    # + R0*dd^2*pd) / FD
    dd = math.lcm(ed, sd)
    dn0, dstep = en * (dd // ed), sn * (dd // sd)
    FD = dd * dd * pd * rd
    fp, fr = P.get(0, 0) * dd * rd, R.get(0, 0) * dd * dd * pd
    L = 1
    cl: list[int] = []   # c_j * L
    jcl: list[int] = []  # j * c_j * L
    for k in range(kmax + 1):
        dn = dn0 + k * dstep
        # c_j pairs with w_(k-j), s_(k-j): W and S read backwards from k to 1;
        # the known part is KN/(L*D)
        KN = sum(map(mul, cl, W[k:0:-1])) + sum(map(mul, jcl, S[k:0:-1]))
        FN = dn * (dn - dd) * pd * rd + fp * dn + fr
        if k < 2:
            ck = seed.coeffs[k]
            cn, cd = ck.numerator, ck.denominator
            if FN * cn * L * D + KN * FD * cd:
                d = Fraction(dn, dd)
                raise InconsistentSeed(
                    f"seeded coefficient c_{k} violates the order-q^{d - 2} "
                    f"equation: {Fraction(FN, FD)}*{ck} + {Fraction(KN, L * D)} != 0")
        else:
            if not FN:
                raise ResonantExponent(
                    f"indicial factor vanishes at exponent {Fraction(dn, dd)}; the "
                    f"lattice recursion does not determine c_{k}")
            # c_k = -(KN/(L*D)) / (FN/FD)
            cn, cd = -KN * FD, L * D * FN
            if cd < 0:
                cn, cd = -cn, -cd
            g = math.gcd(cn, cd)
            cn, cd = cn // g, cd // g
        grow = cd // math.gcd(L, cd)
        if grow > 1:
            L *= grow
            cl = [c * grow for c in cl]
            jcl = [c * grow for c in jcl]
        cl.append(cn * (L // cd))
        jcl.append(k * cl[-1])
    # e0 + kmax*step < order, and the exponents ascend
    return _reduced([dn0 + k * dstep for k in range(kmax + 1)], dd, cl, L, order)


# ---------------------------------------------------------------------------
# mirror-side identities (auxiliary variable h)
# ---------------------------------------------------------------------------


def mirror_a(p0, l: NovikovSeries, order: Trunc) -> NovikovSeries:
    """a = p0/(p0*h - 1) - l  for the log-derivative  l = (d_h f)/f.

    p0 is a rational sample value; p0*h - 1 has leading coefficient -1, so
    the quotient always expands, to *order*.
    """
    p0 = Fraction(p0)
    if p0 == 0:
        return -l
    denom = NovikovSeries(((1, p0), (0, -1)))
    return p0 * denom.invert(order) - l


def mirror_a_residual(a: NovikovSeries, l: NovikovSeries) -> NovikovSeries:
    """d_h a + a^2 + 2*l*a + (d_h l + l^2)."""
    return a.d_q() + a * a + 2 * l * a + (l.d_q() + l * l)


def mirror_ode_residual(eta_cand: NovikovSeries, l: NovikovSeries) -> NovikovSeries:
    """d_h^2 eta + 2*l*d_h eta + (d_h l + l^2)*eta."""
    return (eta_cand.d_q().d_q() + 2 * l * eta_cand.d_q()
            + (l.d_q() + l * l) * eta_cand)
