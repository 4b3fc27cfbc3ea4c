"""Finite-dimensional quantum-cohomology models and their relations.

The compactified side carries a graded basis with a cup product and the
pieces of the degree-dropping quantum product: ``x *^(k) y`` has degree
``|x| + |y| - 2k`` and vanishes for ``k < 0``.  Divisor-type invariants
enter through class-valued series z0, z1, z2 (degrees 4, 2, 0) and the
distinguished classes ``M`` (the fibre) and ``W = q^{-1}[omega]``.

The verified relations, as exact class-valued identities up to truncation:

    M * M = z1 + 4 z2
    W * M = W cup M + d_q(z1 + 2 z2)
    W * W = W cup W + (q^{-1} d_q + d_q^2)(z0 + z1 + z2)
    x *0 z1 = (x cup M) *1 M + (x *1 M) cup M          (associativity instance)
    z2~|E = (1/2) (z1 *1 M)|E                          (relative reduction)

plus the pencil-type solve for (psi, eta) with W = psi*z1 - eta*M, and the
rank-3 Gauss-Manin derivation over the u-extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import graded
from .errors import DegreeMismatch, NoSolution, ParseError, PrerequisiteFailed, require_object
from .graded import (
    Vec,
    contract,
    linear_apply,
    signed_rows,
    vec_add,
    vec_from_json,
    vec_get,
    vec_render,
    vec_scale,
    vec_sub,
)
from .ode import ODEProblem
from .report import Report, vanishes
from .series import NovikovSeries, Trunc, integer, rat
from .useries import USeries

UVec = dict  # name -> USeries

_Q_INV = NovikovSeries.monomial(1, -1)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass
class CohomologyModel:
    """Graded basis with cup and quantum-piece tables.

    Tables map an ordered basis-name pair to a class-valued series; missing
    entries are zero, and a pair stored in one order serves the other with
    the Koszul sign of the degrees.  ``restriction`` sends each basis class
    to its image on the fibre-complement model (by default it kills ``M``
    and keeps everything else).  As in a BV model, the tables compile to
    signed rows on first use and must not be mutated after it; build a
    changed model with :func:`dataclasses.replace`.
    """

    degrees: dict[str, int]
    cup: dict[tuple[str, str], Vec] = field(default_factory=dict)
    qpieces: dict[int, dict[tuple[str, str], Vec]] = field(default_factory=dict)
    unit: str | None = None
    m_class: str = "M"
    omega: Vec | None = None
    twists: dict[str, NovikovSeries] = field(default_factory=dict)
    restriction: dict[str, Vec] | None = None

    def __post_init__(self):
        if any(k < 0 for k in self.qpieces):
            raise ValueError("quantum pieces with k < 0 must be zero")
        if self.restriction is None:
            self.restriction = {name: ({} if name == self.m_class else {name: NovikovSeries.one()})
                                for name in self.degrees}

    def basis_vec(self, name: str) -> Vec:
        return {name: NovikovSeries.one()}

    def m_vec(self) -> Vec:
        return self.basis_vec(self.m_class)

    def d_q(self, x: Vec) -> Vec:
        """Coefficientwise d_q; a twisted class (W = q^{-1}[omega]) also
        differentiates itself: d_q(f*W) = (d_q f)*W - q^{-1} f*W."""
        out: Vec = {}
        for k, s in x.items():
            d = s.d_q()
            if k in self.twists:
                d = d + self.twists[k] * s
            out[k] = d
        return out

    @cached_property
    def cup_rows(self) -> dict[tuple[str, str], graded.Row]:
        return signed_rows(self.cup, self.degrees)

    @cached_property
    def qpiece_rows(self) -> dict[int, dict[tuple[str, str], graded.Row]]:
        return {k: signed_rows(table, self.degrees) for k, table in self.qpieces.items()}

    def cup_mul(self, x: Vec, y: Vec) -> Vec:
        return contract(self.cup_rows, x, y)

    def quantum_piece(self, x: Vec, y: Vec, k: int) -> Vec:
        return contract(self.qpiece_rows.get(k, {}), x, y)

    def quantum_mul(self, x: Vec, y: Vec) -> Vec:
        return vec_add(*(self.quantum_piece(x, y, k) for k in self.qpieces))

    def restrict(self, x: Vec) -> Vec:
        # an undeclared basis name is a KeyError here, not a zero image
        return linear_apply({k: self.restriction[k] for k in x}, x)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "CohomologyModel":
        """Decode a model; a class outside ``"basis"`` is a :class:`ParseError`,
        and so is a cup row outside degree 0, a quantum-piece row outside
        degree -2k or a restriction outside degree 0 (:func:`graded.homogeneous`),
        and a quantum-piece record with ``k < 0``."""
        degrees = graded.basis_from_json(data)
        cup = dict(graded.table_row_from_json(rec, degrees, "cup", 0)
                   for rec in data.get("cup") or [])
        qpieces: dict[int, dict] = {}
        for rec in data.get("qpieces", []):
            k = integer(require_object(rec, "qpieces record").get("k", 0))
            if k < 0:
                raise ParseError(f"qpieces row {(rec.get('left'), rec.get('right'))} "
                                 f"has k = {k}: quantum pieces with k < 0 are zero")
            pair, result = graded.table_row_from_json(rec, degrees, "qpieces", -2 * k)
            qpieces.setdefault(k, {})[pair] = result
        omega = vec_from_json(data["omega"]) if "omega" in data else None
        twists = vec_from_json(data.get("twists", {}))
        graded.declared(degrees, "omega", *(omega or {}))
        graded.declared(degrees, "twists", *twists)
        if "unit" in data:
            graded.declared(degrees, "unit", data["unit"])
        if "m_class" in data:
            graded.declared(degrees, "m_class", data["m_class"])
        restriction = (graded.vec_map_of_declared(data["restriction"], degrees,
                                                  "restriction", 0)
                       if "restriction" in data else None)
        return cls(degrees=degrees, cup=cup,
                   qpieces=qpieces, unit=data.get("unit"),
                   m_class=data.get("m_class", "M"), omega=omega,
                   twists=twists, restriction=restriction)


@dataclass
class GWData:
    """Class-valued one-pointed invariants and the blow-up parameter."""

    z0: Vec = field(default_factory=dict)
    z1: Vec = field(default_factory=dict)
    z2: Vec = field(default_factory=dict)
    z2tilde: Vec | None = None
    gamma: Fraction = Fraction(0)

    @classmethod
    def from_json(cls, data: dict) -> "GWData":
        require_object(data, "gw block")

        def load(key):
            raw = data.get(key)
            return None if raw is None else vec_from_json(raw)
        return cls(z0=load("z0") or {}, z1=load("z1") or {}, z2=load("z2") or {},
                   z2tilde=load("z2tilde"),
                   gamma=rat(data.get("gamma", 0)))

    def omega_vec(self, m_class: str = "M") -> Vec:
        """q^{-1}[omega] for omega = D + gamma*M."""
        return {"D": _Q_INV, m_class: Fraction(self.gamma) * _Q_INV}


# ---------------------------------------------------------------------------
# divisor relations / associativity / relative reduction
# ---------------------------------------------------------------------------


def divisor_relations_check(model: CohomologyModel, gw: GWData) -> Report:
    report = Report()
    m = model.m_vec()
    w = model.omega if model.omega is not None else gw.omega_vec(m_class=model.m_class)

    lhs = model.quantum_mul(m, m)
    rhs = vec_add(gw.z1, vec_scale(4, gw.z2))
    report.residual("m-star-m", "M*M = z1 + 4*z2", vec_sub(lhs, rhs))

    lhs = model.quantum_mul(w, m)
    rhs = vec_add(model.cup_mul(w, m),
                  model.d_q(vec_add(gw.z1, vec_scale(2, gw.z2))))
    report.residual("omega-star-m", "W*M = W.M + d_q(z1 + 2*z2)", vec_sub(lhs, rhs))

    lhs = model.quantum_mul(w, w)
    zsum = vec_add(gw.z0, gw.z1, gw.z2)
    dz = model.d_q(zsum)
    rhs = vec_add(model.cup_mul(w, w), vec_scale(_Q_INV, dz), model.d_q(dz))
    report.residual("omega-star-omega",
                    "W*W = W.W + (q^-1 d_q + d_q^2)(z0 + z1 + z2)", vec_sub(lhs, rhs))
    return report


def wdvv_residual(x: Vec, model: CohomologyModel, gw: GWData) -> Vec:
    m = model.m_vec()
    first = model.quantum_piece(x, gw.z1, 0)
    second = model.quantum_piece(model.cup_mul(x, m), m, 1)
    third = model.cup_mul(model.quantum_piece(x, m, 1), m)
    return vec_sub(first, vec_add(second, third))


def wdvv_check(model: CohomologyModel, gw: GWData) -> Report:
    report = Report()
    for name in model.degrees:
        report.residual(f"wdvv[{name}]", "x *0 z1 = (x.M) *1 M + (x *1 M).M",
                        wdvv_residual(model.basis_vec(name), model, gw))
    return report


def relative_z2(model: CohomologyModel, gw: GWData) -> Vec:
    """(1/2) (z1 *1 M) restricted to the fibre complement."""
    return vec_scale(Fraction(1, 2),
                     model.restrict(model.quantum_piece(gw.z1, model.m_vec(), 1)))


def relative_z2_check(model: CohomologyModel, gw: GWData) -> Report:
    report = Report()
    half = relative_z2(model, gw)
    if gw.z2tilde is None:
        report.add("relative-z2", "z2~|E = (1/2)(z1 *1 M)|E", True,
                   f"computed {vec_render(half)} (no z2~ supplied to compare)")
        return report
    report.residual("relative-z2", "z2~|E = (1/2)(z1 *1 M)|E",
                    vec_sub(model.restrict(gw.z2tilde), half))
    return report


# ---------------------------------------------------------------------------
# psi / eta solver
# ---------------------------------------------------------------------------


def solve_psi_eta(model: CohomologyModel, gw: GWData,
                  order: Trunc | None = None) -> tuple[NovikovSeries, NovikovSeries]:
    """The unique (psi, eta) with q^{-1}[omega] = psi*z1 - eta*M, solved
    componentwise on a two-dimensional degree-2 basis {D, M}."""
    h2 = [n for n, d in model.degrees.items() if d == 2]
    if sorted(h2) != sorted(["D", model.m_class]):
        raise ValueError(f"need a two-dimensional degree-2 basis, have {h2}")
    z1_d = vec_get(gw.z1, "D")
    if z1_d.is_zero():
        raise NoSolution("the D-component of z1 vanishes; psi is undefined")
    psi = _Q_INV * z1_d.invert(order)
    eta = psi * vec_get(gw.z1, model.m_class) - Fraction(gw.gamma) * _Q_INV
    return psi, eta


def psi_eta_check(model: CohomologyModel, gw: GWData,
                  order: Trunc | None = None) -> Report:
    report = Report()
    psi, eta = solve_psi_eta(model, gw, order)
    recon = vec_sub(vec_scale(psi, gw.z1),
                    vec_scale(eta, model.m_vec()))
    res = vec_sub(recon, gw.omega_vec(m_class=model.m_class))
    report.residual("psi-eta-round-trip", "q^-1*[omega] = psi*z1 - eta*M", res,
                    detail=f"psi = {psi.render()}; eta = {eta.render()}; "
                           f"residual {vec_render(res)}")
    return report


# ---------------------------------------------------------------------------
# quantum connection on the fibre complement
# ---------------------------------------------------------------------------


def _u_vec(*levels: Vec) -> UVec:
    """The u-vector whose u^k coefficient is the vector ``levels[k]``."""
    return {n: USeries({k: vec_get(x, n) for k, x in enumerate(levels)})
            for n in set().union(*levels)}


def quantum_connection(x: Vec, model: CohomologyModel) -> UVec:
    """D(x) = u * d_q(x) + W *_E x, with *_E the degree-preserving product
    (piece k = 0) of the given model and W its omega class.

    Library API: no task file reaches it; the tests check it directly."""
    if model.omega is None:
        raise ValueError("model carries no omega class")
    return _u_vec(model.quantum_piece(model.omega, x, 0), model.d_q(x))


# ---------------------------------------------------------------------------
# equivariant rank-3 module and the Gauss-Manin derivation
# ---------------------------------------------------------------------------

E_EQ, S_EQ, SS_EQ = "e_eq", "s_eq", "ss_eq"


def gauss_manin_derivation(prob: ODEProblem, order: Trunc | None = None) -> tuple[UVec, UVec]:
    """Push the quantum connection into the free rank-3 module on
    {e_eq, s_eq, ss_eq} over the u-extension, driven by (psi, eta, z2).

    Returns (Gamma(e_eq), u*Gamma(s_eq)) in the module basis.  The inputs on
    the classical side are 1 and psi^{-1} w, with w = q^{-1}[omega] = u*psi*s_eq,
    whose connection images are

        D(1)          = w
        D(psi^{-1} w) = u*(d_q psi^{-1} - psi^{-1} q^{-1})*w + psi^{-1}*(w *_E w)

    using d_q w = -q^{-1} w; *psi^{-1}* is ``psi.invert(order)``.
    """
    psi, eta, z2 = prob.psi, prob.eta, prob.z2
    psi_inv = psi.invert(order)
    log_psi = psi.d_q() * psi_inv
    u = USeries.u_power(1)
    u2 = USeries.u_power(2)
    w = {S_EQ: u.scale(psi)}
    ww = {
        SS_EQ: u2.scale(2 * psi * psi),
        S_EQ: u2.scale(-(psi * (eta - log_psi - _Q_INV))),
        E_EQ: u2.scale(-4 * z2 * psi * psi),
    }
    w_coeff = USeries({1: psi_inv.d_q() - psi_inv * _Q_INV})
    u_gamma_s = vec_add(vec_scale(w_coeff, w), vec_scale(USeries.scalar(psi_inv), ww))
    return w, u_gamma_s


def gauss_manin_check(prob: ODEProblem, order: Trunc | None = None) -> Report:
    """Gamma(e_eq) = u*psi*s_eq and Gamma(s_eq) = u*(2*psi*ss_eq - eta*s_eq
    - 4*z2*psi*e_eq), as the derivation must find them (Gamma(ss_eq) is
    outside the modeled range)."""
    report = Report()
    psi, eta, z2 = prob.psi, prob.eta, prob.z2
    gamma_e, u_gamma_s = gauss_manin_derivation(prob, order)
    report.residual("gauss-manin-e", "Gamma(e_eq) = u*psi*s_eq",
                    vec_sub(gamma_e, {S_EQ: USeries({1: psi})}), detail=vec_render(gamma_e))
    expect_s = {SS_EQ: USeries({2: 2 * psi}), S_EQ: USeries({2: -eta}),
                E_EQ: USeries({2: -4 * z2 * psi})}
    report.residual("gauss-manin-s",
                    "u*Gamma(s_eq) = 2u^2*psi*ss_eq - u^2*eta*s_eq - 4u^2*z2*psi*e_eq",
                    vec_sub(u_gamma_s, expect_s), detail=vec_render(u_gamma_s))
    return report


# ---------------------------------------------------------------------------
# rewrite consistency for the u^2 level
# ---------------------------------------------------------------------------


def uueq_rewrite_check(model: CohomologyModel, gw: GWData) -> Report:
    """Check that the u^2-level dictionary entry, rewritten through the
    associativity instance and the relative reduction, matches term by term.

    Requires a unit class (z2 is a multiple of it) and a supplied z2~.
    Raises PrerequisiteFailed when the feeding identities fail.
    """
    if model.unit is None:
        raise ValueError("model needs a unit class to place z2")
    if gw.z2tilde is None:
        raise ValueError("the rewrite needs z2~ data")
    if not vanishes(wdvv_residual(gw.z1, model, gw)):
        raise PrerequisiteFailed("associativity instance fails for z1")
    z2t, half_z1m = model.restrict(gw.z2tilde), relative_z2(model, gw)
    if not vanishes(vec_sub(z2t, half_z1m)):
        raise PrerequisiteFailed("relative reduction fails")

    report = Report()
    half = Fraction(1, 2)
    m = model.m_vec()
    unit_e = model.restrict(model.basis_vec(model.unit))
    z2_scalar = vec_get(gw.z2, model.unit)
    off_unit = {k: s for k, s in gw.z2.items() if k != model.unit and not s.is_zero()}
    if off_unit:
        raise DegreeMismatch("z2 must be a multiple of the unit class")

    lhs = _u_vec(model.restrict(vec_scale(half, model.quantum_piece(gw.z1, gw.z1, 0))),
                 half_z1m,
                 vec_sub(vec_scale(2, model.restrict(gw.z2)), vec_scale(2 * z2_scalar, unit_e)))
    rhs = _u_vec(model.restrict(vec_scale(half, model.quantum_piece(
        model.cup_mul(gw.z1, m), m, 1))), z2t)

    report.residual("uueq-rewrite",
                    "(1/2)(z1 *0 z1 + u*z1 *1 M)|E + 2u^2(z2 - z2.e)|E = "
                    "(1/2)((z1.M) *1 M)|E + u*z2~|E", vec_sub(lhs, rhs))
    return report
