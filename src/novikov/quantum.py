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

from .errors import DegreeMismatch, NoSolution, ParseError, PrerequisiteFailed
from .graded import (
    Vec,
    linear_apply,
    table_mul,
    vec_add,
    vec_from_json,
    vec_get,
    vec_is_zero,
    vec_render,
    vec_scale,
    vec_sub,
)
from .ode import ODEProblem
from .report import Report
from .series import NovikovSeries, Trunc
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
    and keeps everything else).
    """

    degrees: dict[str, int]
    cup: dict[tuple[str, str], Vec] = field(default_factory=dict)
    qpieces: dict[int, dict[tuple[str, str], Vec]] = field(default_factory=dict)
    unit: str | None = None
    m_class: str = "M"
    omega: Vec | None = None
    twists: dict[str, NovikovSeries] = field(default_factory=dict)
    restriction: dict[str, Vec] | None = None
    e_model: "CohomologyModel | None" = None

    def __post_init__(self):
        if any(k < 0 for k in self.qpieces):
            raise ValueError("quantum pieces with k < 0 must be zero")
        if self.restriction is None:
            self.restriction = {name: ({} if name == self.m_class else {name: NovikovSeries.one()})
                                for name in self.degrees}

    def degree_of(self, x: Vec) -> int:
        degs = {self.degrees[k] for k, s in x.items() if not s.is_zero()}
        if len(degs) > 1:
            raise DegreeMismatch(f"mixed degrees {sorted(degs)}")
        return degs.pop() if degs else 0

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

    def cup_mul(self, x: Vec, y: Vec) -> Vec:
        return table_mul(self.cup, self.degrees, x, y)

    def quantum_piece(self, x: Vec, y: Vec, k: int) -> Vec:
        if k < 0:
            return {}
        return table_mul(self.qpieces.get(k, {}), self.degrees, x, y)

    def quantum_mul(self, x: Vec, y: Vec, homogeneous: bool = False) -> Vec:
        if homogeneous:
            self.degree_of(x), self.degree_of(y)
        return vec_add(*(self.quantum_piece(x, y, k) for k in self.qpieces))

    def restrict(self, x: Vec) -> Vec:
        # an undeclared basis name is a KeyError here, not a zero image
        return linear_apply({k: self.restriction[k] for k in x}, x)

    # -- structural invariants ----------------------------------------------

    def check_degrees(self) -> list[str]:
        """Every *^(k) table entry must drop degree by exactly 2k."""
        violations = []
        for k, table in self.qpieces.items():
            for (l, r), entry in table.items():
                want = self.degrees[l] + self.degrees[r] - 2 * k
                for name, s in entry.items():
                    if not s.is_zero() and self.degrees[name] != want:
                        violations.append(
                            f"{l} *{k} {r} hits {name} of degree "
                            f"{self.degrees[name]}, expected {want}")
        return violations

    def check_star_restriction(self) -> list[str]:
        """Degree-preserving product must commute with restriction onto the
        attached fibre-complement model."""
        if self.e_model is None:
            return []
        violations = []
        for l in self.degrees:
            for r in self.degrees:
                lhs = self.restrict(self.quantum_piece(
                    self.basis_vec(l), self.basis_vec(r), 0))
                rhs = self.e_model.quantum_piece(
                    self.restrict(self.basis_vec(l)),
                    self.restrict(self.basis_vec(r)), 0)
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    violations.append(f"({l},{r}): {vec_render(res)}")
        return violations

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "CohomologyModel":
        try:
            degrees = {b["name"]: int(b["degree"]) for b in data["basis"]}
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad basis declaration: {exc}") from exc
        cup = {(rec["left"], rec["right"]): vec_from_json(rec["result"])
               for rec in data.get("cup") or []}
        qpieces: dict[int, dict] = {}
        for rec in data.get("qpieces", []):
            table = qpieces.setdefault(int(rec.get("k", 0)), {})
            table[(rec["left"], rec["right"])] = vec_from_json(rec["result"])
        omega = None
        if "omega" in data:
            omega = vec_from_json(data["omega"])
        twists = vec_from_json(data.get("twists", {}))
        restriction = None
        if "restriction" in data:
            restriction = {name: vec_from_json(img)
                           for name, img in data["restriction"].items()}
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
        def load(key):
            raw = data.get(key)
            return None if raw is None else vec_from_json(raw)
        return cls(z0=load("z0") or {}, z1=load("z1") or {}, z2=load("z2") or {},
                   z2tilde=load("z2tilde"),
                   gamma=Fraction(data.get("gamma", 0)))

    def omega_vec(self, d_class: str = "D", m_class: str = "M") -> Vec:
        """q^{-1}[omega] for omega = D + gamma*M."""
        return {d_class: _Q_INV, m_class: Fraction(self.gamma) * _Q_INV}

    def check_degrees(self, model: "CohomologyModel") -> list[str]:
        """z^(k) lives in degree 4 - 2k (and vanishes for k < 0 by type)."""
        violations = []
        for k, z in ((0, self.z0), (1, self.z1), (2, self.z2)):
            for name, s in z.items():
                if not s.is_zero() and model.degrees[name] != 4 - 2 * k:
                    violations.append(f"z{k} has a component on {name} of "
                                      f"degree {model.degrees[name]}")
        if self.z2tilde:
            for name, s in self.z2tilde.items():
                if not s.is_zero() and model.degrees[name] != 2:
                    violations.append(f"z2~ has a component on {name}")
        return violations


# ---------------------------------------------------------------------------
# divisor relations / associativity / relative reduction
# ---------------------------------------------------------------------------


def divisor_relations_check(model: CohomologyModel, gw: GWData) -> Report:
    report = Report()
    m = model.m_vec()
    w = model.omega if model.omega is not None else gw.omega_vec(m_class=model.m_class)

    lhs = model.quantum_mul(m, m)
    rhs = vec_add(gw.z1, vec_scale(4, gw.z2))
    res = vec_sub(lhs, rhs)
    report.add("m-star-m", "M*M = z1 + 4*z2", vec_is_zero(res), vec_render(res))

    lhs = model.quantum_mul(w, m)
    rhs = vec_add(model.cup_mul(w, m),
                  model.d_q(vec_add(gw.z1, vec_scale(2, gw.z2))))
    res = vec_sub(lhs, rhs)
    report.add("omega-star-m", "W*M = W.M + d_q(z1 + 2*z2)",
               vec_is_zero(res), vec_render(res))

    lhs = model.quantum_mul(w, w)
    zsum = vec_add(gw.z0, gw.z1, gw.z2)
    dz = model.d_q(zsum)
    rhs = vec_add(model.cup_mul(w, w), vec_scale(_Q_INV, dz), model.d_q(dz))
    res = vec_sub(lhs, rhs)
    report.add("omega-star-omega",
               "W*W = W.W + (q^-1 d_q + d_q^2)(z0 + z1 + z2)",
               vec_is_zero(res), vec_render(res))
    return report


def wdvv_residual(x: Vec, model: CohomologyModel, gw: GWData) -> Vec:
    m = model.m_vec()
    first = model.quantum_piece(x, gw.z1, 0)
    second = model.quantum_piece(model.cup_mul(x, m), m, 1)
    third = model.cup_mul(model.quantum_piece(x, m, 1), m)
    return vec_sub(first, vec_add(second, third))


def wdvv_check(model: CohomologyModel, gw: GWData,
               xs: list[Vec] | None = None) -> Report:
    report = Report()
    if xs is None:
        xs = [model.basis_vec(n) for n in model.degrees]
        names = list(model.degrees)
    else:
        names = [f"x{i}" for i in range(len(xs))]
    for name, x in zip(names, xs):
        res = wdvv_residual(x, model, gw)
        report.add(f"wdvv[{name}]", "x *0 z1 = (x.M) *1 M + (x *1 M).M",
                   vec_is_zero(res), vec_render(res))
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
    res = vec_sub(model.restrict(gw.z2tilde), half)
    report.add("relative-z2", "z2~|E = (1/2)(z1 *1 M)|E",
               vec_is_zero(res), vec_render(res))
    return report


# ---------------------------------------------------------------------------
# psi / eta solver
# ---------------------------------------------------------------------------


def solve_psi_eta(model: CohomologyModel, gw: GWData,
                  order: Trunc | None = None,
                  d_class: str = "D") -> tuple[NovikovSeries, NovikovSeries]:
    """The unique (psi, eta) with q^{-1}[omega] = psi*z1 - eta*M, solved
    componentwise on a two-dimensional degree-2 basis {D, M}."""
    h2 = [n for n, d in model.degrees.items() if d == 2]
    if sorted(h2) != sorted([d_class, model.m_class]):
        raise ValueError(f"need a two-dimensional degree-2 basis, have {h2}")
    z1_d = vec_get(gw.z1, d_class)
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
    report.add("psi-eta-round-trip", "q^-1*[omega] = psi*z1 - eta*M",
               vec_is_zero(res),
               f"psi = {psi.render()}; eta = {eta.render()}; residual {vec_render(res)}")
    return report


# ---------------------------------------------------------------------------
# quantum connection on the fibre complement
# ---------------------------------------------------------------------------


def quantum_connection(x: Vec, model: CohomologyModel) -> UVec:
    """D(x) = u * d_q(x) + W *_E x, with *_E the degree-preserving product
    (piece k = 0) of the given model and W its omega class."""
    if model.omega is None:
        raise ValueError("model carries no omega class")
    du = model.d_q(x)
    prod = model.quantum_piece(model.omega, x, 0)
    names = set(du) | set(prod)
    return {n: USeries({0: vec_get(prod, n), 1: vec_get(du, n)}) for n in names}


# ---------------------------------------------------------------------------
# equivariant rank-3 module and the Gauss-Manin derivation
# ---------------------------------------------------------------------------

E_EQ, S_EQ, SS_EQ = "e_eq", "s_eq", "ss_eq"


@dataclass
class EqModuleModel:
    """Free rank-3 module on {e_eq, s_eq, ss_eq} over the u-extension,
    together with the dictionary expressing the images of 1, w = q^{-1}[omega]
    and w *_E w in that basis; everything is driven by (psi, eta, z2)."""

    prob: ODEProblem
    order: Trunc | None = None

    def _psi_inv(self) -> NovikovSeries:
        return self.prob.psi.invert(self.order)

    def dictionary(self) -> dict[str, UVec]:
        psi, eta, z2 = self.prob.psi, self.prob.eta, self.prob.z2
        psi_inv = self._psi_inv()
        log_psi = psi.d_q() * psi_inv
        u = USeries.u_power(1)
        u2 = USeries.u_power(2)
        return {
            "1": {E_EQ: USeries.scalar(NovikovSeries.one())},
            "w": {S_EQ: u.scale(psi)},
            "ww": {
                SS_EQ: u2.scale(2 * psi * psi),
                S_EQ: u2.scale(-(psi * (eta - log_psi - _Q_INV))),
                E_EQ: u2.scale(-4 * z2 * psi * psi),
            },
        }

    def apply_dictionary(self, element: dict[str, USeries]) -> UVec:
        table = self.dictionary()
        return vec_add(*(vec_scale(coeff, table[sym]) for sym, coeff in element.items()))


def gauss_manin_derivation(eqmodel: EqModuleModel) -> tuple[UVec, UVec]:
    """Push the quantum connection through the dictionary.

    Returns (Gamma(e_eq), u*Gamma(s_eq)) in the module basis.  The inputs on
    the classical side are 1 and psi^{-1} w, whose connection images are

        D(1)          = w
        D(psi^{-1} w) = u*(d_q psi^{-1} - psi^{-1} q^{-1})*w + psi^{-1}*(w *_E w)

    using d_q w = -q^{-1} w.
    """
    psi_inv = eqmodel._psi_inv()
    gamma_e = eqmodel.apply_dictionary({"w": USeries.scalar(NovikovSeries.one())})
    w_coeff = USeries({1: psi_inv.d_q() - psi_inv * _Q_INV})
    u_gamma_s = eqmodel.apply_dictionary({"w": w_coeff,
                                          "ww": USeries.scalar(psi_inv)})
    return gamma_e, u_gamma_s


def gamma_apply(x: UVec, eqmodel: EqModuleModel) -> UVec:
    """The connection-type operator on the rank-3 module:
    Gamma(f*b) = f*Gamma(b) + u*(d_q f)*b, with Gamma(e) and Gamma(s) from
    the derivation (Gamma(ss) is outside the modeled range)."""
    psi, eta, z2 = eqmodel.prob.psi, eqmodel.prob.eta, eqmodel.prob.z2
    u = USeries.u_power(1)
    table = {
        E_EQ: {S_EQ: u.scale(psi)},
        S_EQ: {SS_EQ: u.scale(2 * psi), S_EQ: u.scale(-eta),
               E_EQ: u.scale(-4 * z2 * psi)},
    }
    out: UVec = {}
    for name, f in x.items():
        if name == SS_EQ:
            if not f.is_zero():
                raise ValueError("Gamma is not modeled on the ss_eq line")
            continue
        out = vec_add(out, vec_scale(f, table[name]),
                      {name: f.d_q().times_u()})
    return out


def gauss_manin_check(eqmodel: EqModuleModel) -> Report:
    report = Report()
    psi, eta, z2 = eqmodel.prob.psi, eqmodel.prob.eta, eqmodel.prob.z2
    gamma_e, u_gamma_s = gauss_manin_derivation(eqmodel)
    expect_e = {S_EQ: USeries({1: psi})}
    res_e = vec_sub(gamma_e, expect_e)
    report.add("gauss-manin-e", "Gamma(e_eq) = u*psi*s_eq",
               vec_is_zero(res_e), vec_render(gamma_e))
    expect_s = {SS_EQ: USeries({2: 2 * psi}), S_EQ: USeries({2: -eta}),
                E_EQ: USeries({2: -4 * z2 * psi})}
    res_s = vec_sub(u_gamma_s, expect_s)
    report.add("gauss-manin-s",
               "u*Gamma(s_eq) = 2u^2*psi*ss_eq - u^2*eta*s_eq - 4u^2*z2*psi*e_eq",
               vec_is_zero(res_s), vec_render(u_gamma_s))
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
    pre_w = wdvv_check(model, gw, xs=[gw.z1])
    if not pre_w.passed:
        raise PrerequisiteFailed("associativity instance fails for z1")
    pre_r = relative_z2_check(model, gw)
    if not pre_r.passed:
        raise PrerequisiteFailed("relative reduction fails")

    report = Report()
    half = Fraction(1, 2)
    m = model.m_vec()
    unit_e = model.restrict(model.basis_vec(model.unit))
    z2_scalar = vec_get(gw.z2, model.unit)
    off_unit = {k: s for k, s in gw.z2.items() if k != model.unit and not s.is_zero()}
    if off_unit:
        raise DegreeMismatch("z2 must be a multiple of the unit class")

    lhs_u0 = model.restrict(vec_scale(half, model.quantum_piece(gw.z1, gw.z1, 0)))
    lhs_u1 = model.restrict(vec_scale(half, model.quantum_piece(gw.z1, m, 1)))
    lhs_u2 = vec_sub(vec_scale(2, model.restrict(gw.z2)),
                     vec_scale(2 * z2_scalar, unit_e))
    lhs = {k: USeries({0: vec_get(lhs_u0, k), 1: vec_get(lhs_u1, k),
                       2: vec_get(lhs_u2, k)})
           for k in set(lhs_u0) | set(lhs_u1) | set(lhs_u2)}

    rhs_u0 = model.restrict(vec_scale(half, model.quantum_piece(
        model.cup_mul(gw.z1, m), m, 1)))
    rhs_u1 = model.restrict(gw.z2tilde)
    rhs = {k: USeries({0: vec_get(rhs_u0, k), 1: vec_get(rhs_u1, k)})
           for k in set(rhs_u0) | set(rhs_u1)}

    res = vec_sub(lhs, rhs)
    report.add("uueq-rewrite",
               "(1/2)(z1 *0 z1 + u*z1 *1 M)|E + 2u^2(z2 - z2.e)|E = "
               "(1/2)((z1.M) *1 M)|E + u*z2~|E",
               vec_is_zero(res), vec_render(res))
    return report
