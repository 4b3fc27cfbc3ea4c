"""Finite graded BV models over the Novikov field, with connections.

A model is a graded basis, a unital graded-commutative product, and a
degree -1 square-zero operator Delta.  The bracket is derived from Delta:

    [x1, x2] = Delta(x1.x2) - (Delta x1).x2 - (-1)^|x1| x1.(Delta x2)

and the verified relation list (all with this nonstandard sign normalization,
which differs from the usual Gerstenhaber convention by (-1)^|x1|):

    [x2, x1] = (-1)^(|x1||x2|) [x1, x2]
    [x1, x2.x3] = [x1,x2].x3 + (-1)^((|x1|+1)|x2|) x2.[x1,x3]
    (-1)^|x1| [x1,[x2,x3]] + (-1)^(|x1|(|x2|+|x3|)+|x2|) [x2,[x3,x1]]
        + (-1)^(|x3|(|x1|+|x2|+1)) [x3,[x1,x2]] = 0
    [e, x] = 0,  Delta e = 0,  Delta Delta = 0
    Delta[x1,x2] + [Delta x1, x2] + (-1)^|x1| [x1, Delta x2] = 0

A connection is coefficientwise d_q plus a degree-0 linear part.  The
distinguished element a measures the failure of nabla to commute with
Delta; the one-parameter family nabla^c x = nabla x + c*a.x contains the
BV-compatible member at c = -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import graded
from .errors import ParseError
from .graded import Vec, linear_apply, table_mul, vec_from_json
from .ode import ODEProblem
from .report import Report
from .series import NovikovSeries, Trunc


# Wrappers, not re-exports: the benchmark's tracer times these names as
# bv's own vector layer, and a re-export would count quantum's calls too.
def vec_get(x: Vec, name: str) -> NovikovSeries:
    return graded.vec_get(x, name)


def vec_add(*xs: Vec) -> Vec:
    return graded.vec_add(*xs)


def vec_scale(f, x: Vec) -> Vec:
    return graded.vec_scale(f, x)


def vec_sub(x: Vec, y: Vec) -> Vec:
    return graded.vec_sub(x, y)


def vec_is_zero(x: Vec) -> bool:
    return graded.vec_is_zero(x)


def vec_render(x: Vec) -> str:
    return graded.vec_render(x)


@dataclass
class BVModel:
    degrees: dict[str, int]
    product: dict[tuple[str, str], Vec] = field(default_factory=dict)
    delta: dict[str, Vec] = field(default_factory=dict)
    unit: str = "e"
    elements: dict[str, Vec] = field(default_factory=dict)
    bracket_table: dict[tuple[str, str], Vec] | None = None

    # -- algebra -------------------------------------------------------------

    def basis_vec(self, name: str) -> Vec:
        return {name: NovikovSeries.one()}

    def unit_vec(self) -> Vec:
        return self.basis_vec(self.unit)

    def degree_of(self, x: Vec) -> int | None:
        degs = {self.degrees[k] for k, s in x.items() if not s.is_zero()}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element mixes degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_parts(self, x: Vec) -> dict[int, Vec]:
        parts: dict[int, Vec] = {}
        for k, s in x.items():
            if s.is_zero():
                continue
            parts.setdefault(self.degrees[k], {})[k] = s
        return parts

    def mul(self, x: Vec, y: Vec) -> Vec:
        return table_mul(self.product, self.degrees, x, y)

    def delta_apply(self, x: Vec) -> Vec:
        return linear_apply(self.delta, x)

    def bracket(self, x1: Vec, x2: Vec) -> Vec:
        """Derived bracket; x1 is split into homogeneous parts for the sign."""
        return vec_add(*(
            vec_sub(self.delta_apply(self.mul(part, x2)),
                    vec_add(self.mul(self.delta_apply(part), x2),
                            vec_scale((-1) ** deg, self.mul(part, self.delta_apply(x2)))))
            for deg, part in self.homogeneous_parts(x1).items()))

    def supplied_bracket(self, x1: Vec, x2: Vec) -> Vec:
        if self.bracket_table is None:
            return self.bracket(x1, x2)
        return table_mul(self.bracket_table, self.degrees, x1, x2)

    def modified_bracket(self, x1: Vec, x2: Vec) -> Vec:
        """[x1, x2]^{-1} = [x1, x2] + (Delta x1).x2."""
        return vec_add(self.bracket(x1, x2),
                       self.mul(self.delta_apply(x1), x2))

    def element(self, name: str) -> Vec:
        if name not in self.elements:
            raise KeyError(f"model declares no element {name!r}")
        return self.elements[name]

    def distinguished_a(self) -> Vec:
        """The inner-derivation element: declared directly, or derived as
        Delta(theta) - kappa from supplied bounding data, else the unit."""
        if "a" in self.elements:
            return self.elements["a"]
        if "theta" in self.elements:
            a = self.delta_apply(self.elements["theta"])
            if "kappa" in self.elements:
                a = vec_sub(a, self.elements["kappa"])
            return a
        return self.unit_vec()

    @classmethod
    def from_json(cls, data: dict) -> "BVModel":
        try:
            degrees = {b["name"]: int(b["degree"]) for b in data["basis"]}
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad basis declaration: {exc}") from exc
        product = {(r["left"], r["right"]): vec_from_json(r["result"])
                   for r in data.get("product", [])}
        delta = {k: vec_from_json(v) for k, v in data.get("delta", {}).items()}
        elements = {k: vec_from_json(v) for k, v in data.get("elements", {}).items()}
        bracket = None
        if "bracket" in data:
            bracket = {(r["left"], r["right"]): vec_from_json(r["result"])
                       for r in data["bracket"]}
        return cls(degrees=degrees, product=product, delta=delta,
                   unit=data.get("unit", "e"), elements=elements,
                   bracket_table=bracket)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


@dataclass
class Connection:
    """Coefficientwise d_q plus a degree-0 linear part (images of basis)."""

    linear: dict[str, Vec] = field(default_factory=dict)

    def apply(self, x: Vec, model: BVModel) -> Vec:
        return vec_add({k: s.d_q() for k, s in x.items()},
                       linear_apply(self.linear, x))


def nabla_c(nabla: Connection, a: Vec, c, model: BVModel) -> Connection:
    """nabla^c x = nabla x + c * a.x as a new connection."""
    c = Fraction(c)
    if c == 0 or vec_is_zero(a):
        return Connection(dict(nabla.linear))
    return Connection({name: vec_add(nabla.linear.get(name, {}),
                                     vec_scale(c, model.mul(a, model.basis_vec(name))))
                       for name in model.degrees})


def gauge_change(nabla: Connection, alpha: Vec, a: Vec,
                 model: BVModel) -> tuple[Connection, Vec]:
    """nabla~ x = nabla x - [alpha, x];  a~ = a + Delta(alpha)."""
    if model.degree_of(alpha) not in (None, 1):
        raise ValueError("gauge parameter must have degree 1")
    linear = {name: vec_sub(nabla.linear.get(name, {}),
                            model.bracket(alpha, model.basis_vec(name)))
              for name in model.degrees}
    return Connection(linear), vec_add(a, model.delta_apply(alpha))


# ---------------------------------------------------------------------------
# axiom and identity checks
# ---------------------------------------------------------------------------


def _basis_vecs(model: BVModel):
    return [(n, model.basis_vec(n)) for n in model.degrees]


def _identity(report: Report, name: str, equation: str, cases):
    """One report row for an identity over (label, residual) cases: it
    passes when every residual vanishes, and its detail names the first
    case that does not."""
    failing = [(label, res) for label, res in cases if not vec_is_zero(res)]
    detail = f"{failing[0][0]}: {vec_render(failing[0][1])}" if failing else "0"
    report.add(name, equation, not failing, detail)


def check_bv_axioms(model: BVModel) -> Report:
    report = Report()
    basis = _basis_vecs(model)
    pairs = [(n1, x1, n2, x2) for n1, x1 in basis for n2, x2 in basis]
    triples = [(n1, x1, n2, x2, n3, x3)
               for n1, x1, n2, x2 in pairs for n3, x3 in basis]
    deg = model.degrees
    e = model.unit_vec()

    _identity(report, "unit", "e.x = x",
              ((f"e.{n}", vec_sub(model.mul(e, x), x)) for n, x in basis))

    _identity(report, "commutativity", "x1.x2 = (-1)^(|x1||x2|) x2.x1",
              ((f"[{n1},{n2}]",
                vec_sub(model.mul(x1, x2),
                        vec_scale((-1) ** (deg[n1] * deg[n2]), model.mul(x2, x1))))
               for n1, x1, n2, x2 in pairs))

    _identity(report, "associativity", "(x1.x2).x3 = x1.(x2.x3)",
              ((f"({n1}.{n2}).{n3}",
                vec_sub(model.mul(model.mul(x1, x2), x3),
                        model.mul(x1, model.mul(x2, x3))))
               for n1, x1, n2, x2, n3, x3 in triples))

    res = model.delta_apply(e)
    report.add("delta-e", "Delta e = 0", vec_is_zero(res), vec_render(res))

    _identity(report, "delta-squared", "Delta Delta x = 0",
              ((f"Delta^2 {n}", model.delta_apply(model.delta_apply(x)))
               for n, x in basis))

    if model.bracket_table is not None:
        _identity(report, "delta-bracket",
                  "[x1,x2] = Delta(x1.x2) - (Delta x1).x2 - (-1)^|x1| x1.Delta x2",
                  ((f"[{n1},{n2}]",
                    vec_sub(model.supplied_bracket(x1, x2), model.bracket(x1, x2)))
                   for n1, x1, n2, x2 in pairs))

    _identity(report, "antisymmetry", "[x2,x1] = (-1)^(|x1||x2|) [x1,x2]",
              ((f"[{n2},{n1}]",
                vec_sub(model.bracket(x2, x1),
                        vec_scale((-1) ** (deg[n1] * deg[n2]), model.bracket(x1, x2))))
               for n1, x1, n2, x2 in pairs))

    _identity(report, "derivation-bracket",
              "[x1,x2.x3] = [x1,x2].x3 + (-1)^((|x1|+1)|x2|) x2.[x1,x3]",
              ((f"[{n1},{n2}.{n3}]",
                vec_sub(model.bracket(x1, model.mul(x2, x3)),
                        vec_add(model.mul(model.bracket(x1, x2), x3),
                                vec_scale((-1) ** ((deg[n1] + 1) * deg[n2]),
                                          model.mul(x2, model.bracket(x1, x3))))))
               for n1, x1, n2, x2, n3, x3 in triples))

    _identity(report, "jacobi", "signed cyclic sum of [x1,[x2,x3]] = 0",
              ((f"jacobi({n1},{n2},{n3})",
                vec_add(vec_scale((-1) ** deg[n1],
                                  model.bracket(x1, model.bracket(x2, x3))),
                        vec_scale((-1) ** (deg[n1] * (deg[n2] + deg[n3]) + deg[n2]),
                                  model.bracket(x2, model.bracket(x3, x1))),
                        vec_scale((-1) ** (deg[n3] * (deg[n1] + deg[n2] + 1)),
                                  model.bracket(x3, model.bracket(x1, x2)))))
               for n1, x1, n2, x2, n3, x3 in triples))

    _identity(report, "e-is-ideal", "[e,x] = 0",
              ((f"[e,{n}]", model.bracket(e, x)) for n, x in basis))

    _identity(report, "delta-bracket-2",
              "Delta[x1,x2] + [Delta x1,x2] + (-1)^|x1| [x1,Delta x2] = 0",
              ((f"({n1},{n2})",
                vec_add(model.delta_apply(model.bracket(x1, x2)),
                        model.bracket(model.delta_apply(x1), x2),
                        vec_scale((-1) ** deg[n1],
                                  model.bracket(x1, model.delta_apply(x2)))))
               for n1, x1, n2, x2 in pairs))
    return report


def check_leibniz(nabla: Connection, model: BVModel) -> Report:
    report = Report()
    basis = _basis_vecs(model)
    pairs = [(n1, x1, n2, x2) for n1, x1 in basis for n2, x2 in basis]
    _identity(report, "nabla-product",
              "nabla(x1.x2) = (nabla x1).x2 + x1.(nabla x2)",
              ((f"({n1},{n2})",
                vec_sub(nabla.apply(model.mul(x1, x2), model),
                        vec_add(model.mul(nabla.apply(x1, model), x2),
                                model.mul(x1, nabla.apply(x2, model)))))
               for n1, x1, n2, x2 in pairs))
    _identity(report, "nabla-bracket",
              "nabla[x1,x2] = [nabla x1,x2] + [x1,nabla x2]",
              ((f"({n1},{n2})",
                vec_sub(nabla.apply(model.bracket(x1, x2), model),
                        vec_add(model.bracket(nabla.apply(x1, model), x2),
                                model.bracket(x1, nabla.apply(x2, model)))))
               for n1, x1, n2, x2 in pairs))
    return report


def delta_nabla_residual(nabla: Connection, a: Vec, x: Vec, model: BVModel) -> Vec:
    """nabla(Delta x) - Delta(nabla x) + [a, x]; zero when the connection
    satisfies the inner-derivation relation."""
    return vec_add(nabla.apply(model.delta_apply(x), model),
                   vec_scale(-1, model.delta_apply(nabla.apply(x, model))),
                   model.bracket(a, x))


def check_delta_nabla(nabla: Connection, a: Vec, model: BVModel) -> Report:
    report = Report()
    _identity(report, "delta-nabla", "nabla(Delta x) = Delta(nabla x) - [a,x]",
              ((n, delta_nabla_residual(nabla, a, x, model))
               for n, x in _basis_vecs(model)))
    return report


def check_minus1_delta(nabla: Connection, a: Vec, model: BVModel) -> Report:
    """nabla^{-1} Delta - Delta nabla^{-1} = (Delta a) . x, hence zero
    whenever Delta a = 0.  Assumes the delta-nabla relation holds."""
    report = Report()
    minus1 = nabla_c(nabla, a, -1, model)
    da = model.delta_apply(a)

    def commutator(x: Vec) -> Vec:
        return vec_sub(minus1.apply(model.delta_apply(x), model),
                       model.delta_apply(minus1.apply(x, model)))

    _identity(report, "minus1-delta-commutator",
              "nabla^{-1}(Delta x) - Delta(nabla^{-1} x) = (Delta a).x",
              ((n, vec_sub(commutator(x), model.mul(da, x)))
               for n, x in _basis_vecs(model)))
    if vec_is_zero(da):
        _identity(report, "minus1-delta-compatible",
                  "Delta a = 0 => nabla^{-1} commutes with Delta",
                  ((n, commutator(x)) for n, x in _basis_vecs(model)))
    return report


def minus1_ambiguity_check(nabla: Connection, alpha: Vec, a: Vec,
                           model: BVModel) -> Report:
    """Gauge ambiguity of the BV-compatible connection:
    nabla~^{-1} x = nabla^{-1} x - Delta(alpha.x) - alpha.(Delta x)."""
    report = Report()
    tilde, a_tilde = gauge_change(nabla, alpha, a, model)
    minus1 = nabla_c(nabla, a, -1, model)
    minus1_tilde = nabla_c(tilde, a_tilde, -1, model)
    _identity(report, "minus1-ambiguity",
              "nabla~^{-1} x = nabla^{-1} x - Delta(alpha.x) - alpha.Delta x",
              ((n, vec_sub(minus1_tilde.apply(x, model),
                           vec_sub(minus1.apply(x, model),
                                   vec_add(model.delta_apply(model.mul(alpha, x)),
                                           model.mul(alpha, model.delta_apply(x))))))
               for n, x in _basis_vecs(model)))
    return report


def r_endomorphism_check(model: BVModel, k_name: str = "k") -> Report:
    """With Delta k = 0, the rotation endomorphism has the two equivalent
    bracket forms: [k, x] = [k, x]^{-1} (they differ by (Delta k).x)."""
    report = Report()
    k = model.element(k_name)
    dk = model.delta_apply(k)
    report.add("delta-k", "Delta k = 0", vec_is_zero(dk), vec_render(dk))
    fails = []
    for n, x in _basis_vecs(model):
        res = vec_sub(model.bracket(k, x), model.modified_bracket(k, x))
        if not vec_is_zero(res):
            fails.append(f"{n}: {vec_render(res)} (= -(Delta k).{n})")
    report.add("r-two-forms", "[k,x] = [k,x]^{-1}", not fails,
               fails[0] if fails else "0")
    return report


# ---------------------------------------------------------------------------
# distinguished-element equation and its equivalent forms
# ---------------------------------------------------------------------------


def class_equation_residual(nabla: Connection, s: Vec, prob: ODEProblem,
                model: BVModel) -> Vec:
    """nabla s - psi*(s.s) + eta*s + 4*z2*psi*e."""
    return vec_add(nabla.apply(s, model),
                   vec_scale(-prob.psi, model.mul(s, s)),
                   vec_scale(prob.eta, s),
                   vec_scale(4 * prob.z2 * prob.psi, model.unit_vec()))


def nonlinear_a_residual(nabla: Connection, a: Vec, prob: ODEProblem,
                         model: BVModel, order: Trunc | None = None) -> Vec:
    """nabla a + a.a + (eta - psi'/psi)*a - 4*z2*psi^2*e."""
    p = prob.p_coefficient(order)
    return vec_add(nabla.apply(a, model), model.mul(a, a), vec_scale(p, a),
                   vec_scale(-4 * prob.z2 * prob.psi * prob.psi,
                             model.unit_vec()))


def nablac_s_residual(nabla: Connection, s: Vec, prob: ODEProblem, c,
                      model: BVModel) -> Vec:
    """nabla^c s + (c-1)*psi*(s.s) + eta*s + 4*z2*psi*e, with a = -psi*s."""
    a = vec_scale(-prob.psi, s)
    conn = nabla_c(nabla, a, c, model)
    return vec_add(conn.apply(s, model),
                   vec_scale((Fraction(c) - 1) * prob.psi, model.mul(s, s)),
                   vec_scale(prob.eta, s),
                   vec_scale(4 * prob.z2 * prob.psi, model.unit_vec()))


def second_order_on_e(nabla: Connection, s: Vec, prob: ODEProblem,
                      model: BVModel, order: Trunc | None = None) -> Vec:
    """Eliminate s between nabla^1 e = -psi*s and the c = 1 equation:

        nabla^1 nabla^1 e + (eta - psi'/psi) nabla^1 e - 4 z2 psi^2 e = 0,

    the unit-class analogue of the scalar second-order equation."""
    a = vec_scale(-prob.psi, s)
    one = nabla_c(nabla, a, 1, model)
    e = model.unit_vec()
    p = prob.p_coefficient(order)
    first = one.apply(e, model)
    return vec_add(one.apply(first, model), vec_scale(p, first),
                   vec_scale(-4 * prob.z2 * prob.psi * prob.psi, e))


def class_equation_suite(prob: ODEProblem, n: int = 4, order: Trunc | None = None) -> Report:
    """Run the distinguished-element equation and all its equivalent forms
    on the nilpotent desk model."""
    report = Report()
    model, nabla, s = nilpotent_class_model(prob, n)
    res = class_equation_residual(nabla, s, prob, model)
    report.add("class-equation", "nabla s - psi*s.s + eta*s + 4*z2*psi*e = 0",
               vec_is_zero(res), vec_render(res))
    a = vec_scale(-prob.psi, s)
    res = nonlinear_a_residual(nabla, a, prob, model, order)
    report.add("nonlinear-a",
               "nabla a + a.a + (eta - psi'/psi)*a - 4*z2*psi^2*e = 0",
               vec_is_zero(res), vec_render(res))
    for c in (-1, 0, 1):
        res = nablac_s_residual(nabla, s, prob, c, model)
        report.add(f"nabla-c-s[c={c}]",
                   "nabla^c s + (c-1)*psi*s.s + eta*s + 4*z2*psi*e = 0",
                   vec_is_zero(res), vec_render(res))
    res = second_order_on_e(nabla, s, prob, model, order)
    report.add("second-order-e",
               "nabla^1 nabla^1 e + (eta - psi'/psi)*nabla^1 e - 4*z2*psi^2*e = 0",
               vec_is_zero(res), vec_render(res))
    return report


# ---------------------------------------------------------------------------
# model factories
# ---------------------------------------------------------------------------


def polyvector_model(n: int = 4) -> BVModel:
    """K[t]/(t^n) tensor an odd line: basis t^i (degree 0) and t^i*x (degree 1),
    Delta(t^i x) = i*t^i (the operator (t d/dt) d/dx).

    The Euler-twisted form keeps the truncation ideal Delta-stable, so the
    quotient is a genuine BV algebra; the naive d/dt d/dx would leak across
    the t^n cut and break the bracket axioms there.
    """
    degrees: dict[str, int] = {}
    product: dict[tuple[str, str], Vec] = {}
    delta: dict[str, Vec] = {}
    one = NovikovSeries.one()
    for i in range(n):
        degrees[f"t{i}"] = 0
        degrees[f"t{i}x"] = 1
    for i in range(n):
        for j in range(n):
            if i + j < n:
                product[(f"t{i}", f"t{j}")] = {f"t{i+j}": one}
                product[(f"t{i}", f"t{j}x")] = {f"t{i+j}x": one}
            else:
                product[(f"t{i}", f"t{j}")] = {}
                product[(f"t{i}", f"t{j}x")] = {}
            product[(f"t{i}x", f"t{j}x")] = {}
    for i in range(1, n):
        delta[f"t{i}x"] = {f"t{i}": NovikovSeries.monomial(i, 0)}
    model = BVModel(degrees=degrees, product=product, delta=delta, unit="t0")
    model.elements["e"] = model.unit_vec()
    return model


def polyvector_model_with_k(n: int = 4) -> BVModel:
    """Polyvector model extended by a central degree-2 class k with k.k = 0
    and Delta(k.x) = k.(Delta x)."""
    base = polyvector_model(n)
    degrees = dict(base.degrees)
    product = dict(base.product)
    delta = dict(base.delta)
    one = NovikovSeries.one()
    for name, d in base.degrees.items():
        degrees[f"{name}k"] = d + 2
    for (l, r), entry in base.product.items():
        lifted = {f"{z}k": s for z, s in entry.items()}
        product[(l, f"{r}k")] = lifted
        product[(f"{l}k", r)] = lifted
        product[(f"{l}k", f"{r}k")] = {}
    for name, img in base.delta.items():
        delta[f"{name}k"] = {f"{z}k": s for z, s in img.items()}
    model = BVModel(degrees=degrees, product=product, delta=delta, unit="t0")
    model.elements["e"] = model.unit_vec()
    model.elements["k"] = {"t0k": one}
    return model


def nilpotent_class_model(prob: ODEProblem, n: int = 4) -> tuple[BVModel, Connection, Vec]:
    """K[s]/(s^n) with Delta = 0 and the connection defined so that the
    distinguished degree-0 class satisfies its first-order equation
    exactly: nabla s = psi*(s.s) - eta*s - 4*z2*psi*e, extended as a
    product derivation."""
    degrees = {f"s{i}": 0 for i in range(n)}
    product: dict[tuple[str, str], Vec] = {}
    one = NovikovSeries.one()
    for i in range(n):
        for j in range(n):
            product[(f"s{i}", f"s{j}")] = {f"s{i+j}": one} if i + j < n else {}
    model = BVModel(degrees=degrees, product=product, delta={}, unit="s0")
    s = model.basis_vec("s1")
    nabla_s = vec_add(vec_scale(prob.psi, model.mul(s, s)),
                      vec_scale(-prob.eta, s),
                      vec_scale(-4 * prob.z2 * prob.psi, model.unit_vec()))
    linear: dict[str, Vec] = {}
    for i in range(1, n):
        prev = model.basis_vec(f"s{i-1}")
        linear[f"s{i}"] = vec_scale(Fraction(i), model.mul(prev, nabla_s))
    nabla = Connection(linear)
    model.elements["e"] = model.unit_vec()
    model.elements["s"] = s
    return model, nabla, s
