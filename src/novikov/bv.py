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
from functools import cached_property

from . import graded
from .graded import (
    Row,
    Vec,
    add_row,
    compile_vec,
    contract,
    entry_is_zero,
    linear_apply,
    signed_rows,
    vec_map_from_json,
)
from .ode import ODEProblem
from .report import Report, vanishes
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


# The degrees of the elements that define the distinguished a:
# a = Delta(theta) - kappa.  Other elements are not graded: the k of
# r_endomorphism_check, say, may sit in any degree.
ELEMENT_DEGREES = {"a": 0, "theta": 1, "kappa": 0}


@dataclass
class BVModel:
    """A finite BV model given by its structure tables.

    On first use the product, Delta and a supplied bracket compile to
    signed rows (:func:`graded.signed_rows`), cached on the instance
    outside ``==`` and ``repr``, and the bracket of each ordered pair of
    basis names becomes a row of its own the first time it is needed,
    computed from the product and Delta rows.  The tables must not be
    mutated after first use: the rows would not follow.  Nor may the rows
    be: ``product_row``, ``delta_row`` and ``bracket_row`` hand them out
    as they are.
    """

    degrees: dict[str, int]
    product: dict[tuple[str, str], Vec] = field(default_factory=dict)
    delta: dict[str, Vec] = field(default_factory=dict)
    unit: str = "e"
    elements: dict[str, Vec] = field(default_factory=dict)
    bracket_table: dict[tuple[str, str], Vec] | None = None
    _bracket_constants: dict[tuple[str, str], Row] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # -- algebra -------------------------------------------------------------

    def basis_vec(self, name: str) -> Vec:
        return {name: NovikovSeries.one()}

    def unit_vec(self) -> Vec:
        return self.basis_vec(self.unit)

    @cached_property
    def product_rows(self) -> dict[tuple[str, str], Row]:
        return signed_rows(self.product, self.degrees)

    @cached_property
    def delta_rows(self) -> dict[str, Row]:
        return {k: compile_vec(img) for k, img in self.delta.items()}

    @cached_property
    def bracket_rows(self) -> dict[tuple[str, str], Row] | None:
        return (None if self.bracket_table is None
                else signed_rows(self.bracket_table, self.degrees))

    # The rows of basis names, shared, not copied.  Each equals what mul,
    # delta_apply and bracket return on basis vectors over the rational 1,
    # whose contraction multiplies every entry by 1.

    def product_row(self, a: str, b: str) -> Row:
        return self.product_rows.get((a, b), {})

    def delta_row(self, a: str) -> Row:
        return self.delta_rows.get(a, {})

    def bracket_row(self, a: str, b: str) -> Row:
        """The bracket of the basis names a and b, computed once per model:
        Delta(a.b) - (Delta a).b - (-1)^|a| a.(Delta b).  An entry that
        cancels keeps its class, as the defining formula does."""
        row = self._bracket_constants.get((a, b))
        if row is None:
            product, delta = self.product_row, self.delta_row
            row = {}
            for k, c in product(a, b).items():
                add_row(row, delta(k), c)
            for k, c in delta(a).items():
                add_row(row, product(k, b), -c)
            odd = self.degrees[a] % 2
            for k, c in delta(b).items():
                add_row(row, product(a, k), c if odd else -c)
            self._bracket_constants[(a, b)] = row
        return row

    def mul(self, x: Vec, y: Vec) -> Vec:
        return contract(self.product_rows, x, y)

    def delta_apply(self, x: Vec) -> Vec:
        return linear_apply(self.delta_rows, x)

    def bracket(self, x1: Vec, x2: Vec) -> Vec:
        """The derived bracket, extended bilinearly from the bracket row of
        each pair of basis names."""
        out: Vec = {}
        for a, sa in x1.items():
            if entry_is_zero(sa):
                continue
            if a not in self.degrees:
                raise KeyError(a)
            for b, sb in x2.items():
                row = self.bracket_row(a, b)
                if row:
                    add_row(out, row, sa * sb)
        return out

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
        """Decode a model; a product, Delta or bracket row, an element or
        the unit naming a class outside ``"basis"`` is a :class:`ParseError`,
        and so is a product row outside degree 0, a Delta or bracket row
        outside degree -1, or an element that defines ``a`` outside its
        degree in :data:`ELEMENT_DEGREES` (:func:`graded.homogeneous`)."""
        degrees = graded.basis_from_json(data)

        def table(key: str, shift: int) -> dict[tuple[str, str], Vec]:
            return dict(graded.table_row_from_json(r, degrees, key, shift)
                        for r in data[key])

        product = table("product", 0) if "product" in data else {}
        delta = graded.vec_map_of_declared(data.get("delta", {}), degrees, "delta", -1)
        elements = vec_map_from_json(data.get("elements", {}))
        for name, image in elements.items():
            if name in ELEMENT_DEGREES:
                graded.homogeneous(image, degrees, ELEMENT_DEGREES[name],
                                   f"element {name!r}")
            else:
                graded.declared(degrees, f"element {name!r}", *image)
        unit = data.get("unit", "e")
        graded.declared(degrees, "unit", unit)
        bracket = table("bracket", -1) if "bracket" in data else None
        return cls(degrees=degrees, product=product, delta=delta,
                   unit=unit, elements=elements, bracket_table=bracket)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


@dataclass
class Connection:
    """Coefficientwise d_q plus a degree-0 linear part (images of basis)."""

    linear: dict[str, Vec] = field(default_factory=dict)

    def apply(self, x: Vec, model: BVModel) -> Vec:
        # a rational coefficient is a constant, whose d_q is zero
        return vec_add({k: s.d_q() for k, s in x.items() if isinstance(s, NovikovSeries)},
                       linear_apply(self.linear, x))


def nabla_c(nabla: Connection, a: Vec, c, model: BVModel) -> Connection:
    """nabla^c x = nabla x + c * a.x as a new connection."""
    c = Fraction(c)
    if c == 0 or vec_is_zero(a):
        return Connection(dict(nabla.linear))
    return Connection({name: vec_add(nabla.linear.get(name, {}),
                                     vec_scale(c, model.mul(a, {name: 1})))
                       for name in model.degrees})


def gauge_change(nabla: Connection, alpha: Vec, a: Vec,
                 model: BVModel) -> tuple[Connection, Vec]:
    """nabla~ x = nabla x - [alpha, x];  a~ = a + Delta(alpha).  An alpha
    outside degree 1 is a :class:`ParseError` (:func:`graded.homogeneous`)."""
    graded.homogeneous(alpha, model.degrees, 1, "alpha")
    linear = {name: vec_sub(nabla.linear.get(name, {}),
                            model.bracket(alpha, {name: 1}))
              for name in model.degrees}
    return Connection(linear), vec_add(a, model.delta_apply(alpha))


# ---------------------------------------------------------------------------
# axiom and identity checks
# ---------------------------------------------------------------------------


def _rational_basis(model: BVModel):
    """Each basis name with its basis vector over the exact rational 1.
    mul, bracket, delta_apply and a connection contract such vectors over
    rows and images, so an identity on them makes a series operation only
    where a row entry or an image is a series."""
    return [(n, {n: 1}) for n in model.degrees]


def check_bv_axioms(model: BVModel) -> Report:
    """Each identity on basis vectors, with the inner product, bracket and
    Delta of basis names read from the model's rows."""
    report = Report()
    basis = _rational_basis(model)
    pairs = [(n1, x1, n2, x2) for n1, x1 in basis for n2, x2 in basis]
    triples = [(n1, x1, n2, x2, n3, x3)
               for n1, x1, n2, x2 in pairs for n3, x3 in basis]
    deg, e = model.degrees, model.unit
    mul, bracket, delta = model.mul, model.bracket, model.delta_apply
    P, B, D = model.product_row, model.bracket_row, model.delta_row

    report.identity("unit", "e.x = x",
                    ((f"e.{n}", vec_sub(P(e, n), x)) for n, x in basis))

    report.identity("commutativity", "x1.x2 = (-1)^(|x1||x2|) x2.x1",
                    ((f"[{n1},{n2}]",
                      vec_sub(P(n1, n2), vec_scale((-1) ** (deg[n1] * deg[n2]), P(n2, n1))))
                     for n1, x1, n2, x2 in pairs))

    report.identity("associativity", "(x1.x2).x3 = x1.(x2.x3)",
                    ((f"({n1}.{n2}).{n3}",
                      vec_sub(mul(P(n1, n2), x3), mul(x1, P(n2, n3))))
                     for n1, x1, n2, x2, n3, x3 in triples))

    report.residual("delta-e", "Delta e = 0", D(e))

    report.identity("delta-squared", "Delta Delta x = 0",
                    ((f"Delta^2 {n}", delta(D(n))) for n, x in basis))

    if model.bracket_table is not None:
        supplied = model.bracket_rows
        report.identity("delta-bracket",
                        "[x1,x2] = Delta(x1.x2) - (Delta x1).x2 - (-1)^|x1| x1.Delta x2",
                        ((f"[{n1},{n2}]",
                          vec_sub(supplied.get((n1, n2), {}), B(n1, n2)))
                         for n1, x1, n2, x2 in pairs))

    report.identity("antisymmetry", "[x2,x1] = (-1)^(|x1||x2|) [x1,x2]",
                    ((f"[{n2},{n1}]",
                      vec_sub(B(n2, n1), vec_scale((-1) ** (deg[n1] * deg[n2]), B(n1, n2))))
                     for n1, x1, n2, x2 in pairs))

    report.identity("derivation-bracket",
                    "[x1,x2.x3] = [x1,x2].x3 + (-1)^((|x1|+1)|x2|) x2.[x1,x3]",
                    ((f"[{n1},{n2}.{n3}]",
                      vec_sub(bracket(x1, P(n2, n3)),
                              vec_add(mul(B(n1, n2), x3),
                                      vec_scale((-1) ** ((deg[n1] + 1) * deg[n2]),
                                                mul(x2, B(n1, n3))))))
                     for n1, x1, n2, x2, n3, x3 in triples))

    report.identity("jacobi", "signed cyclic sum of [x1,[x2,x3]] = 0",
                    ((f"jacobi({n1},{n2},{n3})",
                      vec_add(vec_scale((-1) ** deg[n1], bracket(x1, B(n2, n3))),
                              vec_scale((-1) ** (deg[n1] * (deg[n2] + deg[n3]) + deg[n2]),
                                        bracket(x2, B(n3, n1))),
                              vec_scale((-1) ** (deg[n3] * (deg[n1] + deg[n2] + 1)),
                                        bracket(x3, B(n1, n2)))))
                     for n1, x1, n2, x2, n3, x3 in triples))

    report.identity("e-is-ideal", "[e,x] = 0",
                    ((f"[e,{n}]", B(e, n)) for n, x in basis))

    report.identity("delta-bracket-2",
                    "Delta[x1,x2] + [Delta x1,x2] + (-1)^|x1| [x1,Delta x2] = 0",
                    ((f"({n1},{n2})",
                      vec_add(delta(B(n1, n2)),
                              bracket(D(n1), x2),
                              vec_scale((-1) ** deg[n1], bracket(x1, D(n2)))))
                     for n1, x1, n2, x2 in pairs))
    return report


def check_leibniz(nabla: Connection, model: BVModel) -> Report:
    """Both Leibniz rules on basis vectors, with the product and bracket
    of basis names read from the rows and nabla of each name made once."""
    report = Report()
    basis = _rational_basis(model)
    pairs = [(n1, x1, n2, x2) for n1, x1 in basis for n2, x2 in basis]
    mul, bracket = model.mul, model.bracket
    P, B = model.product_row, model.bracket_row
    apply = lambda x: nabla.apply(x, model)
    nab = {n: apply(x) for n, x in basis}
    report.identity("nabla-product",
                    "nabla(x1.x2) = (nabla x1).x2 + x1.(nabla x2)",
                    ((f"({n1},{n2})",
                      vec_sub(apply(P(n1, n2)),
                              vec_add(mul(nab[n1], x2), mul(x1, nab[n2]))))
                     for n1, x1, n2, x2 in pairs))
    report.identity("nabla-bracket",
                    "nabla[x1,x2] = [nabla x1,x2] + [x1,nabla x2]",
                    ((f"({n1},{n2})",
                      vec_sub(apply(B(n1, n2)),
                              vec_add(bracket(nab[n1], x2), bracket(x1, nab[n2]))))
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
    report.identity("delta-nabla", "nabla(Delta x) = Delta(nabla x) - [a,x]",
                    ((n, delta_nabla_residual(nabla, a, x, model))
                     for n, x in _rational_basis(model)))
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

    basis = _rational_basis(model)
    commutators = [commutator(x) for _, x in basis]
    report.identity("minus1-delta-commutator",
                    "nabla^{-1}(Delta x) - Delta(nabla^{-1} x) = (Delta a).x",
                    ((n, vec_sub(c, model.mul(da, x)))
                     for (n, x), c in zip(basis, commutators)))
    if vec_is_zero(da):
        report.identity("minus1-delta-compatible",
                        "Delta a = 0 => nabla^{-1} commutes with Delta",
                        ((n, c) for (n, _), c in zip(basis, commutators)))
    return report


def minus1_ambiguity_check(nabla: Connection, alpha: Vec, a: Vec,
                           model: BVModel) -> Report:
    """Gauge ambiguity of the BV-compatible connection:
    nabla~^{-1} x = nabla^{-1} x - Delta(alpha.x) - alpha.(Delta x)."""
    report = Report()
    tilde, a_tilde = gauge_change(nabla, alpha, a, model)
    minus1 = nabla_c(nabla, a, -1, model)
    minus1_tilde = nabla_c(tilde, a_tilde, -1, model)
    report.identity("minus1-ambiguity",
                    "nabla~^{-1} x = nabla^{-1} x - Delta(alpha.x) - alpha.Delta x",
                    ((n, vec_sub(minus1_tilde.apply(x, model),
                                 vec_sub(minus1.apply(x, model),
                                         vec_add(model.delta_apply(model.mul(alpha, x)),
                                                 model.mul(alpha, model.delta_apply(x))))))
                     for n, x in _rational_basis(model)))
    return report


def r_endomorphism_check(model: BVModel, k_name: str = "k") -> Report:
    """With Delta k = 0, the rotation endomorphism has the two equivalent
    bracket forms: [k, x] = [k, x]^{-1} (they differ by (Delta k).x)."""
    report = Report()
    k = model.element(k_name)
    report.residual("delta-k", "Delta k = 0", model.delta_apply(k))
    # the row names the first failing basis name; no later one is evaluated
    for n, x in _rational_basis(model):
        res = vec_sub(model.bracket(k, x), model.modified_bracket(k, x))
        if not vanishes(res):
            report.add("r-two-forms", "[k,x] = [k,x]^{-1}", False,
                       f"{n}: {vec_render(res)} (= -(Delta k).{n})")
            return report
    report.add("r-two-forms", "[k,x] = [k,x]^{-1}", True, "0")
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
    report.residual("class-equation", "nabla s - psi*s.s + eta*s + 4*z2*psi*e = 0",
                    class_equation_residual(nabla, s, prob, model))
    a = vec_scale(-prob.psi, s)
    report.residual("nonlinear-a",
                    "nabla a + a.a + (eta - psi'/psi)*a - 4*z2*psi^2*e = 0",
                    nonlinear_a_residual(nabla, a, prob, model, order))
    for c in (-1, 0, 1):
        report.residual(f"nabla-c-s[c={c}]",
                        "nabla^c s + (c-1)*psi*s.s + eta*s + 4*z2*psi*e = 0",
                        nablac_s_residual(nabla, s, prob, c, model))
    report.residual("second-order-e",
                    "nabla^1 nabla^1 e + (eta - psi'/psi)*nabla^1 e - 4*z2*psi^2*e = 0",
                    second_order_on_e(nabla, s, prob, model, order))
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
