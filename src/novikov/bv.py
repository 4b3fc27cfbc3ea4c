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

from fractions import Fraction
from functools import cached_property

from . import graded
from .graded import (
    Row,
    Vec,
    accumulate,
    compile_vec,
    contract,
    entry_is_zero,
    joined,
    linear_apply,
    mapped,
    moved,
    signed_rows,
    vec_map_from_json,
)
from .ode import ODEProblem
from .record import Record
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


class BVModel(Record):
    """A finite BV model given by its structure tables.

    On first use the product, Delta and a supplied bracket compile to
    signed rows (:func:`graded.signed_rows`), cached on the instance
    outside ``==`` and ``repr``; the bracket of each ordered pair of basis
    names becomes a row of its own (``_bracket_constants``), computed from
    those rows, the first time it is needed.  The identity checks read the
    rows as they are, accumulating each residual (:func:`graded.accumulate`),
    so neither the tables, which the rows would not follow, nor the rows
    may be mutated after first use.
    """

    _fields = ("degrees", "product", "delta", "unit", "elements", "bracket_table")

    def __init__(self, degrees: dict[str, int],
                 product: dict[tuple[str, str], Vec] | None = None,
                 delta: dict[str, Vec] | None = None, unit: str = "e",
                 elements: dict[str, Vec] | None = None,
                 bracket_table: dict[tuple[str, str], Vec] | None = None):
        self.degrees = degrees
        self.product = {} if product is None else product
        self.delta = {} if delta is None else delta
        self.unit = unit
        self.elements = {} if elements is None else elements
        self.bracket_table = bracket_table
        self._bracket_constants: dict[tuple[str, str], Row] = {}

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

    def bracket_row(self, a: str, b: str) -> Row:
        """The bracket of the basis names a and b, computed once per model:
        Delta(a.b) - (Delta a).b - (-1)^|a| a.(Delta b).  An entry that
        cancels keeps its class, as the defining formula does."""
        row = self._bracket_constants.get((a, b))
        if row is None:
            P, D = self.product_rows, self.delta_rows
            odd = self.degrees[a] % 2
            row = accumulate({}, D, P.get((a, b), {}))
            accumulate(row, P, D.get(a, {}), b, -1)
            accumulate(row, P, D.get(b, {}), a, 1 if odd else -1, left=True)
            self._bracket_constants[(a, b)] = row
        return row

    def mul(self, x: Vec, y: Vec) -> Vec:
        return contract(self.product_rows, x, y)

    def delta_apply(self, x: Vec) -> Vec:
        return linear_apply(self.delta_rows, x)

    def bracket(self, x1: Vec, x2: Vec, out: Vec | None = None) -> Vec:
        """The derived bracket, extended bilinearly from the rows that
        :meth:`bracket_row` builds, added into *out* when given.  A zero
        coefficient of *x1* is skipped before its name is looked up."""
        live = _live(x1)
        for a in live:
            if a not in self.degrees:
                raise KeyError(a)
        return contract({(a, b): self.bracket_row(a, b) for a in live for b in x2}, live, x2, out)

    def modified_bracket(self, x1: Vec, x2: Vec) -> Vec:
        """[x1, x2]^{-1} = [x1, x2] + (Delta x1).x2."""
        return contract(self.product_rows, self.delta_apply(x1), x2, self.bracket(x1, x2))

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


class Connection(Record):
    """Coefficientwise d_q plus a degree-0 linear part (images of basis)."""

    __slots__ = _fields = ("linear",)

    def __init__(self, linear: dict[str, Vec] | None = None):
        self.linear = {} if linear is None else linear

    def apply(self, x: Vec) -> Vec:
        # a rational coefficient is a constant, whose d_q is zero
        return accumulate({k: s.d_q() for k, s in x.items() if isinstance(s, NovikovSeries)},
                          self.linear, x)


def nabla_c(nabla: Connection, a: Vec, c, model: BVModel) -> Connection:
    """nabla^c x = nabla x + c * a.x as a new connection, each image
    accumulated from the product rows."""
    c = Fraction(c)
    if c == 0 or vec_is_zero(a):
        return Connection(dict(nabla.linear))
    return Connection({name: accumulate(dict(nabla.linear.get(name, {})),
                                        model.product_rows, a, name, c)
                       for name in model.degrees})


def gauge_change(nabla: Connection, alpha: Vec, a: Vec,
                 model: BVModel) -> tuple[Connection, Vec]:
    """nabla~ x = nabla x - [alpha, x];  a~ = a + Delta(alpha).  An alpha
    outside degree 1 is a :class:`ParseError` (:func:`graded.homogeneous`)."""
    graded.homogeneous(alpha, model.degrees, 1, "alpha")
    live = _live(alpha)
    B = {(z, n): model.bracket_row(z, n) for z in live for n in model.degrees}
    linear = {name: accumulate(dict(nabla.linear.get(name, {})), B, live, name, -1)
              for name in model.degrees}
    return Connection(linear), accumulate(dict(a), model.delta_rows, alpha)


# ---------------------------------------------------------------------------
# axiom and identity checks
# ---------------------------------------------------------------------------


def _live(x: Vec) -> Vec:
    """*x* without its zero coefficients, as the bracket reads a first factor."""
    return {k: c for k, c in x.items() if not entry_is_zero(c)}


def check_bv_axioms(model: BVModel) -> Report:
    """Each identity on basis vectors over the exact rational 1, each case's
    residual accumulated into one vector straight from the product, bracket
    and Delta rows (:func:`graded.accumulate`), its signs folded into the
    row coefficients.

    Only the cases that a term of their identity reaches are evaluated
    (:func:`graded.joined`), in declaration order: no row adds a term to
    any other case, so its residual is empty and never the first failure.

    Three identities are checked once per orbit of a symmetry of their
    basis tuple, on the case whose tuple of declaration ranks is least.
    Term by term, in any model:

    * commutativity and antisymmetry: the ``(n2, n1)`` residual is
      ``-(-1)^(|x1||x2|)`` times the ``(n1, n2)`` residual;
    * jacobi: the ``(n2, n3, n1)`` residual is ``(-1)^(|x1|(|x2|+|x3|))``
      times the ``(n1, n2, n3)`` residual, each of its three double
      brackets appearing in both sums with that sign ratio.

    So a case fails exactly when its orbit's representative does, and the
    representative comes first in declaration order: the first failing
    case, the one a row's detail names, is always a representative,
    computed by the one formula of its identity.
    """
    report = Report()
    names = list(model.degrees)
    pairs = [(n1, n2) for n1 in names for n2 in names]
    # the orbit representatives of the pairs, in declaration order
    swaps = [(n1, n2) for i, n1 in enumerate(names) for n2 in names[i:]]
    rank = {n: i for i, n in enumerate(names)}

    def ranks(t):  # sorts triples into declaration order
        return rank[t[0]], rank[t[1]], rank[t[2]]

    deg, e, P, D = model.degrees, model.unit, model.product_rows, model.delta_rows
    B = {pair: model.bracket_row(*pair) for pair in pairs}
    # the bracket skips a zero coefficient of its first factor
    live_delta = {n: _live(D.get(n, {})) for n in names}

    def derivation(n1, n2, n3):
        out = accumulate({}, B, P.get((n2, n3), {}), n1, left=True)
        accumulate(out, P, B[(n1, n2)], n3, -1)
        return accumulate(out, P, B[(n1, n3)], n2,
                          -(-1) ** ((deg[n1] + 1) * deg[n2]), left=True)

    def jacobi(n1, n2, n3):
        d1, d2, d3, out = deg[n1], deg[n2], deg[n3], {}
        for a, b, c, sign in ((n1, n2, n3, d1), (n2, n3, n1, d1 * (d2 + d3) + d2),
                              (n3, n1, n2, d3 * (d1 + d2 + 1))):
            accumulate(out, B, B[(b, c)], a, (-1) ** sign, left=True)
        return out

    report.identity("unit", "e.x = x",
                    (((n,), accumulate({n: -1}, P, {e: 1}, n)) for n in names), "e.{}")

    report.identity("commutativity", "x1.x2 = (-1)^(|x1||x2|) x2.x1",
                    (((n1, n2), accumulate(accumulate({}, P, {n1: 1}, n2), P,
                                           {n2: -(-1) ** (deg[n1] * deg[n2])}, n1))
                     for n1, n2 in swaps if (n1, n2) in P or (n2, n1) in P), "[{},{}]")

    reached = joined(P, P) | joined(P, P, left=True)
    report.identity("associativity", "(x1.x2).x3 = x1.(x2.x3)",
                    (((n1, n2, n3),
                      accumulate(accumulate({}, P, P.get((n1, n2), {}), n3),
                                 P, P.get((n2, n3), {}), n1, -1, left=True))
                     for n1, n2, n3 in sorted(reached, key=ranks)), "({}.{}).{}")

    report.residual("delta-e", "Delta e = 0", D.get(e, {}))

    reached = mapped(D, D)
    report.identity("delta-squared", "Delta Delta x = 0",
                    (((n,), accumulate({}, D, D[n])) for n in names if n in reached), "Delta^2 {}")

    if model.bracket_table is not None:
        supplied = model.bracket_rows
        report.identity("delta-bracket",
                        "[x1,x2] = Delta(x1.x2) - (Delta x1).x2 - (-1)^|x1| x1.Delta x2",
                        (((n1, n2), accumulate(accumulate({}, supplied, {n1: 1}, n2),
                                               B, {n1: -1}, n2))
                         for n1, n2 in pairs if (n1, n2) in supplied or B[(n1, n2)]),
                        "[{},{}]")

    report.identity("antisymmetry", "[x2,x1] = (-1)^(|x1||x2|) [x1,x2]",
                    (((n1, n2),
                      accumulate(accumulate({}, B, {n2: 1}, n1),
                                 B, {n1: -(-1) ** (deg[n1] * deg[n2])}, n2))
                     for n1, n2 in swaps if B[(n1, n2)] or B[(n2, n1)]), "[{1},{0}]")

    reached = (joined(P, B, left=True) | joined(B, P)
               | {(n1, n2, n3) for n2, n1, n3 in joined(B, P, left=True)})
    report.identity("derivation-bracket",
                    "[x1,x2.x3] = [x1,x2].x3 + (-1)^((|x1|+1)|x2|) x2.[x1,x3]",
                    ((t, derivation(*t)) for t in sorted(reached, key=ranks)), "[{},{}.{}]")

    # a term [a,[b,c]] reaches the orbit of (a, b, c), checked at its least rotation
    reached = {min(((a, b, c), (b, c, a), (c, a, b)), key=ranks)
               for a, b, c in joined(B, B, left=True)}
    report.identity("jacobi", "signed cyclic sum of [x1,[x2,x3]] = 0",
                    ((t, jacobi(*t)) for t in sorted(reached, key=ranks)), "jacobi({},{},{})")

    report.identity("e-is-ideal", "[e,x] = 0",
                    (((n,), B[(e, n)]) for n in names if B[(e, n)]), "[e,{}]")

    reached = mapped(B, D) | joined(live_delta, B) | joined(D, B, left=True)
    report.identity("delta-bracket-2",
                    "Delta[x1,x2] + [Delta x1,x2] + (-1)^|x1| [x1,Delta x2] = 0",
                    (((n1, n2),
                      accumulate(accumulate(accumulate({}, D, B[(n1, n2)]),
                                            B, live_delta[n1], n2),
                                 B, D.get(n2, {}), n1, (-1) ** deg[n1], left=True))
                     for n1, n2 in pairs if (n1, n2) in reached), "({},{})")
    return report


def check_leibniz(nabla: Connection, model: BVModel) -> Report:
    """Both Leibniz rules on basis vectors, each case accumulated from the
    product and bracket rows and from nabla's image of each basis name,
    which is nabla of that name over the exact rational 1.  Only the cases
    that a term reaches are evaluated, as in :func:`check_bv_axioms`.  A
    bracket row is built only at a pair its formula reaches, and only if a
    row has a series entry or nabla a linear part; else none is reached."""
    report = Report()
    P, D, L = model.product_rows, model.delta_rows, nabla.linear
    built = (mapped(P, D) | joined(D, P) | joined(D, P, left=True)
             if moved(P) or moved(D) or any(L.values()) else ())
    B = {pair: model.bracket_row(*pair) for pair in built}
    for name, equation, rows, first in (
            ("nabla-product", "nabla(x1.x2) = (nabla x1).x2 + x1.(nabla x2)", P, L),
            ("nabla-bracket", "nabla[x1,x2] = [nabla x1,x2] + [x1,nabla x2]", B,
             {n: _live(row) for n, row in L.items()})):
        # the terms nabla(row) (d_q moves a series entry), (nabla x1).x2 and x1.(nabla x2)
        reached = moved(rows) | mapped(rows, L) | joined(first, rows) | joined(L, rows, left=True)
        report.identity(name, equation,
                        (((n1, n2),
                          accumulate(accumulate(nabla.apply(rows.get((n1, n2), {})),
                                                rows, first.get(n1, {}), n2, -1),
                                     rows, L.get(n2, {}), n1, -1, left=True))
                         for n1 in model.degrees for n2 in model.degrees
                         if (n1, n2) in reached), "({},{})")
    return report


def delta_nabla_residual(nabla: Connection, a: Vec, x: Vec, model: BVModel) -> Vec:
    """nabla(Delta x) - Delta(nabla x) + [a, x]; zero when the connection
    satisfies the inner-derivation relation."""
    out = accumulate(nabla.apply(model.delta_apply(x)), model.delta_rows,
                     nabla.apply(x), scale=-1)
    return model.bracket(a, x, out)


def _delta_nabla_cases(nabla: Connection, a: Vec, model: BVModel):
    """``(n, delta_nabla_residual)`` at each basis name n that a term reaches,
    in declaration order: a Delta row that d_q moves or that nabla's linear
    part meets, and each n with a nonempty bracket row (z, n), z in a."""
    D, L = model.delta_rows, nabla.linear
    reached = moved(D) | mapped(D, L) | mapped(L, D) | {
        n for z in _live(a) for n in model.degrees if model.bracket_row(z, n)}
    return ((n, delta_nabla_residual(nabla, a, {n: 1}, model))
            for n in model.degrees if n in reached)


def check_delta_nabla(nabla: Connection, a: Vec, model: BVModel) -> Report:
    """:func:`delta_nabla_residual` at each name a term reaches (:func:`_delta_nabla_cases`)."""
    report = Report()
    report.identity("delta-nabla", "nabla(Delta x) = Delta(nabla x) - [a,x]",
                    _delta_nabla_cases(nabla, a, model))
    return report


def check_minus1_delta(minus1: Connection, a: Vec, model: BVModel) -> Report:
    """nabla^{-1} Delta - Delta nabla^{-1} = (Delta a) . x, hence zero whenever
    Delta a = 0, *minus1* being nabla^{-1}.  Assumes the delta-nabla relation
    holds.  Both rows read the commutators, :func:`_delta_nabla_cases` at
    a = 0; the first also evaluates each n with a product row (z, n), z in Delta a."""
    report = Report()
    P, da = model.product_rows, model.delta_apply(a)
    commutators = dict(_delta_nabla_cases(minus1, {}, model))
    report.identity("minus1-delta-commutator",
                    "nabla^{-1}(Delta x) - Delta(nabla^{-1} x) = (Delta a).x",
                    ((n, accumulate(dict(commutators.get(n, {})), P, da, n, -1))
                     for n in model.degrees if n in commutators or any((z, n) in P for z in da)))
    if vec_is_zero(da):
        report.identity("minus1-delta-compatible",
                        "Delta a = 0 => nabla^{-1} commutes with Delta",
                        commutators.items())
    return report


def minus1_ambiguity_check(minus1: Connection, minus1_tilde: Connection,
                           alpha: Vec, model: BVModel) -> Report:
    """Gauge ambiguity of the BV-compatible connection:
    nabla~^{-1} x = nabla^{-1} x - Delta(alpha.x) - alpha.(Delta x), the
    two connections given, nabla~ the :func:`gauge_change` by alpha.  On a
    basis name, nabla^{-1} is its linear part, and alpha.n is built once."""
    report = Report()
    P, D = model.product_rows, model.delta_rows
    report.identity("minus1-ambiguity",
                    "nabla~^{-1} x = nabla^{-1} x - Delta(alpha.x) - alpha.Delta x",
                    ((n, contract(P, alpha, D.get(n, {}), accumulate(
                        accumulate(dict(minus1_tilde.linear.get(n, {})), minus1.linear,
                                   {n: 1}, scale=-1), D, accumulate({}, P, alpha, n))))
                     for n in model.degrees))
    return report


def r_endomorphism_check(model: BVModel) -> Report:
    """With Delta k = 0, the rotation endomorphism has the two equivalent
    bracket forms: [k, x] = [k, x]^{-1} = [k, x] + (Delta k).x.  Each
    residual is accumulated from the rows, both forms kept in the sum."""
    report = Report()
    k = model.element("k")
    dk, live = model.delta_apply(k), _live(k)
    B = {(z, n): model.bracket_row(z, n) for z in live for n in model.degrees}
    report.residual("delta-k", "Delta k = 0", dk)
    # the row names the first failing basis name; no later one is evaluated
    for n in model.degrees:
        res = accumulate(accumulate(accumulate({}, B, live, n), B, live, n, -1),
                         model.product_rows, dk, n, -1)
        if not vanishes(res):
            report.add("r-two-forms", "[k,x] = [k,x]^{-1}", False,
                       f"{n}: {vec_render(res)} (= -(Delta k).{n})")
            return report
    report.add("r-two-forms", "[k,x] = [k,x]^{-1}", True, "0")
    return report


# ---------------------------------------------------------------------------
# distinguished-element equation and its equivalent forms
# ---------------------------------------------------------------------------


class ClassTerms:
    """The pieces that the forms of the class equation share on a model,
    each built once by :meth:`of` in the operand order of its formula:
    the class s, a = -psi*s, s.s, 4*z2*psi and 4*z2*psi^2."""

    __slots__ = ("prob", "model", "s", "a", "ss", "fz", "fz2")

    def __init__(self, prob: ODEProblem, model: BVModel, s: Vec, a: Vec, ss: Vec,
                 fz: NovikovSeries, fz2: NovikovSeries):
        self.prob = prob
        self.model = model
        self.s = s
        self.a = a
        self.ss = ss
        self.fz = fz
        self.fz2 = fz2

    @classmethod
    def of(cls, prob: ODEProblem, model: BVModel, s: Vec) -> "ClassTerms":
        fz = 4 * prob.z2 * prob.psi
        return cls(prob, model, s, vec_scale(-prob.psi, s), model.mul(s, s),
                   fz, fz * prob.psi)


def nonlinear_a_residual(nabla: Connection, t: ClassTerms, p: NovikovSeries) -> Vec:
    """nabla a + a.a + p*a - 4*z2*psi^2*e, with p = eta - psi'/psi
    (:meth:`ODEProblem.p_coefficient`)."""
    return vec_add(nabla.apply(t.a), t.model.mul(t.a, t.a), vec_scale(p, t.a),
                   vec_scale(-t.fz2, t.model.unit_vec()))


def nablac_s_residual(conn: Connection, c, t: ClassTerms) -> Vec:
    """nabla^c s + (c-1)*psi*(s.s) + eta*s + 4*z2*psi*e, where *conn* is
    nabla^c, :func:`nabla_c` of nabla and a = -psi*s."""
    return vec_add(conn.apply(t.s), vec_scale((Fraction(c) - 1) * t.prob.psi, t.ss),
                   vec_scale(t.prob.eta, t.s), vec_scale(t.fz, t.model.unit_vec()))


def second_order_on_e(one: Connection, t: ClassTerms, p: NovikovSeries) -> Vec:
    """Eliminate s between nabla^1 e = -psi*s and the c = 1 equation:

        nabla^1 nabla^1 e + p nabla^1 e - 4 z2 psi^2 e = 0,

    with *one* the connection nabla^1 and p = eta - psi'/psi, the
    unit-class analogue of the scalar second-order equation."""
    e = t.model.unit_vec()
    first = one.apply(e)
    return vec_add(one.apply(first), vec_scale(p, first), vec_scale(-t.fz2, e))


def class_equation_suite(prob: ODEProblem, n: int = 4, order: Trunc | None = None) -> Report:
    """Run the distinguished-element equation and all its equivalent forms
    on the nilpotent desk model, each shared piece and each nabla^c built
    once; the class equation is the c = 0 form."""
    report = Report()
    model, nabla, s = nilpotent_class_model(prob, n)
    t = ClassTerms.of(prob, model, s)
    conns = {c: nabla_c(nabla, t.a, c, model) for c in (-1, 0, 1)}
    forms = {c: nablac_s_residual(conn, c, t) for c, conn in conns.items()}
    report.residual("class-equation", "nabla s - psi*s.s + eta*s + 4*z2*psi*e = 0",
                    forms[0])
    p = prob.p_coefficient(order)
    report.residual("nonlinear-a",
                    "nabla a + a.a + (eta - psi'/psi)*a - 4*z2*psi^2*e = 0",
                    nonlinear_a_residual(nabla, t, p))
    for c, res in forms.items():
        report.residual(f"nabla-c-s[c={c}]",
                        "nabla^c s + (c-1)*psi*s.s + eta*s + 4*z2*psi*e = 0", res)
    report.residual("second-order-e",
                    "nabla^1 nabla^1 e + (eta - psi'/psi)*nabla^1 e - 4*z2*psi^2*e = 0",
                    second_order_on_e(conns[1], t, p))
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
    return BVModel(degrees=degrees, product=product, delta=delta, unit="t0")


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
    return model, nabla, s
