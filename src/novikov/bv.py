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
from .errors import ParseError, field
from .graded import (
    Row,
    Vec,
    accumulate,
    compile_vec,
    contract,
    in_order,
    integral_rows,
    index,
    linear_apply,
    moved,
    nonzero,
    parity_sign,
    signed_rows,
    sweep,
    vec_d_q,
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
    names becomes a row of its own (:meth:`brackets_of`), built from those
    rows together with the other pairs of its first factor the first time
    one is needed.  The identity checks read the rows as they are, adding
    each residual's terms straight from them (:func:`graded.sweep`,
    :func:`graded.accumulate`), so neither the tables, which the rows would
    not follow, nor the rows may be mutated after first use.
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
        self._bracketed: set[str] = set()

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

    @cached_property
    def product_index(self) -> dict[str, list]:
        return index(self.product_rows)

    @cached_property
    def rank(self) -> dict[str, int]:
        """Each basis name's place in declaration order (:func:`graded.in_order`)."""
        return {n: i for i, n in enumerate(self.degrees)}

    def brackets_of(self, firsts) -> dict[tuple[str, str], Row]:
        """The bracket rows of the pairs ``(a, b)``, a in *firsts* and b a
        basis name, by pair, each built once per model (:meth:`_derive_brackets`)
        with every pair of its first factor; a pair that no term of its
        formula reaches has no row."""
        missing = [a for a in firsts if a not in self._bracketed]
        if missing:
            self._derive_brackets(missing)
        rows = self._bracket_constants
        return {(a, b): rows[(a, b)] for a in firsts for b in self.degrees if (a, b) in rows}

    def _derive_brackets(self, firsts) -> None:
        """Cache the bracket row of each pair ``(a, b)``, a in *firsts*, that
        a term of Delta(a.b) - (Delta a).b - (-1)^|a| a.(Delta b) reaches,
        one :func:`graded.sweep` per term.  An entry that cancels keeps its
        class, as the defining formula does."""
        P, D, deg = self.product_index, self.delta_rows, self.degrees
        mine = {(a, n): row for a in firsts for n, row in P.get(a, ())}
        out = sweep({}, mine, index(D), lambda k, n: (k, 1))
        sweep(out, {a: D[a] for a in firsts if a in D}, P, lambda k, n: ((k, n), -1))
        sweep(out, D, index(mine, left=True), lambda k, n: ((n, k), -parity_sign(deg[n])))
        self._bracket_constants.update(out)
        self._bracketed.update(firsts)

    def mul(self, x: Vec, y: Vec) -> Vec:
        return contract(self.product_rows, x, y)

    def delta_apply(self, x: Vec) -> Vec:
        return linear_apply(self.delta_rows, x)

    def bracket(self, x1: Vec, x2: Vec) -> Vec:
        """The derived bracket, extended bilinearly from the rows that
        :meth:`brackets_of` builds.  An exact zero of *x1* is dropped
        (:func:`graded.nonzero`) before its name is looked up."""
        live = nonzero(x1)
        for a in live:
            if a not in self.degrees:
                raise KeyError(a)
        return contract(self.brackets_of(live), live, x2)

    def element(self, name: str) -> Vec:
        if name not in self.elements:
            raise ParseError(f"model declares no element {name!r}")
        return self.elements[name]

    def distinguished_a(self) -> Vec:
        """The inner-derivation element: declared directly, or derived as
        Delta(theta) - kappa from supplied bounding data, else the unit
        over the exact rational 1, as :func:`graded.compile_vec` gives it."""
        if "a" in self.elements:
            return self.elements["a"]
        if "theta" in self.elements:
            a = self.delta_apply(self.elements["theta"])
            if "kappa" in self.elements:
                a = vec_sub(a, self.elements["kappa"])
            return a
        return {self.unit: 1}

    @classmethod
    def from_json(cls, data: dict) -> "BVModel":
        """Decode a model; a product, Delta or bracket row, an element or
        the unit naming a class outside ``"basis"`` is a :class:`ParseError`,
        and so is a product row outside degree 0, a Delta or bracket row
        outside degree -1, or an element that defines ``a`` outside its
        degree in :data:`ELEMENT_DEGREES` (:func:`graded.homogeneous`)."""
        degrees = graded.basis_from_json(data)

        def table(shift: int):
            return lambda t: graded.table_from_json(t, degrees, shift)

        unit = field(data, "unit", lambda name: graded.declared(degrees, name), None)
        return cls(degrees=degrees, product=field(data, "product", table(0), {}),
                   delta=field(data, "delta", lambda m: graded.vec_map_of_declared(
                       m, degrees, -1), {}),
                   unit=graded.declared(degrees, "e") if unit is None else unit,
                   elements=field(data, "elements", lambda m: vec_map_from_json(
                       m, degrees, ELEMENT_DEGREES.get), {}),
                   bracket_table=field(data, "bracket", table(-1), None))


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


class Connection(Record):
    """Coefficientwise d_q plus a degree-0 linear part (images of basis)."""

    __slots__ = _fields = ("linear",)

    def __init__(self, linear: dict[str, Vec] | None = None):
        self.linear = {} if linear is None else linear

    def apply(self, x: Vec) -> Vec:
        return accumulate(vec_d_q(x), self.linear, x)


def _plus_swept(nabla: Connection, x: Vec, after: dict, f, model: BVModel) -> Connection:
    """nabla plus f times x.(.), added into copies of nabla's images in one
    :func:`graded.sweep` of *x* over the indexed rows *after*."""
    images = {n: dict(nabla.linear.get(n, {})) for n in model.degrees}
    return Connection(sweep(images, {None: x}, after, lambda k, n: (n, f)))


def nabla_c(nabla: Connection, a: Vec, c, model: BVModel) -> Connection:
    """nabla^c x = nabla x + c * a.x as a new connection, a swept over the
    product rows with the factor c (an ``int`` when whole)."""
    c = Fraction(c)
    if c == 0 or vec_is_zero(a):
        return Connection(dict(nabla.linear))
    return _plus_swept(nabla, a, model.product_index,
                       c.numerator if c.denominator == 1 else c, model)


def gauge_change(nabla: Connection, alpha: Vec, a: Vec,
                 model: BVModel) -> tuple[Connection, Vec]:
    """nabla~ x = nabla x - [alpha, x];  a~ = a + Delta(alpha), nabla~ swept
    from alpha's nonzero coefficients over their bracket rows.  An alpha
    outside degree 1 is a :class:`ParseError` (:func:`graded.homogeneous`)."""
    graded.homogeneous(alpha, model.degrees, 1)
    live = nonzero(alpha)
    return (_plus_swept(nabla, live, index(model.brackets_of(live)), -1, model),
            accumulate(dict(a), model.delta_rows, alpha))


# ---------------------------------------------------------------------------
# axiom and identity checks
# ---------------------------------------------------------------------------


def check_bv_axioms(model: BVModel) -> Report:
    """Each identity on basis vectors over the exact rational 1, each case's
    residual added into one vector straight from the product, bracket and
    Delta rows, its signs folded into the row coefficients.

    An identity that multiplies two row families (associativity,
    delta-squared, derivation-bracket, jacobi, delta-bracket-2) is one
    :func:`graded.sweep` per term over every case at once: each family is
    indexed once by the name it meets, and a case exists exactly when some
    term adds to it.  An identity linear in the rows reads each case's own
    rows (:func:`graded.accumulate`) at the pairs whose rows are nonempty.
    Either way only the cases that a term reaches are decided, in
    declaration order (:func:`graded.in_order`): no row adds a term to any
    other case, so its residual is empty and never the first failure.

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
    computed by the one formula of its identity.  The jacobi sweep adds
    each double bracket ``[a,[b,c]]`` to the representative of its orbit,
    with the sign of each rotation of the representative that is
    ``(a, b, c)``: all three when ``a = b = c``.

    The identities are evaluated in integers: the product, Delta and both
    bracket row families are put over one integer denominator ``d`` once
    per check (:func:`graded.integral_rows`).  Each identity is linear or
    quadratic in the rows, so a case's residual is the true one times ``d``
    or ``d * d`` (the unit's ``-x`` term starts at ``-d``), the factor it
    passes to :meth:`Report.identity`, which divides back only the failing
    residual it renders; delta-e renders the model's own Delta row.
    """
    report = Report()
    names = list(model.degrees)
    pairs = [(n1, n2) for n1 in names for n2 in names]
    # the orbit representatives of the pairs, in declaration order
    swaps = [(n1, n2) for i, n1 in enumerate(names) for n2 in names[i:]]
    deg, e, rank = model.degrees, model.unit, model.rank
    # the row families over one integer denominator, as said above
    (P, D, B, S), d = integral_rows(model.product_rows, model.delta_rows,
                                    model.brackets_of(names), model.bracket_rows or {})
    # each family indexed once by the name a first factor meets
    P_right, P_left, B_right, B_left = index(P), index(P, left=True), index(B), index(B, left=True)

    def jacobi(k, n):
        # [n,[b,c]] enters the sum at the orbit's least rotation r once per
        # rotation of r equal to (n, b, c), with that rotation's sign; i is
        # the rotation of r that (n, b, c) is
        b, c = k
        x, y, z = rank[n], rank[b], rank[c]
        i, r = min(((x, y, z), 0, (n, b, c)), ((y, z, x), 2, (b, c, n)),
                   ((z, x, y), 1, (c, n, b)))[1:]
        d1, d2, d3 = deg[r[0]], deg[r[1]], deg[r[2]]
        signs = parity_sign(d1), parity_sign(d1 * (d2 + d3) + d2), parity_sign(d3 * (d1 + d2 + 1))
        return r, sum(signs) if n == b == c else signs[i]

    report.identity("unit", "e.x = x",
                    (((n,), accumulate({n: -d}, P, {e: 1}, n)) for n in names), "e.{}", d)

    report.identity("commutativity", "x1.x2 = (-1)^(|x1||x2|) x2.x1",
                    (((n1, n2), accumulate(accumulate({}, P, {n1: 1}, n2), P,
                                           {n2: -parity_sign(deg[n1] * deg[n2])}, n1))
                     for n1, n2 in swaps if (n1, n2) in P or (n2, n1) in P), "[{},{}]", d)

    cases = sweep({}, P, P_right, lambda k, n: ((*k, n), 1))
    sweep(cases, P, P_left, lambda k, n: ((n, *k), -1))
    report.identity("associativity", "(x1.x2).x3 = x1.(x2.x3)",
                    in_order(cases, rank), "({}.{}).{}", d * d)

    report.residual("delta-e", "Delta e = 0", model.delta_rows.get(e, {}))

    report.identity("delta-squared", "Delta Delta x = 0",
                    in_order(sweep({}, D, index(D), lambda k, n: ((k,), 1)), rank),
                    "Delta^2 {}", d * d)

    if model.bracket_table is not None:
        report.identity("delta-bracket",
                        "[x1,x2] = Delta(x1.x2) - (Delta x1).x2 - (-1)^|x1| x1.Delta x2",
                        (((n1, n2), accumulate(accumulate({}, S, {n1: 1}, n2), B, {n1: -1}, n2))
                         for n1, n2 in pairs if (n1, n2) in S or (n1, n2) in B),
                        "[{},{}]", d)

    report.identity("antisymmetry", "[x2,x1] = (-1)^(|x1||x2|) [x1,x2]",
                    (((n1, n2), accumulate(accumulate({}, B, {n2: 1}, n1),
                                           B, {n1: -parity_sign(deg[n1] * deg[n2])}, n2))
                     for n1, n2 in swaps if (n1, n2) in B or (n2, n1) in B), "[{1},{0}]", d)

    # [x1,x2.x3] - [x1,x2].x3 - (-1)^((|x1|+1)|x2|) x2.[x1,x3]
    cases = sweep({}, P, B_left, lambda k, n: ((n, *k), 1))
    sweep(cases, B, P_right, lambda k, n: ((*k, n), -1))
    sweep(cases, B, P_left, lambda k, n: ((k[0], n, k[1]), -parity_sign((deg[k[0]] + 1) * deg[n])))
    report.identity("derivation-bracket",
                    "[x1,x2.x3] = [x1,x2].x3 + (-1)^((|x1|+1)|x2|) x2.[x1,x3]",
                    in_order(cases, rank), "[{},{}.{}]", d * d)

    report.identity("jacobi", "signed cyclic sum of [x1,[x2,x3]] = 0",
                    in_order(sweep({}, B, B_left, jacobi), rank), "jacobi({},{},{})", d * d)

    report.identity("e-is-ideal", "[e,x] = 0",
                    (((n,), B[(e, n)]) for n in names if (e, n) in B), "[e,{}]", d)

    # Delta[x1,x2] + [Delta x1,x2] + (-1)^|x1| [x1,Delta x2]
    cases = sweep({}, B, index(D), lambda k, n: (k, 1))
    sweep(cases, D, B_right, lambda k, n: ((k, n), 1))
    sweep(cases, D, B_left, lambda k, n: ((n, k), parity_sign(deg[n])))
    report.identity("delta-bracket-2",
                    "Delta[x1,x2] + [Delta x1,x2] + (-1)^|x1| [x1,Delta x2] = 0",
                    in_order(cases, rank), "({},{})", d * d)
    return report


def check_leibniz(nabla: Connection, model: BVModel) -> Report:
    """Both Leibniz rules on basis vectors, each term swept over the cases
    it reaches as in :func:`check_bv_axioms`, from the product and bracket
    rows and from nabla's image of each basis name, which is nabla of that
    name over the exact rational 1.  The bracket rows are built only if a
    row has a series entry or nabla a linear part; else no case is reached."""
    report = Report()
    P, D, L = model.product_rows, model.delta_rows, nabla.linear
    B = model.brackets_of(model.degrees) if moved(P) or moved(D) or any(L.values()) else {}
    for name, equation, rows, first in (
            ("nabla-product", "nabla(x1.x2) = (nabla x1).x2 + x1.(nabla x2)", P, L),
            ("nabla-bracket", "nabla[x1,x2] = [nabla x1,x2] + [x1,nabla x2]", B,
             {n: nonzero(row) for n, row in L.items()})):
        # nabla(row): d_q moves a series entry, and the linear part maps the row
        cases = {k: vec_d_q(rows[k]) for k in moved(rows)}
        sweep(cases, rows, index(L), lambda k, n: (k, 1))
        # - (nabla x1).x2 - x1.(nabla x2)
        sweep(cases, first, index(rows), lambda k, n: ((k, n), -1))
        sweep(cases, L, index(rows, left=True), lambda k, n: ((n, k), -1))
        report.identity(name, equation, in_order(cases, model.rank), "({},{})")
    return report


def _commutators(nabla: Connection, model: BVModel) -> dict[str, Vec]:
    """nabla(Delta n) - Delta(nabla n) at each basis name n that a term
    reaches, one :func:`graded.sweep` per term: d_q moves a Delta row's
    series entries, nabla's linear part maps each Delta row, and Delta
    maps each image of the linear part."""
    D, L = model.delta_rows, nabla.linear
    cases = {n: vec_d_q(D[n]) for n in moved(D)}
    sweep(cases, D, index(L), lambda k, n: (k, 1))
    return sweep(cases, L, index(D), lambda k, n: (k, -1))


def check_delta_nabla(nabla: Connection, a: Vec, model: BVModel) -> Report:
    """nabla(Delta x) - Delta(nabla x) + [a,x] on each basis name x that a
    term reaches: the :func:`_commutators`, with [a,x] added in one sweep
    of a's nonzero coefficients over their bracket rows, the only ones built."""
    live = nonzero(a)
    cases = sweep(_commutators(nabla, model), {None: live}, index(model.brackets_of(live)),
                  lambda k, n: (n, 1))
    report = Report()
    report.identity("delta-nabla", "nabla(Delta x) = Delta(nabla x) - [a,x]",
                    in_order(cases, model.rank))
    return report


def check_minus1_delta(minus1: Connection, a: Vec, model: BVModel) -> Report:
    """nabla^{-1} Delta - Delta nabla^{-1} = (Delta a) . x, hence zero whenever
    Delta a = 0, *minus1* being nabla^{-1}.  Assumes the delta-nabla relation
    holds.  Both rows read the :func:`_commutators` of *minus1*; the first
    adds -(Delta a).x into copies of them, one sweep over the product rows."""
    report = Report()
    commutators, da = _commutators(minus1, model), model.delta_apply(a)
    cases = sweep({n: dict(c) for n, c in commutators.items()}, {None: da},
                  model.product_index, lambda k, n: (n, -1))
    report.identity("minus1-delta-commutator",
                    "nabla^{-1}(Delta x) - Delta(nabla^{-1} x) = (Delta a).x",
                    in_order(cases, model.rank))
    if vec_is_zero(da):
        report.identity("minus1-delta-compatible",
                        "Delta a = 0 => nabla^{-1} commutes with Delta",
                        in_order(commutators, model.rank))
    return report


def minus1_ambiguity_check(minus1: Connection, minus1_tilde: Connection,
                           alpha: Vec, model: BVModel) -> Report:
    """Gauge ambiguity of the BV-compatible connection:
    nabla~^{-1} x = nabla^{-1} x - Delta(alpha.x) - alpha.(Delta x), the
    two connections given, nabla~ the :func:`gauge_change` by alpha, one
    :func:`graded.sweep` per term.  alpha.n is summed before Delta maps it;
    alpha.(Delta n) is summed term by term as ``(d * alpha_z) * p``."""
    P, D = model.product_rows, model.delta_rows
    basis = {n: {n: 1} for n in model.degrees}
    cases = sweep({}, basis, index(minus1_tilde.linear), lambda k, n: (k, 1))
    sweep(cases, basis, index(minus1.linear), lambda k, n: (k, -1))
    alpha_n = sweep({}, {None: alpha}, model.product_index, lambda k, n: (n, 1))
    sweep(cases, alpha_n, index(D), lambda k, n: (k, 1))
    sweep(cases, D, index({key: row for key, row in P.items() if key[0] in alpha}, left=True),
          lambda k, z: (k, alpha[z]))
    report = Report()
    report.identity("minus1-ambiguity",
                    "nabla~^{-1} x = nabla^{-1} x - Delta(alpha.x) - alpha.Delta x",
                    in_order(cases, model.rank))
    return report


def r_endomorphism_check(model: BVModel) -> Report:
    """With Delta k = 0, the rotation endomorphism has the two equivalent
    bracket forms: [k, x] = [k, x]^{-1} = [k, x] + (Delta k).x.  Each
    residual is accumulated from the rows, both forms kept in the sum."""
    report = Report()
    k = model.element("k")
    dk, live = model.delta_apply(k), nonzero(k)
    B = model.brackets_of(live)
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
    the class s, a = -psi*s and s.s.  The scalar coefficients are the
    problem's own (:class:`ODEProblem`)."""

    __slots__ = ("prob", "model", "s", "a", "ss")

    def __init__(self, prob: ODEProblem, model: BVModel, s: Vec, a: Vec, ss: Vec):
        self.prob = prob
        self.model = model
        self.s = s
        self.a = a
        self.ss = ss

    @classmethod
    def of(cls, prob: ODEProblem, model: BVModel, s: Vec) -> "ClassTerms":
        return cls(prob, model, s, vec_scale(-prob.psi, s), model.mul(s, s))


def nonlinear_a_residual(nabla: Connection, t: ClassTerms, p: NovikovSeries) -> Vec:
    """nabla a + a.a + p*a - 4*z2*psi^2*e, with p = eta - psi'/psi
    (:meth:`ODEProblem.p_coefficient`)."""
    return vec_add(nabla.apply(t.a), t.model.mul(t.a, t.a), vec_scale(p, t.a),
                   vec_scale(t.prob.r_coefficient, t.model.unit_vec()))


def nablac_s_residual(conn: Connection, c, t: ClassTerms) -> Vec:
    """nabla^c s + (c-1)*psi*(s.s) + eta*s + 4*z2*psi*e, where *conn* is
    nabla^c, :func:`nabla_c` of nabla and a = -psi*s."""
    return vec_add(conn.apply(t.s), vec_scale((Fraction(c) - 1) * t.prob.psi, t.ss),
                   vec_scale(t.prob.eta, t.s), vec_scale(t.prob.coupling, t.model.unit_vec()))


def second_order_on_e(one: Connection, t: ClassTerms, p: NovikovSeries) -> Vec:
    """Eliminate s between nabla^1 e = -psi*s and the c = 1 equation:

        nabla^1 nabla^1 e + p nabla^1 e - 4 z2 psi^2 e = 0,

    with *one* the connection nabla^1 and p = eta - psi'/psi, the
    unit-class analogue of the scalar second-order equation."""
    e = t.model.unit_vec()
    first = one.apply(e)
    return vec_add(one.apply(first), vec_scale(p, first), vec_scale(t.prob.r_coefficient, e))


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
                      vec_scale(-prob.coupling, model.unit_vec()))
    linear: dict[str, Vec] = {}
    for i in range(1, n):
        prev = model.basis_vec(f"s{i-1}")
        linear[f"s{i}"] = vec_scale(Fraction(i), model.mul(prev, nabla_s))
    nabla = Connection(linear)
    return model, nabla, s
