"""Class-valued vectors over a graded basis and the maps between them.

A vector is a dict from basis name to coefficient.  The coefficients are
:class:`NovikovSeries` (cohomology and BV models), :class:`USeries` (the
u-extension), or row entries as the kernels below produce them (exact
rationals and series mixed); every helper here except :func:`vec_get` and
the JSON decoders works for each.  A missing name is a zero coefficient.
Two zero rules hold for every kind.  Storage drops exact zeros only
(:func:`exact_zero`): a truncated zero such as ``O(q^2)`` stands for terms
not yet seen, so a vector, row or u-series keeps it.  A verdict reads "no
nonzero term" (:func:`entry_is_zero`), so a residual is decided and
rendered as the kernels leave it.

A structure table (the cup product, a quantum piece, the BV product or a
supplied BV bracket) maps an ordered pair of basis names to the vector of
their product.  It compiles to signed rows (:func:`signed_rows`), one per
ordered pair of declared names: a pair stored in one order serves the
other with the Koszul sign ``(-1)^(|a||b|)``, and a pair stored in
neither order is zero.  A row is a vector ``{z: c}`` whose entries are
exact ``q^0`` constants as an ``int`` or ``Fraction``, or other series as
themselves, exact zeros dropped.  Both kinds multiply and add with
Python's operators (a series operator takes a rational as the exact
constant) with exactly the results of series arithmetic, so a product
meets a series only where the table has one.  :func:`accumulate` adds
one product or linear image into a caller's vector; :func:`sweep` adds
every product of a family of vectors with rows :func:`index` has keyed
by the name they meet, one vector per case it reaches, in one pass, so
where a term adds is found by adding it.  :func:`moved` finds the rows
that d_q moves, :func:`vec_d_q` moves a vector, and :func:`in_order`
orders an identity's cases.

The Koszul signs are taken from the declared degrees, so a decoded table
must respect them: :func:`homogeneous` is the one grading rule, applied
to every table row, linear map and graded input as it is decoded.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParseError, each, field, members, shown
from .series import INF, NovikovSeries, integer, render_ratio

Vec = dict  # basis name -> NovikovSeries, USeries or row entry
Row = dict  # basis name -> row entry, a rational or a series

_ZERO = NovikovSeries.zero()


def vec_get(x: Vec, name: str) -> NovikovSeries:
    return x.get(name, _ZERO)


def vec_add(*xs: Vec) -> Vec:
    out: Vec = {}
    for x in xs:
        for k, s in x.items():
            out[k] = out[k] + s if k in out else s
    return out


def vec_scale(f, x: Vec) -> Vec:
    return {k: s * f for k, s in x.items()}


def vec_sub(x: Vec, y: Vec) -> Vec:
    # the (-1)-multiple, not the negation, so that y's coefficients take
    # the truncation rule of multiplication like every other scaled term
    return vec_add(x, vec_scale(-1, y))


def vec_d_q(x: Vec) -> Vec:
    """d_q of each coefficient of *x*, a rational dropped as a constant."""
    return {k: s.d_q() for k, s in x.items() if not isinstance(s, (int, Fraction))}


def exact_zero(v) -> bool:
    """The storage rule: True for a zero rational and for an exact series
    with no term, the only zeros a vector, row or u-series drops."""
    return not v if isinstance(v, (int, Fraction)) else not v.exps and v.truncation == INF


def nonzero(x: Vec) -> Vec:
    """*x* without its exact zeros (:func:`exact_zero`)."""
    return {k: c for k, c in x.items() if not exact_zero(c)}


def entry_is_zero(v) -> bool:
    """The verdict rule: True for a zero rational or a series with no nonzero term."""
    return not v if isinstance(v, (int, Fraction)) else v.is_zero()


def vec_is_zero(x: Vec) -> bool:
    return all(map(entry_is_zero, x.values()))


def vec_render(x: Vec) -> str:
    """Each nonzero coefficient as ``(c)*name``, by name; a rational
    renders as ``str(c)``, the bytes of its exact constant series."""
    parts = []
    for k, s in sorted(x.items()):
        if not entry_is_zero(s):
            shown = (render_ratio(s.numerator, s.denominator)
                     if isinstance(s, (int, Fraction)) else s.render())
            parts.append(f"({shown})*{k}")
    return " + ".join(parts) or "0"


def vec_from_json(data, degrees: dict[str, int] | None = None,
                  degree: int | None = None) -> Vec:
    """Decode ``{basis name: series}``; given *degrees*, refused unless it is
    :func:`homogeneous` in *degree*."""
    x = {name: field(data, name, NovikovSeries.from_json) for name in members(data)}
    if degrees is not None:
        homogeneous(x, degrees, degree)
    return x


def vec_map_from_json(data, degrees: dict[str, int], degree_of) -> dict[str, Vec]:
    """Decode ``{key: vector}``, each vector by :func:`vec_from_json` in the
    degree ``degree_of(key)``, which may refuse the key."""
    return {key: field(data, key, lambda x: vec_from_json(x, degrees, degree_of(key)))
            for key in members(data)}


#: Most names a ``"basis"`` may declare.  The BV axioms check is at worst
#: cubic in the basis size; 48 is the ``polyvector`` model at ``MAX_BV_N``
#: (2n names at n = 24, about 0.18 s).  The bundled and benchmark files
#: declare at most 8.
MAX_BASIS = 48


def basis_from_json(data) -> dict[str, int]:
    """Decode ``"basis"``, a list of ``{name, degree}``, into the degrees.
    More than :data:`MAX_BASIS` entries, refused before any is read, a name
    that is not a string, or a name declared twice is a :class:`ParseError`."""
    degrees: dict[str, int] = {}

    def declare(b):
        name = field(b, "name")
        if name.__class__ is not str:
            raise ParseError(f"class name {shown(name)} is not a string").at("name")
        if name in degrees:
            raise ParseError(f"basis declares {shown(name)} twice").at("name")
        degrees[name] = field(b, "degree", integer)

    basis = field(data, "basis", each)
    if len(basis) > MAX_BASIS:
        raise ParseError(f"basis of {len(basis)} names is above "
                         f"MAX_BASIS = {MAX_BASIS}").at("basis")
    field(data, "basis", lambda basis: each(basis, declare))
    return degrees


def declared(degrees: dict[str, int], name) -> str:
    """*name*, a :class:`ParseError` unless it is a declared class."""
    if name.__class__ is not str or name not in degrees:
        raise ParseError(f"undeclared class {shown(name)}")
    return name


def homogeneous(x: Vec, degrees: dict[str, int], degree: int | None) -> None:
    """The grading rule: a :class:`ParseError`, pushed the entry's name,
    unless every class *x* names is declared and, given *degree*, every
    entry of *x* but an exact zero (:func:`exact_zero`) sits in degree
    *degree*.  A truncated zero carries unknown terms, so it is refused off it."""
    for name, c in x.items():
        if name not in degrees:
            raise ParseError(f"undeclared class {shown(name)}").at(name)
        if degree is not None and degrees[name] != degree and not exact_zero(c):
            raise ParseError(f"entry on {shown(name)} of degree {degrees[name]}, "
                             f"expected degree {degree}").at(name)


def table_from_json(data, degrees: dict[str, int], shift: int) -> dict[tuple[str, str], Vec]:
    """Decode a structure table, a list of ``{left, right, result}``
    records, whose product of ``a`` and ``b`` has degree ``|a| + |b| + shift``."""
    return dict(each(data, lambda rec: table_row_from_json(rec, degrees, shift)))


def table_row_from_json(rec, degrees: dict[str, int],
                        shift: int) -> tuple[tuple[str, str], Vec]:
    """Decode one record of a table (:func:`table_from_json`)."""
    a, b = (field(rec, key, lambda name: declared(degrees, name)) for key in ("left", "right"))
    return (a, b), field(rec, "result",
                         lambda x: vec_from_json(x, degrees, degrees[a] + degrees[b] + shift))


def vec_map_of_declared(data, degrees: dict[str, int], shift: int) -> dict[str, Vec]:
    """Decode ``{basis name: vector}`` over declared classes only, the image
    of ``a`` in degree ``|a| + shift``."""
    return vec_map_from_json(data, degrees,
                             lambda name: degrees[declared(degrees, name)] + shift)


# ---------------------------------------------------------------------------
# compiled rows and the kernels
# ---------------------------------------------------------------------------


def compile_vec(x: Vec, sign: int = 1) -> Row:
    """The row of *sign* times *x*: an exact ``q^0`` constant becomes its
    rational (an ``int`` when whole), an exact zero is dropped, and any
    other series stays itself."""
    out = {}
    for z, c in x.items():
        if c.exps == [0] and c.truncation == INF:
            c = c.nums[0] if c.den == 1 else Fraction(c.nums[0], c.den)
        elif exact_zero(c):
            continue
        out[z] = c if sign > 0 else -c
    return out


def integral_rows(*families: dict) -> tuple[list[dict], int]:
    """Each family of rows in *families* over one integer denominator:
    ``([rows', ...], den)``, each row of each *rows'* ``den`` times its row
    of *rows*.  ``den`` is the lcm of the denominators of the rational
    entries of every family; such an entry becomes the int
    ``numerator * (den // denominator)``, and a series entry is multiplied
    by ``den``, which is exact and keeps its truncation.  With no
    :class:`Fraction` entry, the families themselves are returned over 1."""
    dens = {v.denominator for rows in families for row in rows.values() for v in row.values()
            if isinstance(v, Fraction)}
    if not dens:
        return list(families), 1
    den = math.lcm(*dens)
    return [{key: {z: v.numerator * (den // v.denominator) if isinstance(v, Fraction)
                   else v * den for z, v in row.items()}
             for key, row in rows.items()} for rows in families], den


def parity_sign(p: int) -> int:
    """(-1)^p as an int; ``(-1) ** p`` is a float when p is negative."""
    return -1 if p % 2 else 1


def signed_rows(table: dict[tuple[str, str], Vec],
                degrees: dict[str, int]) -> dict[tuple[str, str], Row]:
    """The row of every ordered pair of declared names that the table
    multiplies to a nonzero vector: the pair as stored, else the swapped
    pair with the Koszul sign ``(-1)^(|a||b|)``."""
    rows = {}
    for a in degrees:
        for b in degrees:
            entry, sign = table.get((a, b)), 1
            if entry is None:
                entry, sign = table.get((b, a)), parity_sign(degrees[a] * degrees[b])
            if entry:
                row = compile_vec(entry, sign)
                if row:
                    rows[(a, b)] = row
    return rows


def accumulate(out: Vec, rows: dict, x: Vec, n: str | None = None, scale=1) -> Vec:
    """``out += scale * x.n``: each entry ``c`` of *x* on ``k`` adds
    ``(c*scale) * v`` for each entry ``v`` of the row of ``(k, n)``, or of
    ``k`` when *n* is None (a linear map).  A missing row is zero.  A sign
    or a nonzero exact rational folded into ``c`` gives exactly
    ``(c*v)*scale``, and series sums are exact, so no grouping of the
    terms changes the result."""
    scaled = scale != 1
    for k, c in x.items():
        row = rows.get(k if n is None else (k, n))
        if row:
            if scaled:
                c = c * scale
            for z, v in row.items():
                v = c * v
                out[z] = out[z] + v if z in out else v
    return out


def contract(rows: dict[tuple[str, str], Row], x: Vec, y: Vec) -> Vec:
    """The bilinear product of *x* and *y* whose basis pairs multiply to
    their rows: the sum of ``(x[a]*y[b]) * c`` over each row entry."""
    out: Vec = {}
    for b, sb in y.items():
        accumulate(out, rows, x, b, sb)
    return out


def linear_apply(images: dict[str, Row], x: Vec) -> Vec:
    """The linear map sending each basis name to its image, a row or a
    vector; a name with no image maps to zero."""
    return accumulate({}, images, x)


def index(rows: dict, left: bool = False) -> dict[str, list]:
    """The nonempty rows of *rows* by the name a first factor's entry meets:
    ``z -> [(n, row), ...]`` for the row of each pair ``(z, n)`` (``(n, z)``
    when *left*), or ``z -> [(None, row)]`` for the image of a name ``z``
    (a linear map)."""
    after: dict[str, list] = {}
    for key, row in rows.items():
        if row:
            if key.__class__ is tuple:
                z, n = (key[1], key[0]) if left else key
            else:
                z, n = key, None
            after.setdefault(z, []).append((n, row))
    return after


def sweep(out: dict, first: dict, after: dict, case) -> dict:
    """Every product of a family of vectors with indexed rows, added into
    the vectors of *out* case by case, in one pass over *first* (Gustavson's
    row-by-row sparse product): for each entry ``c`` on ``z`` of each
    ``first[k]`` and each ``(n, row)`` of ``after[z]`` (:func:`index`), with
    ``key, f = case(k, n)``, ``out[key] += (c*f) * row``, as
    :func:`accumulate` adds it.  A case's vector is made by the first
    product added to it, so *out* holds exactly the cases some product
    reaches; a case that several ``(k, n)`` reach sums their products."""
    for k, x in first.items():
        for z, c in x.items():
            hits = after.get(z)
            if hits:
                for n, row in hits:
                    key, f = case(k, n)
                    o = out.get(key)
                    if o is None:
                        o = out[key] = {}
                    c_f = c if f == 1 else c * f
                    for w, v in row.items():
                        v = c_f * v
                        o[w] = o[w] + v if w in o else v
    return out


def in_order(cases: dict, rank: dict[str, int]):
    """The case-order rule: the ``(key, residual)`` items of *cases* by the
    declaration ranks (*rank*) of the names in each key, a name or a tuple
    of one to three names.  Every identity of every check orders its cases
    here, and ranks read by index cost less than a ``map`` over the key."""
    first = next(iter(cases), "")
    if first.__class__ is str:  # names, or no case
        return ((n, cases[n]) for n in rank if n in cases)
    key = (lambda t: rank[t[0]], lambda t: (rank[t[0]], rank[t[1]]),
           lambda t: (rank[t[0]], rank[t[1]], rank[t[2]]))[len(first) - 1]
    return ((t, cases[t]) for t in sorted(cases, key=key))


def moved(rows: dict) -> set:
    """The keys of the rows with a series entry, the ones d_q moves."""
    return {k for k, row in rows.items()
            if any(isinstance(c, NovikovSeries) for c in row.values())}

