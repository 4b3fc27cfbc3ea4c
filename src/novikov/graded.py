"""Class-valued vectors over a graded basis and the maps between them.

A vector is a dict from basis name to coefficient.  The coefficients are
:class:`NovikovSeries` (cohomology and BV models), :class:`USeries` (the
u-extension), or row entries as the kernels below produce them (exact
rationals and series mixed); every helper here except :func:`vec_get` and
the JSON decoders works for each.  A missing name is a zero coefficient.
:func:`entry_is_zero` decides a coefficient of any of these kinds, so a
residual is decided and rendered as the kernels leave it.

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
meets a series only where the table has one.  :func:`accumulate`, the
one kernel, adds a product or a linear image into a caller's vector;
:func:`joined` and :func:`mapped` find, without adding, where it would,
and :func:`moved` where d_q would.

The Koszul signs are taken from the declared degrees, so a decoded table
must respect them: :func:`homogeneous` is the one grading rule, applied
to every table row, linear map and graded input as it is decoded.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, require_object
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


def entry_is_zero(v) -> bool:
    """True for a zero rational and for a series with no nonzero term."""
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


def vec_from_json(data) -> Vec:
    """Decode ``{basis name: series}``; anything but an object is a
    :class:`ParseError`."""
    return {k: NovikovSeries.from_json(v)
            for k, v in require_object(data, "vector").items()}


def vec_map_from_json(data) -> dict[str, Vec]:
    """Decode ``{key: vector}``; an outer map that is not an object is a
    :class:`ParseError` too."""
    return {k: vec_from_json(v)
            for k, v in require_object(data, "vector map").items()}


#: Most names a ``"basis"`` may declare.  The BV axioms check is at worst
#: cubic in the basis size; 48 is the ``polyvector`` model at ``MAX_BV_N``
#: (2n names at n = 24, about 0.18 s).  The bundled and benchmark files
#: declare at most 8.
MAX_BASIS = 48


def basis_from_json(data) -> dict[str, int]:
    """Decode ``"basis"``, a list of ``{name, degree}``, into the degrees.
    More than :data:`MAX_BASIS` entries, refused before any is read, or a
    name declared twice is a :class:`ParseError`."""
    try:
        basis = data["basis"]
        if len(basis) > MAX_BASIS:
            raise ParseError(f"basis of {len(basis)} names is above "
                             f"MAX_BASIS = {MAX_BASIS}")
        degrees = {}
        for b in basis:
            name = b["name"]
            if name in degrees:
                raise ParseError(f"basis declares {name!r} twice")
            degrees[name] = integer(b["degree"])
        return degrees
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad basis declaration: {exc}") from exc


def declared(degrees: dict[str, int], where: str, *names: str) -> None:
    """A :class:`ParseError` unless every name is a declared class."""
    for name in names:
        if name not in degrees:
            raise ParseError(f"{where} names undeclared class {name!r}")


def homogeneous(x: Vec, degrees: dict[str, int], degree: int, where: str) -> None:
    """The grading rule: a :class:`ParseError` unless every class *x* names
    is declared and every entry of *x* but an exact zero (the entries
    :func:`compile_vec` drops) sits in degree *degree*.  A truncated zero
    carries unknown terms, so on a class of another degree it is refused."""
    declared(degrees, where, *x)
    for name, c in x.items():
        if degrees[name] != degree and (c.exps or c.truncation != INF):
            raise ParseError(f"{where} has an entry on {name!r} of degree "
                             f"{degrees[name]}, expected degree {degree}")


def table_row_from_json(rec, degrees: dict[str, int], where: str,
                        shift: int) -> tuple[tuple[str, str], Vec]:
    """Decode one ``{left, right, result}`` record of a structure table
    whose product of ``a`` and ``b`` has degree ``|a| + |b| + shift``."""
    rec = require_object(rec, f"{where} record")
    pair, result = (rec["left"], rec["right"]), vec_from_json(rec["result"])
    where = f"{where} row {pair}"
    declared(degrees, where, *pair)
    homogeneous(result, degrees, degrees[pair[0]] + degrees[pair[1]] + shift, where)
    return pair, result


def vec_map_of_declared(data, degrees: dict[str, int], where: str,
                        shift: int) -> dict[str, Vec]:
    """Decode ``{basis name: vector}`` over declared classes only, the image
    of ``a`` in degree ``|a| + shift``."""
    out = vec_map_from_json(data)
    declared(degrees, where, *out)
    for name, image in out.items():
        homogeneous(image, degrees, degrees[name] + shift, f"{where} of {name!r}")
    return out


# ---------------------------------------------------------------------------
# compiled rows and the two kernels
# ---------------------------------------------------------------------------


def compile_vec(x: Vec, sign: int = 1) -> Row:
    """The row of *sign* times *x*: an exact ``q^0`` constant becomes its
    rational (an ``int`` when whole), an exact zero is dropped, and any
    other series stays itself."""
    out = {}
    for z, c in x.items():
        if c.truncation == INF:
            if not c.exps:
                continue
            if c.exps == [0]:
                c = c.nums[0] if c.den == 1 else Fraction(c.nums[0], c.den)
        out[z] = c if sign > 0 else -c
    return out


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
                entry, sign = table.get((b, a)), (-1) ** (degrees[a] * degrees[b])
            if entry:
                row = compile_vec(entry, sign)
                if row:
                    rows[(a, b)] = row
    return rows


def accumulate(out: Vec, rows: dict, x: Vec, n: str | None = None, scale=1,
               left: bool = False) -> Vec:
    """``out += scale * x.n`` (``scale * n.x`` when *left*): each entry ``c``
    of *x* on ``k`` adds ``(c*scale) * v`` for each entry ``v`` of the row
    of ``(k, n)`` (``(n, k)``), or of ``k`` when *n* is None (a linear map).
    A missing row is zero.  A sign or a nonzero exact rational folded into
    ``c`` gives exactly ``(c*v)*scale``, and series sums are exact, so no
    grouping of the terms changes the result."""
    scaled = scale != 1
    for k, c in x.items():
        key = k if n is None else (n, k) if left else (k, n)
        row = rows.get(key)
        if row:
            if scaled:
                c = c * scale
            for z, v in row.items():
                v = c * v
                out[z] = out[z] + v if z in out else v
    return out


def contract(rows: dict[tuple[str, str], Row], x: Vec, y: Vec,
             out: Vec | None = None) -> Vec:
    """The bilinear product of *x* and *y* whose basis pairs multiply to
    their rows, added into *out* when given: the sum of ``(x[a]*y[b]) * c``
    over each row entry."""
    out = {} if out is None else out
    for b, sb in y.items():
        accumulate(out, rows, x, b, sb)
    return out


def linear_apply(images: dict[str, Row], x: Vec) -> Vec:
    """The linear map sending each basis name to its image, a row or a
    vector; a name with no image maps to zero."""
    return accumulate({}, images, x)


def joined(first: dict, rows: dict, left: bool = False) -> set:
    """The cases that ``accumulate(out, rows, first[k], n, left=left)`` adds
    to, each the tuple ``(*k, n)`` (``(n, *k)`` when *left*; a name key k
    counts as ``(k,)``): those where some name ``z`` of ``first[k]`` has a
    nonempty row at ``(z, n)`` (``(n, z)``).  A sparse join (Gustavson):
    *rows* is indexed by ``z`` once, so each name meets only its own rows;
    an empty *first* reaches nothing, and nothing is indexed."""
    if not first:
        return set()
    after: dict[str, list[str]] = {}
    for (a, b), row in rows.items():
        if row:
            after.setdefault(b if left else a, []).append(a if left else b)
    keyed = ((k if isinstance(k, tuple) else (k,), x) for k, x in first.items())
    return {(n, *k) if left else (*k, n)
            for k, x in keyed for z in x for n in after.get(z, ())}


def moved(rows: dict) -> set:
    """The keys of the rows with a series entry, the ones d_q moves."""
    return {k for k, row in rows.items()
            if any(isinstance(c, NovikovSeries) for c in row.values())}


def mapped(first: dict, images: dict) -> set:
    """Each key ``k`` at which ``linear_apply(images, first[k])`` adds anything."""
    return {k for k, x in first.items() if any(images.get(z) for z in x)} if images else set()
