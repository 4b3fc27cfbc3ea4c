"""Class-valued vectors over a graded basis and the maps between them.

A vector is a dict from basis name to coefficient.  The coefficients are
:class:`NovikovSeries` (cohomology and BV models) or :class:`USeries` (the
u-extension); every helper here except :func:`vec_get` and the JSON
decoders works for either.  A missing name is a zero
coefficient.

A structure table maps an ordered pair of basis names to the vector of
their product.  A pair stored in one order serves the other with the
Koszul sign ``(-1)^(|a||b|)`` of the basis degrees, and a pair stored in
neither order multiplies to zero; :func:`table_mul` extends that
bilinearly.  The cup product, each quantum piece, the BV product and a
supplied BV bracket are all such tables.

A table compiles to signed rows (:func:`signed_rows`): one row
``((z, c), ...)`` per ordered pair of declared names, with the swap sign
folded in.  A row entry is an exact ``q^0`` constant as an ``int`` or
``Fraction``, or any other series as itself; exact zeros are dropped.
Entries of both kinds multiply and add with Python's operators (a series
operator takes a rational as the exact constant), with exactly the
results of the same operations on series, so a contraction over rows can
run on rationals and meet a series only where the table has one.
"""

from __future__ import annotations

from .errors import require_object
from .series import INF, NovikovSeries

Vec = dict  # basis name -> NovikovSeries or USeries
Row = tuple  # ((basis name, row entry), ...), a row entry being a rational or a series

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


def vec_is_zero(x: Vec) -> bool:
    return all(s.is_zero() for s in x.values())


def vec_render(x: Vec) -> str:
    live = {k: s for k, s in sorted(x.items()) if not s.is_zero()}
    if not live:
        return "0"
    return " + ".join(f"({s.render()})*{k}" for k, s in live.items())


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


def stored_entry(table: dict[tuple[str, str], Vec], degrees: dict[str, int],
                 a: str, b: str) -> tuple[Vec | None, int]:
    """The table's entry for the ordered pair (a, b) and its sign: the pair
    as stored with sign 1, else the swapped pair with the Koszul sign
    ``(-1)^(|a||b|)``, else ``(None, 0)``."""
    entry = table.get((a, b))
    if entry is not None:
        return entry, 1
    entry = table.get((b, a))
    if entry is None:
        return None, 0
    return entry, (-1) ** (degrees[a] * degrees[b])


def table_mul(table: dict[tuple[str, str], Vec], degrees: dict[str, int],
              x: Vec, y: Vec) -> Vec:
    """The signed bilinear product of *x* and *y* given by a structure table."""
    out: Vec = {}
    for kx, sx in x.items():
        for ky, sy in y.items():
            entry, sign = stored_entry(table, degrees, kx, ky)
            if entry is None:
                continue
            if sign < 0:
                entry = {kz: -sz for kz, sz in entry.items()}
            coeff = sx * sy
            for kz, sz in entry.items():
                term = coeff * sz
                out[kz] = out[kz] + term if kz in out else term
    return out


def linear_apply(images: dict[str, Vec], x: Vec) -> Vec:
    """The linear map sending each basis name to its image; a name with no
    image maps to zero."""
    out: Vec = {}
    for k, s in x.items():
        for kz, sz in images.get(k, {}).items():
            term = s * sz
            out[kz] = out[kz] + term if kz in out else term
    return out


# ---------------------------------------------------------------------------
# compiled rows
# ---------------------------------------------------------------------------


def compile_vec(x: Vec, sign: int = 1) -> Row:
    """The row of *sign* times *x*: an exact ``q^0`` constant becomes its
    rational (an ``int`` when whole), an exact zero is dropped, and any
    other series stays itself."""
    out = []
    for z, c in x.items():
        if c.truncation == INF:
            if not c.terms:
                continue
            if len(c.terms) == 1 and not c.terms[0][0]:
                c = c.terms[0][1]
                if c.denominator == 1:
                    c = c.numerator
        out.append((z, c if sign > 0 else -c))
    return tuple(out)


def signed_rows(table: dict[tuple[str, str], Vec],
                degrees: dict[str, int]) -> dict[tuple[str, str], Row]:
    """The row of every ordered pair of declared names that the table
    multiplies to a nonzero vector, the swap sign folded in."""
    rows = {}
    for a in degrees:
        for b in degrees:
            entry, sign = stored_entry(table, degrees, a, b)
            if entry:
                row = compile_vec(entry, sign)
                if row:
                    rows[(a, b)] = row
    return rows


def add_row(out: dict, row: Row, c=None) -> dict:
    """``out += c * row`` over row entries (``c`` None: the row itself)."""
    for z, v in row:
        if c is not None:
            v = c * v
        out[z] = out[z] + v if z in out else v
    return out


def entry_is_zero(v) -> bool:
    return v.is_zero() if isinstance(v, NovikovSeries) else not v


def series_vec(x: dict) -> Vec:
    """A vector of row entries as a vector of series, rational zeros dropped."""
    return {k: v if isinstance(v, NovikovSeries) else NovikovSeries.monomial(v, 0)
            for k, v in x.items() if isinstance(v, NovikovSeries) or v}
