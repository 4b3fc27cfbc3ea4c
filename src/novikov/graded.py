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
"""

from __future__ import annotations

from .errors import require_object
from .series import NovikovSeries

Vec = dict  # basis name -> NovikovSeries or USeries

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


def table_mul(table: dict[tuple[str, str], Vec], degrees: dict[str, int],
              x: Vec, y: Vec) -> Vec:
    """The signed bilinear product of *x* and *y* given by a structure table."""
    out: Vec = {}
    for kx, sx in x.items():
        for ky, sy in y.items():
            entry = table.get((kx, ky))
            if entry is None:
                swapped = table.get((ky, kx))
                if swapped is None:
                    continue
                entry = vec_scale((-1) ** (degrees[kx] * degrees[ky]), swapped)
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
