"""Disc configurations with framings, gluing, and signed composition.

A configuration is a list of disjoint closed sub-discs of the open unit
disc (one exception: the identity configuration, a single disc of radius
one at the origin).  Gluing inserts a rescaled, rotated copy of a second
configuration into a chosen slot; rotations come from per-disc framings
in Q/Z.  Slots are numbered from 1, matching the composition law

    phi(x_1..x_m) = (-1)^((|phi1| + |x_1| + .. + |x_{i1-1}|) |phi2|)
                    phi1(x_1, .., phi2(x_{i1}, ..), ..)

for multilinear operations on a small graded space.

Every coordinate, radius and framing is rational, so :func:`validate`
decides exactly (tangent discs overlap).  :func:`glue` rotates by the slot
framing, which stays in Q(i) only for a quarter turn; any other slot
framing is a :class:`GlueError`.  A one-parameter rotating family (the
marked point running around a circle) has no single-configuration
representation and is out of this module's range.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import GlueError, ParseError, ZConflict, each, field, members, shown
from .record import FrozenRecord, Record
from .series import integer, rat, ratio, render_ratio

QUARTER_UNITS = {
    Fraction(0): (Fraction(1), Fraction(0)),
    Fraction(1, 4): (Fraction(0), Fraction(1)),
    Fraction(1, 2): (Fraction(-1), Fraction(0)),
    Fraction(3, 4): (Fraction(0), Fraction(-1)),
}


class Disc(FrozenRecord):
    __slots__ = _fields = ("re", "im", "radius")

    def __init__(self, re: Fraction, im: Fraction, radius: Fraction):
        self._set(re, im, radius)


class DiscConfiguration(Record):
    """Indexed sub-discs, optional framings (in Q/Z) and marked point."""

    __slots__ = _fields = ("points", "framings", "z_point", "is_identity")

    def __init__(self, points: list[Disc], framings: list[Fraction] | None = None,
                 z_point: tuple | None = None, is_identity: bool = False):
        # the one reader of a configuration; rat refuses a float and a bool,
        # so every coordinate and framing is rational
        self.points = [Disc(rat(d.re), rat(d.im), rat(d.radius)) for d in points]
        if framings is not None:
            framings = [rat(t) % 1 for t in framings]
            if len(framings) != len(self.points):
                raise ParseError(f"one framing per disc: {len(framings)} framings "
                                 f"for {len(self.points)} discs").at("framings")
        self.framings = framings
        self.z_point = None if z_point is None else (rat(z_point[0]), rat(z_point[1]))
        if is_identity.__class__ is not bool:
            raise ParseError(f"identity must be a boolean, "
                             f"got {shown(is_identity)}").at("identity")
        self.is_identity = is_identity

    @classmethod
    def identity(cls) -> "DiscConfiguration":
        return cls(points=[Disc(Fraction(0), Fraction(0), Fraction(1))],
                   is_identity=True)

    def framing(self, slot: int) -> Fraction:
        if self.framings is None:
            return Fraction(0)
        return self.framings[slot - 1]

    def arity(self) -> int:
        return len(self.points)

    @classmethod
    def from_json(cls, data: dict) -> "DiscConfiguration":
        if field(data, "mode", default="exact") != "exact":
            raise ParseError(f"mode must be 'exact', got {shown(data['mode'])}").at("mode")
        return cls(points=field(data, "points", lambda ps: each(ps, _disc), []),
                   framings=field(data, "framings", lambda ts: each(ts, rat), None),
                   z_point=field(data, "z", _point, None),
                   is_identity=field(data, "identity", default=False))

    def to_json(self) -> dict:
        out = {
            "mode": "exact",
            "points": [{"re": str(p.re), "im": str(p.im), "r": str(p.radius)}
                       for p in self.points],
        }
        if self.framings is not None:
            out["framings"] = [str(t) for t in self.framings]
        if self.z_point is not None:
            out["z"] = {"re": str(self.z_point[0]), "im": str(self.z_point[1])}
        if self.is_identity:
            out["identity"] = True
        return out


def _point(data) -> tuple[Fraction, Fraction]:
    return field(data, "re", rat), field(data, "im", rat)


def _disc(data) -> Disc:
    return Disc(*_point(data), field(data, "r", rat))


def _abs2(re, im):
    return re * re + im * im


def validate(config: DiscConfiguration) -> tuple[bool, list[str]]:
    """Check disjointness, containment, marked-point placement, and the
    framing restriction on the identity configuration."""
    problems: list[str] = []
    pts = config.points
    if config.is_identity:
        ok = (len(pts) == 1 and pts[0].re == 0 and pts[0].im == 0
              and pts[0].radius == 1)
        if not ok:
            problems.append("identity flag requires a single unit disc at 0")
        if config.framings is not None and any(t != 0 for t in config.framings):
            problems.append("identity configuration carries only the trivial framing")
        if config.z_point is not None:
            # only the boundary circle remains outside the disc's interior
            if _abs2(*config.z_point) != 1:
                problems.append("marked point of the identity configuration "
                                "must lie on the unit circle")
        return not problems, problems

    for i, p in enumerate(pts, start=1):
        if p.radius <= 0:
            problems.append(f"disc {i}: radius must be positive")
            continue
        # closed disc inside the open unit disc: |center| + r < 1
        if not (p.radius < 1 and _abs2(p.re, p.im) < (1 - p.radius) ** 2):
            problems.append(f"disc {i}: not contained in the open unit disc")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            dist2 = _abs2(a.re - b.re, a.im - b.im)
            rsum = a.radius + b.radius
            if not dist2 > rsum * rsum:
                problems.append(f"discs {i+1} and {j+1} overlap")
    if config.z_point is not None:
        zr, zi = config.z_point
        if not _abs2(zr, zi) <= 1:
            problems.append("marked point outside the closed unit disc")
        for i, p in enumerate(pts, start=1):
            if _abs2(zr - p.re, zi - p.im) < p.radius ** 2:
                problems.append(f"marked point inside disc {i}")
    return not problems, problems


def glue(c1: DiscConfiguration, slot: int, c2: DiscConfiguration) -> DiscConfiguration:
    """Insert c2, rescaled by the slot radius and rotated by the slot
    framing, in place of disc *slot* of c1 (slots are 1-based; any other
    is a :class:`ParseError` at ``"slot"``).

    Framings of the inserted discs pick up the slot framing; at most one
    marked point may survive.  An invalid input, or a slot framing that is
    not a quarter turn, is a :class:`GlueError`.
    """
    if not 1 <= slot <= c1.arity():
        raise ParseError(f"slot {shown(slot, str)} out of range 1..{c1.arity()}").at("slot")
    if c1.z_point is not None and c2.z_point is not None:
        raise ZConflict("both configurations carry a marked point")
    for label, cfg in (("first", c1), ("second", c2)):
        ok, problems = validate(cfg)
        if not ok:
            raise GlueError(f"{label} configuration invalid: {problems[0]}")
    tau = c1.framing(slot)
    if tau not in QUARTER_UNITS:
        raise GlueError(f"slot framing {tau} is not a quarter turn: its rotation "
                        f"leaves Q(i)")
    ur, ui = QUARTER_UNITS[tau]  # exp(2*pi*i*tau)
    host = c1.points[slot - 1]
    cr, ci, rr = host.re, host.im, host.radius

    def send(re, im):
        return (cr + rr * (ur * re - ui * im), ci + rr * (ui * re + ur * im))

    new_points: list[Disc] = []
    new_framings: list[Fraction] = []
    inserted_z = None
    for k, p in enumerate(c1.points):
        if k == slot - 1:
            for j, p2 in enumerate(c2.points, start=1):
                re, im = send(p2.re, p2.im)
                new_points.append(Disc(re, im, rr * p2.radius))
                new_framings.append((c2.framing(j) + tau) % 1)
            if c2.z_point is not None:
                inserted_z = send(*c2.z_point)
        else:
            new_points.append(p)
            new_framings.append(c1.framing(k + 1))
    z = inserted_z if inserted_z is not None else c1.z_point
    framings = None
    if c1.framings is not None or c2.framings is not None or tau != 0:
        framings = new_framings
    return DiscConfiguration(points=new_points, framings=framings, z_point=z)


# ---------------------------------------------------------------------------
# graded multilinear operations
# ---------------------------------------------------------------------------


def koszul_sign(deg_phi1: int, deg_phi2: int, slot: int,
                degrees_prefix: list[int]) -> int:
    """(-1)^((|phi1| + |x_1| + ... + |x_{slot-1}|) * |phi2|)."""
    if len(degrees_prefix) != slot - 1:
        raise ValueError(f"slot {slot} needs {slot - 1} prefix degrees, "
                         f"got {len(degrees_prefix)}")
    return -1 if ((deg_phi1 + sum(degrees_prefix)) * deg_phi2) % 2 else 1


class GradedOperation(Record):
    """Multilinear map on a small graded space, stored as a table from
    generator index tuples to output vectors.

    Coefficient ``table[inputs][gen]`` is the integer numerator of
    ``table[inputs][gen]/den``.  The form is canonical: no coefficient is
    zero, no output row is empty, and ``den`` is the lcm of the
    coefficients' denominators, so ``gcd(den, *numerators) == 1``, and 1
    for an empty table.  Two operations with the same values therefore
    have the same fields, and field equality (:class:`Record`) is value
    equality.  Rationals appear only at the edges: :meth:`from_rationals`
    and :meth:`from_json` read them in, and :meth:`json_text` renders each
    coefficient as ``str`` of its Fraction.
    """

    __slots__ = _fields = ("space", "arity", "degree", "table", "den")

    def __init__(self, space: tuple[int, ...], arity: int, degree: int,
                 table: dict[tuple[int, ...], dict[int, int]] | None = None,
                 den: int = 1):
        self.space = space  # degree of each generator
        self.arity = arity
        self.degree = degree
        self.table = {} if table is None else table
        self.den = den

    @classmethod
    def identity(cls, space: tuple[int, ...]) -> "GradedOperation":
        return cls(space=tuple(space), arity=1, degree=0,
                   table={(i,): {i: 1} for i in range(len(space))})

    @classmethod
    def from_rationals(cls, space: tuple[int, ...], arity: int, degree: int,
                       table: dict) -> "GradedOperation":
        """The operation whose coefficients are the rationals of *table*:
        ints, Fractions or literals such as ``"3/4"``."""
        return cls(space, arity, degree, *_over_one_den(
            {key: {g: ratio(c) for g, c in out.items()} for key, out in table.items()}))

    @classmethod
    def from_json(cls, data, space: tuple[int, ...]) -> "GradedOperation":
        """Decode ``{arity, degree, table}`` on *space*, strictly, so that
        :func:`compose`'s join sees only tuples of ``arity`` generators of
        the space, each at most once, and outputs naming each generator once.
        A canonical table is read in one plain pass, any other by fields."""
        plain = _plain_operation(data, space)
        if plain is not None:
            return cls(space, *plain)
        n = len(space)

        def generator(x) -> int:
            g = x if type(x) is int else integer(x)
            if not 0 <= g < n:
                raise ParseError(f"generator {shown(g, str)} outside the {n}-generator space")
            return g

        def inputs(xs) -> tuple:
            if len(each(xs)) != arity:
                raise ParseError(f"{len(xs)} generators, expected {arity}, one per input")
            key = tuple(each(xs, generator))
            if key in pairs:
                raise ParseError(f"inputs {list(key)} appear in two records")
            return key

        def output(out) -> dict:
            row = {}
            for g in members(out):
                gen, c = generator(g), field(out, g, ratio)
                if gen in row:
                    raise ParseError(f"generator {gen} named twice").at(g)
                row[gen] = c
            return row

        def record(rec):
            key = field(rec, "inputs", inputs)
            pairs[key] = field(rec, "output", output)

        arity = field(data, "arity", integer)
        pairs = {}
        field(data, "table", lambda t: each(t, record), [])
        return cls(space, arity, field(data, "degree", integer), *_over_one_den(pairs))

    def json_text(self) -> str:
        """The JSON text of arity, degree and the table by inputs, written in
        one pass as ``json.dumps(..., sort_keys=True)`` writes it, each
        coefficient as the ``str`` of its Fraction.  An output's entries sort
        as their text ``"g": "c"``, which orders them by generator name as a
        string (``"10"`` before ``"2"``): the closing quote sorts below every
        character of a name."""
        d, table, rows = self.den, self.table, []
        for key in sorted(table):
            items = table[key].items()
            if len(items) == 1:
                [(g, n)] = items
                entries = f'"{g}": "{render_ratio(n, d)}"'
            else:
                entries = ", ".join(sorted(f'"{g}": "{render_ratio(n, d)}"' for g, n in items))
            rows.append(f'{{"inputs": {list(key)}, "output": {{{entries}}}}}')
        return (f'{{"arity": {self.arity}, "degree": {self.degree}, '
                f'"table": [{", ".join(rows)}]}}')

    def is_homogeneous(self) -> bool:
        for inputs, out in self.table.items():
            want = sum(self.space[i] for i in inputs) + self.degree
            for gen, coeff in out.items():
                if coeff and self.space[gen] != want:
                    return False
        return True


def _plain_operation(data, space: tuple[int, ...]) -> tuple | None:
    """``(arity, degree, table, den)`` of a table in canonical form (int
    arity, degree and inputs, no inputs twice, names as ``str`` writes
    them, coefficients that :func:`ratio` reads), else ``None``."""
    n = len(space)
    names, pairs = {str(g): g for g in range(n)}, {}
    try:
        arity, degree, records = data["arity"], data["degree"], data.get("table", [])
        if type(arity) is not int or type(degree) is not int or type(records) is not list:
            return None
        for rec in records:
            key, out = rec["inputs"], rec["output"]
            if type(key) is not list or len(key) != arity or type(out) is not dict:
                return None
            for g in key:
                if type(g) is not int or not 0 <= g < n:
                    return None
            if (key := tuple(key)) in pairs:
                return None
            pairs[key] = {names[name]: ratio(c) for name, c in out.items()}
    except (KeyError, TypeError, ParseError):
        return None
    return arity, degree, *_over_one_den(pairs)


def _over_one_den(pairs: dict) -> tuple[dict, int]:
    """A table of ``(numerator, denominator)`` pairs as canonical
    numerators over one den, without zero coefficients or empty rows."""
    den = math.lcm(*(d for out in pairs.values() for _, d in out.values()))
    table = {key: {g: n * (den // d) for g, (n, d) in out.items() if n}
             for key, out in pairs.items()}
    return _canonical({key: out for key, out in table.items() if out}, den)


def _canonical(table: dict, den: int) -> tuple[dict, int]:
    """*table* over *den* with the common factor of *den* and every
    numerator divided out."""
    g = den
    for out in table.values():
        g = math.gcd(g, *out.values())
        if g == 1:
            return table, den
    if g > 1:
        table = {key: {gen: n // g for gen, n in out.items()}
                 for key, out in table.items()}
    return table, den // g


def compose(phi1: GradedOperation, slot: int,
            phi2: GradedOperation) -> GradedOperation:
    """Signed insertion of phi2 into input *slot* of phi1 (1-based; any
    other is a :class:`ParseError` at ``"slot"``).

    A join over the two tables: each phi2 entry meets only the phi1
    entries whose *slot* input is one of its output generators, so the
    cost is the number of matching pairs, not ``gens**arity``.  Every
    table key must be a tuple of ``arity`` generators of the space.  The
    numerators multiply, the result is over ``den1*den2``, and it is
    reduced once."""
    if phi1.space != phi2.space:
        raise ValueError("operations live on different spaces")
    if not 1 <= slot <= phi1.arity:
        raise ParseError(f"slot {shown(slot, str)} out of range 1..{phi1.arity}").at("slot")
    i = slot - 1
    # phi1's entries by their slot input; the sign needs only the prefix
    by_mid: dict[int, list] = {}
    for k1, v1 in phi1.table.items():
        prefix = k1[:i]
        sign = koszul_sign(phi1.degree, phi2.degree, slot,
                           [phi1.space[g] for g in prefix])
        by_mid.setdefault(k1[i], []).append(
            (prefix, k1[slot:], [(g, sign * c) for g, c in v1.items()]))
    table: dict[tuple[int, ...], dict[int, int]] = {}
    for k2, v2 in phi2.table.items():
        for mid, cmid in v2.items():
            for prefix, suffix, signed in by_mid.get(mid, ()):
                acc = table.setdefault(prefix + k2 + suffix, {})
                for gen, cout in signed:
                    term = cmid * cout
                    acc[gen] = acc[gen] + term if gen in acc else term
    # drop the coefficients that cancelled, and the rows left empty
    for key in [key for key, acc in table.items() if not (acc and all(acc.values()))]:
        acc = {g: c for g, c in table[key].items() if c}
        if acc:
            table[key] = acc
        else:
            del table[key]
    return GradedOperation(phi1.space, phi1.arity + phi2.arity - 1,
                           phi1.degree + phi2.degree,
                           *_canonical(table, phi1.den * phi2.den))
