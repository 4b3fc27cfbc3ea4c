"""Disc gluing geometry and the signed composition of graded operations."""

import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novikov.cli import run_operad
from novikov.errors import GlueError, ParseError, ZConflict
from novikov.operad import (
    Disc,
    DiscConfiguration,
    GradedOperation,
    _plain_operation,
    compose,
    glue,
    koszul_sign,
    validate,
)

F = Fraction
QUARTERS = [F(0), F(1, 4), F(1, 2), F(3, 4)]


def config(points, framings=None, z=None):
    return DiscConfiguration(points=[Disc(*p) for p in points],
                             framings=framings, z_point=z)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [{"mode": "exact"}, {}], ids=["exact", "default"])
def test_decimal_strings_read_as_rationals(mode):
    # a JSON float is refused as a framing or a coordinate
    # (tests/test_cli.py); a decimal string is a rational literal
    cfg = DiscConfiguration.from_json({**mode, "framings": ["0.1"], "points": [
        {"re": "0.1", "im": "0", "r": "0.25"}]})
    assert cfg.framings == [F(1, 10)]
    assert cfg.points == [Disc(F(1, 10), F(0), F(1, 4))]
    assert cfg.to_json()["mode"] == "exact"


# the constructor is the one reader of a configuration, so the Python API
# refuses what a task file may not say
def test_float_framing_is_refused_by_the_constructor():
    # Fraction(0.1) would keep 3602879701896397/36028797018963968
    with pytest.raises(ParseError, match="not a rational literal: 0.1"):
        config([(F(1, 2), 0, F(1, 4))], framings=[0.1])


def test_float_coordinate_in_exact_mode_is_refused_by_the_constructor():
    with pytest.raises(ParseError, match="not a rational literal: 0.5"):
        config([(0.5, F(0), F(1, 4))])
    with pytest.raises(ParseError, match="not a rational literal: 0.5"):
        config([(F(1, 2), F(0), F(1, 4))], z=(F(0), 0.5))


@pytest.mark.parametrize("points, framings, fields, error, message", [
    ([(True, 0, F(1, 4))], None, {}, ParseError, "not a rational literal: True"),
    ([(F(1, 2), 0, F(1, 4))], [F(0), F(1, 2)], {}, ParseError,
     "one framing per disc: 2 framings for 1 discs"),
    ([(F(0), 0, F(1))], None, {"is_identity": 1}, ParseError,
     "identity must be a boolean, got 1"),
], ids=["bool-coordinate", "framing-count", "identity-int"])
def test_constructor_refuses_malformed_fields(points, framings, fields, error, message):
    with pytest.raises(error, match=message):
        DiscConfiguration(points=[Disc(*p) for p in points], framings=framings, **fields)


_numbers = st.fractions(min_value=-2, max_value=2, max_denominator=50)


@st.composite
def configurations(draw):
    n = draw(st.integers(0, 3))
    points = [Disc(*draw(st.tuples(_numbers, _numbers, _numbers))) for _ in range(n)]
    framings = draw(st.none() | st.lists(_numbers, min_size=n, max_size=n))
    z = draw(st.none() | st.tuples(_numbers, _numbers))
    return DiscConfiguration(points, framings=framings, z_point=z,
                             is_identity=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(configurations())
def test_configuration_json_round_trip(cfg):
    text = json.dumps(cfg.to_json())
    back = DiscConfiguration.from_json(json.loads(text))
    assert back == cfg
    assert json.dumps(back.to_json()) == text


def test_identity_configuration_is_valid():
    ok, problems = validate(DiscConfiguration.identity())
    assert ok, problems
    # the flag holds only for the unit disc at 0
    flagged = DiscConfiguration(points=[Disc(F(0), F(0), F(1, 2))], is_identity=True)
    assert validate(flagged) == (False, ["identity flag requires a single unit disc at 0"])


def test_overlapping_discs_invalid():
    # centers +-1/2, radii 3/5: distance 1 < 3/5 + 3/5
    c = config([(F(1, 2), 0, F(3, 5)), (F(-1, 2), 0, F(3, 5))])
    ok, problems = validate(c)
    assert not ok
    assert any("overlap" in p for p in problems)


def test_single_disc_valid():
    ok, _ = validate(config([(F(1, 2), 0, F(1, 4))]))
    assert ok


def test_containment_is_strict():
    ok, problems = validate(config([(F(1, 2), 0, F(1, 2))]))
    assert not ok
    assert any("contained" in p for p in problems)


def test_marked_point_rules():
    c = config([(F(1, 2), 0, F(1, 4))], z=(F(-1, 2), F(0)))
    assert validate(c)[0]
    inside = config([(F(1, 2), 0, F(1, 4))], z=(F(1, 2), F(0)))
    assert not validate(inside)[0]
    outside = config([(F(1, 2), 0, F(1, 4))], z=(F(2), F(0)))
    assert not validate(outside)[0]


def test_identity_framing_must_be_trivial():
    c = DiscConfiguration(points=[Disc(F(0), F(0), F(1))],
                          framings=[F(1, 4)], is_identity=True)
    assert not validate(c)[0]


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def test_glue_identity_right():
    c = config([(F(1, 2), 0, F(1, 4)), (F(-1, 2), 0, F(1, 5))],
               framings=[F(1, 4), F(0)])
    out = glue(c, 2, DiscConfiguration.identity())
    assert out.points == c.points
    assert out.framings == c.framings


def test_glue_identity_left():
    c = config([(F(1, 2), 0, F(1, 4))])
    out = glue(DiscConfiguration.identity(), 1, c)
    assert out.points == c.points


def test_glue_rescales_and_translates():
    c1 = config([(F(1, 2), 0, F(1, 4))])
    c2 = config([(F(0), 0, F(1, 2))])
    out = glue(c1, 1, c2)
    assert out.points == [Disc(F(1, 2), F(0), F(1, 8))]


def test_glue_quarter_turn():
    c1 = config([(F(1, 2), 0, F(1, 4))], framings=[F(1, 4)])
    c2 = config([(F(1, 5), 0, F(1, 10))])
    out = glue(c1, 1, c2)
    # rotation by i sends 1/5 to i/5; center 1/2 + (1/4)(i/5) = 1/2 + i/20
    assert out.points == [Disc(F(1, 2), F(1, 20), F(1, 40))]
    assert out.framings == [F(1, 4)]


def test_glue_rejects_invalid_input():
    bad = config([(F(1, 2), 0, F(1, 2))])  # touches the unit circle
    good = config([(F(0), 0, F(1, 2))])
    with pytest.raises(GlueError, match="first configuration invalid: disc 1"):
        glue(bad, 1, good)
    with pytest.raises(GlueError, match="second configuration invalid: disc 1"):
        glue(good, 1, bad)
    # a slot out of range is the caller's input, refused at its field
    with pytest.raises(ParseError, match=r"^slot 2 out of range 1\.\.1$") as info:
        glue(good, 2, good)
    assert info.value.pointer == "/slot"


def test_identity_marked_point_on_circle():
    on = DiscConfiguration(points=[Disc(F(0), F(0), F(1))],
                           z_point=(F(1), F(0)), is_identity=True)
    assert validate(on)[0]
    off = DiscConfiguration(points=[Disc(F(0), F(0), F(1))],
                            z_point=(F(1, 2), F(0)), is_identity=True)
    assert not validate(off)[0]


def test_glue_z_point_conflict_and_transport():
    c1 = config([(F(1, 2), 0, F(1, 4))], z=(F(0), F(0)))
    c2 = config([(F(0), 0, F(1, 2))], z=(F(0), F(3, 4)))
    with pytest.raises(ZConflict):
        glue(c1, 1, c2)
    out = glue(config([(F(1, 2), 0, F(1, 4))]), 1, c2)
    assert out.z_point == (F(1, 2), F(3, 16))


_SLOTS = [(F(1, 2), F(0)), (F(-1, 2), F(0)), (F(0), F(1, 2)), (F(0), F(-1, 2))]


def random_config(rng, max_discs=3, quarter_only=True):
    n = rng.randint(1, max_discs)
    centers = rng.sample(_SLOTS, n)
    pts = [(re, im, F(1, 5)) for re, im in centers]
    if quarter_only:
        framings = [rng.choice(QUARTERS) for _ in range(n)]
    else:
        framings = [F(rng.randint(0, 11), 12) for _ in range(n)]
    return config(pts, framings=framings)


def test_glue_preserves_validity():
    rng = random.Random(41)
    for _ in range(30):
        a, b = random_config(rng), random_config(rng)
        slot = rng.randint(1, a.arity())
        out = glue(a, slot, b)
        ok, problems = validate(out)
        assert ok, problems


def assert_same_config(x, y):
    assert x.arity() == y.arity()
    for p, q in zip(x.points, y.points):
        assert (p.re, p.im, p.radius) == (q.re, q.im, q.radius)
    fx = x.framings or [F(0)] * x.arity()
    fy = y.framings or [F(0)] * y.arity()
    assert fx == fy


def test_glue_associativity_exact():
    rng = random.Random(42)
    for _ in range(100):
        a = random_config(rng)
        b = random_config(rng)
        c = random_config(rng)
        i = rng.randint(1, a.arity())
        j = rng.randint(1, b.arity())
        nested = glue(a, i, glue(b, j, c))
        sequential = glue(glue(a, i, b), i + j - 1, c)
        assert_same_config(nested, sequential)


def _glued(first, slot, second):
    """glue's result, or GlueError if it refuses or is given one."""
    if GlueError in (first, second):
        return GlueError
    try:
        return glue(first, slot, second)
    except GlueError:
        return GlueError


def test_glue_associativity_float():
    # at twelfth-turn framings both bracketings rotate by the framings a_i
    # and a_i + b_j, so each refuses exactly when the other does, and
    # otherwise they agree exactly
    rng = random.Random(43)
    refused = 0
    for _ in range(40):
        a = random_config(rng, quarter_only=False)
        b = random_config(rng, quarter_only=False)
        c = random_config(rng, quarter_only=False)
        i = rng.randint(1, a.arity())
        j = rng.randint(1, b.arity())
        nested = _glued(a, i, _glued(b, j, c))
        sequential = _glued(_glued(a, i, b), i + j - 1, c)
        quarter = a.framing(i) in QUARTERS and b.framing(j) in QUARTERS
        assert (nested is GlueError) == (sequential is GlueError) == (not quarter)
        if quarter:
            assert_same_config(nested, sequential)
        refused += not quarter
    assert 0 < refused < 40


def test_glue_disjoint_slots_commute():
    rng = random.Random(44)
    for _ in range(30):
        a = random_config(rng, max_discs=3)
        if a.arity() < 2:
            continue
        b = random_config(rng)
        c = random_config(rng)
        i, j = 1, a.arity()  # i < j
        one = glue(glue(a, i, b), j + b.arity() - 1, c)
        two = glue(glue(a, j, c), i, b)
        assert_same_config(one, two)


def test_framing_additivity_along_chain():
    rng = random.Random(45)
    for _ in range(20):
        taus = [rng.choice(QUARTERS) for _ in range(3)]
        inner = config([(F(0), F(0), F(1, 5))], framings=[taus[2]])
        mid = config([(F(0), F(0), F(1, 5))], framings=[taus[1]])
        outer = config([(F(0), F(0), F(1, 5))], framings=[taus[0]])
        total = glue(outer, 1, glue(mid, 1, inner))
        assert total.framings == [(taus[0] + taus[1] + taus[2]) % 1]


# ---------------------------------------------------------------------------
# Koszul signs
# ---------------------------------------------------------------------------


def test_koszul_sign_examples():
    assert koszul_sign(1, 0, 2, [1]) == 1
    assert koszul_sign(1, 1, 2, [1]) == 1  # (1 + 1) * 1 even
    assert koszul_sign(0, 1, 2, [1]) == -1  # (0 + 1) * 1 odd


def _sign_oracle(d1, d2, prefix):
    # move phi2 stepwise past phi1 and each prefix input
    sign = 1
    for passed in [d1] + list(prefix):
        if (d2 * passed) % 2:
            sign = -sign
    return sign


def test_koszul_sign_exhaustive_small_arities():
    for arity in (1, 2, 3):
        for d1, d2 in itertools.product((0, 1), repeat=2):
            for degrees in itertools.product((0, 1), repeat=arity):
                for slot in range(1, arity + 1):
                    prefix = list(degrees[:slot - 1])
                    assert koszul_sign(d1, d2, slot, prefix) == \
                        _sign_oracle(d1, d2, prefix)


def test_koszul_sign_prefix_length_check():
    with pytest.raises(ValueError):
        koszul_sign(0, 1, 3, [1])


# ---------------------------------------------------------------------------
# graded operations
# ---------------------------------------------------------------------------


def elementary_ops(space, arity, degree):
    gens = range(len(space))
    for inputs in itertools.product(gens, repeat=arity):
        for out in gens:
            yield GradedOperation(space=space, arity=arity, degree=degree,
                                  table={tuple(inputs): {out: 1}})


def test_compose_with_identity():
    space = (0, 1)
    ident = GradedOperation.identity(space)
    for phi in elementary_ops(space, 2, 1):
        assert compose(phi, 1, ident) == phi
        assert compose(phi, 2, ident) == phi
        assert compose(ident, 1, phi) == phi


@pytest.mark.parametrize("slot", [0, 3])
def test_compose_rejects_a_slot_out_of_range(slot):
    phi = next(elementary_ops((0,), 2, 0))
    with pytest.raises(ParseError, match=rf"^slot {slot} out of range 1\.\.2$") as info:
        compose(phi, slot, GradedOperation.identity((0,)))
    assert info.value.pointer == "/slot"


def test_compose_refuses_operations_on_different_spaces():
    with pytest.raises(ValueError, match="^operations live on different spaces$"):
        compose(GradedOperation.identity((0,)), 1, GradedOperation.identity((1,)))


def test_compose_scalar_tables():
    space = (0,)
    phi = GradedOperation.from_rationals(space, 2, 0, {(0, 0): {0: F(3, 2)}})
    psi = GradedOperation.from_rationals(space, 2, 0, {(0, 0): {0: F(10, 3)}})
    assert (phi.table, phi.den, psi.table, psi.den) == \
        ({(0, 0): {0: 3}}, 2, {(0, 0): {0: 10}}, 3)
    out = compose(phi, 1, psi)
    assert out.arity == 3
    # 30/6 reduces once, to 5/1
    assert (out.table, out.den) == ({(0, 0, 0): {0: 5}}, 1)


def test_compose_sign_flips_on_odd_prefix():
    space = (1, 1)
    phi1 = GradedOperation(space=space, arity=2, degree=0,
                           table={(0, 0): {0: 1}})
    phi2 = GradedOperation(space=space, arity=1, degree=1,
                           table={(0,): {0: 1}})
    out = compose(phi1, 2, phi2)  # prefix degree 1, |phi2| = 1 -> sign -1
    assert out.table[(0, 0)] == {0: -1}


@pytest.mark.parametrize("space", [(0,), (0, 1), (1, 1)])
def test_compose_associativity_exhaustive(space):
    # compose is linear in each table, so elementary (single-entry)
    # operations exhaust the general case
    for d1, d2, d3 in itertools.product((0, 1), repeat=3):
        ops1 = list(elementary_ops(space, 2, d1))
        ops2 = list(elementary_ops(space, 2, d2))
        ops3 = list(elementary_ops(space, 1, d3))
        for phi1, phi2, phi3 in itertools.product(ops1, ops2, ops3):
            for i in (1, 2):
                for j in (1, 2):
                    lhs = compose(compose(phi1, i, phi2), i + j - 1, phi3)
                    rhs = compose(phi1, i, compose(phi2, j, phi3))
                    assert lhs == rhs


def fractions(phi):
    """phi's table with each coefficient as its Fraction."""
    return {key: {g: F(n, phi.den) for g, n in out.items()}
            for key, out in phi.table.items()}


def oracle_compose(phi1, slot, phi2):
    """The enumeration that compose's join replaced: every tuple of
    generators of the output arity, looked up in both tables, over
    Fractions.  Returns the Fraction table."""
    arity = phi1.arity + phi2.arity - 1
    t1, t2 = fractions(phi1), fractions(phi2)
    table = {}
    for inputs in itertools.product(range(len(phi1.space)), repeat=arity):
        prefix = inputs[:slot - 1]
        inner = t2.get(inputs[slot - 1:slot - 1 + phi2.arity], {})
        suffix = inputs[slot - 1 + phi2.arity:]
        if not inner:
            continue
        sign = koszul_sign(phi1.degree, phi2.degree, slot,
                           [phi1.space[g] for g in prefix])
        acc = {}
        for mid, cmid in inner.items():
            outer = t1.get(prefix + (mid,) + suffix, {})
            for gen, cout in outer.items():
                acc[gen] = acc.get(gen, F(0)) + sign * cmid * cout
        acc = {g: c for g, c in acc.items() if c}
        if acc:
            table[tuple(inputs)] = acc
    return table


# few coefficient values, so that sums over several middle generators
# often cancel; zero entries and empty rows must leave no key behind
_COEFFS = st.sampled_from([F(0), F(1), F(-1), F(2), F(-1, 2), F(3, 4), F(-5, 3)])


@st.composite
def compositions(draw):
    # a space of 11 or 12 generators names outputs "10" and up, which sort
    # before "2" as strings; its operations take at most two inputs, so the
    # oracle enumerates at most 12^3 input tuples
    wide = draw(st.booleans())
    space = tuple(draw(st.lists(st.integers(0, 2), min_size=11 if wide else 1,
                                max_size=12 if wide else 4)))
    gens = st.integers(0, len(space) - 1)

    def operation():
        # a row may be empty or have up to three generators
        arity = draw(st.integers(1, 2 if wide else 3))
        table = draw(st.dictionaries(st.tuples(*[gens] * arity),
                                     st.dictionaries(gens, _COEFFS, max_size=3),
                                     max_size=10))
        return GradedOperation.from_rationals(space, arity,
                                              draw(st.integers(-1, 1)), table)

    phi1, phi2 = operation(), operation()
    return phi1, draw(st.integers(1, phi1.arity)), phi2


_op = GradedOperation.from_rationals


@settings(max_examples=200, deadline=None)
@given(compositions())
# two middle generators whose terms cancel at input (0,), and an odd prefix
@example((_op((0, 0), 1, 0, {(0,): {0: F(1)}, (1,): {0: F(-1)}}), 1,
          _op((0, 0), 1, 0, {(0,): {0: F(1), 1: F(1)}, (1,): {0: F(2)}})))
@example((_op((1, 0), 2, 0, {(0, 1): {0: F(1), 1: F(3)}}), 2,
          _op((1, 0), 1, 1, {(0,): {1: F(1)}})))
# at input (0,) the output 0 cancels and the output 1 survives
@example((_op((0, 0), 1, 0, {(0,): {0: F(1), 1: F(1)}, (1,): {0: F(-1), 1: F(1)}}), 1,
          _op((0, 0), 1, 0, {(0,): {0: F(1), 1: F(1)}})))
# a phi1 row with no generators meets a phi2 entry: no key may be left
@example((_op((0,), 1, 0, {(0,): {}}), 1, _op((0,), 1, 0, {(0,): {0: F(1)}})))
def test_compose_matches_enumeration_oracle(case):
    phi1, slot, phi2 = case
    got = compose(phi1, slot, phi2)
    assert (got.space, got.arity, got.degree) == \
        (phi1.space, phi1.arity + phi2.arity - 1, phi1.degree + phi2.degree)
    # plain dicts of values: GradedOperation.__eq__ equates a missing and an
    # empty key, and compares numerators only across the two dens
    assert fractions(got) == oracle_compose(phi1, slot, phi2)
    # the stored form is canonical
    assert math.gcd(got.den, *(n for out in got.table.values() for n in out.values())) == 1


def _literal_table(phi):
    return [{"inputs": list(key), "output": {str(g): str(c) for g, c in out.items()}}
            for key, out in fractions(phi).items()]


_WIDE = (0,) * 12


@settings(max_examples=100, deadline=None)
@given(compositions())
# rows of three outputs, among them "10" and "11", which sort before "2"
@example((_op(_WIDE, 1, 0, {(0,): {2: F(1, 3), 10: F(-5, 2), 11: F(7)}}), 1,
          _op(_WIDE, 1, 0, {(0,): {0: F(1)}, (3,): {0: F(-2, 3)}})))
# no phi2 output meets phi1's slot input: the composed table is empty
@example((_op((0, 0), 1, 0, {(0,): {0: F(1)}}), 1, _op((0, 0), 1, 0, {(1,): {1: F(1)}})))
def test_cli_compose_detail_is_the_json_of_the_fraction_oracle(case):
    # the detail renders the integer table; the oracle's is str(Fraction)
    # per entry through the same json.dumps
    phi1, slot, phi2 = case
    payload = {"task": "operad", "action": "compose", "space": list(phi1.space),
               "slot": slot,
               "phi1": {"arity": phi1.arity, "degree": phi1.degree,
                        "table": _literal_table(phi1)},
               "phi2": {"arity": phi2.arity, "degree": phi2.degree,
                        "table": _literal_table(phi2)}}
    [row] = run_operad(payload).checks
    want = oracle_compose(phi1, slot, phi2)
    rendered = [{"inputs": list(k),
                 "output": {str(g): str(c) for g, c in sorted(v.items())}}
                for k, v in sorted(want.items())]
    assert row.detail == json.dumps(
        {"arity": phi1.arity + phi2.arity - 1, "degree": phi1.degree + phi2.degree,
         "table": rendered}, sort_keys=True)


# coefficient literals as task files write them: ints, "n" and "n/d" strings
_LITERALS = st.one_of(st.integers(-10**30, 10**30), st.integers(-9, 9).map(str),
                      st.fractions(max_denominator=50).map(str),
                      st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def operation_tables(draw, min_records=0):
    """A space and an operation table on it in canonical form, as JSON."""
    n = draw(st.integers(1, 4))
    space = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    arity = draw(st.integers(1, 3))
    gens = st.integers(0, n - 1)
    keys = draw(st.lists(st.lists(gens, min_size=arity, max_size=arity),
                         min_size=min_records, max_size=8, unique_by=tuple))
    table = [{"inputs": key, "output": draw(st.dictionaries(gens.map(str), _LITERALS,
                                                            max_size=3))} for key in keys]
    data = {"arity": arity, "degree": draw(st.integers(-2, 2)), "table": table}
    if not table and draw(st.booleans()):
        del data["table"]
    return space, data


def decoded(data, space):
    """from_json's operation, or its ParseError's message and pointer."""
    try:
        return GradedOperation.from_json(data, space)
    except ParseError as exc:
        return str(exc), exc.pointer


def field_read(data, space):
    """:func:`decoded` through the field reader alone."""
    with mock.patch("novikov.operad._plain_operation", return_value=None):
        return decoded(data, space)


@settings(max_examples=200, deadline=None)
@given(operation_tables())
def test_plain_read_and_field_reader_agree_on_canonical_tables(case):
    space, data = case
    assert _plain_operation(data, space) is not None
    op = decoded(data, space)
    assert op == field_read(data, space)
    assert (op.space, op.arity, op.degree) == (space, data["arity"], data["degree"])


def _first(data, **fields):
    """*data* with *fields* replaced in its first record."""
    return {**data, "table": [{**data["table"][0], **fields}, *data["table"][1:]]}


# each way out of canonical form, given the table d, the generator count n
# and the first record's inputs k; the field reader reads a string arity or
# generator and a "01" or "+1" name, and refuses the rest
MUTANTS = {
    "bool-generator": lambda d, n, k: _first(d, inputs=[True, *k[1:]]),
    "string-generator": lambda d, n, k: _first(d, inputs=[str(g) for g in k]),
    "generator-out-of-range": lambda d, n, k: _first(d, inputs=[*k[:-1], n]),
    "inputs-too-long": lambda d, n, k: _first(d, inputs=[*k, 0]),
    "inputs-object": lambda d, n, k: _first(d, inputs=dict(enumerate(k))),
    "inputs-repeated": lambda d, n, k: {**d, "table": [*d["table"], d["table"][0]]},
    "zero-padded-name": lambda d, n, k: _first(d, output={f"0{n - 1}": "1"}),
    "plus-signed-name": lambda d, n, k: _first(d, output={f"+{n - 1}": "-2/3"}),
    "name-out-of-range": lambda d, n, k: _first(d, output={str(n): "1"}),
    "name-twice": lambda d, n, k: _first(d, output={str(n - 1): "1", f"0{n - 1}": "2"}),
    "output-list": lambda d, n, k: _first(d, output=[1]),
    "string-arity": lambda d, n, k: {**d, "arity": str(d["arity"])},
    "bool-arity": lambda d, n, k: {**d, "arity": True},
    "bool-degree": lambda d, n, k: {**d, "degree": False},
    "no-degree": lambda d, n, k: {key: v for key, v in d.items() if key != "degree"},
}


@settings(max_examples=300, deadline=None)
@given(operation_tables(min_records=1), st.sampled_from(sorted(MUTANTS)))
def test_a_table_out_of_canonical_form_gets_the_field_readers_answer(case, kind):
    space, data = case
    mutant = MUTANTS[kind](data, len(space), data["table"][0]["inputs"])
    assert _plain_operation(mutant, space) is None
    got = decoded(mutant, space)
    assert got == field_read(mutant, space)
    if kind == "name-twice":
        g = len(space) - 1
        assert got == (f"generator {g} named twice", f"/table/0/output/0{g}")


def test_homogeneity_validation():
    space = (0, 1)
    good = GradedOperation(space=space, arity=2, degree=1,
                           table={(0, 0): {1: 1}})
    assert good.is_homogeneous()
    bad = GradedOperation(space=space, arity=2, degree=1,
                          table={(0, 0): {0: 1}})
    assert not bad.is_homogeneous()
