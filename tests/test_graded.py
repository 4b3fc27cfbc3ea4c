"""The grading rule: every decoded table row, linear map and graded input
sits in the degree its structure requires."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _generators import adjacent_root_problem
from novikov.bv import (
    ELEMENT_DEGREES,
    BVModel,
    nilpotent_class_model,
    polyvector_model,
    polyvector_model_with_k,
)
from novikov.errors import ParseError
from novikov.graded import homogeneous
from novikov.quantum import CohomologyModel
from novikov.series import NovikovSeries

NAMES = ["a", "b", "c", "d"]

# a nonzero rational, a series, or a truncated zero: each an entry the rule
# places by its class
entries = st.sampled_from(["1", "-2/3", {"terms": [{"exp": "1", "coeff": "5"}]},
                           {"terms": [], "trunc": "3"}])
exact_zero = {"terms": []}


@st.composite
def graded_models(draw):
    """A random BV or gw model as JSON, every entry in its required degree,
    and a slot for each of its rows and images: the JSON vector and the
    degree it must sit in."""
    degrees = {n: draw(st.integers(min_value=-1, max_value=4)) for n in NAMES}
    slots = []

    def image(degree):
        live = [n for n in NAMES if degrees[n] == degree]
        out = {n: draw(entries) for n in draw(st.lists(st.sampled_from(live), unique=True))
               } if live else {}
        # an exact zero is no entry, so it may sit on any class
        out.update({n: exact_zero for n in draw(st.lists(st.sampled_from(NAMES)))
                    if n not in out})
        slots.append((out, degree))
        return out

    def rows(shift, **extra):
        pairs = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)),
                              unique=True, max_size=6))
        return [{"left": l, "right": r, **extra,
                 "result": image(degrees[l] + degrees[r] + shift)} for l, r in pairs]

    def images(shift):
        return {n: image(degrees[n] + shift)
                for n in draw(st.lists(st.sampled_from(NAMES), unique=True))}

    model = {"basis": [{"name": n, "degree": d} for n, d in degrees.items()]}
    if draw(st.booleans()):
        model.update(unit="a", product=rows(0), delta=images(-1), bracket=rows(-1),
                     elements={e: image(d) for e, d in ELEMENT_DEGREES.items()
                               if draw(st.booleans())})
        decode = BVModel.from_json
    else:
        k = draw(st.integers(min_value=0, max_value=2))
        model.update(m_class="a", cup=rows(0), qpieces=rows(-2 * k, k=k), restriction=images(0))
        decode = CohomologyModel.from_json
    return model, decode, slots, degrees


@settings(max_examples=100, deadline=None)
@given(graded_models(), st.data())
def test_graded_model_decodes_and_one_misgraded_entry_is_refused(case, data):
    model, decode, slots, degrees = case
    decode(model)
    assume(slots)
    vec, degree = data.draw(st.sampled_from(slots))
    wrong = [n for n in NAMES if degrees[n] != degree]
    assume(wrong)
    name = data.draw(st.sampled_from(wrong))
    vec[name] = data.draw(entries)
    with pytest.raises(ParseError, match=f"entry on '{name}' of degree "
                                         f"{degrees[name]}, expected degree {degree}"):
        decode(model)


def check_graded(model: BVModel) -> None:
    """The rule on a model built in code: product rows in degree
    ``|a| + |b|`` and Delta images in degree ``|a| - 1``."""
    deg = model.degrees
    for (a, b), entry in model.product.items():
        homogeneous(entry, deg, deg[a] + deg[b])
    for a, image in model.delta.items():
        homogeneous(image, deg, deg[a] - 1)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_named_models_satisfy_the_rule(n):
    check_graded(polyvector_model(n))
    check_graded(polyvector_model_with_k(n))
    prob, _, _ = adjacent_root_problem(random.Random(n))
    model, nabla, _ = nilpotent_class_model(prob, n)
    check_graded(model)
    for a, image in nabla.linear.items():
        homogeneous(image, model.degrees, model.degrees[a])


def test_rule_names_an_undeclared_class_first():
    with pytest.raises(ParseError, match="undeclared class 'zz'") as caught:
        homogeneous({"zz": NovikovSeries.zero()}, {"a": 0}, 0)
    assert caught.value.pointer == "/zz"
