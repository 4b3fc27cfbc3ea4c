"""The verdict rule of a residual row: Report.residual and Report.identity."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from novikov.report import Report, render, vanishes
from novikov.series import INF, NovikovSeries
from novikov.useries import USeries

ZERO = NovikovSeries.zero()


def S(*terms, trunc=INF):
    return NovikovSeries(terms, trunc)


def row(*residuals, **kwargs):
    report = Report()
    result = report.residual("r", "eq", *residuals, **kwargs)
    assert report.checks == [result]
    return result


def test_series_residual():
    result = row(S((0, 1), (1, 2), trunc=3))
    assert (result.passed, result.detail) == (False, "1 + 2*q^1 + O(q^3)")
    assert (row(ZERO).passed, row(ZERO).detail) == (True, "0")


def test_series_residual_renders_in_the_given_variable():
    result = row(S((1, 2), trunc=4), var="h")
    assert (result.passed, result.detail) == (False, "2*h^1 + O(h^4)")


def test_vector_residual():
    result = row({"a": ZERO, "b": S((2, 1))})
    assert (result.passed, result.detail) == (False, "(q^2)*b")
    assert row({"a": ZERO}).passed
    assert row({}).detail == "0"


def test_useries_vector_residual():
    result = row({"s": USeries({1: S((0, 3))})})
    assert (result.passed, result.detail) == (False, "((3)*u^1)*s")
    assert row({"s": USeries({1: ZERO})}).passed


def test_two_residuals_pass_only_together():
    result = row(ZERO, S((0, 2)))
    assert (result.passed, result.detail) == (False, "(0, 2)")
    assert row(ZERO, ZERO).passed


def test_supplied_detail_does_not_decide_the_row():
    result = row(S((0, 1)), detail="rho = 1")
    assert (result.passed, result.detail) == (False, "rho = 1")
    assert row(ZERO, detail="rho = 1").passed


def test_identity_names_the_first_failing_case_in_case_order():
    report = Report()
    result = report.identity("id", "eq", [("c1", {}), ("c2", {"x": S((0, -1))}),
                                          ("c3", {"y": S((0, 1))})])
    assert (result.passed, result.detail) == (False, "c2: (-1)*x")
    assert report.identity("id", "eq", [("c1", {}), ("c2", {"x": ZERO})]).detail == "0"
    assert report.passed is False
    assert [c.passed for c in report.checks] == [False, True]


def test_identity_evaluates_no_case_after_the_first_failing_one():
    def cases():
        yield "c1", {}
        yield "c2", {"x": S((0, -1))}
        raise AssertionError("a case after the first failing one was evaluated")

    result = Report().identity("id", "eq", cases())
    assert (result.passed, result.detail) == (False, "c2: (-1)*x")


def test_identity_formats_only_the_first_failing_label():
    formatted = []

    class Name(str):
        def __format__(self, spec):
            formatted.append(str(self))
            return super().__format__(spec)

    a, b = Name("a"), Name("b")
    cases = [((a, a), {}), ((a, b), {"x": S((0, -1))}), ((b, a), {"y": S((0, 1))})]
    result = Report().identity("id", "eq", cases, "[{1},{0}]")
    assert (result.passed, result.detail) == (False, "[b,a]: (-1)*x")
    assert formatted == ["b", "a"]
    assert Report().identity("id", "eq", cases[:1], "[{1},{0}]").detail == "0"
    assert formatted == ["b", "a"]


def series_form(x):
    """A vector of row entries as a vector of series: a rational is its
    exact constant series, and a rational zero is dropped."""
    return {k: v if isinstance(v, NovikovSeries) else NovikovSeries.monomial(v, 0)
            for k, v in x.items() if isinstance(v, NovikovSeries) or v}


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
series_terms = st.lists(st.tuples(st.integers(min_value=-2, max_value=4), rationals),
                        max_size=3)
row_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    rationals,
    st.builds(NovikovSeries, series_terms),
    st.builds(NovikovSeries, series_terms, st.integers(min_value=-1, max_value=4)),
    st.sampled_from([0, Fraction(0), ZERO, NovikovSeries.zero(2)]))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), row_entries, max_size=4))
@example({"a": 0, "b": Fraction(0), "c": ZERO})
@example({"a": Fraction(-3, 2), "b": 0, "c": NovikovSeries.zero(2), "d": 7})
def test_rational_entries_decide_and_render_as_their_series(x):
    y = series_form(x)
    assert vanishes(x) == vanishes(y)
    assert render(x) == render(y)
