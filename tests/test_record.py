"""The shared record behaviour: field equality, repr, and frozen hashing."""

from fractions import Fraction

import pytest

from novikov.bv import BVModel, Connection
from novikov.ode import LatticeSeed, ODEProblem
from novikov.operad import Disc
from novikov.report import CheckResult, Report
from novikov.series import NovikovSeries

F = Fraction


def test_frozen_records_hash_by_value_and_refuse_assignment():
    one = NovikovSeries.one()
    for make in (lambda: ODEProblem(one, one.d_q(), one),
                 lambda: LatticeSeed(F(1), F(0), (F(1), F(0))),
                 lambda: Disc(F(1, 2), F(0), F(1, 4))):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        with pytest.raises(AttributeError):
            setattr(a, a._fields[0], None)
    assert Disc(F(1, 2), F(0), F(1, 4)) != Disc(F(1, 2), F(0), F(1, 5))


def test_records_compare_and_show_their_fields_only():
    row = CheckResult("name", "x = y", True)
    assert repr(row) == "CheckResult(name='name', equation='x = y', passed=True, detail='')"
    assert Report([row]) == Report([CheckResult("name", "x = y", True, "")])
    assert Report() != Report([row]) and Report() != []
    with pytest.raises(TypeError):
        hash(Report())
    # each instance gets a fresh default, and a cache stays out of == and repr
    assert Connection().linear is not Connection().linear
    model = BVModel({"e": 0})
    model.product_rows
    assert model == BVModel({"e": 0}) and "product_rows" not in repr(model)
    assert repr(Connection()) == "Connection(linear={})"
