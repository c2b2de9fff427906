"""The record classes: field-wise equality and hashing of the value types,
a fresh default container per instance, and constructor validation."""

from fractions import Fraction as F

import pytest

from bggkit.bgg import HodgeSplit, TOps
from bggkit.catalog import CatalogEntry
from bggkit.diagram import DiagramSpec, KappaSpec, VerifyReport
from bggkit.energy import EnergyParams, cosserat_metric
from bggkit.forms import CoordSpace, FormBlock, LinMap, SumSpace, ValueSpace
from bggkit.korn import KornRow
from bggkit.linalg import LinAlgError, SparseMat


def _rows():
    return (ValueSpace("a", ("a1",)), ValueSpace("b", ("b1", "b2")))


def _kappa():
    return KappaSpec(((SparseMat(1, 2, {(0, 1): 1}),),))


# (class, fresh field values, one other value per field)
VALUES = [
    (ValueSpace, lambda: ("v", ("v1", "v2")), ("w", ("v1",))),
    (FormBlock, lambda: (2, 1, 3, ValueSpace("v", ("v1",))),
     (3, 0, 2, ValueSpace("v", ("v2",)))),
    (CoordSpace, lambda: ("c", 3), ("d", 4)),
    (SumSpace, lambda: (((0, CoordSpace("c", 1)), (1, CoordSpace("c", 2))),),
     (((0, CoordSpace("c", 1)), (1, CoordSpace("c", 3))),)),
    (KappaSpec, lambda: _kappa().maps, (((SparseMat(1, 2, {(0, 0): 1}),),),)),
    (DiagramSpec, lambda: ("d", 1, _rows(), _kappa()),
     ("e", 2, _rows()[::-1], KappaSpec(((SparseMat.zero(1, 2),),)))),
    (EnergyParams, lambda: (F(1), F(2), F(1, 2), F(3), F(0), F(1, 3)),
     (F(2), F(1), F(1, 3), F(0), F(1), F(1, 2))),
    (KornRow, lambda: (4, 6, 10, 0.25), (5, 7, 12, 0.5)),
]


@pytest.mark.parametrize("cls, fields, others", VALUES, ids=lambda v: getattr(v, "__name__", ""))
def test_value_equality_and_hash_read_every_field(cls, fields, others):
    a, b = cls(*fields()), cls(*fields())
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    for k, other in enumerate(others):
        changed = cls(*fields()[:k], other, *fields()[k + 1:])
        assert changed != a and not changed == a, f"{cls.__name__} field {k}"


def test_values_of_different_classes_are_never_equal():
    assert KappaSpec(()) != SumSpace(())
    assert CoordSpace("v", ("v1",)) != ValueSpace("v", ("v1",))
    block = FormBlock(2, 1, 0, ValueSpace("v", ("v1",)))
    assert block != (2, 1, 0, block.value)
    assert EnergyParams() != (F(1),) * 6
    assert KornRow(4, 6, 10, 0.25) != (4, 6, 10, 0.25)


def test_default_containers_are_fresh_per_instance():
    spec = DiagramSpec("d", 1, _rows(), _kappa())
    one, two = CatalogEntry("a", spec), CatalogEntry("a", spec)
    assert one.expected == {} and one.expected is not two.expected
    assert one.value_actions is None
    r1, r2 = VerifyReport("d", 0), VerifyReport("d", 0)
    assert r1.checks == [] and r1.checks is not r2.checks
    h1, h2 = HodgeSplit(None), HodgeSplit(None)
    for name in ("ran", "kerp", "ups", "coords", "p_kerp", "p_perp"):
        assert getattr(h1, name) == {} and getattr(h1, name) is not getattr(h2, name)
    assert len({id(getattr(h1, name)) for name in
                ("ran", "kerp", "ups", "coords", "p_kerp", "p_perp")}) == 6
    assert TOps(None).const is not TOps(None).const


def test_constructors_still_validate():
    v = ValueSpace("v", ("v1",))
    with pytest.raises(ValueError, match="at least one basis label"):
        ValueSpace("v", ())
    with pytest.raises(ValueError, match="spatial dimension"):
        FormBlock(0, 0, 0, v)
    for i in (-1, 5):
        with pytest.raises(ValueError, match="form degree out of range"):
            FormBlock(3, i, 0, v)
    assert FormBlock(3, 4, 0, v).dim == 0  # i = n + 1 is an empty block
    assert FormBlock(3, 1, 1, v).dim == 9
    b = FormBlock(2, 0, 1, v)
    with pytest.raises(LinAlgError, match="does not match"):
        LinMap(b, b, SparseMat.zero(b.dim, b.dim + 1))


def test_energy_params_constructors_and_text_are_unchanged():
    assert EnergyParams() == EnergyParams.of(1, 1, 1, 1, 1, 1)
    p = EnergyParams.of(2, 3, "1/2", 1, F(1, 3), 2)
    assert all(type(x) is F for x in (p.mu, p.lam, p.mu_c, p.alpha, p.beta, p.gamma))
    assert str(p) == "(mu=2, lam=3, mu_c=1/2, alpha=1, beta=1/3, gamma=2)"
    q = EnergyParams(mu=F(2), alpha=F(0))
    assert (q.mu, q.lam, q.mu_c, q.alpha, q.beta, q.gamma) == (2, 1, 1, 0, 1, 1)


def test_cosserat_metric_is_shared_by_equal_params():
    a = EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2)
    b = EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2)
    assert a is not b and cosserat_metric(a) is cosserat_metric(b)
