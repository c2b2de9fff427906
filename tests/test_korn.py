from fractions import Fraction

import pytest

from bggkit import korn
from bggkit.korn import korn2d_experiment
from oracles import ldl_pivots


@pytest.fixture(scope="module")
def rows():
    return korn2d_experiment(6)


def test_joint_kernel_is_six(rows):
    for row in rows:
        assert row.kernel_dim == 6


def test_first_order_kernel_grows(rows):
    # the planar failure witness: holomorphic fields, dimension 2(r+1)
    for row in rows:
        assert row.first_order_kernel_dim == 2 * (row.degree + 1)


def test_sigma_min_positive(rows):
    for row in rows:
        assert row.sigma_min > 1e-10


def test_sigma_min_monotone_nonincreasing(rows):
    # adding polynomial degrees can only lower the constrained minimum
    vals = [row.sigma_min for row in rows]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_rejects_small_rmax():
    with pytest.raises(ValueError):
        korn2d_experiment(2)


def test_sigma_min_bracketed_by_exact_inertia(monkeypatch):
    # lambda_min(a_r, m_r) > c exactly when a_r - c m_r is positive definite
    recorded = []
    to_float = korn._to_float

    def record(mat):
        recorded.append(mat)
        return to_float(mat)

    monkeypatch.setattr(korn, "_to_float", record)
    rows = korn2d_experiment(5)
    pencils = list(zip(recorded[0::2], recorded[1::2]))
    assert len(pencils) == len(rows) == 3
    rel = Fraction(1, 10**6)
    for row, (a_r, m_r) in zip(rows, pencils):
        lam = Fraction(row.sigma_min) ** 2
        a, m = a_r.to_dense(), m_r.to_dense()
        for c, definite in ((lam * (1 - rel), True), (lam * (1 + rel), False)):
            shifted = [[x - c * y for x, y in zip(ra, rm)] for ra, rm in zip(a, m)]
            pivots = ldl_pivots(shifted)
            positive = len(pivots) == len(a) and all(p > 0 for p in pivots)
            assert positive == definite, (row.degree, c)
