from fractions import Fraction

import pytest

from bggkit import catalog, korn
from bggkit.bgg import derive
from bggkit.cube import stacked_cube_gram, stacked_map
from bggkit.diagram import VerificationError, build
from bggkit.forms import SumSpace
from bggkit.korn import korn2d_experiment
from bggkit.linalg import SparseMat, nullspace
from oracles import ldl_pivots


@pytest.fixture(scope="module")
def recorded():
    """Rows of korn2d_experiment(6) and the (a_r, m_r) pencils fed to eigh."""
    pencils = []
    to_float = korn._to_float
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(korn, "_to_float", lambda mat: pencils.append(mat) or to_float(mat))
        rows = korn2d_experiment(6)
    return rows, list(zip(pencils[0::2], pencils[1::2]))


@pytest.fixture(scope="module")
def rows(recorded):
    return recorded[0]


def per_degree_pencils(r_max):
    """Each degree's pencil built from its own stacked D, kernel and Grams."""
    bd = build(catalog.get("mobius-2d").spec, r_max)
    ops = derive(bd)
    metrics = [{j: b.transpose() @ b for (ii, j), b in ops.hs.ups.items() if ii == i}
               for i in (0, 1)]
    out = []
    for r in range(3, r_max + 1):
        weights = range(r + 1)
        dom = SumSpace(tuple((w, ops.bc.ups_space(0, w)) for w in weights))
        cod = SumSpace(tuple((w, ops.bc.ups_space(1, w)) for w in weights))
        dmat = stacked_map({w: ops.bc.D(0, w) for w in weights}, dom, cod).mat
        ker = nullspace(dmat)
        g_in = stacked_cube_gram(bd, dom, 0, metrics[0])
        g_out = stacked_cube_gram(bd, cod, 1, metrics[1])
        a = dmat.transpose() @ g_out @ dmat
        comp = nullspace(ker.transpose() @ g_in)
        out.append((comp.transpose() @ a @ comp, comp.transpose() @ g_in @ comp))
    return out


def test_pencils_match_per_degree_construction(recorded):
    _, pencils = recorded
    assert pencils == per_degree_pencils(6)


def test_rows_do_not_depend_on_rmax():
    assert korn2d_experiment(5) == korn2d_experiment(7)[:3]


def test_nested_pencil_rejects_entry_beyond_leading_block():
    a = SparseMat.from_dense([[4, 1, 2], [1, 3, 0], [2, 0, 5]])
    m = SparseMat.from_dense([[2, 0, 1], [0, 2, 0], [1, 0, 2]])
    nested = SparseMat(4, 3, {(0, 0): 1, (1, 1): 1, (2, 1): Fraction(1, 2), (3, 2): 1})
    a_r, m_r = korn._nested_pencil(a, m, nested, 2, 3)
    assert a_r == SparseMat.from_dense([[4, 1], [1, 3]])
    assert m_r == SparseMat.from_dense([[2, 0], [0, 2]])
    # column 1 reaches row 3, outside the leading 3 rows
    leaky = SparseMat(4, 3, {(0, 0): 1, (1, 1): 1, (3, 1): Fraction(1, 2), (3, 2): 1})
    with pytest.raises(VerificationError):
        korn._nested_pencil(a, m, leaky, 2, 3)


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
