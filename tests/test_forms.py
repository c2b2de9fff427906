from fractions import Fraction

import pytest

from bggkit.forms import (
    FormBlock,
    LinMap,
    ValueSpace,
    exterior_derivative,
    form_indices,
    form_pullback_matrix,
    monomials,
    mult_coord,
    pullback_block,
    wedge_dx,
    wedge_sign,
)
from bggkit.linalg import SparseMat, rank
from oracles import bareiss_det, poly_mul

F = Fraction
R = ValueSpace("R", ("1",))


def scalar_block(n, i, p):
    return FormBlock(n, i, p, R)


def basis_index(block, mono, idx, label="1"):
    for k, (a, j, lab) in enumerate(block.basis()):
        if a == mono and j == idx and lab == label:
            return k
    raise KeyError((mono, idx, label))


def test_block_dims():
    assert scalar_block(3, 1, 2).dim == 3 * 6
    assert scalar_block(2, 2, 0).dim == 1
    assert scalar_block(3, 4, 2).dim == 0
    assert scalar_block(3, 1, -1).dim == 0
    v = ValueSpace.coordinates("v", 4)
    assert FormBlock(3, 2, 1, v).dim == 3 * 3 * 4


def test_monomial_and_form_enumeration():
    assert monomials(2, 2) == ((0, 2), (1, 1), (2, 0))
    assert form_indices(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert wedge_sign(2, (1, 3)) == (-1, (1, 2, 3))
    assert wedge_sign(1, (1, 3)) is None


def test_exterior_derivative_linear_scalar():
    # n=2: d(x^1) = dx^1
    b = scalar_block(2, 0, 1)
    d = exterior_derivative(b)
    col = basis_index(b, (1, 0), ())
    row_dx1 = basis_index(d.cod, (0, 0), (1,))
    row_dx2 = basis_index(d.cod, (0, 0), (2,))
    assert d.mat.get(row_dx1, col) == 1
    assert d.mat.get(row_dx2, col) == 0


def test_exterior_derivative_sign():
    # n=3: d(x^2 dx^1) = dx^2 wedge dx^1 = -dx^1 wedge dx^2
    b = scalar_block(3, 1, 1)
    d = exterior_derivative(b)
    col = basis_index(b, (0, 1, 0), (1,))
    row = basis_index(d.cod, (0, 0, 0), (1, 2))
    assert d.mat.get(row, col) == -1


@pytest.mark.parametrize("n,i,p", [(2, 0, 3), (3, 0, 2), (3, 1, 2), (3, 2, 3)])
def test_dd_zero(n, i, p):
    b = scalar_block(n, i, p)
    d1 = exterior_derivative(b)
    d2 = exterior_derivative(d1.cod)
    assert (d2 @ d1).is_zero()


def test_wedge_basic():
    b = scalar_block(3, 0, 0)
    w = wedge_dx(1, b)
    assert w.mat.get(0, 0) == 1  # 1 -> dx^1 (first basis vector of 1-forms)
    again = wedge_dx(1, w.cod)
    assert (again @ w).is_zero()


def test_wedge_sign_on_one_form():
    # dx^2 wedge dx^1 = -dx^1 wedge dx^2
    b = scalar_block(3, 1, 0)
    w = wedge_dx(2, b)
    col = basis_index(b, (0, 0, 0), (1,))
    row = basis_index(w.cod, (0, 0, 0), (1, 2))
    assert w.mat.get(row, col) == -1


def test_mult_coord_basics():
    b = scalar_block(3, 0, 0)
    m = mult_coord(1, b)
    col = basis_index(b, (0, 0, 0), ())
    row = basis_index(m.cod, (1, 0, 0), ())
    assert m.mat.get(row, col) == 1

    # x^3 * (x^1 dx^2) = x^1 x^3 dx^2
    b2 = scalar_block(3, 1, 1)
    m3 = mult_coord(3, b2)
    col = basis_index(b2, (1, 0, 0), (2,))
    row = basis_index(m3.cod, (1, 0, 1), (2,))
    assert m3.mat.get(row, col) == 1


def test_mult_coords_commute():
    b = scalar_block(3, 1, 2)
    m1 = mult_coord(1, b)
    m2 = mult_coord(2, b)
    m1_after = mult_coord(1, m2.cod)
    m2_after = mult_coord(2, m1.cod)
    assert (m1_after @ m2).mat == (m2_after @ m1).mat


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("axis", [1, 2])
def test_leibniz_commutator(n, i, p, axis):
    # d(x^l . phi) - x^l . d(phi) = dx^l wedge phi, blockwise and exactly
    b = scalar_block(n, i, p)
    if b.dim == 0:
        return
    m = mult_coord(axis, b)
    d_after_m = exterior_derivative(m.cod)
    d = exterior_derivative(b)
    m_after_d = mult_coord(axis, d.cod)
    w = wedge_dx(axis, b)
    lhs = d_after_m @ m - m_after_d @ d
    assert lhs.mat == w.mat


def test_degree_zero_derivative_is_zero_map():
    b = scalar_block(3, 1, 0)
    d = exterior_derivative(b)
    assert d.cod.dim == 0
    assert d.mat.rows == 0 and d.mat.cols == b.dim


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("w", [0, 1, 2, 4, 6])
def test_scalar_homogeneous_de_rham_cohomology(n, w):
    # per-weight exactness: zero cohomology for w >= 1, constants at w = 0
    dims, ranks = {}, {}
    for i in range(n + 1):
        b = scalar_block(n, i, w - i)
        dims[i] = b.dim
        ranks[i] = rank(exterior_derivative(b).mat)
    for i in range(n + 1):
        coh = dims[i] - ranks[i] - (ranks[i - 1] if i > 0 else 0)
        expected = 1 if (w == 0 and i == 0) else 0
        assert coh == expected


def test_value_space_tensoring():
    v = ValueSpace.coordinates("v", 2)
    b = FormBlock(2, 0, 1, v)
    d = exterior_derivative(b)
    # d acts diagonally on value components
    col = basis_index(b, (1, 0), (), "v2")
    row = basis_index(d.cod, (0, 0), (1,), "v2")
    assert d.mat.get(row, col) == 1
    row_other = basis_index(d.cod, (0, 0), (1,), "v1")
    assert d.mat.get(row_other, col) == 0


def rot35():
    return SparseMat.from_dense([
        [F(3, 5), F(-4, 5), 0],
        [F(4, 5), F(3, 5), 0],
        [0, 0, 1],
    ])


def test_form_pullback_matrix_is_minors():
    a = rot35()
    lam1 = form_pullback_matrix(a, 3, 1)
    assert lam1 == a.transpose()
    lam3 = form_pullback_matrix(a, 3, 3)
    assert lam3.get(0, 0) == 1  # determinant


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_matches_substitution_and_minor_oracles(n):
    # neither symmetric nor orthogonal, so a, a^T and a^-1 all differ
    full = [[F(2, 3), F(-1), F(0)], [F(1, 2), F(3), F(-2, 5)], [F(0), F(1, 4), F(-1)]]
    a = [row[:n] for row in full[:n]]
    # x_k -> sum_j a[k][j] x_j, and dx^J -> sum_J' det(a[J, J']) dx^J'
    linear = [{tuple(int(t == j) for t in range(n)): a[k][j] for j in range(n)}
              for k in range(n)]
    for i in range(n + 1):
        for p in range(5):
            b = scalar_block(n, i, p)
            pos = {(alpha, idx): k for k, (alpha, idx, _) in enumerate(b.basis())}
            ent = {}
            for (alpha, idx), col in pos.items():
                poly = {(0,) * n: F(1)}
                for k, e in enumerate(alpha):
                    for _ in range(e):
                        poly = poly_mul(poly, linear[k])
                for new in form_indices(n, i):
                    det = bareiss_det([[a[r - 1][c - 1] for c in new] for r in idx])
                    for beta, c in poly.items():
                        ent[(pos[(beta, new)], col)] = c * det
            pulled = pullback_block(SparseMat.from_dense(a), b, SparseMat.identity(1))
            assert pulled.mat == SparseMat(b.dim, b.dim, ent), (i, p)


def test_pullback_commutes_with_d():
    a = rot35()
    v = ValueSpace("R", ("1",))
    b = FormBlock(3, 1, 2, v)
    ident = SparseMat.identity(1)
    pb_src = pullback_block(a, b, ident)
    d = exterior_derivative(b)
    pb_tgt = pullback_block(a, d.cod, ident)
    assert (d @ pb_src).mat == (pb_tgt @ d).mat


def test_pullback_composes():
    a = rot35()
    b = FormBlock(3, 1, 1, R)
    ident = SparseMat.identity(1)
    p = pullback_block(a, b, ident)
    # pullback by a then by a^T (inverse rotation) is the identity
    q = pullback_block(a.transpose(), b, ident)
    assert (LinMap(b, b, p.mat @ q.mat)).mat == SparseMat.identity(b.dim)
