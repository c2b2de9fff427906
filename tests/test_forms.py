from fractions import Fraction
from functools import lru_cache

import pytest

from bggkit.diagram import DiagramSpec, KappaSpec, build, row_cohomology_sum
from bggkit.forms import (
    FormBlock,
    LinMap,
    ValueSpace,
    _d_scalar,
    _diff_scalar,
    _diff_table,
    _mult_scalar,
    exterior_derivative,
    form_indices,
    form_pullback_matrix,
    monomials,
    pullback_block,
    wedge_const,
)
from bggkit.linalg import SparseMat, rank
from oracles import bareiss_det, d_scalar_loop, poly_mul

F = Fraction
R = ValueSpace("R", ("1",))


def scalar_block(n, i, p):
    return FormBlock(n, i, p, R)


def mono_index(n, p, mono):
    return monomials(n, p).index(mono)


def form_index(n, i, idx):
    return form_indices(n, i).index(idx)


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
    # dx^2 ^ dx^1 ^ dx^3 = -dx^1 ^ dx^2 ^ dx^3, and dx^1 ^ dx^1 ^ dx^3 = 0
    w2, w1 = wedge_const(3, 2, 2), wedge_const(3, 2, 1)
    assert w2.get(0, form_index(3, 2, (1, 3))) == -1
    assert all(c != form_index(3, 2, (1, 3)) for _, c, _ in w1.entries())


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
    w = wedge_const(3, 0, 1)
    assert w.get(0, 0) == 1  # 1 -> dx^1 (first basis vector of 1-forms)
    assert (wedge_const(3, 1, 1) @ w).is_zero()


def test_wedge_sign_on_one_form():
    # dx^2 wedge dx^1 = -dx^1 wedge dx^2
    w = wedge_const(3, 1, 2)
    assert w.get(form_index(3, 2, (1, 2)), form_index(3, 1, (1,))) == -1


def test_mult_coord_basics():
    m = _mult_scalar(3, 0, 1)
    assert m.get(mono_index(3, 1, (1, 0, 0)), 0) == 1

    # x^3 * (x^1 dx^2) = x^1 x^3 dx^2: the monomial factor alone moves
    m3 = _mult_scalar(3, 1, 3)
    assert m3.get(mono_index(3, 2, (1, 0, 1)), mono_index(3, 1, (1, 0, 0))) == 1
    assert m3.nnz == m3.cols


def test_mult_coords_commute():
    assert _mult_scalar(3, 3, 1) @ _mult_scalar(3, 2, 2) == \
        _mult_scalar(3, 3, 2) @ _mult_scalar(3, 2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", range(7))
def test_derivative_and_coordinate_commute_to_delta(n, p):
    # [d/dx^l, x^m] = delta_lm on degree-p monomials
    ident = SparseMat.identity(len(monomials(n, p)))
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            bracket = _diff_scalar(n, p + 1, l) @ _mult_scalar(n, p, m) \
                - _mult_scalar(n, p - 1, m) @ _diff_scalar(n, p, l)
            assert bracket == (ident if l == m else SparseMat.zero(ident.rows, ident.cols))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_diff_table_is_the_product_of_first_derivatives(n):
    # d^alpha is (d/dx^1)^alpha_1 ... (d/dx^n)^alpha_n, storage included, for
    # |alpha| <= 4 on every degree p <= 7, an empty source or target included
    for p in range(-1, 8):
        for k in range(5):
            for alpha in monomials(n, k):
                want, deg = SparseMat.identity(len(monomials(n, p))), p
                for l, a in enumerate(alpha, start=1):
                    for _ in range(a):
                        want, deg = _diff_scalar(n, deg, l) @ want, deg - 1
                assert _diff_table(n, p, alpha) == want, (p, alpha)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_scalar_matches_the_reference_loop(n):
    # d built from the generators d/dx^l and dx^l wedge is the direct loop,
    # storage included, for every form degree and coefficient degree <= 8
    for i in range(n + 2):
        for p in range(9):
            rows, cols, ent = d_scalar_loop(n, i, p)
            assert _d_scalar(n, i, p) == SparseMat(rows, cols, ent), (i, p)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("axis", [1, 2])
def test_leibniz_commutator(n, i, p, axis):
    # d(x^l . phi) - x^l . d(phi) = dx^l wedge phi, blockwise and exactly
    b = scalar_block(n, i, p)
    mult = _mult_scalar(n, p, axis).kron(SparseMat.identity(len(form_indices(n, i))))
    mult_after_d = _mult_scalar(n, p - 1, axis).kron(
        SparseMat.identity(len(form_indices(n, i + 1))))
    d_after_mult = exterior_derivative(scalar_block(n, i, p + 1)).mat
    wedge = SparseMat.identity(len(monomials(n, p))).kron(wedge_const(n, i, axis))
    assert d_after_mult @ mult - mult_after_d @ exterior_derivative(b).mat == wedge


def test_degree_zero_derivative_is_zero_map():
    b = scalar_block(3, 1, 0)
    d = exterior_derivative(b)
    assert d.cod.dim == 0
    assert d.mat.rows == 0 and d.mat.cols == b.dim


@lru_cache(maxsize=None)
def de_rham_by_ranks(n, i, w):
    """Cohomology of the scalar homogeneous de Rham complex on R^n at index i
    and weight w = coefficient degree + i, from the ranks of d."""
    if w < 0 or not 0 <= i <= n:
        return 0

    def d_rank(k):
        return rank(exterior_derivative(scalar_block(n, k, w - k)).mat) if 0 <= k <= n else 0

    return scalar_block(n, i, w - i).dim - d_rank(i) - d_rank(i - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("w", range(9))
def test_scalar_homogeneous_de_rham_cohomology(n, w):
    # per-weight exactness: zero cohomology for w >= 1, constants at w = 0
    for i in range(n + 1):
        assert de_rham_by_ranks(n, i, w) == (1 if (w == 0 and i == 0) else 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_cohomology_sum_matches_de_rham_ranks(n):
    # the closed form sum_j dim V_j H(w - j) against the ranks of d, on rows
    # of dimensions 1, 2, 3 joined by zero kappa
    rows = tuple(ValueSpace.coordinates(f"v{j}", j + 1) for j in range(3))
    kappa = KappaSpec(tuple(tuple(SparseMat.zero(j, j + 1) for _ in range(n))
                            for j in (1, 2)))
    bd = build(DiagramSpec("rows", n, rows, kappa), 0)
    for w in range(9):
        for i in range(n + 2):
            assert row_cohomology_sum(bd, i, w) == sum(
                rows[j].dim * de_rham_by_ranks(n, i, w - j) for j in range(3)), (i, w)


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
