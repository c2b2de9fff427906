from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bggkit.linalg import (
    LinAlgError,
    SparseMat,
    _echelon_int,
    assemble,
    block_matrix,
    column_space,
    hstack,
    inverse,
    nullspace,
    pinv_onto,
    projection_onto,
    rank,
    solve_dense,
    take_cols,
    take_rows,
)

from oracles import (
    bareiss_rank,
    dense_add,
    dense_apply,
    dense_blocks,
    dense_kron,
    dense_matmul,
    dense_nullspace,
    dense_scale,
    dense_transpose,
    insert_echelon,
    scan_echelon,
)

F = Fraction


def mat(rows):
    return SparseMat.from_dense(rows)


small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def dense_rows(r, c):
    return st.lists(st.lists(small_fractions, min_size=c, max_size=c),
                    min_size=r, max_size=r).map(mat)


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(lambda c: dense_rows(r, c)))


def test_rank_identity_and_zero():
    assert rank(SparseMat.identity(2)) == 2
    assert rank(SparseMat.zero(3, 4)) == 0


def test_rank_rectangular():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    assert rank(m) == bareiss_rank(m.to_dense())


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_matches_dense_oracle(m):
    assert rank(m) == bareiss_rank(m.to_dense())


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_nullity(m):
    assert rank(m) + nullspace(m).cols == m.cols


def test_nullspace_identity_empty():
    assert nullspace(SparseMat.identity(4)).columns() == []


def test_nullspace_sum_to_zero():
    basis = nullspace(mat([[1, 1, 1]])).columns()
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_nullspace_vectors_annihilate(m):
    basis = nullspace(m).columns()
    assert basis == dense_nullspace(m.to_dense())
    for v in basis:
        assert all(x == 0 for x in m.apply(v).columns()[0])
    # linear independence: stacking them keeps full rank
    if basis:
        b = SparseMat.from_columns(basis, m.cols)
        assert rank(b) == len(basis)


def test_column_space_spans():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    c = column_space(m)
    assert c.cols == 2
    assert rank(c) == 2
    # every column of m is a combination of the pivot columns
    assert rank(hstack([c, m])) == rank(c)


def project(basis, v):
    return projection_onto(SparseMat.from_columns(basis, len(v))).apply(v).columns()[0]


def test_project_onto_axis():
    assert project([[F(1), F(0)]], [F(3), F(4)]) == [F(3), F(0)]


def test_project_full_space_is_identity():
    basis = [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(0), F(2), F(1)]]
    v = [F(5), F(-7), F(13, 3)]
    assert project(basis, v) == v


def test_project_identity_onto_span_in_m2():
    # M_2 flattened row-major; span of the identity and the 2D rotation
    # generator under the Frobenius inner product.
    ident = [F(1), F(0), F(0), F(1)]
    rot = [F(0), F(-1), F(1), F(0)]
    assert project([ident, rot], ident) == ident


def test_project_rejects_dependent_basis():
    with pytest.raises(LinAlgError):
        project([[F(1), F(1)], [F(2), F(2)]], [F(1), F(0)])


def test_projection_idempotent_and_self_adjoint():
    basis = SparseMat.from_columns([[F(1), F(2), F(0)], [F(0), F(1), F(1)]], 3)
    p = projection_onto(basis)
    assert p @ p == p
    assert p == p.transpose()
    assert p @ basis == basis


def test_pinv_invertible_is_inverse():
    m = mat([[1, 2], [3, 5]])
    assert pinv_onto(m) == inverse(m)


def test_pinv_zero_is_zero_transposed_shape():
    p = pinv_onto(SparseMat.zero(2, 5))
    assert (p.rows, p.cols) == (5, 2)
    assert p.is_zero()


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_penrose_identities(m):
    p = pinv_onto(m)
    assert m @ p @ m == m
    assert p @ m @ p == p
    mp, pm = m @ p, p @ m
    assert mp.transpose() == mp
    assert pm.transpose() == pm


def test_pinv_left_inverse_for_injective():
    m = mat([[1, 0], [0, 1], [1, 1]])
    p = pinv_onto(m)
    assert p @ m == SparseMat.identity(2)


def test_block_matrix_and_kron():
    a = SparseMat.identity(2)
    b = mat([[1, 2], [3, 4]])
    blk = block_matrix([[a, None], [None, b]], [2, 2], [2, 2])
    assert blk.get(0, 0) == 1 and blk.get(2, 3) == 2 and blk.get(1, 2) == 0
    k = a.kron(b)
    assert k.get(0, 1) == 2 and k.get(2, 2) == 1 and k.get(3, 2) == 3


def test_matmul_empty_shapes():
    a = SparseMat.zero(0, 3)
    b = SparseMat.zero(3, 2)
    c = a @ b
    assert (c.rows, c.cols) == (0, 2)
    assert rank(c) == 0
    assert nullspace(SparseMat.zero(0, 4)).cols == 4


def test_solve_dense_exact():
    a = mat([[2, 1], [1, 1]])
    b = mat([[1], [1]])
    x = solve_dense(a, b)
    assert a @ x == b
    assert x.get(0, 0) == 0 and x.get(1, 0) == 1


def test_solve_dense_rejects_singular_with_consistent_nullity():
    # [a | b] has nullity 1 as an invertible a would, but a itself is singular
    a = mat([[1, 0], [0, 0]])
    b = mat([[0], [1]])
    with pytest.raises(LinAlgError, match="singular"):
        solve_dense(a, b)
    with pytest.raises(LinAlgError, match="singular"):
        inverse(a)


square_systems = st.integers(1, 5).flatmap(lambda n: st.tuples(
    dense_rows(n, n), st.integers(1, 3).flatmap(lambda k: dense_rows(n, k))))


@settings(max_examples=150, deadline=None)
@given(square_systems)
def test_solve_dense_solves_invertible(ab):
    a, b = ab
    if bareiss_rank(a.to_dense()) < a.rows:
        with pytest.raises(LinAlgError, match="^singular matrix in solve_dense$"):
            solve_dense(a, b)
        return
    assert a @ solve_dense(a, b) == b


# -- integer-numerator storage ------------------------------------------------

sparse_fractions = st.one_of(st.just(F(0)), small_fractions)


def sparse_dense(r, c):
    """Dense Fraction rows with many zeros, some rows all zero."""
    row = st.one_of(st.just([F(0)] * c),
                    st.lists(sparse_fractions, min_size=c, max_size=c))
    return st.lists(row, min_size=r, max_size=r)


dims = st.integers(0, 4)
scalars = st.one_of(st.just(F(0)), st.integers(-5, 5).map(F),
                    st.builds(F, st.integers(-7, 7), st.integers(1, 6)))


def assert_canonical(m, dense):
    """m stores only nonempty rows of nonzero numerators in lowest terms."""
    assert m.den > 0
    assert all(m.by_row.values())
    assert all(all(row.values()) for row in m.by_row.values())
    assert all(0 <= r < m.rows and all(0 <= c < m.cols for c in row)
               for r, row in m.by_row.items())
    assert gcd(m.den, *m.num.values()) == 1
    assert m.to_dense() == dense


@settings(max_examples=100, deadline=None)
@given(st.tuples(dims, dims, dims).flatmap(
    lambda s: st.tuples(st.just(s), sparse_dense(s[0], s[1]), sparse_dense(s[1], s[2]))))
def test_matmul_matches_dense(args):
    (r, k, c), a, b = args
    out = mat(a) if r else SparseMat.zero(0, k)
    rhs = mat(b) if k else SparseMat.zero(0, c)
    prod = out @ rhs
    assert (prod.rows, prod.cols) == (r, c)
    assert_canonical(prod, dense_matmul(a, b, c))
    # the product shares rows with its operands; neither may have changed
    assert_canonical(prod + prod, dense_add(*[dense_matmul(a, b, c)] * 2))
    assert out.to_dense() == a and rhs.to_dense() == b


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(sparse_dense(*s), sparse_dense(*s), scalars)))
def test_add_sub_scale_transpose_match_dense(args):
    a, b, q = args
    ma, mb = mat(a), mat(b)
    cols = len(a[0])
    assert_canonical(ma + mb, dense_add(a, b))
    assert_canonical(ma - mb, dense_add(a, dense_scale(b, -1)))
    assert_canonical(-ma, dense_scale(a, -1))
    assert_canonical(ma.scale(q), dense_scale(a, q))
    assert_canonical(ma.transpose(), dense_transpose(a, cols))
    assert_canonical(mb.scale(q).transpose(), dense_transpose(dense_scale(b, q), cols))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
                 st.integers(1, 3)).flatmap(
    lambda s: st.tuples(sparse_dense(s[0], s[1]), sparse_dense(s[2], s[3]))))
def test_kron_matches_dense(args):
    a, b = args
    assert_canonical(mat(a).kron(mat(b)), dense_kron(a, b))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
                 st.integers(1, 3)).flatmap(
    lambda s: st.tuples(st.just(s), sparse_dense(s[0], s[2]), sparse_dense(s[0], s[3]),
                        sparse_dense(s[1], s[2]), sparse_dense(s[1], s[3]),
                        st.lists(st.booleans(), min_size=4, max_size=4))))
def test_block_matrix_matches_dense(args):
    (r0, r1, c0, c1), b00, b01, b10, b11, present = args
    dense = [[b if keep else None for b, keep in zip(pair, flags)]
             for pair, flags in (((b00, b01), present[:2]), ((b10, b11), present[2:]))]
    grid = [[None if b is None else mat(b) for b in row] for row in dense]
    want = dense_blocks(dense, [r0, r1], [c0, c1])
    assert_canonical(block_matrix(grid, [r0, r1], [c0, c1]), want)
    placed = [(r0 * bi, c0 * bj, blk) for bi, row in enumerate(grid)
              for bj, blk in enumerate(row) if blk is not None]
    assert_canonical(assemble(r0 + r1, c0 + c1, placed), want)
    # a block given as a kron pair is placed as its product
    kron_placed = [(r, c, (SparseMat.identity(1), blk)) for r, c, blk in placed]
    assert_canonical(assemble(r0 + r1, c0 + c1, kron_placed), want)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(sparse_dense(*s), st.lists(sparse_fractions, min_size=s[1],
                                                    max_size=s[1]))))
def test_apply_matches_dense(args):
    a, vec = args
    m = mat(a)
    y = m.apply(vec)
    assert y == m @ SparseMat.from_columns([vec], len(vec))
    out = y.columns()[0]
    assert out == dense_apply(a, vec)
    assert all(isinstance(x, Fraction) for x in out)


def test_apply_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(LinAlgError, match="vector length mismatch"):
        SparseMat.identity(2).apply([F(1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(
    lambda c: sparse_dense(r, c))), st.builds(F, st.integers(1, 9), st.integers(1, 9)))
def test_equal_matrices_have_equal_storage(a, q):
    m = mat(a)
    assert_canonical(m, a)
    routes = [m.scale(q).scale(1 / q), (m + m) - m, m.transpose().transpose(),
              m.scale(6).scale(F(1, 6)), SparseMat.identity(m.rows) @ m]
    for other in routes:
        assert other == m
        assert hash(other) == hash(m)
        assert (other.num, other.den) == (m.num, m.den)
    for r, c, v in m.entries():
        assert gcd(v.numerator, v.denominator) == 1
        assert v == a[r][c] != 0
    assert m.data == {(r, c): v for r, c, v in m.entries()}


def test_scaled_integer_matrix_is_not_equal():
    m = mat([[1, 2], [0, 3]])
    h = m.scale(F(1, 2))
    assert h != m and h.den == 2 and h.num == m.num
    assert h.scale(2) == m


def test_scale_by_one_returns_the_matrix():
    # matrices are immutable, so a factor of 1 shares the matrix
    m = mat([[1, 2], [0, F(3, 4)]])
    assert m.scale(1) is m and m.scale(F(1)) is m
    doubled = m.scale(2)
    assert doubled is not m and doubled == mat([[2, 4], [0, F(3, 2)]])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda r: st.integers(1, 7).flatmap(
    lambda c: sparse_dense(r, c))))
def test_echelon_matches_plain_scan(a):
    pivots, rows = _echelon_int(mat(a))
    assert (pivots, rows) == insert_echelon(a)
    # the pivot columns do not depend on the elimination order
    assert pivots == [c for _, c in scan_echelon(a)[0]]


# tall, wide and square shapes, with 0 rows or 0 columns among them
any_shape = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda s: st.tuples(st.just(s), sparse_dense(*s)))


@settings(max_examples=150, deadline=None)
@given(any_shape)
def test_rank_does_not_depend_on_orientation(args):
    # rank eliminates along the shorter side, so m and its transpose take
    # different paths
    (r, c), a = args
    m = mat(a) if r else SparseMat.zero(0, c)
    assert rank(m) == rank(m.transpose()) == bareiss_rank(m.to_dense())


# -- row selection and leading blocks ----------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.tuples(dims, dims).flatmap(lambda s: st.tuples(
    st.just(s), sparse_dense(*s), st.permutations(range(s[0])), st.permutations(range(s[1])),
    st.integers(0, s[0]), st.integers(0, s[1]))))
def test_take_rows_cols_and_leading_block_match_dense(args):
    (r, c), a, row_order, col_order, nr, nc = args
    m = mat(a) if r else SparseMat.zero(0, c)
    dense = m.to_dense()
    kept_rows, kept_cols = row_order[:nr], col_order[:nc]
    assert_canonical(take_rows(m, kept_rows), [dense[i] for i in kept_rows])
    assert_canonical(take_cols(m, kept_cols), [[row[j] for j in kept_cols] for row in dense])
    assert_canonical(take_cols(take_rows(m, range(nr)), range(nc)),
                     [row[:nc] for row in dense[:nr]])
    assert_canonical(take_rows(m, range(r)), dense)


def test_zero_shapes_are_canonical():
    for rows, cols in [(0, 0), (0, 3), (3, 0), (2, 2)]:
        z = SparseMat.zero(rows, cols)
        dense = [[F(0)] * cols for _ in range(rows)]
        for m in (z, z.transpose().transpose(), z + z, z.scale(3), -z,
                  take_rows(z, range(rows)), take_cols(z, range(cols)),
                  assemble(rows, cols, [(0, 0, z)])):
            assert_canonical(m, dense)
        assert z.by_row == {} and z.den == 1


def test_take_rows_rejects_a_repeated_index():
    with pytest.raises(LinAlgError, match="row 0 is listed twice"):
        take_rows(SparseMat.identity(3), [0, 0, 1])


def test_take_cols_rejects_a_repeated_index():
    with pytest.raises(LinAlgError, match="column 2 is listed twice"):
        take_cols(SparseMat.identity(3), [2, 1, 2])


@pytest.mark.parametrize("take, indices, message", [
    (take_rows, [0, 5], "row 5 is out of range for 2 rows"),
    (take_rows, [-1], "row -1 is out of range for 2 rows"),
    (take_cols, [2], "column 2 is out of range for 2 columns"),
    (take_cols, [1, -2], "column -2 is out of range for 2 columns"),
])
def test_take_rejects_an_index_outside_the_matrix(take, indices, message):
    with pytest.raises(LinAlgError, match=message):
        take(SparseMat.identity(2), indices)


@pytest.mark.parametrize("placed", [
    [(1, 1, SparseMat.identity(3))],
    [(0, 1, (SparseMat.identity(1), SparseMat.identity(2)))],
    [(-1, 0, SparseMat.identity(1))],
])
def test_assemble_rejects_a_block_outside_the_matrix(placed):
    r0, c0, _ = placed[0]
    with pytest.raises(LinAlgError, match=rf"block at \({r0},{c0}\) does not fit in 2x2"):
        assemble(2, 2, placed)


# -- independence of the row order -------------------------------------------


def permutation(order):
    """The matrix P with (P @ a) row k = row order[k] of a."""
    return SparseMat(len(order), len(order), {(k, i): 1 for k, i in enumerate(order)})


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda s: st.tuples(
    sparse_dense(*s), st.permutations(range(s[0])))))
def test_results_do_not_depend_on_row_order(args):
    # permuting rows changes only the order the elimination inserts them in
    a, order = args
    m, p = mat(a), permutation(order)
    pm = p @ m
    for out in (nullspace(m), column_space(m), pinv_onto(m)):
        assert_canonical(out, out.to_dense())
    assert rank(pm) == rank(m)
    assert nullspace(pm) == nullspace(m)
    assert column_space(pm) == p @ column_space(m)
    assert pinv_onto(pm) == pinv_onto(m) @ p.transpose()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    dense_rows(n, n), st.integers(1, 3).flatmap(lambda k: dense_rows(n, k)),
    st.permutations(range(n)))))
def test_square_solves_do_not_depend_on_row_order(args):
    a, b, order = args
    if rank(a) < a.rows:
        return
    p = permutation(order)
    assert solve_dense(p @ a, p @ b) == solve_dense(a, b)
    assert inverse(p @ a) == inverse(a) @ p.transpose()
    assert pinv_onto(p @ a) == pinv_onto(a) @ p.transpose()
