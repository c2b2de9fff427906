import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bggkit import catalog, korn
from bggkit.bgg import derive
from bggkit.cube import stacked_cube_gram, stacked_map
from bggkit.diagram import InputError, VerificationError, build
from bggkit.korn import FloatStepError, korn2d_experiment
from bggkit.linalg import SparseMat, components, nullspace, rank, take_cols, take_rows
from oracles import ldl_pivots


def exact_pencils(r_max):
    """Each degree's exact pencil (a_r, m_r), cut from the r_max pencil."""
    degrees, a, m = korn._exact_part(r_max)
    return [(principal(a, range(k)), principal(m, range(k))) for *_, k in degrees]


@pytest.fixture(scope="module")
def recorded():
    """Rows of korn2d_experiment(6) and each degree's exact pencil (a_r, m_r)."""
    return korn2d_experiment(6), exact_pencils(6)


@pytest.fixture(scope="module")
def rows(recorded):
    return recorded[0]


def principal(mat, idx):
    return take_cols(take_rows(mat, idx), idx)


def class_cuts(r_max):
    """The exact r_max pencil, its classes, and per degree each class's
    coordinates below k_r, in the order the float step solves them."""
    degrees, a, m = korn._exact_part(r_max)
    classes = components(a, m)
    cuts = [(r, [[i for i in cls if i < k] for cls in classes]) for r, *_, k in degrees]
    return a, m, classes, cuts


def distinct_cuts(cuts):
    """The nonempty class cuts in the order the float step first meets them."""
    seen = []
    for _, idxs in cuts:
        seen += [idx for idx in idxs if idx and idx not in seen]
    return seen


def float_pencil(a, m, idx):
    return korn._dense(a, idx), korn._dense(m, idx)


def oracle_spectrum(a, m):
    """Ascending eigenvalues of the float pencil (a, m) from numpy, by m's
    Cholesky factor; a test-only oracle."""
    np = pytest.importorskip("numpy")
    low = np.linalg.cholesky(np.array(m))
    half = np.linalg.solve(low, np.array(a))
    return np.linalg.eigvalsh(np.linalg.solve(low, half.T))


def oracle_lowest(a, m):
    """Lowest eigenvalue of the float pencil (a, m) from numpy, as 1 / the
    highest of (m, a) by a's Cholesky factor.  The reduction by m's factor
    is off by 6.4e-9 relative on the 34-column cut at r_max 10, against a
    50-digit solve; this one agrees with that solve to 1.3e-12."""
    return 1 / oracle_spectrum(m, a)[-1]


def per_degree_pencils(r_max, centered=True):
    """Each degree's pencil built from its own stacked D, kernel and Grams,
    over the centered square or else the unit square."""
    bd = build(catalog.get("mobius-2d").spec, r_max)
    ops = derive(bd)
    metrics = [{j: b.transpose() @ b for j, b in ops.hs.ups[i].items()} for i in (0, 1)]
    out = []
    for r in range(3, r_max + 1):
        d = stacked_map({w: ops.bc.D(0, w) for w in range(r + 1)})
        dmat = d.mat
        ker = nullspace(dmat)
        g_in = stacked_cube_gram(bd, d.dom, 0, metrics[0], centered=centered)
        g_out = stacked_cube_gram(bd, d.cod, 1, metrics[1], centered=centered)
        a = dmat.transpose() @ g_out @ dmat
        comp = nullspace(ker.transpose() @ g_in)
        out.append((comp.transpose() @ a @ comp, comp.transpose() @ g_in @ comp))
    return out


def test_pencils_match_per_degree_construction(recorded):
    _, pencils = recorded
    assert pencils == per_degree_pencils(6)


def record_solves(monkeypatch):
    """Each eigh call's float pencil and the coordinates _dense cut it on."""
    solved, idxs = [], []
    eigh, dense = korn.eigh, korn._dense
    monkeypatch.setattr(korn, "eigh", lambda a, m: solved.append((a, m)) or eigh(a, m))
    monkeypatch.setattr(korn, "_dense", lambda mat, idx: idxs.append(list(idx)) or dense(mat, idx))
    return solved, idxs


def twins_at(r_max):
    degrees, a, m = korn._exact_part(r_max)
    return korn._twins(a, m, components(a, m), [k for *_, k in degrees])


def test_eigh_gets_each_degrees_pencil_in_floats(monkeypatch):
    # the floats solved are the principal class blocks of the exact (A, M):
    # each distinct cut of a class that is no certified twin, once, in the
    # order the degrees first reach it; no cut of a certified twin is solved
    solved, idxs = record_solves(monkeypatch)
    korn2d_experiment(5)
    a, m, _, cuts = class_cuts(5)
    assert twins_at(5) == {1: 0, 3: 2}
    kept = [(r, [idxs_r[0], idxs_r[2]]) for r, idxs_r in cuts]
    want = distinct_cuts(kept)
    assert idxs[::2] == idxs[1::2] == want
    assert len(solved) == len(want) > len(cuts)
    assert len(want) < sum(bool(idx) for _, idxs_r in kept for idx in idxs_r)
    assert not [idx for _, idxs_r in cuts for idx in (idxs_r[1], idxs_r[3]) if idx in idxs]
    for (a_f, m_f), idx in zip(solved, want):
        assert a_f == [[float(x) for x in row] for row in principal(a, idx).to_dense()]
        assert m_f == [[float(x) for x in row] for row in principal(m, idx).to_dense()]


def test_twin_certificate_halves_the_solves_at_rmax_10(monkeypatch):
    assert twins_at(10) == {1: 0, 3: 2}
    solved, _ = record_solves(monkeypatch)
    korn2d_experiment(10)
    assert len(solved) == 9


def flipped(mat, t, u, scale):
    """A copy of mat with entries (t, u) and (u, t) multiplied by scale."""
    return SparseMat(mat.rows, mat.cols,
                     {(r, c): v * scale if {r, c} == {t, u} else v for r, c, v in mat.entries()})


@pytest.mark.parametrize("kind", ["sign", "scale"])
def test_a_broken_twin_is_solved(monkeypatch, kind):
    degrees, a, m = korn._exact_part(6)
    classes = components(a, m)
    b = classes[1]
    if kind == "sign":  # a pair of M that A also holds: its flip contradicts S
        t, u = next((t, u) for t in b for u in sorted(m.by_row[t]) if t < u and u in a.by_row[t])
        m = flipped(m, t, u, -1)
    else:
        a = flipped(a, b[-1], b[-1], 2)
    assert components(a, m) == classes
    assert korn._twins(a, m, classes, [k for *_, k in degrees]) == {3: 2}
    monkeypatch.setattr(korn, "_exact_part", lambda r_max: (degrees, a, m))
    _, idxs = record_solves(monkeypatch)
    korn2d_experiment(6)
    solved = {i for idx in idxs for i in idx}
    assert solved == {*classes[0], *classes[1], *classes[2]}


def test_twins_need_equal_counts_below_every_cut():
    # classes {0, 2} and {1, 3} pair 0-1 and 2-3, numerators equal up to the
    # signs (1, -1); below 2 each holds one coordinate, below 3 they differ
    a = SparseMat(4, 4, {**{(i, i): 1 for i in range(4)},
                         (0, 2): 1, (2, 0): 1, (1, 3): -1, (3, 1): -1})
    m = SparseMat(4, 4, {(i, i): 2 for i in range(4)})
    classes = components(a, m)
    assert classes == [[0, 2], [1, 3]]
    assert korn._twins(a, m, classes, [2, 4]) == {1: 0}
    assert korn._twins(a, m, classes, [3, 4]) == {}
    assert korn._twins(a, m, classes, [1]) == {}


def test_twins_need_every_entry_paired_both_ways():
    # the path 0-2-4 against 1-3-5: every entry of the first has its pair,
    # but only the second holds (1, 5)
    edges = [(0, 2), (2, 4), (1, 3), (3, 5)]
    path = {(i, i): 3 for i in range(6)} | {e: 1 for e in edges} | {e[::-1]: 1 for e in edges}
    m = SparseMat(6, 6, {(i, i): 1 for i in range(6)})
    a = SparseMat(6, 6, path)
    assert korn._twins(a, m, components(a, m), [6]) == {1: 0}
    a = SparseMat(6, 6, path | {(1, 5): 1, (5, 1): 1})
    assert korn._twins(a, m, components(a, m), [6]) == {}
    # an entry that is neither the paired one nor its negative, with no
    # transposed entry whose check would catch it
    one_way = {e: v for e, v in path.items() if e not in ((4, 2), (5, 3))}
    a = SparseMat(6, 6, one_way)
    assert korn._twins(a, m, components(a, m), [6]) == {1: 0}
    a = SparseMat(6, 6, one_way | {(3, 5): 2})
    assert korn._twins(a, m, components(a, m), [6]) == {}


def test_twins_need_the_walk_to_reach_the_class():
    # classes that are not connected: the walk from 0 never meets 2, whose
    # diagonal differs from its pair's
    a = SparseMat(4, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 2})
    assert korn._twins(a, a, [[0, 2], [1, 3]], [4]) == {}


@pytest.mark.parametrize("r_max", [4, 8, 12])
def test_certified_twins_change_no_value(monkeypatch, r_max):
    certified, twins = korn2d_experiment(r_max), twins_at(r_max)
    assert twins == {1: 0, 3: 2}
    monkeypatch.setattr(korn, "_twins", lambda *_: {})
    _, idxs = record_solves(monkeypatch)
    values, eigh = [], korn.eigh
    monkeypatch.setattr(korn, "eigh", lambda a, m: values.append(eigh(a, m)) or values[-1])
    assert korn2d_experiment(r_max) == certified
    lowest = dict(zip(map(tuple, idxs[::2]), values))
    *_, cuts = class_cuts(r_max)
    checked = 0
    for b, c in twins.items():
        for _, idxs_r in cuts:
            if idxs_r[b]:
                assert lowest[tuple(idxs_r[b])] == lowest[tuple(idxs_r[c])], idxs_r[b]
                checked += 1
    assert checked >= len(cuts)


def test_class_blocks_reassemble_the_pencil():
    a, m, classes, _ = class_cuts(10)
    assert sorted(i for cls in classes for i in cls) == list(range(a.rows))
    assert [len(cls) for cls in classes] == [29, 29, 34, 34]
    for mat in (a, m):
        placed = {(cls[r], cls[c]): v for cls in classes
                  for r, c, v in principal(mat, cls).entries()}
        assert SparseMat(mat.rows, mat.cols, placed) == mat


def test_class_spectra_make_up_the_pencils_spectrum():
    np = pytest.importorskip("numpy")
    a, m, _, cuts = class_cuts(8)
    for r, idxs in cuts:
        k = sum(map(len, idxs))
        whole = oracle_spectrum(*float_pencil(a, m, range(k)))
        parts = np.sort(np.concatenate([oracle_spectrum(*float_pencil(a, m, i))
                                        for i in idxs if i]))
        np.testing.assert_allclose(parts, whole, rtol=1e-8, err_msg=f"r={r}")
        lowest = min(korn.eigh(*float_pencil(a, m, i)) for i in idxs if i)
        assert lowest == pytest.approx(whole[0], rel=1e-8), r


def test_minimizing_class_grows_only_at_odd_degrees():
    a, m, classes, cuts = class_cuts(10)
    lowest = [min(range(len(idxs)), key=lambda c: korn.eigh(*float_pencil(a, m, idxs[c]))
                  if idxs[c] else math.inf) for _, idxs in cuts]
    c = lowest[0]
    assert lowest == [c] * len(cuts)
    for (r, before), (_, after) in zip(cuts, cuts[1:]):
        if r % 2:  # r + 1 is even
            assert after[c] == before[c], r + 1
        else:
            assert len(after[c]) > len(before[c]), r + 1


def random_spd(rng, n):
    b = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    return [[sum(x * y for x, y in zip(bi, bj)) + (i == j) / 10 for j, bj in enumerate(b)]
            for i, bi in enumerate(b)]


def test_eigh_matches_numpy_on_every_distinct_cut():
    a, m, _, cuts = class_cuts(10)
    for idx in distinct_cuts(cuts):
        a_f, m_f = float_pencil(a, m, idx)
        assert korn.eigh(a_f, m_f) == pytest.approx(oracle_lowest(a_f, m_f), rel=1e-9), idx


@pytest.mark.parametrize("n", [1, 2, *range(3, 41)])
def test_eigh_matches_numpy_on_random_pencils(n):
    rng = random.Random(7000 + n)
    a, m = random_spd(rng, n), random_spd(rng, n)
    assert korn.eigh(a, m) == pytest.approx(oracle_lowest(a, m), rel=1e-9)


def test_eigh_on_a_diagonal_pencil():
    # no column has an entry below the diagonal, so every Householder step is skipped
    a = [[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
    m = [[1.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    assert korn.eigh(a, m) == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize("a", [[[0.0]], [[-1.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["zero", "negative", "indefinite"])
def test_eigh_rejects_a_pencil_that_is_not_definite(a):
    m = [[1.0 * (i == j) for j in range(len(a))] for i in range(len(a))]
    with pytest.raises(FloatStepError, match=f"Cholesky pivot {len(a) - 1} is "):
        korn.eigh(a, m)


# lambda_min of the odd degrees' pencils, from 45-digit unit-square solves
LAMBDA_MIN = {3: "9.42989481350794933", 5: "9.19793398884544864",
              7: "9.18413792299197412", 9: "9.18075747890423089",
              11: "9.18060111384320668"}


def test_sigma_min_matches_reference_values():
    with localcontext() as ctx:
        ctx.prec = 40
        for row in korn2d_experiment(12):
            want = Decimal(LAMBDA_MIN[row.degree - 1 + row.degree % 2]).sqrt()
            assert abs(Decimal(row.sigma_min) / want - 1) <= Decimal("1e-9"), row.degree


def test_sigma_min_equal_at_2k_plus_1_and_2k_plus_2():
    rows = korn2d_experiment(10)
    for odd, even in zip(rows[::2], rows[1::2]):
        assert (odd.degree % 2, even.degree) == (1, odd.degree + 1)
        assert odd.sigma_min == even.sigma_min, odd.degree


def test_rows_do_not_depend_on_rmax():
    assert korn2d_experiment(5) == korn2d_experiment(7)[:3]


def test_nested_pencil_rejects_entry_beyond_leading_block():
    nested = SparseMat(4, 3, {(0, 0): 1, (1, 1): 1, (2, 1): Fraction(1, 2), (3, 2): 1})
    assert korn._outside(nested, 2, 3) is None
    # column 1 reaches row 3, outside the leading 3 rows
    leaky = SparseMat(4, 3, {(0, 0): 1, (1, 1): 1, (3, 1): Fraction(1, 2), (3, 2): 1})
    assert korn._outside(leaky, 2, 3) == (1, 3)


def _korn_failures(monkeypatch, name, patch):
    """Run the exact part at r_max 6 with korn.<name> replaced by patch(real);
    the float step must not start.  Returns the report's failures."""
    monkeypatch.setattr(korn, name, patch(getattr(korn, name)))
    monkeypatch.setattr(korn, "eigh", lambda a, m: pytest.fail("float step ran"))
    with pytest.raises(VerificationError) as info:
        korn2d_experiment(6)
    assert str(info.value).startswith("korn: ")
    return [(c.name, c.weight, c.where) for c in info.value.report.failures()]


def _bump_call(real, call, at):
    """real, with 1 added at entry ``at`` of the result of call number ``call``."""
    calls = []

    def bumped(m):
        out = real(m)
        calls.append(out)
        if len(calls) == call:
            out = out + SparseMat(out.rows, out.cols, {at: 1})
        return out
    return bumped


def test_korn_kernel_support_certificate_fails_at_the_entry(monkeypatch):
    # at r_max 6 the weights 0..6 hold 2(w + 1) columns each, so the degree-3
    # block ends at column 20 and the last of 56 rows lies beyond it
    failures = _korn_failures(monkeypatch, "nullspace",
                              lambda real: _bump_call(real, 1, (55, 4)))
    assert failures == [("kernel support", 3, (4, 55))]


def test_korn_pivot_certificate_fails_on_the_degree_3_columns(monkeypatch):
    # no column of the degree-3 block spans the constraint's rows
    failures = _korn_failures(monkeypatch, "take_cols",
                              lambda real: lambda m, cols: SparseMat.zero(m.rows, len(cols)))
    assert failures == [("pivot columns", 3, (20,))]


def test_korn_leading_block_certificate_fails_at_each_degree(monkeypatch):
    # complement vector 0 reaching row 55 lies beyond the leading
    # (r + 1)(r + 2) = 20, 30, 42 rows of degrees 3, 4, 5, but not the 56 of 6
    failures = _korn_failures(monkeypatch, "nullspace",
                              lambda real: _bump_call(real, 2, (55, 0)))
    assert failures == [("leading block", r, (0, 55)) for r in (3, 4, 5)]


def test_joint_kernel_is_six(rows):
    # oracle: D is block-diagonal by weight, so degree r's joint kernel sums
    # the per-weight kernels of weights <= r
    ops = derive(build(catalog.get("mobius-2d").spec, rows[-1].degree))
    per_weight = [d.dom.dim - rank(d.mat)
                  for d in (ops.bc.D(0, w) for w in range(rows[-1].degree + 1))]
    for row in rows:
        assert row.kernel_dim == 6 == sum(per_weight[:row.degree + 1])


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
        assert b <= a


def test_rejects_small_rmax():
    with pytest.raises(InputError):
        korn2d_experiment(2)


def test_sigma_min_bracketed_by_exact_inertia():
    # lambda_min(a_r, m_r) > c exactly when a_r - c m_r is positive definite;
    # the shift from the unit square keeps the spectrum, so its pencils bracket too
    rows = korn2d_experiment(5)
    rel = Fraction(1, 10**6)
    for pencils in (exact_pencils(5), per_degree_pencils(5, centered=False)):
        assert len(pencils) == len(rows) == 3
        for row, (a_r, m_r) in zip(rows, pencils):
            lam = Fraction(row.sigma_min) ** 2
            a, m = a_r.to_dense(), m_r.to_dense()
            for c, definite in ((lam * (1 - rel), True), (lam * (1 + rel), False)):
                shifted = [[x - c * y for x, y in zip(ra, rm)] for ra, rm in zip(a, m)]
                pivots = ldl_pivots(shifted)
                positive = len(pivots) == len(a) and all(p > 0 for p in pivots)
                assert positive == definite, (row.degree, c)
