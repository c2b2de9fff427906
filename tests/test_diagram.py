from fractions import Fraction

import pytest

from bggkit import catalog
from bggkit.diagram import (
    DiagramError,
    DiagramSpec,
    KappaSpec,
    build,
    row_cohomology_sum,
    twisted_cohomology,
    verify_identities,
)
from bggkit.forms import ValueSpace
from bggkit.linalg import SparseMat

F = Fraction
WMAX = 5


@pytest.fixture(scope="module")
def hessian():
    return build(catalog.get("conf-hessian-3d").spec, WMAX)


@pytest.fixture(scope="module")
def cosserat():
    return build(catalog.get("elasticity-3d").spec, WMAX)


def single_row_spec():
    return DiagramSpec("plain", 2, (ValueSpace.coordinates("v", 2),), KappaSpec(()))


def test_single_row_builds_with_trivial_connectors():
    bd = build(single_row_spec(), 4)
    for w in range(5):
        for i in range(3):
            assert bd.S(i, w).is_zero()
            assert bd.K(i, w).is_zero()
            assert bd.d_V(i, w).mat == bd.d(i, w).mat
            assert bd.F(i, w).mat == SparseMat.identity(bd.column(i, w).dim)


def test_conf_hessian_connector_shapes(hessian):
    # row-1 connector collects dx^l wedge components; row-2 spreads a form
    # over the three slots.  On constants (w=i+j) these are the pointwise maps.
    s01 = hessian.S_block(0, 1, 1)
    assert s01.mat == SparseMat.identity(3)  # psi_l -> sum dx^l (x) psi_l
    s02 = hessian.S_block(0, 2, 2)
    # a scalar maps to (dx^1, dx^2, dx^3) slots: injective with unit entries
    assert s02.mat.cols == 1 and s02.mat.rows == 9
    assert sorted(v for _, _, v in s02.mat.entries()) == [1, 1, 1]


def test_cosserat_connector_formula(cosserat):
    # (S psi)_j = sum_l dx^l wedge psi_{l j} on constants: check one slot.
    s = cosserat.S_block(0, 1, 1)
    # input basis w1, w2, w3 (the three skew slots), output 1-forms in V_0^*
    # column for w3: psi = mskw(e3): psi_{12} = -1, psi_{21} = 1,
    # so (S psi)_1 = dx^2 * (-1)? sign fixed by mskw convention: check exactness
    assert s.mat.cols == 3 and s.mat.rows == 9
    # each generator produces exactly two unit entries
    from collections import Counter
    per_col = Counter(c for _, c, _ in s.mat.entries())
    assert sorted(per_col.values()) == [2, 2, 2]


def test_build_rejects_noncommuting_kappa():
    rows = (ValueSpace.coordinates("a", 2), ValueSpace.coordinates("b", 2),
            ValueSpace.coordinates("c", 2))
    ident = SparseMat.identity(2)
    swap = SparseMat.from_dense([[0, 1], [1, 0]])
    proj = SparseMat.from_dense([[1, 0], [0, 0]])
    # rows 1 and 2 fail to commute: proj @ swap != swap @ proj
    kappa = KappaSpec(((proj, swap), (swap, proj)))
    spec = DiagramSpec("bad", 2, rows, kappa)
    with pytest.raises(DiagramError) as err:
        build(spec, 2)
    assert "commute" in str(err.value)


def test_noncommuting_kappa_fails_exactly_at_connector_exchange():
    # equivalence: the constant commutation holds iff every per-weight
    # identity holds; a perturbed tensor breaks SK=KS (and only the checks
    # that depend on it) when validation is bypassed
    entry = catalog.get("conf-hessian-3d")
    rows, kappa = entry.spec.rows, entry.spec.kappa
    bad_row2 = list(kappa.row(2))
    bad_row2[0] = bad_row2[0] + SparseMat(3, 1, {(1, 0): F(1)})  # perturb
    bad = DiagramSpec("perturbed", 3, rows,
                      KappaSpec((kappa.row(1), tuple(bad_row2))))
    with pytest.raises(DiagramError):
        build(bad, 2)
    bd = build(bad, 3, validate=False)
    report = verify_identities(bd)
    assert not report.ok
    failing = {c.name for c in report.failures()}
    assert "SK=KS" in failing


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_kappa_perturbation_equivalence(seed):
    # randomized version: commutation at the constant level is equivalent
    # to the full identity suite passing
    import random
    rng = random.Random(seed)
    entry = catalog.get("mobius-2d")
    rows, kappa = entry.spec.rows, entry.spec.kappa
    j = rng.choice((1, 2))
    l = rng.randrange(2)
    r, c = rng.randrange(2), rng.randrange(2)
    perturbed = [list(kappa.row(1)), list(kappa.row(2))]
    perturbed[j - 1][l] = perturbed[j - 1][l] + SparseMat(2, 2, {(r, c): F(1)})
    spec = DiagramSpec("perturbed", 2, rows,
                       KappaSpec(tuple(tuple(row) for row in perturbed)))
    commutes = True
    try:
        spec.validate()
    except DiagramError:
        commutes = False
    report = verify_identities(build(spec, 3, validate=False))
    assert report.ok == commutes


def test_verify_identities_pass(hessian):
    report = verify_identities(hessian)
    assert report.ok, report.summary()
    names = {c.name for c in report.checks}
    assert {"dd=0", "SK=KS", "S=dK-Kd", "Sd=-dS", "SS=0", "dVdV=0",
            "Fd=dVF", "dK^m rule"} <= names


def test_verify_identities_cosserat(cosserat):
    assert verify_identities(cosserat).ok


def test_f_two_rows_upper_triangular(cosserat):
    # two rows: F = [[I, K], [0, I]] per weight
    w, i = 3, 1
    col = cosserat.column(i, w)
    f = cosserat.F(i, w)
    k = cosserat.K(i, w)
    ident = SparseMat.identity(col.dim)
    assert f.mat == ident + k.mat
    # invertible with inverse exp(-K)
    finv = ident - k.mat
    assert f.mat @ finv == ident


def test_f_three_rows_top_corner(hessian):
    # three rows: the top-right block is K1 K2 / 2; acting on the scalar row
    # this realizes multiplication by |x|^2 / 2 on each weight block.
    w, i = 2, 0
    f = hessian.F(i, w)
    col = hessian.column(i, w)
    k = hessian.K(i, w).mat
    expect = SparseMat.identity(col.dim) + k + (k @ k).scale(F(1, 2))
    assert f.mat == expect
    # bottom row scalar 1 (weight 2: j=2, p=0) maps to |x|^2/2 in the top row
    off2 = col.offset(2)
    top = hessian.block(0, 0, w)
    from bggkit.forms import monomials
    mono = {m: idx for idx, m in enumerate(monomials(3, 2))}
    vec = [F(0)] * col.dim
    vec[off2] = F(1)
    out = f.mat.apply(vec)
    for m, idx in mono.items():
        expected = F(1, 2) if 2 in m else F(0)
        assert out[idx] == expected


def test_twisted_cohomology_chain(hessian):
    dims = twisted_cohomology(hessian)
    # degree-zero cohomology sits at weight j with dim V_j; zero elsewhere
    for (i, w), h in dims.items():
        if i == 0 and w <= 2:
            assert h == [1, 3, 1][w]
        else:
            assert h == 0
    total_h0 = sum(h for (i, w), h in dims.items() if i == 0)
    assert total_h0 == 5


def test_twisted_cohomology_all_small_entries():
    for name in ["elasticity-3d", "plate-2d", "mobius-2d"]:
        bd = build(catalog.get(name).spec, 4)
        dims = twisted_cohomology(bd)
        total_h0 = sum(h for (i, w), h in dims.items() if i == 0)
        assert total_h0 == sum(v.dim for v in bd.spec.rows)
        assert all(h == 0 for (i, w), h in dims.items() if i > 0)


def test_row_cohomology_oracle_values(hessian):
    # weight 1: constants of the middle row only
    assert row_cohomology_sum(hessian, 0, 1) == 3
    assert row_cohomology_sum(hessian, 1, 1) == 0
    assert row_cohomology_sum(hessian, 0, 4) == 0


def test_weight_homogeneity(hessian):
    # operators never couple different weights: the column operators at each
    # weight already have matching dims; additionally d, S, K block shapes
    # agree with the graded bookkeeping p = w - i - j.
    b = hessian.block(1, 1, 4)
    assert b.p == 2
    d = hessian.d_block(1, 1, 4)
    assert d.cod.p == 1 and d.cod.i == 2
    k = hessian.K_block(1, 1, 4)
    assert k.cod.p == 3 and k.cod.i == 1
    s = hessian.S_block(1, 1, 4)
    assert s.cod.p == 2 and s.cod.i == 2


def test_catalog_text_round_trip():
    for name in ["conf-hessian-3d", "conf-deformation-3d", "mobius-2d",
                 "elasticity-3d", "plate-2d", "higher-hessian-3d(2)"]:
        entry = catalog.get(name)
        text = catalog.to_text(entry)
        back = catalog.parse_text(text)
        assert back.spec == entry.spec
        assert back.expected.get("h0_total") == entry.expected.get("h0_total")
        assert back.expected.get("upsilon_support") == entry.expected.get("upsilon_support")
        assert back.expected.get("operator_orders") == entry.expected.get("operator_orders")


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("nope")


def test_higher_hessian_builds_and_verifies():
    bd = build(catalog.get("higher-hessian-3d(1)").spec, 4)
    assert verify_identities(bd).ok
    dims = twisted_cohomology(bd)
    assert sum(h for (i, w), h in dims.items() if i == 0) == 4


def test_built_diagram_is_freed():
    # no module-level cache may pin a diagram and its column operators
    import gc
    import weakref
    bd = build(catalog.get("plate-2d").spec, 3)
    bd.S(0, 2)
    ref = weakref.ref(bd)
    del bd
    gc.collect()
    assert ref() is None
