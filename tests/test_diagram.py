import hashlib
import re
from fractions import Fraction

import pytest

from bggkit import catalog
from bggkit.diagram import (
    BuiltDiagram,
    DiagramSpec,
    InputError,
    KappaSpec,
    VerificationError,
    VerifyReport,
    build,
    row_cohomology_sum,
    twisted_cohomology,
    verify_identities,
)
from bggkit.forms import LinMap, ValueSpace
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
    with pytest.raises(VerificationError) as err:
        build(spec, 2)
    assert "commute" in str(err.value)
    # proj proj - swap swap = -e_2 e_2^T: the one pair (l, m) = (1, 2) at j = 2
    assert [c.line() for c in err.value.report.failures()] == [
        "[FAIL] kappa commute  i=2 at entry (1, 2, 1, 1)"]


def test_kappa_commute_reports_every_failing_pair():
    # scalar rows, kappa_l a_l then b_l: the pair (l, m) commutes iff
    # a_l b_m = a_m b_l, which fails for (1, 2) and (1, 3) and holds for (2, 3)
    rows = tuple(ValueSpace.coordinates(name, 1) for name in "abc")
    one, zero = SparseMat.identity(1), SparseMat.zero(1, 1)
    spec = DiagramSpec("bad", 3, rows, KappaSpec(((one, zero, zero), (zero, one, one))))
    with pytest.raises(VerificationError) as err:
        spec.validate()
    assert str(err.value) == ("validate: 2 of 3 checks failed, first "
                              "[FAIL] kappa commute  i=2 at entry (1, 2, 0, 0)")
    assert [(c.name, c.weight, c.index, c.ok, c.where) for c in err.value.report.checks] == [
        ("kappa commute", None, 2, False, (1, 2, 0, 0)),
        ("kappa commute", None, 2, False, (1, 3, 0, 0)),
        ("kappa commute", None, 2, True, None)]


@pytest.mark.parametrize("n, tensor, message", [
    (0, None, "spatial dimension must be >= 1"),
    (1, SparseMat.identity(2), "row 1, tensor 1: shape (2, 2) != (1, 1)"),
], ids=["n-zero", "tensor-shape"])
def test_validate_rejects_malformed_spec(n, tensor, message):
    rows = (ValueSpace.coordinates("a", 1), ValueSpace.coordinates("b", 1))
    kappa = KappaSpec(((tensor,),) if tensor else ())
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        DiagramSpec("bad", n, rows, kappa).validate()


def test_build_gate_reports_every_mismatched_block(monkeypatch):
    # a connector block moved off dK - Kd fails at its (i, j, w), located at
    # row j and the moved entry; every such block is listed in one error
    moved = {(0, 1, 1), (1, 2, 3), (2, 1, 3)}
    real = BuiltDiagram.S_block

    def s_block(self, i, j, w):
        s = real(self, i, j, w)
        if (i, j, w) not in moved:
            return s
        return LinMap(s.dom, s.cod, s.mat + SparseMat(s.mat.rows, s.mat.cols, {(0, 0): 1}))

    monkeypatch.setattr(BuiltDiagram, "S_block", s_block)
    with pytest.raises(VerificationError) as err:
        build(catalog.get("conf-hessian-3d").spec, 3)
    report = err.value.report
    assert str(err.value).startswith(f"build: 3 of {len(report.checks)} checks failed, first ")
    assert len(report.checks) == 4 * 4 * 2  # w 0..3, i 0..3, j 1..2
    assert [(c.name, c.weight, c.index, c.where) for c in report.failures()] == [
        ("connector=dK-Kd", 1, 0, (1, 0, 0)), ("connector=dK-Kd", 3, 2, (1, 0, 0)),
        ("connector=dK-Kd", 3, 1, (2, 0, 0))]


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
    with pytest.raises(VerificationError):
        build(bad, 2)
    bd = build(bad, 3, validate=False)
    report = verify_identities(bd)
    assert not report.ok
    failing = {c.name for c in report.failures()}
    assert "SK=KS" in failing


def test_verify_identities_locates_first_failure(broken_conf_deformation):
    # SK=KS is checked blockwise, so its location starts with the row j
    first = verify_identities(broken_conf_deformation).failures()[0]
    assert first.line() == "[FAIL] SK=KS  w=2 i=0 at entry (2, 0, 2)"


def test_verify_identities_check_list_is_pinned(broken_conf_deformation):
    # every certificate line of the broken fixture, in order
    lines = [c.line() for c in verify_identities(broken_conf_deformation).checks]
    assert len(lines) == 155
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "853142daf12fe544baffab80da0030c3cd92041cc508af39e68c679e49f9c7c1"


def test_sk_ks_reads_the_column_operators():
    # SK = KS is read off the column products, so a wrong entry of the
    # memoized K column shows there, at its block (j - 2, j)
    bd = build(catalog.get("conf-hessian-3d").spec, 4)
    k = bd.K(2, 4)
    bd.__dict__["_memo"][(BuiltDiagram.K.__wrapped__, 2, 4)] = \
        LinMap(k.dom, k.cod, k.mat + SparseMat(k.mat.rows, k.mat.cols, {(8, 26): 1}))
    failing = [c.line() for c in verify_identities(bd).failures() if c.name == "SK=KS"]
    assert failing == ["[FAIL] SK=KS  w=4 i=1 at entry (2, 8, 1)"]


def test_expect_locates_first_differing_entry():
    report = VerifyReport("x", 0)
    a = SparseMat(2, 2, {(0, 0): 1, (1, 1): 2})
    report.expect("a=a", 0, 0, a, a)
    report.expect("a=b", 0, 0, a, SparseMat(2, 2, {(0, 0): 1, (1, 0): 3}), at=(7,))
    report.expect("a=0", None, 1, a)
    # [[1/2, 1/3]] over 6 against [[1/2, 1/4]] over 4: equal at (0, 0) in value
    # though not in stored numerator, so the first difference is (0, 1)
    report.expect("thirds", 0, 2, SparseMat(1, 2, {(0, 0): F(1, 2), (0, 1): F(1, 3)}),
                  SparseMat(1, 2, {(0, 0): F(1, 2), (0, 1): F(1, 4)}), at=(5,))
    assert [c.where for c in report.checks] == [None, (7, 1, 0), (0, 0), (5, 0, 1)]
    assert report.failures()[1].line() == "[FAIL] a=0  i=1 at entry (0, 0)"
    with pytest.raises(VerificationError) as info:
        report.require("stage")
    assert info.value.report is report


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
    except VerificationError:
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
    out = f.mat.apply(vec).columns()[0]
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
    with pytest.raises(InputError):
        catalog.get("nope")


def test_higher_hessian_builds_and_verifies():
    bd = build(catalog.get("higher-hessian-3d(1)").spec, 4)
    assert verify_identities(bd).ok
    dims = twisted_cohomology(bd)
    assert sum(h for (i, w), h in dims.items() if i == 0) == 4


def test_built_diagram_is_freed():
    # operators are cached on their instances, once; no module-level cache
    # may pin a diagram, its derived operators or their columns
    import gc
    import weakref
    from bggkit.bgg import derive
    bd = build(catalog.get("plate-2d").spec, 3)
    bd.S(0, 2)
    assert bd.d(0, 2) is bd.d(0, 2)
    ops = derive(bd)
    assert ops.bc.D(0, 2) is ops.bc.D(0, 2)
    ref = weakref.ref(bd)
    del bd, ops
    gc.collect()
    assert ref() is None
