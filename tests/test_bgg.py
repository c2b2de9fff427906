from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb

import pytest

from bggkit import catalog, korn
from bggkit.bgg import (
    BGGComplex,
    BOps,
    GOps,
    TOps,
    bgg_cohomology,
    compute_D,
    compute_T,
    derive,
    hodge_split,
    lift_column,
    pullback_column,
    pullback_on_harmonics,
    verify_G_properties,
    verify_T_column_identities,
    verify_block_structure,
    verify_chain_maps,
)
from bggkit import bgg, diagram
from bggkit.cli import main
from bggkit.diagram import BuiltDiagram, DiagramSpec, KappaSpec, VerificationError, \
    band, build, lift_apply, nilpotent_terms, twisted_cohomology
from bggkit.forms import LinMap, ValueSpace, _diff_scalar, blocks, form_indices, monomials
from bggkit.linalg import LinAlgError, SparseMat, assemble, nullspace, rank

from oracles import poly_diff, poly_monomial

F = Fraction
WMAX = 5


@pytest.fixture(scope="module")
def hess_ops():
    bd = build(catalog.get("conf-hessian-3d").spec, WMAX)
    return derive(bd)


@pytest.fixture(scope="module")
def elas_ops():
    bd = build(catalog.get("elasticity-3d").spec, WMAX)
    return derive(bd)


@pytest.fixture(scope="module")
def mob_ops():
    bd = build(catalog.get("mobius-2d").spec, WMAX)
    return derive(bd)


def test_staged_pipeline_matches_derive():
    # the staged operations compose to the same objects the one-shot
    # pipeline produces
    bd = build(catalog.get("plate-2d").spec, 3)
    hs = hodge_split(bd)
    t = compute_T(bd, hs)
    g = GOps(bd, t)
    bc = compute_D(bd, hs, t, g)
    b = BOps(bc)
    ops = derive(bd)
    for w in range(4):
        for i in range(3):
            assert bc.D(i, w).mat == ops.bc.D(i, w).mat
            assert b.column(i, w).mat == ops.b.column(i, w).mat
            assert g.column(i, w).mat == ops.g.column(i, w).mat


def test_hodge_split_single_row():
    spec = DiagramSpec("plain", 2, (ValueSpace.coordinates("v", 2),), KappaSpec(()))
    bd = build(spec, 3)
    hs = hodge_split(bd)
    for i in range(3):
        # no connector: the whole constant space is harmonic
        dim = comb(2, i) * 2
        ups = hs.ups[i][0]
        assert ups.cols == dim
        assert hs.p_perp[i][0] == SparseMat.identity(dim)
        assert hs.coords[i][0] @ ups == SparseMat.identity(dim)


def test_hodge_split_conf_hessian_support(hess_ops):
    hs = hess_ops.hs
    assert hs.support() == {(0, 0): 1, (1, 1): 5, (2, 1): 5, (3, 2): 1}
    # middle-row connectors surjective, first one bijective;
    # bottom-row connectors injective, the last one bijective
    bd = hess_ops.bd
    for i in range(3):
        out = bd.partial_const(i, 1)
        assert rank(out) == out.rows
    assert rank(bd.partial_const(0, 1)) == 3 == bd.partial_const(0, 1).cols
    for i in range(3):
        inc = bd.partial_const(i, 2)
        assert rank(inc) == inc.cols
    sq = bd.partial_const(2, 2)
    assert sq.rows == sq.cols == rank(sq)


def test_conf_hessian_alternation_rank(hess_ops):
    # middle-row connector at form degree 1: a 3x9 alternation of rank 3,
    # cross-checked against the dense eliminator
    from oracles import bareiss_rank
    alt = hess_ops.bd.partial_const(1, 1)
    assert (alt.rows, alt.cols) == (3, 9)
    assert rank(alt) == 3 == bareiss_rank(alt.to_dense())


def test_higher_hessian_inclusion_injective():
    # the symmetric-square inclusion into the full tensor square has an
    # empty kernel
    bd = build(catalog.get("higher-hessian-3d(2)").spec, 2)
    inc = bd.partial_const(0, 2)
    assert nullspace(inc).columns() == []
    assert inc.cols == 6 and inc.rows == 9


def test_hodge_split_conf_deformation_support():
    bd = build(catalog.get("conf-deformation-3d").spec, 2)
    hs = hodge_split(bd)
    assert hs.support() == {(0, 0): 3, (1, 0): 5, (2, 2): 5, (3, 2): 3}


def test_T_inverse_when_bijective(hess_ops):
    # the first middle-row connector is bijective; T is its exact inverse
    bd, t = hess_ops.bd, hess_ops.t
    s = bd.partial_const(0, 1)
    tc = t.const[1][0]
    assert tc @ s == SparseMat.identity(s.cols)
    assert s @ tc == SparseMat.identity(s.rows)


def test_T_mobius_half_trace_table(mob_ops):
    # partial inverse of the complex-structure embedding: (tr/2, -sskw)
    tc = mob_ops.t.const[1][0]
    # basis of 2x2 matrices as (dx major, value minor): M11 M21 M12 M22
    expect = SparseMat.from_dense([
        [F(1, 2), 0, 0, F(1, 2)],
        [0, F(1, 2), F(-1, 2), 0],
    ])
    assert tc == expect


def test_G_two_rows_is_minus_T(elas_ops):
    bd = elas_ops.bd
    for w in range(4):
        for i in range(1, 4):
            g = elas_ops.g.column(i, w)
            t = elas_ops.t.column(i, w)
            assert g.mat == -t.mat


def test_G_single_row_zero():
    spec = DiagramSpec("plain", 2, (ValueSpace.coordinates("v", 2),), KappaSpec(()))
    ops = derive(build(spec, 3))
    for w in range(4):
        for i in range(3):
            assert ops.g.column(i, w).is_zero()


SERIES_NAMES = sorted(set(catalog.names()) | {"higher-hessian-3d(3)"})


@lru_cache(maxsize=None)
def derived_to_6(name):
    return derive(build(catalog.get(name).spec, 6))


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_A_is_iota_minus_G_dV_iota(name):
    # the thin-column lift equals the lift through the explicitly formed G
    ops = derived_to_6(name)
    bd = ops.bd
    for w in range(7):
        for i in range(bd.n + 1):
            iota = ops.bc.inclusion(i, w).mat
            g_next = ops.g.column(i + 1, w).mat
            assert ops.bc.A(i, w).mat == iota - g_next @ (bd.d_V(i, w).mat @ iota)


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_B_is_pi_times_I_minus_dV_G(name):
    # the thin-row projection equals the projection through the formed G
    ops = derived_to_6(name)
    bd = ops.bd
    for w in range(7):
        for i in range(bd.n + 1):
            col = bd.column(i, w)
            g_i = ops.g.column(i, w).mat
            want = ops.bc.projection(i, w).mat @ (
                SparseMat.identity(col.dim) - bd.d_V(i - 1, w).mat @ g_i)
            assert ops.b.column(i, w).mat == want


def _probe(rows: int) -> SparseMat:
    """A rows x 3 matrix over denominators 2 and 3, with empty rows and
    entries of both signs."""
    return SparseMat(rows, 3, {(r, c): F((5 * r + c) % 7 - 3, 2 + r % 2)
                               for r in range(rows) for c in range(3) if (r + c) % 3})


@pytest.mark.parametrize("name", catalog.names())
def test_lift_apply_is_lift_column_times_x(name):
    # T constants (shift 1) and harmonic coordinates (shift 0) on every (i, w),
    # with i = 0 (no T rows) and n + 1 (neither) giving empty and absent
    # rows and low weights zero-dimensional parts
    ops = derive(build(catalog.get(name).spec, WMAX))
    bd = ops.bd
    assert max(c.den for row in ops.t.const.values() for c in row.values()) > 1
    for w in range(WMAX + 1):
        for i in range(bd.n + 2):
            col = bd.column(i, w)
            for consts, cod, shift in ((ops.t.const.get(i, {}), bd.column(i - 1, w), 1),
                                       (ops.hs.coords.get(i, {}), ops.bc.ups_space(i, w), 0)):
                x = _probe(col.dim)
                want = lift_column(bd, consts, i, w, col, cod, shift) @ x
                assert lift_apply(bd, consts, i, w, col, cod, x, shift) == want, (i, w, shift)
                assert x == _probe(col.dim)  # rows of x are shared, never written


def test_cohomology_forms_no_G(monkeypatch):
    # derive, the derived cohomology and korn apply T and pi to thin
    # matrices without forming their lifts; neither B nor the derived
    # cohomology multiplies by the homotopy
    formed = []

    def count_calls(cls, meth):
        original = vars(cls)[meth]

        def counting(self, *args):
            formed.append(meth)
            return original(self, *args)
        monkeypatch.setattr(cls, meth, counting)
    count_calls(TOps, "column")
    count_calls(BGGComplex, "projection")
    ops = derive(build(catalog.get("higher-hessian-3d(3)").spec, 4))
    bgg_cohomology(ops.bc)
    assert not ops.t.__dict__.get("_memo")
    korn.korn2d_experiment(4)
    assert formed == []
    for w in range(5):
        for i in range(4):
            ops.b.column(i, w)
    assert not ops.g.__dict__.get("_memo")


def test_d_V_ranks_eliminated_once_per_diagram(monkeypatch):
    bd = build(catalog.get("conf-hessian-3d").spec, 4)
    keys = [(i, w) for w in range(bd.w_max + 1) for i in range(bd.n + 1)]
    ops = derive(bd)
    eliminated = []

    def counting_rank(m):
        eliminated.append(m)
        return rank(m)

    monkeypatch.setattr(diagram, "rank", counting_rank)
    first = twisted_cohomology(bd)
    assert twisted_cohomology(bd) == first
    assert bgg_cohomology(ops.bc) == first
    assert len(eliminated) == len(keys) == (bd.n + 1) * (bd.w_max + 1)
    assert {id(m) for m in eliminated} == {id(bd.d_V(i, w).mat) for i, w in keys}


def test_cohomology_certificates_fail_where_the_counts_differ(monkeypatch, capsys):
    # an oracle off by one at (i, w) = (1, 2) fails that one check, in one error
    at = (1, 2)
    bd = build(catalog.get("plate-2d").spec, 3)
    ops = derive(bd)
    row_sum = diagram.row_cohomology_sum
    monkeypatch.setattr(diagram, "row_cohomology_sum",
                        lambda bd, i, w: row_sum(bd, i, w) + ((i, w) == at))
    with pytest.raises(VerificationError) as exc:
        twisted_cohomology(bd)
    assert str(exc.value).startswith("twisted_cohomology: 1 of ")
    assert [(c.name, c.weight, c.index) for c in exc.value.report.failures()] == [
        ("twisted=row_sum", at[1], at[0])]
    monkeypatch.undo()

    def twisted_off_by_one(bd):
        dims = twisted_cohomology(bd)
        dims[at] += 1
        return dims

    monkeypatch.setattr(bgg, "twisted_cohomology", twisted_off_by_one)
    with pytest.raises(VerificationError) as exc:
        bgg_cohomology(ops.bc)
    assert str(exc.value).startswith("bgg_cohomology: 1 of ")
    assert [(c.name, c.weight, c.index) for c in exc.value.report.failures()] == [
        ("derived=twisted", at[1], at[0])]
    assert main(["cohomology", "--diagram", "plate-2d", "--wmax", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("verification failed: bgg_cohomology: 1 of ")
    assert err.count("\n") == 1


def test_shared_products_formed_once_per_weight(monkeypatch):
    # derive and the four oracles read d_V A and d_V G, but form each once
    formed = []
    matmul = SparseMat.__matmul__

    def recording_matmul(a, b):
        formed.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(SparseMat, "__matmul__", recording_matmul)
    ops = derive(build(catalog.get("conf-hessian-3d").spec, 4))
    bd, bc, g = ops.bd, ops.bc, ops.g
    for w in range(bd.w_max + 1):
        verify_T_column_identities(bd, ops.t, w)
        verify_G_properties(bd, ops.hs, ops.t, g, w)
        verify_chain_maps(bc, ops.b, w)
        for i in range(bd.n + 1):
            verify_block_structure(ops, i, w)
    monkeypatch.undo()

    def times(left, right):
        return sum(a is left and b is right for a, b in formed)

    for w in range(bd.w_max + 1):
        for i in range(bd.n + 1):
            assert times(bd.d_V(i, w).mat, bc.A(i, w).mat) == 1
            if i >= 1:
                assert times(bd.d_V(i - 1, w).mat, g.column(i, w).mat) == 1


def test_G_properties_all(hess_ops):
    for w in range(WMAX + 1):
        assert verify_G_properties(hess_ops.bd, hess_ops.hs, hess_ops.t,
                                   hess_ops.g, w) == []


def test_chain_maps_identities(hess_ops):
    for w in range(WMAX + 1):
        assert verify_chain_maps(hess_ops.bc, hess_ops.b, w) == []


def _bump_memo(holder, method, at, i=1, w=4):
    """Add 1 at entry ``at`` (a function of the matrix) of a memoized column."""
    col = method(holder, i, w)
    bump = SparseMat(col.mat.rows, col.mat.cols, {at(col.mat): 1})
    holder.__dict__["_memo"][(method.__wrapped__, i, w)] = \
        LinMap(col.dom, col.cod, col.mat + bump)


# where the oracle locates a bump of each operator's first entry at (1, 4)
BUMP_FOUND_AT = {"G block": (1, 0, 0, 0), "A block": (1, 1, 0, 1),
                 "B block": (1, 0, 0, 3), "D block": (1, 1, 0, 0),
                 "dVA block": (1, 1, 0, 3), "F block": (0, 0, 0, 0)}


@pytest.mark.parametrize("owner, method, tag", [
    ("g", GOps.column, "G block"), ("bc", BGGComplex.A, "A block"),
    ("b", BOps.column, "B block"), ("bc", BGGComplex.D, "D block"),
    ("bc", BGGComplex.dVA, "dVA block"), ("bd", BuiltDiagram.F, "F block")])
def test_block_structure_reports_a_changed_entry(owner, method, tag):
    # add 1 to the first entry of a memoized column; the oracle must name
    # exactly that block and entry, and nothing else
    ops = derive(build(catalog.get("conf-hessian-3d").spec, 4))
    _bump_memo(getattr(ops, owner), method, lambda m: min(m.num))
    assert [c.line() for c in verify_block_structure(ops, 1, 4)] == \
        [f"[FAIL] {tag}  w=4 i=1 at entry {BUMP_FOUND_AT[tag]}"]


def test_block_structure_reports_an_F_entry_that_B_kills():
    # F's last diagonal entry lies in ker B, so only the direct comparison
    # of F with I + sum_m K^m / m! sees a change there
    ops = derive(build(catalog.get("conf-hessian-3d").spec, 4))
    _bump_memo(ops.bd, BuiltDiagram.F, lambda m: max(m.num))
    assert [c.line() for c in verify_block_structure(ops, 1, 4)] == \
        ["[FAIL] F block  w=4 i=1 at entry (2, 2, 8, 8)"]


def test_block_structure_reports_a_term_below_the_last_row():
    # an entry in T's last block column maps row N past the last row; the
    # T-chain steps it on, so every series built on it leaves its diagonal.
    # G and B are lifted from T's constants, not from its lift, so they keep
    # their blocks, and only the shifts fail
    ops = derive(build(catalog.get("conf-hessian-3d").spec, 4))
    _bump_memo(ops.t, TOps.column, lambda m: (0, m.cols - 1))
    assert [c.line() for c in verify_block_structure(ops, 1, 4)] == [
        f"[FAIL] {tag}  w=4 i=1 at entry {at}" for tag, at in [
            ("G shift", (0, 2)), ("G shift", (1, 1)), ("G shift", (2, 0)),
            ("B shift", (1, 3)), ("B shift", (2, 2))]]


def test_block_structure_reports_a_changed_G_with_a_term_below_the_last_row():
    # G is bumped at its first entry, and T at its last column: every column
    # of the T-chain leaves its diagonal, and G's column 0 is compared with
    # its terms before that, so the bump is found at its own entry
    ops = derive(build(catalog.get("conf-hessian-3d").spec, 4))
    _bump_memo(ops.g, GOps.column, lambda m: min(m.num))
    _bump_memo(ops.t, TOps.column, lambda m: (0, m.cols - 1))
    assert [c.line() for c in verify_block_structure(ops, 1, 4)] == [
        f"[FAIL] {tag}  w=4 i=1 at entry {at}" for tag, at in [
            ("G shift", (0, 2)), ("G shift", (1, 1)), ("G shift", (2, 0)),
            ("G block", (1, 0, 0, 0)),
            ("B shift", (1, 3)), ("B shift", (2, 2))]]


@pytest.mark.parametrize("name", catalog.names())
def test_passing_block_structure_splits_nothing(name, monkeypatch):
    # an operator equal to the sum of its terms is never split into blocks
    ops = derive(build(catalog.get(name).spec, 4))
    split = []
    monkeypatch.setattr(bgg, "blocks", lambda *args: split.append(args) or blocks(*args))
    for w in range(5):
        for i in range(ops.bd.n + 1):
            assert verify_block_structure(ops, i, w) == [], (w, i)
    assert split == []


@pytest.mark.parametrize("name", catalog.names())
def test_block_structure_every_catalog_diagram(name):
    ops = derive(build(catalog.get(name).spec, 4))
    for w in range(5):
        for i in range(ops.bd.n + 1):
            assert verify_block_structure(ops, i, w) == [], (w, i)


def translation(n, dom, cod, i, w, l, fiber):
    """d/dx^l from dom, a row-keyed column at index i and weight w + 1, to cod,
    the same column at weight w: d/dx^l (x) I on each row block j, whose
    constants have size fiber(j)."""
    return band({j: (_diff_scalar(n, w + 1 - i - j, l), SparseMat.identity(fiber(j)))
                 for j, _ in dom.parts}, dom, cod)


@pytest.mark.parametrize("name", ["conf-hessian-3d", "conf-deformation-3d", "mobius-2d",
                                  "elasticity-3d", "plate-2d"])
def test_translations_commute_with_d_V_and_D(name):
    # d_V, D, T, G, A and B are translation invariant: each commutes with
    # every d/dx^l at every (i, w < 6).  K is the control: [d/dx^l, K] =
    # I (x) kappa_l, which is nonzero wherever K is
    ops = derive(build(catalog.get(name).spec, 6))
    bd, bc, n = ops.bd, ops.bc, ops.bd.n

    def ambient(i):
        return lambda j: len(form_indices(n, i)) * bd.spec.rows[j].dim

    def harmonic(i):
        return lambda j: ops.hs.ups[i][j].cols if i <= n else 0

    for w in range(6):
        for i in range(n + 1):
            k_gaps = []
            for l in range(1, n + 1):
                def amb(k):
                    return translation(n, bd.column(k, w + 1), bd.column(k, w), k, w, l,
                                       ambient(k))

                def harm(k):
                    return translation(n, bc.ups_space(k, w + 1), bc.ups_space(k, w), k, w,
                                       l, harmonic(k))

                # each operator with the translations on its codomain and domain
                for op, left, right in ((bd.d_V, amb(i + 1), amb(i)),
                                        (bc.D, harm(i + 1), harm(i)),
                                        (ops.t.column, amb(i - 1), amb(i)),
                                        (ops.g.column, amb(i - 1), amb(i)),
                                        (bc.A, amb(i), harm(i)),
                                        (ops.b.column, harm(i), amb(i))):
                    assert left @ op(i, w + 1).mat == op(i, w).mat @ right, \
                        (op.__name__, w, i, l)
                d_i = amb(i)
                gap = d_i @ bd.K(i, w + 1).mat - bd.K(i, w).mat @ d_i
                kappa_l = {j: bd._K_consts(i, j)[l - 1] for j in range(1, bd.N + 1)}
                assert gap == lift_column(bd, kappa_l, i, w + 1, bd.column(i, w + 1),
                                          bd.column(i, w), shift=-1), (w, i, l)
                k_gaps.append(gap)
            assert all(g.is_zero() for g in k_gaps) == bd.K(i, w + 1).is_zero(), (w, i)


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_G_A_B_equal_their_product_series(name):
    # each symbol lift equals its series summed by products at one weight:
    # G = -sum_k (T d)^k T, A = sum_k (T d)^k iota and B = pi sum_k (d T)^k,
    # from the T lifts, d, iota and pi
    ops = derived_to_6(name)
    bd, bc = ops.bd, ops.bc
    for w in range(7):
        for i in range(bd.n + 2):
            t_i, t_next = ops.t.column(i, w).mat, ops.t.column(i + 1, w).mat
            d_prev, d_i = bd.d(i - 1, w).mat, bd.d(i, w).mat
            for op, first, step in (
                    (ops.g.column, -t_i, lambda x: t_i @ (d_prev @ x)),
                    (bc.A, bc.inclusion(i, w).mat, lambda x: t_next @ (d_i @ x)),
                    (ops.b.column, bc.projection(i, w).mat, lambda x: (x @ d_prev) @ t_i)):
                terms = nilpotent_terms(first, step, bd.N + 1)
                assert op(i, w).mat == sum(terms[1:], terms[0]), (op.__name__, w, i)


def _bumped_symbol(method, i, key, alpha):
    """The memoized symbol ``method`` with 1 added to the first entry of
    sigma_alpha in block key of its symbol at column i."""
    def bumped(self, k):
        symbol = method(self, k)
        if k != i:
            return symbol
        sigma = symbol[key][alpha]
        r, c, _ = next(sigma.entries())
        one = SparseMat(sigma.rows, sigma.cols, {(r, c): 1})
        return {**symbol, key: {**symbol[key], alpha: sigma + one}}
    return bumped


def _every_sigma(symbol_of, n):
    """(i, block, alpha) of every nonzero sigma_alpha of symbol_of(i)."""
    return [(i, key, alpha) for i in range(n + 2)
            for key, terms in symbol_of(i).items() for alpha in terms]


BUMP_SWEEP = "conf-deformation-3d"


def test_a_bumped_A_symbol_fails_compute_D(monkeypatch):
    # each sigma_alpha of A, bumped at its first entry, breaks dVA=AD or DD=0
    bd = build(catalog.get(BUMP_SWEEP).spec, 5)
    hs = hodge_split(bd)
    t = compute_T(bd, hs)
    g = GOps(bd, t)
    sigmas = _every_sigma(compute_D(bd, hs, t, g).A_symbol, bd.n)
    assert any(sum(alpha) for _, _, alpha in sigmas)
    for at in sigmas:
        monkeypatch.setattr(BGGComplex, "A_symbol", _bumped_symbol(BGGComplex.A_symbol, *at))
        with pytest.raises(VerificationError, match="^compute_D: "):
            compute_D(bd, hs, t, g)
        monkeypatch.undo()


def test_a_bumped_G_symbol_fails_the_G_properties(monkeypatch):
    ops = derive(build(catalog.get(BUMP_SWEEP).spec, 5))
    bd = ops.bd
    sigmas = _every_sigma(ops.g.symbol, bd.n)
    assert any(sum(alpha) for _, _, alpha in sigmas)
    for at in sigmas:
        monkeypatch.setattr(GOps, "symbol", _bumped_symbol(GOps.symbol, *at))
        g = GOps(bd, ops.t)
        assert any(verify_G_properties(bd, ops.hs, ops.t, g, w)
                   for w in range(bd.w_max + 1)), at
        monkeypatch.undo()


def test_a_bumped_B_symbol_fails_the_chain_maps(monkeypatch):
    ops = derive(build(catalog.get(BUMP_SWEEP).spec, 5))
    bd = ops.bd
    sigmas = _every_sigma(ops.b.symbol, bd.n)
    assert any(sum(alpha) for _, _, alpha in sigmas)
    for at in sigmas:
        monkeypatch.setattr(BOps, "symbol", _bumped_symbol(BOps.symbol, *at))
        b = BOps(ops.bc)
        assert any(verify_chain_maps(ops.bc, b, w) for w in range(bd.w_max + 1)), at
        monkeypatch.undo()


def test_chain_maps_report_a_changed_dVG():
    # the chain-map oracle reads the shared d_V G; a wrong entry must show
    ops = derive(build(catalog.get("conf-hessian-3d").spec, 4))
    col = ops.g.dVG(1, 4)
    bump = SparseMat(col.mat.rows, col.mat.cols, {min(col.mat.num): 1})
    ops.g.__dict__["_memo"][(GOps.dVG.__wrapped__, 1, 4)] = \
        LinMap(col.dom, col.cod, col.mat + bump)
    assert "A B = I - dVG - GdV" in {c.name for c in verify_chain_maps(ops.bc, ops.b, 4)}


def dev_hess_oracle(w):
    """dev(hess u) on homogeneous scalars of degree w, assembled by direct
    differentiation into the ambient (1-form, vector-valued) block basis."""
    src = monomials(3, w)
    tgt = {m: k for k, m in enumerate(monomials(3, w - 2))}
    rows = len(tgt) * 9
    cols = len(src)
    ent = {}
    for col, alpha in enumerate(src):
        u = poly_monomial(alpha)
        hess = [[poly_diff(poly_diff(u, r), l) for l in range(3)] for r in range(3)]
        trace = {}
        for k in range(3):
            for key, v in hess[k][k].items():
                trace[key] = trace.get(key, F(0)) + v
        for r in range(3):
            for l in range(3):
                entry = dict(hess[r][l])
                if r == l:
                    for key, v in trace.items():
                        entry[key] = entry.get(key, F(0)) - v / 3
                for beta, v in entry.items():
                    if v != 0:
                        row = tgt[beta] * 9 + l * 3 + r
                        ent[(row, col)] = ent.get((row, col), F(0)) + v
    return SparseMat(rows, cols, {k: v for k, v in ent.items() if v != 0})


@pytest.mark.parametrize("w", [2, 3, 4, 5])
def test_D0_is_dev_hess(hess_ops, w):
    bc = hess_ops.bc
    d0 = bc.D(0, w)
    emb = bc.inclusion(1, w).mat @ d0.mat
    # ambient image lives in the middle row: extract those rows
    col = hess_ops.bd.column(1, w)
    off = col.offset(1)
    dim = col.space(1).dim
    ambient = SparseMat(dim, emb.cols,
                        {(r - off, c): v for (r, c), v in emb.data.items()
                         if off <= r < off + dim})
    # domain coordinates are scalar monomials (harmonic basis is the unit)
    assert ambient == dev_hess_oracle(w)


def nth_derivative_oracle(order, w):
    """The (order+1)-st coordinate derivative of a degree-w monomial, in the
    ambient basis of 1-forms valued in symmetric tensors."""
    from bggkit.catalog import _sym_indices
    src = monomials(3, w)
    p_out = w - order - 1
    tgt = {m: k for k, m in enumerate(monomials(3, p_out))}
    syms = _sym_indices(order)
    rows = len(tgt) * 3 * len(syms)
    ent = {}
    for col, alpha in enumerate(src):
        u = poly_monomial(alpha)
        for spos, m in enumerate(syms):
            for l in (1, 2, 3):
                q = u
                for axis in (l,) + m:
                    q = poly_diff(q, axis - 1)
                for beta, v in q.items():
                    if v != 0:
                        row = (tgt[beta] * 3 + (l - 1)) * len(syms) + spos
                        ent[(row, col)] = v
    return SparseMat(rows, len(src), ent)


@pytest.mark.parametrize("order,w", [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4)])
def test_D0_higher_hessian_is_nth_derivative(order, w):
    bd = build(catalog.get(f"higher-hessian-3d({order})").spec, w)
    ops = derive(bd)
    d0 = ops.bc.D(0, w)
    emb = ops.bc.inclusion(1, w).mat @ d0.mat
    col = bd.column(1, w)
    off = col.offset(order)
    dim = col.space(order).dim
    ambient = SparseMat(dim, emb.cols,
                        {(r - off, c): v for (r, c), v in emb.data.items()
                         if off <= r < off + dim})
    assert ambient == nth_derivative_oracle(order, w)
    # nothing lands outside the bottom row
    assert len(emb.data) == len(ambient.data)


def test_two_row_case_reductions(elas_ops):
    """With the usual injectivity/surjectivity pattern the derived operator
    collapses: first P_perp d, then d T d with no projection, then d."""
    bd, bc, t, hs = elas_ops.bd, elas_ops.bc, elas_ops.t, elas_ops.hs
    for w in range(1, 5):
        # index 0: embedded derived operator equals P_perp d iota, P_perp = I - P_ran
        iota0 = bc.inclusion(0, w).mat
        emb = bc.inclusion(1, w).mat @ bc.D(0, w).mat
        col1 = bd.column(1, w)
        want = lift_column(bd, hs.p_perp[1], 1, w, col1, col1) @ (bd.d(0, w).mat @ iota0)
        assert emb == want

        # index 1: d T d with the kernel projection provably redundant
        iota1 = bc.inclusion(1, w).mat
        emb1 = bc.inclusion(2, w).mat @ bc.D(1, w).mat
        want1 = bd.d(1, w).mat @ (t.column(2, w).mat @ (bd.d(1, w).mat @ iota1))
        assert emb1 == want1

        # index 2: plain d on the bottom row
        iota2 = bc.inclusion(2, w).mat
        emb2 = bc.inclusion(3, w).mat @ bc.D(2, w).mat
        want2 = bd.d(2, w).mat @ iota2
        assert emb2 == want2


def test_plate_case_reductions():
    ops = derive(build(catalog.get("plate-2d").spec, 4))
    bd, bc, t = ops.bd, ops.bc, ops.t
    for w in range(1, 5):
        # index 0 is the bijective-middle case: d T d, no projection needed
        iota0 = bc.inclusion(0, w).mat
        emb = bc.inclusion(1, w).mat @ bc.D(0, w).mat
        want = bd.d(0, w).mat @ (t.column(1, w).mat @ (bd.d(0, w).mat @ iota0))
        assert emb == want
        # index 1 is the all-surjective case: plain d
        iota1 = bc.inclusion(1, w).mat
        emb1 = bc.inclusion(2, w).mat @ bc.D(1, w).mat
        assert emb1 == bd.d(1, w).mat @ iota1


def test_bgg_cohomology_conf_hessian(hess_ops):
    dims = bgg_cohomology(hess_ops.bc)
    h0 = {w: dims[(0, w)] for w in range(WMAX + 1)}
    assert h0 == {0: 1, 1: 3, 2: 1, 3: 0, 4: 0, 5: 0}
    assert sum(h0.values()) == 5
    assert all(v == 0 for (i, w), v in dims.items() if i > 0)


def test_bgg_cohomology_elasticity_and_kernel_witness(elas_ops):
    dims = bgg_cohomology(elas_ops.bc)
    total = sum(v for (i, w), v in dims.items() if i == 0)
    assert total == 6
    bd = elas_ops.bd
    # weight-1 kernel of the twisted differential is spanned by the
    # transported row-1 constants: fields (b wedge x, b)
    dv0 = bd.d_V(0, 1)
    ker = nullspace(dv0.mat).columns()
    assert len(ker) == 3
    col = bd.column(0, 1)
    f = bd.F(0, 1).mat
    transported = []
    off1 = col.offset(1)
    for k in range(3):
        vec = [F(0)] * col.dim
        vec[off1 + k] = F(1)
        transported.append(f.apply(vec).columns()[0])
    kmat = SparseMat.from_columns(ker, col.dim)
    tmat = SparseMat.from_columns(transported, col.dim)
    both = SparseMat.from_columns([c for c in kmat.columns()] +
                                  [c for c in tmat.columns()], col.dim)
    assert rank(kmat) == rank(tmat) == rank(both) == 3
    # explicit form: u = x cross b (coefficients of b wedge x), omega = b
    b3 = [F(0), F(0), F(1)]
    vec = [F(0)] * col.dim
    vec[off1 + 2] = F(1)
    out = f.apply(vec).columns()[0]
    blk = bd.block(0, 0, 1)
    labels = list(blk.basis())
    u_part = out[:blk.dim]
    expect = {}
    # u = -(e3 cross x) = (x2, -x1, 0)? fix orientation from the kappa data:
    # u_j = sum_l x^l mskw(b)_{l j}; for b = e3: u = (x^2*(-1)... compute:
    # mskw(e3) = [[0,-1,0],[1,0,0],[0,0,0]]: u_j = sum_l x^l M_{lj}
    # u_1 = x^2, u_2 = -x^1, u_3 = 0
    for k, (alpha, idx, lab) in enumerate(labels):
        val = F(0)
        if alpha == (0, 1, 0) and lab == "u1":
            val = F(1)
        if alpha == (1, 0, 0) and lab == "u2":
            val = F(-1)
        assert u_part[k] == val


def test_bgg_cohomology_mobius(mob_ops):
    dims = bgg_cohomology(mob_ops.bc)
    assert sum(v for (i, w), v in dims.items() if i == 0) == 6
    assert all(v == 0 for (i, w), v in dims.items() if i > 0)


def test_sum_space_locates_every_part(hess_ops):
    # span and offset agree with dims() on every column and harmonic space;
    # blocks splits an identity into exactly its diagonal parts and a matrix
    # with one entry per pair of parts into every pair, a zero-dimensional
    # part yields no block, and the blocks of an operator reassemble it
    bd, bc = hess_ops.bd, hess_ops.bc
    spaces = [sp for w in range(WMAX + 1) for i in range(bd.n + 1)
              for sp in (bd.column(i, w), bc.ups_space(i, w))]
    assert any(0 in sp.dims() for sp in spaces)
    for sp in spaces:
        ends = list(accumulate(sp.dims(), initial=0))
        for k, (key, _part) in enumerate(sp.parts):
            assert sp.span(key) == range(ends[k], ends[k + 1])
            assert sp.offset(key) == ends[k]
        filled = [key for key, part in sp.parts if part.dim]
        assert blocks(SparseMat.identity(sp.dim), sp, sp) == {
            (key, key): SparseMat.identity(sp.space(key).dim) for key in filled}
        corners = SparseMat(sp.dim, sp.dim, {(sp.offset(a), sp.offset(b)): 1
                                             for a in filled for b in filled})
        assert blocks(corners, sp, sp).keys() == {(a, b) for a in filled for b in filled}
    ops = [op for w in range(WMAX + 1) for i in range(bd.n + 1)
           for op in (bd.d(i, w), bd.K(i, w), bc.inclusion(i, w), bc.D(i, w))]
    for op in ops:
        split = blocks(op.mat, op.cod, op.dom)
        assert not any(blk.is_zero() for blk in split.values())
        assert assemble(op.mat.rows, op.mat.cols, [
            (op.cod.offset(jo), op.dom.offset(ji), blk)
            for (jo, ji), blk in split.items()]) == op.mat


def test_block_orders(hess_ops, elas_ops, mob_ops):
    assert [hess_ops.bc.block_orders(i) for i in range(3)] == [[2], [1], [2]]
    assert [elas_ops.bc.block_orders(i) for i in range(3)] == [[1], [2], [1]]
    assert [mob_ops.bc.block_orders(i) for i in range(2)] == [[1, 3], [1, 3]]


def rot35():
    return SparseMat.from_dense([
        [F(3, 5), F(-4, 5), 0],
        [F(4, 5), F(3, 5), 0],
        [0, 0, 1],
    ])


def signed_perm():
    return SparseMat.from_dense([
        [0, 0, -1],
        [1, 0, 0],
        [0, -1, 0],
    ])


@pytest.mark.parametrize("matfn", [rot35, signed_perm])
def test_equivariance_conf_hessian(hess_ops, matfn):
    bd, bc = hess_ops.bd, hess_ops.bc
    entry = catalog.get("conf-hessian-3d")
    a = matfn()
    actions = entry.value_actions(a)
    for w in range(4):
        for i in range(3):
            phi_i = pullback_column(bd, a, actions, i, w)
            phi_next = pullback_column(bd, a, actions, i + 1, w)
            assert (phi_next.mat @ bd.d(i, w).mat) == (bd.d(i, w).mat @ phi_i.mat)
            assert (phi_next.mat @ bd.S(i, w).mat) == (bd.S(i, w).mat @ phi_i.mat)
            assert (phi_next.mat @ bd.d_V(i, w).mat) == (bd.d_V(i, w).mat @ phi_i.mat)
            psi_i = pullback_on_harmonics(bc, a, actions, i, w)
            psi_next = pullback_on_harmonics(bc, a, actions, i + 1, w)
            assert (psi_next.mat @ bc.D(i, w).mat) == (bc.D(i, w).mat @ psi_i.mat)


def test_pullback_on_harmonics_rejects_a_non_invariant_map(hess_ops):
    # a shear is not conformal: its pullback leaves the harmonic space,
    # first at weight 2 on form degree 1, and the induced action is refused
    a = SparseMat.from_dense([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    actions = catalog.get("conf-hessian-3d").value_actions(a)
    leaves = []
    for w in range(5):
        for i in range(4):
            try:
                pullback_on_harmonics(hess_ops.bc, a, actions, i, w)
            except LinAlgError:
                leaves.append((i, w))
    assert leaves == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]


def test_derive_reports_every_hodge_split_failure(broken_conf_deformation):
    with pytest.raises(VerificationError) as info:
        derive(broken_conf_deformation)
    report = info.value.report
    # five certificates per constant block (i, j), i <= 3, j <= 2
    assert len(report.checks) == 5 * 4 * 3
    # constant-level checks carry no weight; the location is (j, entry)
    assert [(c.name, c.weight, c.index, c.where) for c in report.failures()] == [
        ("split=I", None, 1, (1, 1, 1)), ("Pran Pkerp=0", None, 1, (1, 1, 1)),
        ("split=I", None, 2, (1, 0, 0)), ("Pran Pkerp=0", None, 2, (1, 0, 0))]
    assert str(info.value).startswith("hodge_split: 4 of 60 checks failed")
