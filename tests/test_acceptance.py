"""Acceptance suite: every criterion at its stated tolerance.

All algebraic criteria are exact (tolerance zero, rational arithmetic); the
spectral experiment additionally requires its floating-point smallest
singular value to exceed 1e-10.  Each criterion prints one pass/fail line;
run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from bggkit import catalog
from bggkit.bgg import (
    bgg_cohomology,
    derive,
    pullback_column,
    pullback_on_harmonics,
    verify_G_properties,
    verify_T_column_identities,
    verify_block_structure,
    verify_chain_maps,
)
from bggkit.diagram import build, twisted_cohomology, verify_identities
from bggkit.energy import EnergyParams, cosserat_energy, p_mono, random_field
from bggkit.forms import monomials
from bggkit.korn import korn2d_experiment
from bggkit.linalg import SparseMat, nullspace, rank

from oracles import poly_diff, poly_monomial

F = Fraction
WMAX = 8

SUITE = ["conf-hessian-3d", "conf-deformation-3d", "higher-hessian-3d(2)",
         "mobius-2d", "elasticity-3d"]
H0_EXPECTED = {
    "conf-hessian-3d": 5,
    "conf-deformation-3d": 10,
    "higher-hessian-3d(1)": comb(4, 3),
    "higher-hessian-3d(2)": comb(5, 3),
    "higher-hessian-3d(3)": comb(6, 3),
    "higher-hessian-3d(4)": comb(7, 3),
    "mobius-2d": 6,
    "elasticity-3d": 6,
}


def report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def pipelines():
    out = {}
    for name in SUITE:
        bd = build(catalog.get(name).spec, WMAX)
        out[name] = derive(bd)
    return out


def test_criterion_1_identity_suite(pipelines):
    t0 = time.time()
    ok = True
    for name in SUITE:
        ops = pipelines[name]
        bd = ops.bd
        rep = verify_identities(bd)
        if not rep.ok:
            print(rep.summary())
            ok = False
        for w in range(WMAX + 1):
            if verify_T_column_identities(bd, ops.t, w):
                ok = False
            if verify_G_properties(bd, ops.hs, ops.t, ops.g, w):
                ok = False
            if verify_chain_maps(ops.bc, ops.b, w):
                ok = False
        # D D = 0 and d_V A = A D are certified during derivation (compute_D
        # raises on failure); re-check D D = 0 explicitly here
        for w in range(WMAX + 1):
            for i in range(bd.n):
                if not (ops.bc.D(i + 1, w) @ ops.bc.D(i, w)).is_zero():
                    ok = False
    elapsed = time.time() - t0
    print(f"  identity suite elapsed: {elapsed:.1f}s")
    report(1, "exact identity suite, five diagrams, weights <= 8", ok)


def test_criterion_2_cohomology_chain(pipelines):
    ok = True
    extra = {f"higher-hessian-3d({k})": derive(
        build(catalog.get(f"higher-hessian-3d({k})").spec, WMAX))
        for k in (1, 3, 4)}
    all_ops = {**pipelines, **extra}
    for name, ops in all_ops.items():
        bd = ops.bd
        # chain equality is asserted inside both cohomology routines
        twisted = twisted_cohomology(bd)
        derived = bgg_cohomology(ops.bc)
        if twisted != derived:
            ok = False
        # higher cohomology vanishes everywhere; degree-zero classes are the
        # transported row constants (row weight zero), one block per row
        for (i, w), h in derived.items():
            if i > 0 and h != 0:
                ok = False
            if i == 0:
                want = bd.spec.rows[w].dim if w <= bd.N else 0
                if h != want:
                    ok = False
        total = sum(h for (i, w), h in derived.items() if i == 0)
        if total != H0_EXPECTED[name]:
            print(f"  {name}: total H^0 {total} != {H0_EXPECTED[name]}")
            ok = False
    report(2, "cohomology chain: derived = twisted = row sums", ok)


def dev_hess_ambient(w):
    src = monomials(3, w)
    tgt = {m: k for k, m in enumerate(monomials(3, w - 2))}
    ent = {}
    for col, alpha in enumerate(src):
        u = poly_monomial(alpha)
        hess = [[poly_diff(poly_diff(u, r), l) for l in range(3)] for r in range(3)]
        tr = {}
        for k in range(3):
            for key, v in hess[k][k].items():
                tr[key] = tr.get(key, F(0)) + v
        for r in range(3):
            for l in range(3):
                entry = dict(hess[r][l])
                if r == l:
                    for key, v in tr.items():
                        entry[key] = entry.get(key, F(0)) - v / 3
                for beta, v in entry.items():
                    if v != 0:
                        ent[(tgt[beta] * 9 + l * 3 + r, col)] = v
    return SparseMat(len(tgt) * 9, len(src), ent)


def test_criterion_3_operator_identification(pipelines):
    ok = True
    hess = pipelines["conf-hessian-3d"]
    for w in range(WMAX + 1):
        emb = hess.bc.inclusion(1, w).mat @ hess.bc.D(0, w).mat
        col = hess.bd.column(1, w)
        off, dim = col.offset(1), col.space(1).dim
        ambient = SparseMat(dim, emb.cols,
                            {(r - off, c): v for (r, c), v in emb.data.items()
                             if off <= r < off + dim})
        if ambient != dev_hess_ambient(w) or len(emb.data) != len(ambient.data):
            ok = False
    from bggkit.catalog import _sym_indices
    for order in (1, 2, 3):
        ops = derive(build(catalog.get(f"higher-hessian-3d({order})").spec, WMAX))
        syms = _sym_indices(order)
        for w in range(WMAX + 1):
            emb = ops.bc.inclusion(1, w).mat @ ops.bc.D(0, w).mat
            col = ops.bd.column(1, w)
            off, dim = col.offset(order), col.space(order).dim
            ambient = SparseMat(dim, emb.cols,
                                {(r - off, c): v for (r, c), v in emb.data.items()
                                 if off <= r < off + dim})
            src = monomials(3, w)
            tgt = {m: k for k, m in enumerate(monomials(3, w - order - 1))}
            ent = {}
            for cidx, alpha in enumerate(src):
                for spos, m in enumerate(syms):
                    for l in (1, 2, 3):
                        q = poly_monomial(alpha)
                        for axis in (l,) + m:
                            q = poly_diff(q, axis - 1)
                        for beta, v in q.items():
                            if v != 0:
                                row = (tgt[beta] * 3 + (l - 1)) * len(syms) + spos
                                ent[(row, cidx)] = v
            oracle = SparseMat(len(tgt) * 3 * len(syms), len(src), ent)
            if ambient != oracle or len(emb.data) != len(ambient.data):
                ok = False
    report(3, "derived operators equal directly assembled high-order maps", ok)


def test_criterion_4_block_structure(pipelines):
    ok = True
    three_rows = ["conf-hessian-3d", "conf-deformation-3d", "mobius-2d",
                  "higher-hessian-3d(2)"]
    for name in three_rows:
        ops = pipelines[name]
        for w in range(WMAX + 1):
            for i in range(ops.bd.n + 1):
                fails = verify_block_structure(ops, i, w)
                if fails:
                    print(f"  {name}: {fails[:3]}")
                    ok = False
    report(4, "triangular block forms of G, B, A, dVA, D, F", ok)


def test_criterion_5_kernel_witnesses(pipelines):
    ok = True
    # rigid-motion pattern: kernel of the first twisted differential is
    # spanned by transported constants (a, 0) and (b wedge x, b)
    bd = pipelines["elasticity-3d"].bd
    for w, want in ((0, 3), (1, 3)):
        ker = nullspace(bd.d_V(0, w).mat).columns()
        if len(ker) != want:
            ok = False
        col = bd.column(0, w)
        f = bd.F(0, w).mat
        basis = []
        for j in (0, 1):
            blk = bd.block(0, j, w)
            if blk.p != 0:
                continue
            off = col.offset(j)
            for k in range(blk.dim):
                vec = [F(0)] * col.dim
                vec[off + k] = F(1)
                basis.append(f.apply(vec).columns()[0])
        kmat = SparseMat.from_columns(ker, col.dim)
        tmat = SparseMat.from_columns(basis, col.dim)
        joint = SparseMat.from_columns(kmat.columns() + tmat.columns(), col.dim)
        if not (rank(kmat) == rank(tmat) == rank(joint) == want):
            ok = False
    total = sum(v for (i, w), v in bgg_cohomology(pipelines["elasticity-3d"].bc).items()
                if i == 0)
    if total != 6:
        ok = False
    mob_total = sum(v for (i, w), v in bgg_cohomology(pipelines["mobius-2d"].bc).items()
                    if i == 0)
    if mob_total != 6:
        ok = False
    rows = korn2d_experiment(8)
    for row in rows:
        if row.first_order_kernel_dim != 2 * (row.degree + 1):
            ok = False
        if row.kernel_dim != 6:
            ok = False
    report(5, "kernel witnesses: rigid motions, planar kernels", ok)


def test_criterion_6_energy_identity():
    ok = True
    x_field = [p_mono((1, 0, 0)), p_mono((0, 1, 0)), p_mono((0, 0, 1))]
    zero3 = [{}, {}, {}]
    ones = EnergyParams.of(1, 1, 1, 1, 1, 1)
    if cosserat_energy(x_field, zero3, ones) != F(15, 2):
        ok = False
    c = [p_mono((0, 0, 0), 1), p_mono((0, 0, 0), -2), p_mono((0, 0, 0), F(1, 2))]
    if cosserat_energy(zero3, c, ones) != 2 * (1 + 4 + F(1, 4)):
        ok = False
    rng = random.Random(20240)
    param_sets = [
        EnergyParams.of(1, 1, 1, 1, 1, 1),
        EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2),
        EnergyParams.of(1, 0, 2, F(3, 2), 0, 1),
    ]
    count = 0
    for params in param_sets:
        for _ in range(50):
            u = random_field(rng, 3, 3, 1)
            omega = random_field(rng, 3, 3, 1)
            cosserat_energy(u, omega, params)  # raises on mismatch
            count += 1
    report(6, f"strain-energy identity, {count} seeded fields, 3 parameter sets", ok)


def signed_permutations():
    # a reflection, a transposition and a 3-cycle with signs
    return [
        SparseMat.from_dense([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        SparseMat.from_dense([[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
        SparseMat.from_dense([[0, 0, -1], [1, 0, 0], [0, -1, 0]]),
    ]


def test_criterion_7_equivariance(pipelines):
    ok = True
    hess = pipelines["conf-hessian-3d"]
    entry = catalog.get("conf-hessian-3d")
    rot = SparseMat.from_dense([
        [F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]])
    for a in signed_permutations() + [rot]:
        actions = entry.value_actions(a)
        for w in range(7):
            for i in range(3):
                phi = pullback_column(hess.bd, a, actions, i, w)
                phi_next = pullback_column(hess.bd, a, actions, i + 1, w)
                for op in (hess.bd.d, hess.bd.S, hess.bd.d_V):
                    if (phi_next.mat @ op(i, w).mat) != (op(i, w).mat @ phi.mat):
                        ok = False
                psi = pullback_on_harmonics(hess.bc, a, actions, i, w)
                psi_next = pullback_on_harmonics(hess.bc, a, actions, i + 1, w)
                dmat = hess.bc.D(i, w).mat
                if (psi_next.mat @ dmat) != (dmat @ psi.mat):
                    ok = False
    report(7, "pullback equivariance of d, S, dV, D at weights <= 6", ok)


def test_criterion_8_spectral_experiment():
    t0 = time.time()
    rows = korn2d_experiment(8)
    elapsed = time.time() - t0
    ok = len(rows) == 6
    for row in rows:
        if row.kernel_dim != 6 or not row.sigma_min > 1e-10:
            ok = False
    print(f"  spectral experiment elapsed: {elapsed:.1f}s")
    ok = ok and elapsed < 60
    report(8, "planar spectral experiment: exact kernels, positive sigma", ok)
