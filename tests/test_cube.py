import random
from fractions import Fraction
from math import comb

import pytest

from bggkit import catalog, cube
from bggkit.cube import embed, mono_cube_gram, stacked_cube_gram, stacked_map
from bggkit.diagram import InputError, build
from bggkit.energy import p_mono, random_field
from bggkit.forms import monomials
from bggkit.korn import korn2d_experiment
from bggkit.linalg import LinAlgError, SparseMat, nullspace, take_cols, take_rows

from oracles import bareiss_det, cube_integral, poly_mul

F = Fraction


def stacked_d_v(bd, weights):
    """d_V from column 0 to column 1, stacked over weights."""
    return stacked_map({w: bd.d_V(0, w) for w in weights})


def test_mono_gram_values():
    g = mono_cube_gram(2, 1, 2)
    # <x1, x1^2> = 1/4; <x1, x1 x2> = 1/3 * 1/2
    rows = monomials(2, 1)
    cols = monomials(2, 2)
    assert g.get(rows.index((1, 0)), cols.index((2, 0))) == F(1, 4)
    assert g.get(rows.index((1, 0)), cols.index((1, 1))) == F(1, 6)


def test_mono_gram_matches_fraction_products():
    # x^s integrates over [lo, hi] to (hi^(s+1) - lo^(s+1)) / (s+1)
    for centered, (lo, hi) in ((False, (F(0), F(1))), (True, (F(-1, 2), F(1, 2)))):
        for n in range(1, 4):
            for p in range(6):
                for q in range(6):
                    want = {}
                    for r, alpha in enumerate(monomials(n, p)):
                        for c, beta in enumerate(monomials(n, q)):
                            v = F(1)
                            for s in (a + b for a, b in zip(alpha, beta)):
                                v *= (hi ** (s + 1) - lo ** (s + 1)) / (s + 1)
                            if v:
                                want[(r, c)] = v
                    assert mono_cube_gram(n, p, q, centered).data == want, (centered, n, p, q)


def _shift_to_unit(space, n):
    """Row-0 coordinates of a stacked space of 0-forms, and the matrix T on
    them that expands each centered monomial (y - 1/2)^alpha in y."""
    idx, at = [], {}
    for w, col in space.parts:
        monos = monomials(n, w)
        dimc = col.space(0).dim // len(monos)
        for m, alpha in enumerate(monos):
            for c in range(dimc):
                at[(alpha, c)] = len(idx)
                idx.append(space.offset(w) + col.offset(0) + m * dimc + c)
    t = {}
    for (alpha, c), j in at.items():
        poly = {(0,) * n: F(1)}
        for k, a in enumerate(alpha):
            poly = poly_mul(poly, {tuple(b if kk == k else 0 for kk in range(n)):
                                   comb(a, b) * F(-1, 2) ** (a - b) for b in range(a + 1)})
        for beta, v in poly.items():
            t[(at[(beta, c)], j)] = v
    return idx, SparseMat(len(idx), len(idx), t)


def test_centered_stacked_gram_is_the_shifted_unit_gram():
    bd = build(catalog.get("mobius-2d").spec, 5)
    for r in range(6):
        space = stacked_d_v(bd, range(r + 1)).dom
        idx, t = _shift_to_unit(space, bd.n)
        unit, centered = (stacked_cube_gram(bd, space, 0, centered=c) for c in (False, True))
        row_0 = [take_cols(take_rows(g, idx), idx) for g in (unit, centered)]
        assert row_0[1] == t.transpose() @ row_0[0] @ t, r
        assert row_0[1].nnz < row_0[0].nnz or r == 0


def test_cube_gram_is_spd():
    # Sylvester's criterion: symmetric with every leading principal minor positive
    g = mono_cube_gram(3, 2, 2)
    assert g == g.transpose()
    dense = g.to_dense()
    for k in range(1, g.rows + 1):
        assert bareiss_det([row[:k] for row in dense[:k]]) > 0


def test_stacked_gram_matches_direct_integrals():
    # pair two scalar fields through the stacked Gram and compare against
    # the direct product-integral over the unit cube
    bd = build(catalog.get("plate-2d").spec, 4)
    space = stacked_d_v(bd, range(5)).dom
    rng = random.Random(3)
    f = random_field(rng, 2, 1, 3)
    g = random_field(rng, 2, 1, 3)
    vf = embed(bd, space, [f])
    vg = embed(bd, space, [g])
    gram = stacked_cube_gram(bd, space, 0)
    gv = gram.apply(vg).columns()[0]
    paired = sum((a * b for a, b in zip(vf, gv)), F(0))
    assert paired == cube_integral(poly_mul(f[0], g[0]), 2)


def test_stacked_gram_rejects_a_metric_of_the_wrong_size():
    # row 1 of the plate's 0-forms holds 2-dimensional constants
    bd = build(catalog.get("plate-2d").spec, 2)
    space = stacked_d_v(bd, range(3)).dom
    assert stacked_cube_gram(bd, space, 0, {1: SparseMat.identity(2)}).rows == 12
    with pytest.raises(LinAlgError, match="row 1 has constant dimension 2, but its metric is 3x3"):
        stacked_cube_gram(bd, space, 0, {1: SparseMat.identity(3)})


def test_stacked_map_applies_per_weight():
    bd = build(catalog.get("plate-2d").spec, 3)
    dv = stacked_d_v(bd, range(4))
    assert [(w, col) for w, col in dv.dom.parts] == [(w, bd.column(0, w)) for w in range(4)]
    assert [(w, col) for w, col in dv.cod.parts] == [(w, bd.column(1, w)) for w in range(4)]
    # kernel of the stacked map = total degree-zero cohomology = 3
    assert nullspace(dv.mat).cols == 3


def test_embed_rejects_a_weight_beyond_the_stack():
    # a degree beyond the built weight range must not be silently truncated
    bd = build(catalog.get("elasticity-3d").spec, 2)
    dom = stacked_d_v(bd, range(3)).dom
    high = [p_mono((4, 0, 0)), {}, {}]
    with pytest.raises(InputError, match="weight 4"):
        embed(bd, dom, [high])


def test_embed_rejects_a_row_with_the_wrong_component_count():
    bd = build(catalog.get("elasticity-3d").spec, 2)
    dom = stacked_d_v(bd, range(3)).dom
    with pytest.raises(InputError, match="row 1 expects 3 components"):
        embed(bd, dom, [[{}, {}, {}], [{}, {}]])


def test_centered_gram_looks_up_no_odd_pairing(monkeypatch):
    # over [-1/2,1/2]^n a pairing of degrees p and q vanishes when p + q is odd
    keys = []
    lookup = cube.mono_cube_gram
    monkeypatch.setattr(cube, "mono_cube_gram",
                        lambda n, p, q, centered=False: keys.append((p, q, centered))
                        or lookup(n, p, q, centered))
    korn2d_experiment(6)
    centered = [(p, q) for p, q, c in keys if c]
    assert centered and all((p + q) % 2 == 0 for p, q in centered)
