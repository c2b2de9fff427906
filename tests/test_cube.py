import random
from fractions import Fraction

import pytest

from bggkit import catalog
from bggkit.cube import (
    mono_cube_gram,
    stacked_column,
    stacked_cube_gram,
    stacked_map,
)
from bggkit.diagram import build
from bggkit.energy import _embed, random_field
from bggkit.linalg import LinAlgError, SparseMat

from oracles import bareiss_det, cube_integral, poly_mul

F = Fraction


def test_mono_gram_values():
    g = mono_cube_gram(2, 1, 2)
    # <x1, x1^2> = 1/4; <x1, x1 x2> = 1/3 * 1/2
    from bggkit.forms import monomials
    rows = monomials(2, 1)
    cols = monomials(2, 2)
    assert g.get(rows.index((1, 0)), cols.index((2, 0))) == F(1, 4)
    assert g.get(rows.index((1, 0)), cols.index((1, 1))) == F(1, 6)


def test_mono_gram_matches_fraction_products():
    from bggkit.forms import monomials
    for n in range(1, 4):
        for p in range(6):
            for q in range(6):
                want = {}
                for r, alpha in enumerate(monomials(n, p)):
                    for c, beta in enumerate(monomials(n, q)):
                        v = F(1)
                        for ak, bk in zip(alpha, beta):
                            v /= ak + bk + 1
                        want[(r, c)] = v
                assert mono_cube_gram(n, p, q).data == want, (n, p, q)


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
    space = stacked_column(bd, 0, range(5))
    rng = random.Random(3)
    f = random_field(rng, 2, 1, 3)
    g = random_field(rng, 2, 1, 3)
    vf = _embed(bd, space, 0, [f])
    vg = _embed(bd, space, 0, [g])
    gram = stacked_cube_gram(bd, space, 0)
    gv = gram.apply(vg)
    paired = sum((a * b for a, b in zip(vf, gv)), F(0))
    assert paired == cube_integral(poly_mul(f[0], g[0]), 2)


def test_stacked_gram_rejects_a_metric_of_the_wrong_size():
    # row 1 of the plate's 0-forms holds 2-dimensional constants
    bd = build(catalog.get("plate-2d").spec, 2)
    space = stacked_column(bd, 0, range(3))
    assert stacked_cube_gram(bd, space, 0, {1: SparseMat.identity(2)}).rows == 12
    with pytest.raises(LinAlgError, match="row 1 has constant dimension 2, but its metric is 3x3"):
        stacked_cube_gram(bd, space, 0, {1: SparseMat.identity(3)})


def test_stacked_map_applies_per_weight():
    bd = build(catalog.get("plate-2d").spec, 3)
    weights = range(4)
    dom = stacked_column(bd, 0, weights)
    cod = stacked_column(bd, 1, weights)
    dv = stacked_map({w: bd.d_V(0, w) for w in weights}, dom, cod)
    # kernel of the stacked map = total degree-zero cohomology = 3
    from bggkit.linalg import nullspace
    assert nullspace(dv.mat).cols == 3
