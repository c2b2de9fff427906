"""Exact L2 inner products over the unit cube and degree-stacked spaces.

Monomial integrals over [0,1]^n are products of 1/(a_k + 1), so every Gram
matrix here is exact rational.  Fields of bounded total degree live in a
weight-stacked space: a ``SumSpace`` keyed by weight whose parts are
row-keyed column spaces (ambient columns or harmonic coordinates).  This
module is the one path for such spaces: ``stacked_map`` assembles per-weight
maps block-diagonally, and ``stacked_cube_gram`` forms the Gram as
M_mono (x) C_j on each row j, from the monomial pairings and one constant
metric per row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .diagram import BuiltDiagram
from .forms import FormBlock, LinMap, SumSpace, monomials
from .linalg import InnerProduct, SparseMat, block_matrix


@lru_cache(maxsize=None)
def mono_cube_gram(n: int, p: int, q: int) -> SparseMat:
    """Pairings of degree-p against degree-q monomials over the unit cube."""
    rows = monomials(n, p)
    cols = monomials(n, q)
    ent = {}
    for r, alpha in enumerate(rows):
        for c, beta in enumerate(cols):
            v = Fraction(1)
            for ak, bk in zip(alpha, beta):
                v /= ak + bk + 1
            ent[(r, c)] = v
    return SparseMat(len(rows), len(cols), ent)


def cube_block_gram(block: FormBlock, const_metric: SparseMat | None = None) -> SparseMat:
    """L2 Gram matrix of one graded block; SPD for SPD constant metrics."""
    cdim = block.dim // max(len(monomials(block.n, block.p)), 1) \
        if block.dim else 0
    if block.dim == 0:
        return SparseMat.zero(0, 0)
    metric = const_metric if const_metric is not None else SparseMat.identity(cdim)
    return mono_cube_gram(block.n, block.p, block.p).kron(metric)


def cube_inner_product(block: FormBlock) -> InnerProduct:
    """The certified SPD L2 inner product on one block."""
    return InnerProduct(cube_block_gram(block))


def stacked_column(bd: BuiltDiagram, i: int, weights) -> SumSpace:
    """Direct sum over weights of the column spaces (bounded-degree fields)."""
    return SumSpace(tuple((w, bd.column(i, w)) for w in weights))


def stacked_map(per_weight: dict, dom: SumSpace, cod: SumSpace) -> LinMap:
    """Block-diagonal assembly of per-weight column maps."""
    wd = dom.keys()
    grid = [[per_weight[w].mat if wi == wo else None
             for wi, w in enumerate(wd)] for wo, _ in enumerate(wd)]
    return LinMap(dom, cod, block_matrix(grid, cod.dims(), dom.dims()))


def stacked_cube_gram(bd: BuiltDiagram, space: SumSpace, i: int,
                      const_metrics: dict | None = None) -> SparseMat:
    """L2 Gram on a weight-stacked space of form degree i.

    Row j of weight w holds polynomials of degree w - i - j tensored with a
    constant space; const_metrics[j] is the metric on that constant space
    (the identity where absent).  Blocks of equal row index pair across
    weights through the monomial integrals; distinct rows are orthogonal
    (their values live in different value spaces).
    """
    const_metrics = const_metrics or {}
    ent = {}
    for w, col in space.parts:
        for wp, colp in space.parts:
            for j, sub in col.parts:
                subp = colp.space(j)
                if sub.dim == 0 or subp.dim == 0:
                    continue
                p, pp = w - i - j, wp - i - j
                metric = const_metrics.get(j)
                if metric is None:
                    metric = SparseMat.identity(sub.dim // len(monomials(bd.n, p)))
                pairing = mono_cube_gram(bd.n, p, pp).kron(metric)
                r0 = space.offset(w) + col.offset(j)
                c0 = space.offset(wp) + colp.offset(j)
                for (r, c), v in pairing.data.items():
                    ent[(r0 + r, c0 + c)] = v
    return SparseMat(space.dim, space.dim, ent)
