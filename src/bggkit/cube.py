"""Exact L2 inner products over the unit cube and degree-stacked spaces.

Monomial integrals over [0,1]^n are products of 1/(a_k + 1), so every Gram
matrix here is exact rational; the monomial pairings are built as integer
numerators over the lcm of those products.  Fields of bounded total degree
live in a weight-stacked space: a ``SumSpace`` keyed by weight whose parts
are row-keyed column spaces (ambient columns or harmonic coordinates).  This
module is the one path for such spaces: ``stacked_map`` assembles per-weight
maps block-diagonally through ``diagram.band``, and ``stacked_cube_gram``
places M_mono (x) C_j on each row j as an unformed kron pair, from the
monomial pairings and one constant metric per row.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod

from .diagram import BuiltDiagram, band
from .forms import LinMap, SumSpace, monomials
from .linalg import LinAlgError, SparseMat, assemble


@lru_cache(maxsize=None)
def mono_cube_gram(n: int, p: int, q: int) -> SparseMat:
    """Pairings of degree-p against degree-q monomials over the unit cube:
    1 / prod_k (alpha_k + beta_k + 1), as integer numerators over their lcm."""
    rows, cols = monomials(n, p), monomials(n, q)
    prods = [[prod(a + b + 1 for a, b in zip(alpha, beta)) for beta in cols] for alpha in rows]
    den = lcm(*(x for row in prods for x in row))
    by_row = {r: {c: den // x for c, x in enumerate(row)} for r, row in enumerate(prods) if row}
    return SparseMat._from_rows(len(rows), len(cols), by_row, den)


def stacked_column(bd: BuiltDiagram, i: int, weights) -> SumSpace:
    """Direct sum over weights of the column spaces (bounded-degree fields)."""
    return SumSpace(tuple((w, bd.column(i, w)) for w in weights))


def stacked_map(per_weight: dict, dom: SumSpace, cod: SumSpace) -> LinMap:
    """Block-diagonal assembly of per-weight column maps."""
    blocks = {k: per_weight[w].mat for k, w in enumerate(dom.keys())}
    return LinMap(dom, cod, band(blocks, dom, cod))


def stacked_cube_gram(bd: BuiltDiagram, space: SumSpace, i: int,
                      const_metrics: dict | None = None) -> SparseMat:
    """L2 Gram on a weight-stacked space of form degree i.

    Row j of weight w holds polynomials of degree w - i - j tensored with a
    constant space; const_metrics[j], square of that space's dimension, is
    its metric (the identity where absent).  Blocks of equal row index pair
    across weights through the monomial integrals; distinct rows are
    orthogonal (their values live in different value spaces).
    """
    const_metrics = const_metrics or {}
    placed = []
    for w, col in space.parts:
        for wp, colp in space.parts:
            for j, sub in col.parts:
                if sub.dim == 0 or colp.space(j).dim == 0:
                    continue
                p, pp = w - i - j, wp - i - j
                dim = sub.dim // len(monomials(bd.n, p))
                metric = const_metrics.get(j)
                if metric is None:
                    metric = SparseMat.identity(dim)
                elif (metric.rows, metric.cols) != (dim, dim):
                    raise LinAlgError(f"row {j} has constant dimension {dim}, but its "
                                      f"metric is {metric.rows}x{metric.cols}")
                placed.append((space.offset(w) + col.offset(j),
                               space.offset(wp) + colp.offset(j),
                               (mono_cube_gram(bd.n, p, pp), metric)))
    return assemble(space.dim, space.dim, placed)
