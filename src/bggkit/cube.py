"""Exact L2 inner products over a cube and degree-stacked spaces.

A monomial x^s integrates to prod_k 1/(s_k + 1) over the unit cube [0,1]^n
and, over the centered cube [-1/2,1/2]^n that the Korn experiment uses, to
prod_k 1/(2^s_k (s_k + 1)) if every s_k is even and to 0 otherwise.  So every
Gram here is exact rational, built as integer numerators over the lcm of
those products.  Fields of bounded total degree live in a weight-stacked
space: a ``SumSpace`` keyed by weight whose parts are row-keyed column
spaces (ambient columns or harmonic coordinates).  This module is the one
path for such spaces: ``stacked_map`` stacks per-weight maps, spaces
included, through ``diagram.band``, ``embed`` places 0-form row fields in a
stacked space, and ``stacked_cube_gram`` places M_mono (x) C_j on each row
j as an unformed kron pair, from the monomial pairings and one metric per
row.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod

from .diagram import BuiltDiagram, InputError, band
from .forms import LinMap, SumSpace, _mono_index, monomials
from .linalg import LinAlgError, SparseMat, assemble


@lru_cache(maxsize=None)
def mono_cube_gram(n: int, p: int, q: int, centered: bool = False) -> SparseMat:
    """Pairings of degree-p against degree-q monomials over the unit or the
    centered cube, as integer numerators over their lcm."""
    rows, cols = monomials(n, p), monomials(n, q)
    sums = [[[a + b for a, b in zip(alpha, beta)] for beta in cols] for alpha in rows]
    # 1 / the integral of x^s, where it does not vanish
    inv = [{c: prod((t + 1) << (t if centered else 0) for t in s) for c, s in enumerate(row)
            if not (centered and any(t & 1 for t in s))} for row in sums]
    den = lcm(*(x for row in inv for x in row.values()))
    by_row = {r: {c: den // x for c, x in row.items()} for r, row in enumerate(inv) if row}
    return SparseMat._from_rows(len(rows), len(cols), by_row, den)


def stacked_map(per_weight: dict) -> LinMap:
    """Block-diagonal assembly of per-weight maps {w: LinMap}; its domain and
    codomain are the weight-keyed sums of theirs."""
    dom = SumSpace(tuple((w, m.dom) for w, m in per_weight.items()))
    cod = SumSpace(tuple((w, m.cod) for w, m in per_weight.items()))
    blocks = {k: m.mat for k, m in enumerate(per_weight.values())}
    return LinMap(dom, cod, band(blocks, dom, cod))


def embed(bd: BuiltDiagram, space: SumSpace, rows) -> list:
    """Coefficient vector of polynomial row fields of 0-forms inside a
    stacked column.

    rows[j] lists the components of the row-j field.  Raises InputError for
    a row with the wrong number of components, and for a monomial whose
    weight the stacked space lacks, so a field is never silently truncated.
    """
    vec = [0] * space.dim
    for j, components in enumerate(rows):
        vdim = bd.spec.rows[j].dim
        if len(components) != vdim:
            raise InputError(f"row {j} expects {vdim} components")
        base = {w: space.offset(w) + col.offset(j) for w, col in space.parts}
        for r, comp in enumerate(components):
            for m, c in comp.items():
                w = sum(m) + j
                if w not in base:
                    raise InputError(
                        f"row {j} monomial {m} needs weight {w}, beyond the "
                        f"stacked weights (w_max {max(base)})")
                vec[base[w] + _mono_index(bd.n, sum(m))[m] * vdim + r] = c
    return vec


def stacked_cube_gram(bd: BuiltDiagram, space: SumSpace, i: int,
                      const_metrics: dict | None = None, centered: bool = False) -> SparseMat:
    """L2 Gram on a weight-stacked space of form degree i, on the unit or the
    centered cube.

    Row j of weight w holds polynomials of degree w - i - j tensored with a
    constant space; const_metrics[j], square of that space's dimension, is
    its metric (the identity where absent).  Blocks of equal row index pair
    across weights through the monomial integrals; distinct rows are
    orthogonal (their values live in different value spaces).  Centered
    pairings of degrees p, p' with p + p' odd vanish and are skipped.
    """
    const_metrics = const_metrics or {}
    placed = []
    for w, col in space.parts:
        for wp, colp in space.parts:
            for j, sub in col.parts:
                if sub.dim == 0 or colp.space(j).dim == 0:
                    continue
                p, pp = w - i - j, wp - i - j
                if centered and (p + pp) & 1:
                    continue
                dim = sub.dim // len(monomials(bd.n, p))
                metric = const_metrics.get(j)
                if metric is None:
                    metric = SparseMat.identity(dim)
                elif (metric.rows, metric.cols) != (dim, dim):
                    raise LinAlgError(f"row {j} has constant dimension {dim}, but its "
                                      f"metric is {metric.rows}x{metric.cols}")
                placed.append((space.offset(w) + col.offset(j),
                               space.offset(wp) + colp.offset(j),
                               (mono_cube_gram(bd.n, p, pp, centered), metric)))
    return assemble(space.dim, space.dim, placed)
