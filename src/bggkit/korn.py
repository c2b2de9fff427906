"""Planar conformal rigidity experiment.

On vector fields of bounded degree over the unit square, the first derived
operator of the planar three-row diagram stacks a first-order component
(the Cauchy-Riemann type trace-free symmetric gradient) with a third-order
component.  The joint kernel stays six-dimensional for every degree >= 3,
while the first-order kernel alone grows linearly: exact dimensions are
computed rationally, and the smallest stacked singular value on the
orthogonal complement of the kernel is the experiment's only
floating-point quantity: the smallest eigenvalue of the pencil
(a_r, m_r), solved in numpy by a Cholesky reduction m_r = L L^T to the
symmetric matrix L^-1 a_r L^-T, as LAPACK's sygvd does.  numpy is imported
only by that float step.

The exact pencils are built once, at r_max: degree r's pencil is the
leading k_r x k_r principal block of the r_max pencil (A, M), where k_r
counts the free columns of weight <= r.  This is exact because

* the stacked operator D is block-diagonal by weight, so degree r's D, its
  Grams g_in, g_out and D^T g_out D are the leading blocks of the r_max ones;
* the joint kernel lives in the degree-3 block, so every degree sees all of
  it and degree r's constraint ker^T g_in is the leading column block of the
  r_max one;
* the complement basis is the reduced kernel basis of that constraint,
  whose vector for free column f is supported on columns <= f.  When every
  pivot column lies in the degree-3 block, degree r's basis is the first
  k_r vectors of the r_max basis cut to their first n_r rows, n_r the
  number of columns of weight <= r.

The kernel support, the pivot columns and each cut basis are certified
exactly at run time; a failure raises ``VerificationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import catalog
from .bgg import derive
from .cube import stacked_cube_gram, stacked_map
from .diagram import VerificationError, build
from .forms import SumSpace
from .linalg import SparseMat, leading_block, nullspace, rank, take_rows

if TYPE_CHECKING:
    import numpy as np


class FloatStepError(RuntimeError):
    """numpy's eigensolver failed on one degree's pencil."""


@dataclass
class KornRow:
    degree: int
    kernel_dim: int
    first_order_kernel_dim: int
    sigma_min: float

    def line(self) -> str:
        return (f"r={self.degree}: joint kernel {self.kernel_dim}, "
                f"first-order-only kernel {self.first_order_kernel_dim}, "
                f"sigma_min {self.sigma_min:.6e}")


def _to_float(mat: SparseMat) -> np.ndarray:
    """Dense float copy; int / int is correctly rounded, as float(Fraction) is."""
    import numpy as np
    out = np.zeros((mat.rows, mat.cols))
    for r, row in mat.by_row.items():
        for c, v in row.items():
            out[r, c] = v / mat.den
    return out


def eigh(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric pencil a x = lambda m x, m > 0."""
    import numpy as np
    low = np.linalg.cholesky(m)
    half = np.linalg.solve(low, a)
    return np.linalg.eigvalsh(np.linalg.solve(low, half.T))


def _nested_pencil(a: SparseMat, m: SparseMat, comp: SparseMat, k: int,
                   n: int) -> tuple[SparseMat, SparseMat]:
    """The leading k x k blocks of the pencil (a, m) = comp^T (.) comp.

    They are the pencil on the first k columns of comp cut to their first n
    rows only if those columns vanish beyond row n; anything else raises.
    """
    beyond = [(c, r) for r, row in comp.by_row.items() if r >= n for c in row if c < k]
    if beyond:
        c, r = min(beyond)
        raise VerificationError(
            f"complement vector {c} has an entry in row {r}, beyond the "
            f"leading {n} rows; the degree's pencil is not a principal block")
    return leading_block(a, k, k), leading_block(m, k, k)


def _exact_part(r_max: int):
    """Everything exact, built once at r_max.

    Returns, per degree r = 3..r_max, the tuple (r, joint kernel dimension,
    first-order kernel dimension, k_r, n_r), and the complement basis with
    the r_max pencil (A, M).  Only these leave the function, so the derived
    diagram and the Grams are freed before the float step loads numpy.
    """
    bd = build(catalog.get("mobius-2d").spec, r_max)
    ops = derive(bd)
    # the L2 metric on harmonic coordinates is ups^T ups on every row
    metrics = [{j: b.transpose() @ b for (ii, j), b in ops.hs.ups.items() if ii == i}
               for i in (0, 1)]
    weights = range(r_max + 1)
    dom = SumSpace(tuple((w, ops.bc.ups_space(0, w)) for w in weights))
    cod = SumSpace(tuple((w, ops.bc.ups_space(1, w)) for w in weights))
    dmat = stacked_map({w: ops.bc.D(0, w) for w in weights}, dom, cod).mat
    ker = nullspace(dmat)
    cols_3 = dom.span(3).stop  # columns of weight <= 3
    if any(r >= cols_3 for r in ker.by_row):
        raise VerificationError("the joint kernel reaches beyond the degree-3 block")
    g_in = stacked_cube_gram(bd, dom, 0, metrics[0])
    g_out = stacked_cube_gram(bd, cod, 1, metrics[1])
    a = dmat.transpose() @ g_out @ dmat
    constraint = ker.transpose() @ g_in
    if rank(leading_block(constraint, constraint.rows, cols_3)) != constraint.rows:
        raise VerificationError("a pivot column of ker^T g_in lies beyond the degree-3 block")
    comp = nullspace(constraint)
    first_rows = [cod.offset(w) + r for w, sub in cod.parts for r in sub.span(0)]
    degrees = []
    for r in range(3, r_max + 1):
        n_rows, n_cols = cod.span(r).stop, dom.span(r).stop
        d_r = leading_block(dmat, n_rows, n_cols)
        first = take_rows(d_r, [i for i in first_rows if i < n_rows])
        degrees.append((r, nullspace(d_r).cols, d_r.cols - rank(first),
                        n_cols - ker.cols, n_cols))
    return degrees, comp, comp.transpose() @ a @ comp, comp.transpose() @ g_in @ comp


def korn2d_experiment(r_max: int = 8) -> list[KornRow]:
    """Exact kernels and the floating-point smallest stacked singular value.

    For each degree r = 3..r_max: the joint kernel dimension of both
    components, the kernel dimension of the first-order component alone
    (2(r+1), the planar failure witness), and the smallest generalized
    singular value on the L2-orthogonal complement of the joint kernel.
    A failure of numpy's solver raises FloatStepError naming the degree.
    """
    if r_max < 3:
        raise ValueError("r_max must be >= 3")
    degrees, comp, a_full, m_full = _exact_part(r_max)
    import numpy as np
    out = []
    for r, kernel_dim, first_kernel, k, n in degrees:
        a_r, m_r = _nested_pencil(a_full, m_full, comp, k, n)
        try:
            eigvals = eigh(_to_float(a_r), _to_float(m_r))
        except np.linalg.LinAlgError as err:
            raise FloatStepError(f"r={r}: the float eigensolver failed: {err}") from err
        sigma_min = math.sqrt(max(eigvals.min(), 0.0))
        out.append(KornRow(r, kernel_dim, first_kernel, sigma_min))
    return out
