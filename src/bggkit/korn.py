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
symmetric matrix L^-1 a_r L^-T, as LAPACK's sygvd does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .bgg import derive
from .cube import stacked_cube_gram, stacked_map
from .diagram import build
from .forms import SumSpace
from .linalg import SparseMat, nullspace, rank, take_rows


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


def _component_rows(space: SumSpace, row_j: int) -> list[int]:
    rows = []
    for w, sub in space.parts:
        off = space.offset(w) + sub.offset(row_j)
        rows.extend(range(off, off + sub.space(row_j).dim))
    return rows


def _to_float(mat: SparseMat) -> np.ndarray:
    """Dense float copy; int / int is correctly rounded, as float(Fraction) is."""
    out = np.zeros((mat.rows, mat.cols))
    for (r, c), v in mat.num.items():
        out[r, c] = v / mat.den
    return out


def eigh(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric pencil a x = lambda m x, m > 0."""
    low = np.linalg.cholesky(m)
    half = np.linalg.solve(low, a)
    return np.linalg.eigvalsh(np.linalg.solve(low, half.T))


def korn2d_experiment(r_max: int = 8) -> list[KornRow]:
    """Exact kernels and the floating-point smallest stacked singular value.

    For each degree r = 3..r_max: the joint kernel dimension of both
    components, the kernel dimension of the first-order component alone
    (2(r+1), the planar failure witness), and the smallest generalized
    singular value on the L2-orthogonal complement of the joint kernel.
    """
    if r_max < 3:
        raise ValueError("r_max must be >= 3")
    bd = build(catalog.get("mobius-2d").spec, r_max)
    ops = derive(bd)
    # the L2 metric on harmonic coordinates is ups^T ups on every row
    metrics = [{j: b.transpose() @ b for (ii, j), b in ops.hs.ups.items() if ii == i}
               for i in (0, 1)]
    out = []
    for r in range(3, r_max + 1):
        weights = range(r + 1)
        dom = SumSpace(tuple((w, ops.bc.ups_space(0, w)) for w in weights))
        cod = SumSpace(tuple((w, ops.bc.ups_space(1, w)) for w in weights))
        dmat = stacked_map({w: ops.bc.D(0, w) for w in weights}, dom, cod).mat
        ker = nullspace(dmat)
        first_rows = _component_rows(cod, 0)
        first = take_rows(dmat, first_rows)
        first_kernel = dmat.cols - rank(first)
        g_in = stacked_cube_gram(bd, dom, 0, metrics[0])
        g_out = stacked_cube_gram(bd, cod, 1, metrics[1])
        a = dmat.transpose() @ g_out @ dmat
        comp = nullspace(ker.transpose() @ g_in)
        a_r = comp.transpose() @ a @ comp
        m_r = comp.transpose() @ g_in @ comp
        eigvals = eigh(_to_float(a_r), _to_float(m_r))
        sigma_min = float(np.sqrt(max(eigvals.min(), 0.0)))
        out.append(KornRow(r, ker.cols, first_kernel, sigma_min))
    return out
