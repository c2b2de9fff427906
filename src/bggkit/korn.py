"""Planar conformal rigidity experiment.

On vector fields of bounded degree over the centered square, the first
derived operator of the planar three-row diagram stacks a first-order
component (the Cauchy-Riemann type trace-free symmetric gradient) with a
third-order component.  The joint kernel stays six-dimensional for every
degree >= 3, while the first-order kernel alone grows linearly: exact
dimensions are computed rationally, and the smallest stacked singular value
on the orthogonal complement of the kernel is the experiment's only
floating-point quantity: the smallest eigenvalue of the pencil
(a_r, m_r), solved in pure Python by ``eigh``.

On [-1/2,1/2]^2 a monomial pairing vanishes unless both exponent sums are
even, and no value differs from the unit square's: D has constant
coefficients, and the shift by (1/2, 1/2) is an L2 isometry that maps the
fields of each degree onto themselves.

Everything exact is built once, at r_max, with A formed through D comp.
The stacked operator D is block-diagonal by weight, so degree r's
first-order kernel dimension is a sum over weights <= r of per-weight ones,
and degree r's D, its Grams g_in, g_out and D^T g_out D are leading blocks
of the r_max ones.  Degree r's pencil is then the leading k_r x k_r block
of the r_max pencil (A, M), k_r the number of free columns of weight <= r,
and no per-degree exact block is formed.  This is exact because

* the joint kernel ker lives in the degree-3 block, so it is every degree's
  joint kernel, counted once, and degree r's constraint ker^T g_in is the
  leading column block of the r_max one;
* the complement basis is the reduced kernel basis of that constraint,
  whose vector for free column f is supported on columns <= f.  When every
  pivot column lies in the degree-3 block, degree r's basis is the first
  k_r vectors of the r_max basis cut to their first n_r rows, n_r the
  number of columns of weight <= r.

(A, M) splits into parity classes, the connected components of its joint
sparsity graph (29, 29, 34 and 34 at r_max = 10); each degree solves each
class on its coordinates below k_r.  The classes come in twins: pairing a
later class's coordinates with an earlier one's in index order, the twin's
pencil is S (A, M) S on the earlier class, S a diagonal of signs.  A twin is
certified exactly: equal lengths, equally many coordinates below every k_r,
and every stored numerator of A and M on the twin equal to s_t s_u times its
paired one.  Congruence by S keeps each cut's spectrum, and every float step
of ``eigh`` commutes with it exactly, so a certified twin is not solved: its
representative's value is its own, bit for bit.  Each distinct cut of the
other classes (9 among 32 at r_max = 10) is converted to floats and solved
once.

The conditions above are checked by three exact certificates in one
``VerifyReport``; one ``VerificationError`` lists every failure before the
float step: ``kernel support``, ``pivot columns`` (located where the
degree-3 columns end) and each degree's ``leading block`` (each support
located at its first offending (column, row)).  A class that fails the twin
certificate is solved like any other.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul, sub

from . import catalog
from .bgg import derive
from .cube import stacked_cube_gram, stacked_map
from .diagram import InputError, VerifyReport, build
from .forms import Value
from .linalg import SparseMat, components, nullspace, rank, take_cols, take_rows


class FloatStepError(RuntimeError):
    """A degree's pencil has an a that is not numerically positive definite."""


class KornRow(Value):
    """One degree's kernel dimensions and smallest singular value; immutable
    by convention."""

    def __init__(self, degree: int, kernel_dim: int, first_order_kernel_dim: int,
                 sigma_min: float):
        self.degree = degree
        self.kernel_dim = kernel_dim
        self.first_order_kernel_dim = first_order_kernel_dim
        self.sigma_min = sigma_min

    def _key(self) -> tuple:
        return self.degree, self.kernel_dim, self.first_order_kernel_dim, self.sigma_min

    def line(self) -> str:
        return (f"r={self.degree}: joint kernel {self.kernel_dim}, "
                f"first-order-only kernel {self.first_order_kernel_dim}, "
                f"sigma_min {self.sigma_min:.6e}")


def _dense(mat: SparseMat, idx) -> list[list[float]]:
    """The principal block of mat on idx in floats; int / int is correctly
    rounded, as float(Fraction) is."""
    return [[mat.by_row.get(i, {}).get(j, 0) / mat.den for j in idx] for i in idx]


def _solve_lower(low, cols) -> list[list[float]]:
    """The columns of L^-1 B, for lower triangular L and B given by columns."""
    out = []
    for b in cols:
        out.append(x := [])
        for bi, li in zip(b, low):
            x.append((bi - sum(map(mul, li, x))) / li[len(x)])
    return out


def eigh(a: list[list[float]], m: list[list[float]]) -> float:
    """Lowest eigenvalue of the symmetric pencil a x = lambda m x, a, m > 0.

    It is 1 / the highest eigenvalue of C = L^-1 m L^-T, a = L L^T, which
    keeps its relative precision: the reduction's rounding error is about
    eps |C|, where reducing by m's factor (LAPACK's sygvd) leaves lambda an
    error of eps times the highest lambda, 6.4e-9 relative at r = 10.
    Householder reflections make C tridiagonal, and Sturm-count bisection
    narrows its Gershgorin interval until the midpoint no longer moves.  A
    Cholesky pivot of a that is not positive raises FloatStepError.
    """
    low: list[list[float]] = []
    for j, row in enumerate(a):
        lj, = _solve_lower(low, [row])  # row j of L left of the diagonal
        if not (pivot := row[j] - sum(t * t for t in lj)) > 0:
            raise FloatStepError(f"a is not positive definite: Cholesky pivot {j} is {pivot:.3e}")
        low.append([*lj, math.sqrt(pivot)])
    c = _solve_lower(low, zip(*_solve_lower(low, m)))  # columns of C; m is symmetric
    c = [[(x + y) / 2 for x, y in zip(row, col)] for row, col in zip(c, zip(*c))]
    diag, off = [], []
    while len(c) > 1:  # reflect by H = I - 2 v v^T / v^T v, with H x = alpha e_1
        diag.append(c[0][0])
        x, c = [row[0] for row in c[1:]], [row[1:] for row in c[1:]]
        off.append(alpha := -math.copysign(math.hypot(*x), x[0]))
        v = [x[0] - alpha, *x[1:]]
        if vv := sum(t * t for t in v):  # the trailing block becomes H c H
            p = [2 * sum(map(mul, row, v)) / vv for row in c]
            h = sum(map(mul, p, v)) / vv
            w = [pi - h * vi for pi, vi in zip(p, v)]
            c = [[e - vi * wj - wi * vj for e, vj, wj in zip(row, v, w)]
                 for row, vi, wi in zip(c, v, w)]
    diag.append(c[0][0])
    rad = [abs(e) + abs(f) for e, f in zip([0.0, *off], [*off, 0.0])]
    lo, hi = min(map(sub, diag, rad)), max(map(add, diag, rad))
    off2 = [0.0, *(e * e for e in off)]
    while lo < (mid := (lo + hi) / 2) < hi:
        q, below = 1.0, 0  # the Sturm count of eigenvalues below mid
        for d, e2 in zip(diag, off2):
            q = d - mid - e2 / q or 1e-300  # a zero term counts as positive
            below += q < 0
        lo, hi = (mid, hi) if below < len(diag) else (lo, mid)
    return 1 / mid


def _outside(comp: SparseMat, k: int, n: int) -> tuple[int, int] | None:
    """The first (column, row) where one of comp's first k columns has an
    entry beyond row n, or None: then the pencil on those columns cut to n
    rows is the leading k x k block of comp's."""
    return min(((c, r) for r, row in comp.by_row.items() if r >= n for c in row if c < k),
               default=None)


def _twins(a: SparseMat, m: SparseMat, classes: list[list[int]], ks: list[int]) -> dict[int, int]:
    """Certified twins: {class index: the earlier class it is a twin of}.

    Class b is a twin of class c when, pairing their coordinates in index
    order, both have the same length and as many coordinates below every k,
    and signs s exist with every numerator of a and m on b equal to s_t s_u
    times the paired one on c.  The relation is transitive, so b's earliest
    twin is a class that is no twin.
    """
    twins = {}
    for b, cb in enumerate(classes):
        for c, cc in enumerate(classes[:b]):
            if (len(cc) == len(cb)
                    and all(sum(i < k for i in cc) == sum(i < k for i in cb) for k in ks)
                    and _signed_pairing((a, m), dict(zip(cc, cb)))):
                twins[b] = c
                break
    return twins


def _signed_pairing(mats, pair: dict[int, int]) -> bool:
    """Whether signs s on pair's keys give mat[pair t][pair u] == s_t s_u
    mat[t][u] for every stored entry of each mat, in both directions.

    A walk of the joint sparsity graph from the first key fixes the signs and
    checks each row it reaches; a key it does not reach fails the pairing."""
    first = next(iter(pair))
    sign, todo = {first: 1}, [first]
    while todo:
        st = sign[t := todo.pop()]
        for mat in mats:
            row, twin = mat.by_row.get(t, {}), mat.by_row.get(pair[t], {})
            if len(row) != len(twin):  # so every entry of twin is paired
                return False
            for u, v in row.items():
                w = twin.get(pair.get(u))
                if (su := sign.get(u)) is None and w in (v, -v):
                    sign[u] = st if w == v else -st
                    todo.append(u)
                elif w != (v if su == st else -v):  # an unsigned u fails here too
                    return False
    return len(sign) == len(pair)


def _exact_part(r_max: int):
    """Everything exact, built once at r_max.

    Returns, per degree r = 3..r_max, the tuple (r, joint kernel dimension,
    first-order kernel dimension, k_r), and the r_max pencil (A, M), whose
    leading k_r x k_r block is degree r's.  Only these leave the function, so
    the diagram and the Grams are freed before the float step.
    """
    bd = build(catalog.get("mobius-2d").spec, r_max)
    ops = derive(bd)
    report = VerifyReport(bd.spec.name, r_max)
    # the L2 metric on harmonic coordinates is ups^T ups on every row
    metrics = [{j: b.transpose() @ b for j, b in ops.hs.ups[i].items()} for i in (0, 1)]
    per_weight = {w: ops.bc.D(0, w) for w in range(r_max + 1)}
    # D is block-diagonal by weight, so degree r's first-order kernel sums weights <= r
    first = list(accumulate(d.dom.dim - rank(take_rows(d.mat, d.cod.span(0)))
                            for d in per_weight.values()))
    stacked = stacked_map(per_weight)
    dmat, dom = stacked.mat, stacked.dom
    ker = nullspace(dmat)
    cols_3 = dom.span(3).stop  # columns of weight <= 3; ker within them is every degree's
    beyond = _outside(ker, ker.cols, cols_3)
    report.holds("kernel support", 3, 0, beyond is None, beyond)
    g_in = stacked_cube_gram(bd, dom, 0, metrics[0], centered=True)
    g_out = stacked_cube_gram(bd, stacked.cod, 1, metrics[1], centered=True)
    constraint = ker.transpose() @ g_in
    report.holds("pivot columns", 3, 0,
                 rank(take_cols(constraint, range(cols_3))) == constraint.rows, (cols_3,))
    comp = nullspace(constraint)
    degrees = []
    for r in range(3, r_max + 1):
        n_cols = dom.span(r).stop
        beyond = _outside(comp, n_cols - ker.cols, n_cols)
        report.holds("leading block", r, 0, beyond is None, beyond)
        degrees.append((r, ker.cols, first[r], n_cols - ker.cols))
    report.require("korn")
    image = dmat @ comp
    return degrees, image.transpose() @ (g_out @ image), comp.transpose() @ (g_in @ comp)


def korn2d_experiment(r_max: int = 8) -> list[KornRow]:
    """Exact kernels and the floating-point smallest stacked singular value.

    For each degree r = 3..r_max: the joint kernel dimension of both
    components, the kernel dimension of the first-order component alone
    (2(r+1), the planar failure witness), and the smallest generalized
    singular value on the L2-orthogonal complement of the joint kernel.
    A Cholesky pivot that is not positive raises FloatStepError naming the
    degree that first solves the class.
    """
    if r_max < 3:
        raise InputError("r_max must be >= 3")
    degrees, a_full, m_full = _exact_part(r_max)
    classes = components(a_full, m_full)
    # a certified twin's cuts share its representative's spectrum, bit for bit
    twins = _twins(a_full, m_full, classes, [k for *_, k in degrees])
    solved = [c for b, c in enumerate(classes) if b not in twins]
    lowest: dict[tuple[int, ...], float] = {}  # distinct class cut -> its lowest eigenvalue
    out = []
    for r, kernel_dim, first_kernel, k in degrees:
        cuts = [cut for cut in (tuple(i for i in c if i < k) for c in solved) if cut]
        try:
            for cut in (cut for cut in cuts if cut not in lowest):
                lowest[cut] = eigh(_dense(a_full, cut), _dense(m_full, cut))
        except FloatStepError as err:
            raise FloatStepError(f"r={r}: {err}") from err
        low = min(lowest[cut] for cut in cuts)
        out.append(KornRow(r, kernel_dim, first_kernel, math.sqrt(max(low, 0.0))))
    return out
