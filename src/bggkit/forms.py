"""Differential forms with homogeneous polynomial coefficients on R^n.

A graded block holds i-forms whose coefficients are homogeneous polynomials
of degree p with values in a finite-dimensional value space.  The basis is
(monomial, increasing dx multi-index, value label) in lexicographic order,
so constant-coefficient operators act by Kronecker products with identity
on the monomial factor and polynomial operators act with identity on the
value factor.

Axis arguments are 1-based, matching the usual dx^1, ..., dx^n notation.

Columns and stacked spaces are ``SumSpace``s, and ``SumSpace`` is the one
place that locates a part: ``offset``, ``span`` and ``key_of`` map between a
part's key and its coordinates, so no caller adds up part dimensions itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, combinations
from math import comb

from .linalg import LinAlgError, SparseMat, hstack, take_cols

ONE = Fraction(1)


@dataclass(frozen=True)
class ValueSpace:
    """Finite-dimensional constant-coefficient space with a labeled basis."""
    name: str
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.basis_labels) < 1:
            raise ValueError("value space needs at least one basis label")

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @classmethod
    def coordinates(cls, name: str, dim: int) -> "ValueSpace":
        return cls(name, tuple(f"{name}{k + 1}" for k in range(dim)))


@lru_cache(maxsize=None)
def monomials(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Exponent multi-indices of degree p in n variables, lexicographic."""
    if p < 0:
        return ()
    if n == 1:
        return ((p,),)
    out = []
    for first in range(p + 1):
        for rest in monomials(n - 1, p - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def form_indices(n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """Increasing dx multi-indices (1-based axes), lexicographic."""
    if i < 0 or i > n:
        return ()
    return tuple(combinations(range(1, n + 1), i))


def wedge_sign(axis: int, idx: tuple[int, ...]):
    """Sign and sorted result of dx^axis wedge dx^idx, or None if degenerate."""
    if axis in idx:
        return None
    before = sum(1 for j in idx if j < axis)
    pos = before
    new = idx[:pos] + (axis,) + idx[pos:]
    return (-1) ** before, new


@dataclass(frozen=True)
class FormBlock:
    """The space of i-forms with degree-p homogeneous coefficients in a value space.

    Out-of-range degrees (p < 0 or i = n+1) are allowed as empty blocks so
    that graded operators can target them with zero maps.
    """
    n: int
    i: int
    p: int
    value: ValueSpace

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spatial dimension must be >= 1")
        if not (0 <= self.i <= self.n + 1):
            raise ValueError("form degree out of range")

    @cached_property
    def dim(self) -> int:
        if self.p < 0 or self.i > self.n:
            return 0
        return comb(self.n, self.i) * comb(self.p + self.n - 1, self.n - 1) * self.value.dim

    def basis(self):
        """Yield (monomial, dx multi-index, value label) in basis order."""
        for alpha in monomials(self.n, self.p):
            for idx in form_indices(self.n, self.i):
                for lab in self.value.basis_labels:
                    yield alpha, idx, lab

    def basis_labels(self) -> list[str]:
        out = []
        for alpha, idx, lab in self.basis():
            mono = "*".join(f"x{k + 1}^{e}" for k, e in enumerate(alpha) if e) or "1"
            dx = "^".join(f"dx{j}" for j in idx) or "1"
            out.append(f"{mono} {dx} {lab}")
        return out


@dataclass(frozen=True)
class CoordSpace:
    """An abstract coordinate space (used for subspace coordinates)."""
    name: str
    size: int

    @property
    def dim(self) -> int:
        return self.size


@dataclass(frozen=True)
class SumSpace:
    """Ordered direct sum of spaces, addressed by keys."""
    parts: tuple[tuple[object, object], ...]

    @property
    def dim(self) -> int:
        return sum(s.dim for _, s in self.parts)

    def keys(self):
        return [k for k, _ in self.parts]

    def space(self, key):
        for k, s in self.parts:
            if k == key:
                return s
        raise KeyError(key)

    def offset(self, key) -> int:
        off = 0
        for k, s in self.parts:
            if k == key:
                return off
            off += s.dim
        raise KeyError(key)

    def span(self, key) -> range:
        """The coordinates of part ``key``."""
        off = self.offset(key)
        return range(off, off + self.space(key).dim)

    @cached_property
    def _ends(self) -> list[int]:
        return list(accumulate(self.dims()))

    def key_of(self, index: int):
        """The key of the part that holds coordinate ``index``."""
        if index >= 0:
            for (k, _s), end in zip(self.parts, self._ends):
                if index < end:
                    return k
        raise IndexError(index)

    def dims(self) -> list[int]:
        return [s.dim for _, s in self.parts]


@dataclass
class LinMap:
    """Exact linear map with explicit domain and codomain handles."""
    dom: object
    cod: object
    mat: SparseMat

    def __post_init__(self):
        if self.mat.rows != self.cod.dim or self.mat.cols != self.dom.dim:
            raise LinAlgError(
                f"matrix {self.mat.rows}x{self.mat.cols} does not match "
                f"cod dim {self.cod.dim} x dom dim {self.dom.dim}")

    @classmethod
    def zero(cls, dom, cod) -> "LinMap":
        return cls(dom, cod, SparseMat.zero(cod.dim, dom.dim))

    def __matmul__(self, other: "LinMap") -> "LinMap":
        if other.cod != self.dom:
            raise LinAlgError("composition domain mismatch")
        return LinMap(other.dom, self.cod, self.mat @ other.mat)

    def __add__(self, other: "LinMap") -> "LinMap":
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise LinAlgError("sum shape mismatch")
        return LinMap(self.dom, self.cod, self.mat + other.mat)

    def __sub__(self, other: "LinMap") -> "LinMap":
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise LinAlgError("difference shape mismatch")
        return LinMap(self.dom, self.cod, self.mat - other.mat)

    def __neg__(self) -> "LinMap":
        return LinMap(self.dom, self.cod, -self.mat)

    def scale(self, a) -> "LinMap":
        return LinMap(self.dom, self.cod, self.mat.scale(a))

    def is_zero(self) -> bool:
        return self.mat.is_zero()


# -- scalar-level operator matrices ----------------------------------------


@lru_cache(maxsize=None)
def _mono_index(n: int, p: int):
    return {alpha: k for k, alpha in enumerate(monomials(n, p))}


@lru_cache(maxsize=None)
def _form_index(n: int, i: int):
    return {idx: k for k, idx in enumerate(form_indices(n, i))}


@lru_cache(maxsize=None)
def _d_scalar(n: int, i: int, p: int) -> SparseMat:
    """Exterior derivative on scalar blocks, (mono, dx)-indexed."""
    src_m, src_f = monomials(n, p), form_indices(n, i)
    tgt_m, tgt_f = _mono_index(n, p - 1), _form_index(n, i + 1)
    rows = len(tgt_m) * len(tgt_f)
    cols = len(src_m) * len(src_f)
    ent = {}
    for a_k, alpha in enumerate(src_m):
        for f_k, idx in enumerate(src_f):
            col = a_k * len(src_f) + f_k
            for axis in range(1, n + 1):
                e = alpha[axis - 1]
                if e == 0:
                    continue
                sw = wedge_sign(axis, idx)
                if sw is None:
                    continue
                sign, new_idx = sw
                beta = list(alpha)
                beta[axis - 1] -= 1
                row = tgt_m[tuple(beta)] * len(tgt_f) + tgt_f[new_idx]
                ent[(row, col)] = Fraction(sign * e)
    return SparseMat(rows, cols, ent)


@lru_cache(maxsize=None)
def wedge_const(n: int, i: int, axis: int) -> SparseMat:
    """Matrix of dx^axis wedge on Lambda^i -> Lambda^{i+1}."""
    src = form_indices(n, i)
    tgt = _form_index(n, i + 1)
    ent = {}
    for k, idx in enumerate(src):
        sw = wedge_sign(axis, idx)
        if sw is None:
            continue
        sign, new_idx = sw
        ent[(tgt[new_idx], k)] = Fraction(sign)
    return SparseMat(len(tgt), len(src), ent)


@lru_cache(maxsize=None)
def _mult_scalar(n: int, p: int, axis: int) -> SparseMat:
    """Multiplication by x^axis on monomials of degree p."""
    src = monomials(n, p)
    tgt = _mono_index(n, p + 1)
    ent = {}
    for k, alpha in enumerate(src):
        beta = list(alpha)
        beta[axis - 1] += 1
        ent[(tgt[tuple(beta)], k)] = ONE
    return SparseMat(len(tgt), len(src), ent)


# -- block-level operators --------------------------------------------------


def _d_factors(b: FormBlock) -> tuple[SparseMat, SparseMat] | None:
    """d on a block as the pair (scalar d, identity on values) whose kron it
    is, or None when the map is zero."""
    if b.dim == 0 or FormBlock(b.n, b.i + 1, b.p - 1, b.value).dim == 0:
        return None
    return _d_scalar(b.n, b.i, b.p), SparseMat.identity(b.value.dim)


def exterior_derivative(b: FormBlock) -> LinMap:
    """d on a block; the target is the (i+1, p-1) block, empty if absent."""
    cod = FormBlock(b.n, b.i + 1, b.p - 1, b.value)
    factors = _d_factors(b)
    if factors is None:
        return LinMap.zero(b, cod)
    scalar, ident = factors
    return LinMap(b, cod, scalar.kron(ident))


def wedge_dx(axis: int, b: FormBlock) -> LinMap:
    """Left exterior multiplication by dx^axis (1 <= axis <= n)."""
    if not (1 <= axis <= b.n):
        raise ValueError("axis out of range")
    cod = FormBlock(b.n, b.i + 1, b.p, b.value)
    if b.dim == 0 or cod.dim == 0:
        return LinMap.zero(b, cod)
    n_mono = len(monomials(b.n, b.p))
    mat = SparseMat.identity(n_mono).kron(
        wedge_const(b.n, b.i, axis)).kron(SparseMat.identity(b.value.dim))
    return LinMap(b, cod, mat)


def mult_coord(axis: int, b: FormBlock) -> LinMap:
    """Multiplication by the coordinate x^axis (1 <= axis <= n)."""
    if not (1 <= axis <= b.n):
        raise ValueError("axis out of range")
    cod = FormBlock(b.n, b.i, b.p + 1, b.value)
    if b.dim == 0:
        return LinMap.zero(b, cod)
    n_dx = len(form_indices(b.n, b.i))
    mat = _mult_scalar(b.n, b.p, axis).kron(
        SparseMat.identity(n_dx * b.value.dim))
    return LinMap(b, cod, mat)


# -- pullback along linear substitutions ------------------------------------
# Pullback along x -> a@x is an algebra map, so it is built from the generators
# of d and K by recursion on the first factor of each monomial and dx product.


def _combination(a: SparseMat, k: int, gen) -> SparseMat:
    """sum_j a[k, j] gen(j + 1), for gen taking a 1-based axis."""
    return sum((gen(j + 1).scale(a.get(k, j)) for j in range(1, a.cols)),
               gen(1).scale(a.get(k, 0)))


@lru_cache(maxsize=None)
def _subst_matrix(a: SparseMat, n: int, p: int) -> SparseMat:
    """Pullback on degree-p monomials, as x^alpha = x_k x^(alpha - e_k) with k
    the first variable of alpha.  The alpha sharing k are one lexicographic
    run, last k first, over the leading alpha - e_k: those free of x before x_k."""
    if p == 0:
        return SparseMat.identity(1)
    prev = _subst_matrix(a, n, p - 1)
    return hstack([_combination(a, k, partial(_mult_scalar, n, p - 1))
                   @ take_cols(prev, range(len(monomials(n - k, p - 1))))
                   for k in reversed(range(n))])


def form_pullback_matrix(a: SparseMat, n: int, i: int) -> SparseMat:
    """Pullback on Lambda^i under x -> a@x: dx^J -> sum_J' det(a[J,J']) dx^J',
    as dx^J = dx^j ^ dx^(J-j) with j the first index of J.  The J sharing j
    are one lexicographic run over the trailing J-j: those above j."""
    if i == 0:
        return SparseMat.identity(1)
    prev = form_pullback_matrix(a, n, i - 1)
    return hstack([_combination(a, j - 1, partial(wedge_const, n, i - 1))
                   @ take_cols(prev, range(prev.cols - comb(n - j, i - 1), prev.cols))
                   for j in range(1, n - i + 2)])


def pullback_block(a: SparseMat, b: FormBlock, value_action: SparseMat) -> LinMap:
    """Pullback of a block under the linear substitution x -> a@x.

    value_action is the matrix acting on the value coordinates (identity for
    plainly form-valued rows).  Linear substitutions preserve (i, p), so this
    is an endomorphism of the block.
    """
    if b.dim == 0:
        return LinMap.zero(b, b)
    poly = _subst_matrix(a, b.n, b.p)
    lam = form_pullback_matrix(a, b.n, b.i)
    return LinMap(b, b, poly.kron(lam).kron(value_action))
