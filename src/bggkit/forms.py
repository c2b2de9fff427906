"""Differential forms with homogeneous polynomial coefficients on R^n.

A graded block holds i-forms whose coefficients are homogeneous polynomials
of degree p with values in a finite-dimensional value space.  The basis is
(monomial, increasing dx multi-index, value label) in lexicographic order,
so constant-coefficient operators act by Kronecker products with identity
on the monomial factor and polynomial operators act with identity on the
value factor.

Axis arguments are 1-based, matching the usual dx^1, ..., dx^n notation.

Every scalar operator is built from three coordinate generators: x^l
(``_mult_scalar``) and d/dx^l (``_diff_scalar``) on monomials, and dx^l
wedge (``wedge_const``) on dx multi-indices.  So
d = sum_l d/dx^l (x) dx^l wedge, the row-lowering K = sum_l x^l (x) kappa_l
and its connector S = sum_l dx^l wedge (x) kappa_l (in ``diagram``), and a
linear pullback is the algebra map fixed by its images of x^l and dx^l.
The products of the d/dx^l, the d^alpha, are one exact table each
(``_diff_table``, with d/dx^l its alpha = e_l case), the tables beside which
G, A and B place their constant symbols.

Columns and stacked spaces are ``SumSpace``s, and ``SumSpace`` is the one
place that locates a part, through ``offset``, ``span`` and ``blocks`` (a
matrix split by part), so no caller adds up part dimensions itself.

The spaces are plain classes.  ``ValueSpace``, ``FormBlock``, ``CoordSpace``
and ``SumSpace`` are ``Value``s: immutable by convention, equal and hashed
by their fields, so a space can key a cache and two columns built apart
compare equal.  ``LinMap`` compares by identity.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from itertools import combinations
from math import comb, perm, prod
from operator import add

from .linalg import LinAlgError, SparseMat, hstack, take_cols


class Value:
    """Field-wise equality, hashing and repr for a plain, immutable class.

    A subclass names its fields, in constructor order, in ``_key()``.  Two
    instances are equal when they are of the same class and their keys are
    equal, so a value never equals a tuple or a value of another class.
    Nothing stops assignment to a field: immutability is a convention that
    each subclass states, and the hash relies on it.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()!r}"


class ValueSpace(Value):
    """Finite-dimensional constant-coefficient space with a labeled basis;
    immutable by convention."""

    def __init__(self, name: str, basis_labels: tuple[str, ...]):
        if len(basis_labels) < 1:
            raise ValueError("value space needs at least one basis label")
        self.name = name
        self.basis_labels = basis_labels

    def _key(self) -> tuple:
        return self.name, self.basis_labels

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


class FormBlock(Value):
    """The space of i-forms with degree-p homogeneous coefficients in a value
    space; immutable by convention.

    Out-of-range degrees (p < 0 or i = n+1) are allowed as empty blocks so
    that graded operators can target them with zero maps.
    """

    def __init__(self, n: int, i: int, p: int, value: ValueSpace):
        if n < 1:
            raise ValueError("spatial dimension must be >= 1")
        if not (0 <= i <= n + 1):
            raise ValueError("form degree out of range")
        self.n = n
        self.i = i
        self.p = p
        self.value = value

    def _key(self) -> tuple:
        return self.n, self.i, self.p, self.value

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


class CoordSpace(Value):
    """An abstract coordinate space (used for subspace coordinates);
    immutable by convention."""

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size

    def _key(self) -> tuple:
        return self.name, self.size

    @property
    def dim(self) -> int:
        return self.size


class SumSpace(Value):
    """Ordered direct sum of spaces, addressed by keys; immutable by
    convention, so its dimension is summed once, here."""

    def __init__(self, parts: tuple[tuple[object, object], ...]):
        self.parts = parts
        self.dim = sum(s.dim for _, s in parts)

    def _key(self) -> tuple:
        return (self.parts,)

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

    def _part_at(self) -> list:
        """(key, first coordinate) of the part holding each coordinate, one
        tuple per part; built per call, as a cached table saved no time."""
        at = []
        for k, s in self.parts:
            at += [(k, len(at))] * s.dim
        return at

    def dims(self) -> list[int]:
        return [s.dim for _, s in self.parts]


def blocks(mat: SparseMat, out_space: SumSpace, in_space: SumSpace) -> dict:
    """The nonzero blocks of ``mat``, a map from ``in_space`` to ``out_space``,
    keyed (output part, input part), each in its two parts' own coordinates."""
    row_at, col_at = out_space._part_at(), in_space._part_at()
    found = {}
    for r, row in mat.by_row.items():
        jo, r0 = row_at[r]
        for c, v in row.items():
            ji, c0 = col_at[c]
            found.setdefault((jo, ji), {}).setdefault(r - r0, {})[c - c0] = v
    return {(jo, ji): SparseMat._from_rows(out_space.space(jo).dim, in_space.space(ji).dim,
                                           rows, mat.den) for (jo, ji), rows in found.items()}


class LinMap:
    """Exact linear map with explicit domain and codomain handles."""

    def __init__(self, dom, cod, mat: SparseMat):
        if mat.rows != cod.dim or mat.cols != dom.dim:
            raise LinAlgError(
                f"matrix {mat.rows}x{mat.cols} does not match "
                f"cod dim {cod.dim} x dom dim {dom.dim}")
        self.dom = dom
        self.cod = cod
        self.mat = mat

    @classmethod
    def zero(cls, dom, cod) -> "LinMap":
        return cls(dom, cod, SparseMat.zero(cod.dim, dom.dim))

    def __matmul__(self, other: "LinMap") -> "LinMap":
        if other.cod != self.dom:
            raise LinAlgError("composition domain mismatch")
        return LinMap(other.dom, self.cod, self.mat @ other.mat)

    def __sub__(self, other: "LinMap") -> "LinMap":
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise LinAlgError("difference shape mismatch")
        return LinMap(self.dom, self.cod, self.mat - other.mat)

    def __neg__(self) -> "LinMap":
        return LinMap(self.dom, self.cod, -self.mat)

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
def wedge_const(n: int, i: int, axis: int) -> SparseMat:
    """Matrix of dx^axis wedge on Lambda^i -> Lambda^{i+1}: dx^axis moves past
    the indices below it, one sign each, and is zero on an index holding it."""
    src = form_indices(n, i)
    tgt = _form_index(n, i + 1)
    ent = {}
    for k, idx in enumerate(src):
        if axis not in idx:
            before = sum(j < axis for j in idx)
            ent[(tgt[idx[:before] + (axis,) + idx[before:]], k)] = (-1) ** before
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
        ent[(tgt[tuple(beta)], k)] = 1
    return SparseMat(len(tgt), len(src), ent)


def _diff_table(n: int, p: int, alpha: tuple[int, ...]) -> SparseMat:
    """The derivative d^alpha, (d/dx^1)^alpha_1 ... (d/dx^n)^alpha_n, on
    monomials of degree p: x^(gamma + alpha) goes to (gamma + alpha)!/gamma!
    x^gamma, and a monomial not divisible by x^alpha to 0.  Each row holds one
    entry, and distinct alpha send a monomial to distinct monomials.  Not
    cached: a cache would hold every table for the whole run."""
    k = sum(alpha)
    if not k:
        return SparseMat.identity(len(monomials(n, p)))
    src = _mono_index(n, p)
    tgt = monomials(n, p - k)
    rows = {}
    for t, gamma in enumerate(tgt):
        beta = tuple(map(add, gamma, alpha))
        rows[t] = {src[beta]: prod(map(perm, beta, alpha))}
    return SparseMat._from_rows(len(tgt), len(src), rows, 1)


def _diff_scalar(n: int, p: int, axis: int) -> SparseMat:
    """The derivative d/dx^axis on monomials of degree p, d^alpha at
    alpha = e_axis."""
    return _diff_table(n, p, tuple(int(l == axis) for l in range(1, n + 1)))


def axis_sum(n: int, term) -> SparseMat:
    """term(1) + ... + term(n), for n >= 1 and term taking a 1-based axis."""
    return sum((term(l) for l in range(2, n + 1)), term(1))


@lru_cache(maxsize=None)
def _d_scalar(n: int, i: int, p: int) -> SparseMat:
    """Exterior derivative on scalar blocks, (mono, dx)-indexed."""
    return axis_sum(n, lambda l: _diff_scalar(n, p, l).kron(wedge_const(n, i, l)))


# -- block-level operators --------------------------------------------------


def _d_factors(b: FormBlock) -> tuple[SparseMat, SparseMat]:
    """d on a block as the pair (scalar d, identity on values) whose kron it
    is; an empty block or target gives an empty scalar d."""
    return _d_scalar(b.n, b.i, b.p), SparseMat.identity(b.value.dim)


def exterior_derivative(b: FormBlock) -> LinMap:
    """d on a block; the target is the (i+1, p-1) block, empty if absent."""
    scalar, ident = _d_factors(b)
    return LinMap(b, FormBlock(b.n, b.i + 1, b.p - 1, b.value), scalar.kron(ident))


# -- pullback along linear substitutions ------------------------------------
# Pullback along x -> a@x is an algebra map, so it is built from the generators
# of d and K by recursion on the first factor of each monomial and dx product.


def _combination(a: SparseMat, k: int, gen) -> SparseMat:
    """sum_j a[k, j] gen(j + 1), for gen taking a 1-based axis."""
    return axis_sum(a.cols, lambda l: gen(l).scale(a.get(k, l - 1)))


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
