"""Exact sparse linear algebra over the rationals.

A ``SparseMat`` stores integer numerators ``num`` over one positive common
denominator ``den``, always in lowest terms (``gcd(den, *num.values()) ==
1``, no zero numerators), so equal matrices have equal storage and matmul,
add, kron, scale and block assembly run on Python ``int``.  The accessors
``get``, ``entries``, ``to_dense``, ``column`` and ``columns`` return
lowest-terms ``fractions.Fraction`` values.  One fraction-free elimination,
``_echelon_int`` (integer rows with content normalization, first nonzero
pivot in column order), serves rank, kernel, solve, inverse, projection and
pseudoinverse, so every result is reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


class LinAlgError(Exception):
    pass


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class SparseMat:
    """Sparse rational matrix: integer numerators over one denominator.

    ``num`` maps (row, col) to a nonzero int and ``den`` is a positive int
    with no factor common to every numerator.  Treated as immutable after
    construction; all operations return new matrices.  Zero-row /
    zero-column shapes are legal and arise routinely as absent graded
    blocks.
    """

    __slots__ = ("rows", "cols", "num", "den", "_row_cache")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix dimensions")
        values: dict[tuple[int, int], int | Fraction] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else (
                ((r, c), v) for (r, c, v) in entries)
            for (r, c), v in items:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise LinAlgError(f"entry ({r},{c}) out of range for {rows}x{cols}")
                if not isinstance(v, (int, Fraction)):
                    v = Fraction(v)
                if v == 0:
                    continue
                if (r, c) in values:
                    raise LinAlgError(f"duplicate entry at ({r},{c})")
                values[(r, c)] = v
        # the lcm of lowest-terms denominators leaves the numerators coprime to it
        den = lcm(*(v.denominator for v in values.values()))
        self.rows = rows
        self.cols = cols
        self.num = {k: v.numerator * (den // v.denominator) for k, v in values.items()}
        self.den = den
        self._row_cache = None

    @classmethod
    def _from_num(cls, rows: int, cols: int, num: dict, den: int) -> "SparseMat":
        """Matrix num/den from nonzero int numerators and a positive den.

        The one place that reduces to lowest terms; takes ownership of num.
        """
        if den != 1:
            g = den
            for v in num.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out.num = num
        out.den = den
        out._row_cache = None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMat":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        return cls._from_num(n, n, {(i, i): 1 for i in range(n)}, 1)

    @classmethod
    def from_dense(cls, dense) -> "SparseMat":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        ent = {}
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise LinAlgError("ragged dense input")
            for j, v in enumerate(row):
                v = _as_fraction(v)
                if v != 0:
                    ent[(i, j)] = v
        return cls(rows, cols, ent)

    @classmethod
    def from_columns(cls, cols: list[list[Fraction]], rows: int) -> "SparseMat":
        ent = {}
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                if v != 0:
                    ent[(i, j)] = _as_fraction(v)
        return cls(rows, len(cols), ent)

    # -- basic access ------------------------------------------------------

    def get(self, r: int, c: int) -> Fraction:
        v = self.num.get((r, c))
        return ZERO if v is None else Fraction(v, self.den)

    @property
    def data(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero entries as Fractions (a fresh read-only view)."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.num.items()}

    @property
    def nnz(self) -> int:
        return len(self.num)

    def entries(self):
        """Entries as (row, col, value), sorted by coordinate."""
        num, den = self.num, self.den
        for (r, c) in sorted(num):
            yield r, c, Fraction(num[(r, c)], den)

    def is_zero(self) -> bool:
        return not self.num

    def to_dense(self) -> list[list[Fraction]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.num.items():
            out[r][c] = Fraction(v, self.den)
        return out

    def column(self, j: int) -> list[Fraction]:
        col = [ZERO] * self.rows
        for (r, c), v in self.num.items():
            if c == j:
                col[r] = Fraction(v, self.den)
        return col

    def columns(self) -> list[list[Fraction]]:
        cols = [[ZERO] * self.rows for _ in range(self.cols)]
        for (r, c), v in self.num.items():
            cols[c][r] = Fraction(v, self.den)
        return cols

    def _rows(self):
        """Row-major adjacency [(col, numerator), ...] per row, kept only
        once ``_rows_adj`` has built it."""
        if self._row_cache is not None:
            return self._row_cache
        adj = [[] for _ in range(self.rows)]
        for (r, c), v in self.num.items():
            adj[r].append((c, v))
        return adj

    def _rows_adj(self):
        """The row-major adjacency, built lazily and kept."""
        if self._row_cache is None:
            self._row_cache = self._rows()
        return self._row_cache

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.num) == \
            (other.rows, other.cols, other.den, other.num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, frozenset(self.num.items())))

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in add")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        num = dict(self.num) if fa == 1 else {k: v * fa for k, v in self.num.items()}
        for k, v in other.num.items():
            s = num.get(k, 0) + v * fb
            if s:
                num[k] = s
            else:
                del num[k]
        return SparseMat._from_num(self.rows, self.cols, num, den)

    def __neg__(self) -> "SparseMat":
        return SparseMat._from_num(self.rows, self.cols,
                                   {k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + (-other)

    def scale(self, a) -> "SparseMat":
        a = _as_fraction(a)
        if a == 0:
            return SparseMat(self.rows, self.cols)
        p = a.numerator
        return SparseMat._from_num(self.rows, self.cols,
                                   {k: p * v for k, v in self.num.items()},
                                   a.denominator * self.den)

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch in matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # Only the right operand keeps its adjacency: left operands are often
        # long-lived blocks multiplied once, where keeping it costs memory.
        brows = other._rows_adj()
        num = {}
        for i, arow in enumerate(self._rows()):
            if not arow:
                continue
            acc: dict[int, int] = {}
            for k, a in arow:
                for j, b in brows[k]:
                    acc[j] = acc.get(j, 0) + a * b
            for j, v in acc.items():
                if v:
                    num[(i, j)] = v
        return SparseMat._from_num(self.rows, other.cols, num, self.den * other.den)

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise LinAlgError("vector length mismatch")
        vden = lcm(*(x.denominator for x in vec))
        vnum = [x.numerator * (vden // x.denominator) for x in vec]
        out = [0] * self.rows
        for (r, c), v in self.num.items():
            x = vnum[c]
            if x:
                out[r] += v * x
        den = self.den * vden
        return [Fraction(s, den) if s else ZERO for s in out]

    def transpose(self) -> "SparseMat":
        return SparseMat._from_num(self.cols, self.rows,
                                   {(c, r): v for (r, c), v in self.num.items()}, self.den)

    def kron(self, other: "SparseMat") -> "SparseMat":
        orows, ocols = other.rows, other.cols
        onum = other.num.items()
        num = {}
        for (r1, c1), v1 in self.num.items():
            r0, c0 = r1 * orows, c1 * ocols
            for (r2, c2), v2 in onum:
                num[(r0 + r2, c0 + c2)] = v1 * v2
        return SparseMat._from_num(self.rows * orows, self.cols * ocols, num,
                                   self.den * other.den)

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, nnz={self.nnz})"


def block_matrix(grid, row_dims: list[int], col_dims: list[int]) -> SparseMat:
    """Assemble a block matrix; None blocks are zero."""
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    placed = []
    for bi, row in enumerate(grid):
        for bj, blk in enumerate(row):
            if blk is None:
                continue
            if blk.rows != row_dims[bi] or blk.cols != col_dims[bj]:
                raise LinAlgError(f"block ({bi},{bj}) has shape {blk.rows}x{blk.cols}, "
                                  f"expected {row_dims[bi]}x{col_dims[bj]}")
            placed.append((roff[bi], coff[bj], blk))
    return assemble(roff[-1], coff[-1], placed)


def assemble(rows: int, cols: int, placed) -> SparseMat:
    """The rows x cols matrix holding each (r0, c0, block) with its top-left
    corner at (r0, c0); blocks must not overlap."""
    den = lcm(*(blk.den for _, _, blk in placed))
    num = {}
    for r0, c0, blk in placed:
        f = den // blk.den
        for (r, c), v in blk.num.items():
            num[(r0 + r, c0 + c)] = v * f
    return SparseMat._from_num(rows, cols, num, den)


def take_rows(m: SparseMat, rows) -> SparseMat:
    """The listed rows of m, in the listed order."""
    index = {r: k for k, r in enumerate(rows)}
    num = {(index[r], c): v for (r, c), v in m.num.items() if r in index}
    return SparseMat._from_num(len(index), m.cols, num, m.den)


def take_cols(m: SparseMat, cols) -> SparseMat:
    """The listed columns of m, in the listed order."""
    index = {c: k for k, c in enumerate(cols)}
    num = {(r, index[c]): v for (r, c), v in m.num.items() if c in index}
    return SparseMat._from_num(m.rows, len(index), num, m.den)


def leading_block(m: SparseMat, rows: int, cols: int) -> SparseMat:
    """The first rows x cols block of m."""
    num = {(r, c): v for (r, c), v in m.num.items() if r < rows and c < cols}
    return SparseMat._from_num(rows, cols, num, m.den)


def hstack(mats: list[SparseMat]) -> SparseMat:
    rows = mats[0].rows if mats else 0
    return block_matrix([mats], [rows], [m.cols for m in mats])


def vstack(mats: list[SparseMat]) -> SparseMat:
    cols = mats[0].cols if mats else 0
    return block_matrix([[m] for m in mats], [m.rows for m in mats], [cols])


# -- elimination ----------------------------------------------------------


def _echelon_int(m: SparseMat):
    """Fraction-free sparse echelon form.

    Rows are the numerator rows of m divided by their content, and stay
    integral: the update is the cross-multiplication pivot*row -
    entry*pivot_row followed by division by the row content, which keeps
    entries integral without the blowup of naive rational pivoting.  Pivot
    choice: for each column in order, the first remaining row (in original
    order) with a nonzero entry, read from a column -> remaining-rows index.

    Returns (pivots, rows) where pivots is a list of (row_position, col)
    into the returned echelon rows.
    """
    work = []
    for adj in m._rows():
        if adj:
            g = gcd(*(x for _, x in adj))
            work.append({c: x // g for c, x in adj} if g > 1 else dict(adj))
    holders: list[set[int]] = [set() for _ in range(m.cols)]
    for idx, row in enumerate(work):
        for c in row:
            holders[c].add(idx)
    pivots = []
    for col in range(m.cols):
        targets = holders[col]
        if not targets:
            continue
        piv_idx = min(targets)
        targets.discard(piv_idx)
        pivots.append((piv_idx, col))
        prow = work[piv_idx]
        for c in prow:
            if c != col:
                holders[c].discard(piv_idx)
        p = prow[col]
        for idx in targets:
            row = work[idx]
            a = row[col]
            new = {c: p * x for c, x in row.items()}
            for c, x in prow.items():
                y = new.get(c, 0) - a * x
                if y:
                    if c not in row:
                        holders[c].add(idx)
                    new[c] = y
                else:
                    # only a column of row can cancel
                    del new[c]
                    if c != col:
                        holders[c].discard(idx)
            g = gcd(*new.values())
            if g > 1:
                new = {c: x // g for c, x in new.items()}
            work[idx] = new
    return pivots, work


def rank(m: SparseMat) -> int:
    """Exact rank over the rationals."""
    pivots, _ = _echelon_int(m)
    return len(pivots)


def _kernel(m: SparseMat):
    """Pivot columns and kernel basis of m from one echelon pass.

    One kernel vector per free column, with entry 1 at that column, found by
    back substitution on the integer echelon rows in reverse pivot order.
    Each vector is kept as integer numerators over one running denominator:
    solving pivot p against the integer residual s scales every numerator
    and the denominator by |p| / gcd(s, p).  The basis is returned as one
    matrix, column k the k-th vector, over the lcm of those denominators, so
    it is the same as with rational back substitution.
    """
    pivots, work = _echelon_int(m)
    pivot_cols = [c for _, c in pivots]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for fc in free_cols:
        num = {fc: 1}
        den = 1
        for idx, pc in reversed(pivots):
            row = work[idx]
            s = sum(a * num[c] for c, a in row.items() if c in num)
            if s:
                p = row[pc]
                g = gcd(s, p)
                f = abs(p) // g
                if f != 1:
                    num = {c: x * f for c, x in num.items()}
                    den *= f
                num[pc] = -s // g if p > 0 else s // g
        vectors.append((num, den))
    den = lcm(*(d for _, d in vectors))
    basis = {(c, k): x * (den // d) for k, (num, d) in enumerate(vectors)
             for c, x in num.items()}
    return pivot_cols, SparseMat._from_num(m.cols, len(vectors), basis, den)


def nullspace(m: SparseMat) -> SparseMat:
    """Deterministic basis of the right kernel as the columns of a matrix,
    ordered by free column."""
    return _kernel(m)[1]


def column_space(m: SparseMat) -> SparseMat:
    """Pivot columns of m, as a matrix whose columns span ran(m)."""
    pivots, _ = _echelon_int(m)
    pos = {c: k for k, (_, c) in enumerate(pivots)}
    num = {(r, pos[c]): v for (r, c), v in m.num.items() if c in pos}
    return SparseMat._from_num(m.rows, len(pos), num, m.den)


def solve_dense(a: SparseMat, b: SparseMat) -> SparseMat:
    """Solve a @ x = b exactly for square invertible a.

    The kernel of [a | b] holds one vector (-x_c, e_c) per column c of b
    exactly when the pivots of [a | b] are the columns of a.
    """
    n = a.rows
    if a.cols != n:
        raise LinAlgError("solve_dense needs a square matrix")
    if b.rows != n:
        raise LinAlgError("rhs shape mismatch")
    pivot_cols, basis = _kernel(hstack([a, b]))
    if pivot_cols != list(range(n)):
        raise LinAlgError("singular matrix in solve_dense")
    return -take_rows(basis, range(n))


def inverse(a: SparseMat) -> SparseMat:
    return solve_dense(a, SparseMat.identity(a.rows))


def solve_thin(q: SparseMat, b: SparseMat) -> SparseMat:
    """Solve q @ x = b exactly where q has full column rank.

    Raises if any column of b is outside ran(q); used to express vectors
    in the coordinates of a subspace basis.
    """
    qtq = q.transpose() @ q
    x = solve_dense(qtq, q.transpose() @ b)
    if q @ x != b:
        raise LinAlgError("inconsistent thin solve: rhs not in column span")
    return x


# -- projections, pseudoinverse --------------------------------------------


def projection_onto(basis: SparseMat) -> SparseMat:
    """Orthogonal projection matrix onto the column span of basis.

    Fails if the basis columns are dependent.
    """
    bt = basis.transpose()
    try:
        inv = inverse(bt @ basis)
    except LinAlgError:
        raise LinAlgError("projection basis is linearly dependent")
    return basis @ inv @ bt


def orthogonal_complement(basis: SparseMat) -> SparseMat:
    """Basis (columns) of the orthogonal complement of the column span."""
    return nullspace(basis.transpose())


def pinv_onto(m: SparseMat) -> SparseMat:
    """Moore-Penrose pseudoinverse for the standard inner products.

    Sends y to the unique x in ker(m)^perp with m@x the orthogonal
    projection of y onto ran(m): with c a basis of ran(m), w a basis of
    ker(m)^perp = ran(m^T) and coordinates C = (c^T c)^-1 c^T on ran(m),
    pinv = w (C m w)^-1 C, since C m w is invertible.
    """
    w = column_space(m.transpose())
    c = column_space(m)
    ct = c.transpose()
    coords = inverse(ct @ c) @ ct
    return w @ inverse(coords @ m @ w) @ coords
