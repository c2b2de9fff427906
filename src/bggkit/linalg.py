"""Exact sparse linear algebra over the rationals.

Scalars are ``fractions.Fraction``.  One fraction-free elimination,
``_echelon_int`` (integer rows with content normalization, first nonzero
pivot in column order), serves rank, kernel, solve, inverse, projection and
pseudoinverse, so every result is reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)


class LinAlgError(Exception):
    pass


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class SparseMat:
    """Sparse rational matrix: no stored zeros, no duplicate coordinates.

    Treated as immutable after construction; all operations return new
    matrices.  Zero-row / zero-column shapes are legal and arise routinely
    as absent graded blocks.
    """

    __slots__ = ("rows", "cols", "data", "_row_cache")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        data: dict[tuple[int, int], Fraction] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else (
                ((r, c), v) for (r, c, v) in entries)
            for (r, c), v in items:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise LinAlgError(f"entry ({r},{c}) out of range for {rows}x{cols}")
                v = _as_fraction(v)
                if v == 0:
                    continue
                if (r, c) in data:
                    raise LinAlgError(f"duplicate entry at ({r},{c})")
                data[(r, c)] = v
        self.data = data
        self._row_cache = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMat":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        return cls(n, n, {(i, i): ONE for i in range(n)})

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
        return self.data.get((r, c), ZERO)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def entries(self):
        """Entries as (row, col, value), sorted by coordinate."""
        for (r, c) in sorted(self.data):
            yield r, c, self.data[(r, c)]

    def is_zero(self) -> bool:
        return not self.data

    def to_dense(self) -> list[list[Fraction]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.data.items():
            out[r][c] = v
        return out

    def column(self, j: int) -> list[Fraction]:
        col = [ZERO] * self.rows
        for (r, c), v in self.data.items():
            if c == j:
                col[r] = v
        return col

    def columns(self) -> list[list[Fraction]]:
        cols = [[ZERO] * self.rows for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = v
        return cols

    def _rows_adj(self):
        """Row-major adjacency [(col, val), ...] per row, built lazily."""
        if self._row_cache is None:
            adj = [[] for _ in range(self.rows)]
            for (r, c), v in self.data.items():
                adj[r].append((c, v))
            self._row_cache = adj
        return self._row_cache

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.data.items())))

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in add")
        data = dict(self.data)
        for k, v in other.data.items():
            s = data.get(k, ZERO) + v
            if s == 0:
                data.pop(k, None)
            else:
                data[k] = s
        out = SparseMat(self.rows, self.cols)
        out.data = data
        return out

    def __neg__(self) -> "SparseMat":
        out = SparseMat(self.rows, self.cols)
        out.data = {k: -v for k, v in self.data.items()}
        return out

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + (-other)

    def scale(self, a) -> "SparseMat":
        a = _as_fraction(a)
        out = SparseMat(self.rows, self.cols)
        if a != 0:
            out.data = {k: a * v for k, v in self.data.items()}
        return out

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch in matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        brows = other._rows_adj()
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, k), a in self.data.items():
            for j, b in brows[k]:
                key = (i, j)
                cur = acc.get(key)
                acc[key] = a * b if cur is None else cur + a * b
        out = SparseMat(self.rows, other.cols)
        out.data = {k: v for k, v in acc.items() if v != 0}
        return out

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise LinAlgError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), v in self.data.items():
            x = vec[c]
            if x != 0:
                out[r] += v * x
        return out

    def transpose(self) -> "SparseMat":
        out = SparseMat(self.cols, self.rows)
        out.data = {(c, r): v for (r, c), v in self.data.items()}
        return out

    def kron(self, other: "SparseMat") -> "SparseMat":
        out = SparseMat(self.rows * other.rows, self.cols * other.cols)
        data = {}
        for (r1, c1), v1 in self.data.items():
            for (r2, c2), v2 in other.data.items():
                data[(r1 * other.rows + r2, c1 * other.cols + c2)] = v1 * v2
        out.data = data
        return out

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
    out = SparseMat(roff[-1], coff[-1])
    data = {}
    for bi, row in enumerate(grid):
        for bj, blk in enumerate(row):
            if blk is None:
                continue
            if blk.rows != row_dims[bi] or blk.cols != col_dims[bj]:
                raise LinAlgError(f"block ({bi},{bj}) has shape {blk.rows}x{blk.cols}, "
                                  f"expected {row_dims[bi]}x{col_dims[bj]}")
            r0, c0 = roff[bi], coff[bj]
            for (r, c), v in blk.data.items():
                data[(r0 + r, c0 + c)] = v
    out.data = data
    return out


def hstack(mats: list[SparseMat]) -> SparseMat:
    rows = mats[0].rows if mats else 0
    return block_matrix([mats], [rows], [m.cols for m in mats])


def vstack(mats: list[SparseMat]) -> SparseMat:
    cols = mats[0].cols if mats else 0
    return block_matrix([[m] for m in mats], [m.rows for m in mats], [cols])


# -- elimination ----------------------------------------------------------


def _int_rows(m: SparseMat):
    """Clear denominators row by row: list of {col: int} plus row order."""
    adj = m._rows_adj()
    rows = []
    for r in range(m.rows):
        entries = adj[r]
        if not entries:
            continue
        den = 1
        for _, v in entries:
            den = den * v.denominator // gcd(den, v.denominator)
        row = {c: int(v * den) for c, v in entries}
        g = 0
        for x in row.values():
            g = gcd(g, x)
        if g > 1:
            row = {c: x // g for c, x in row.items()}
        rows.append((r, row))
    return rows


def _echelon_int(m: SparseMat):
    """Fraction-free sparse echelon form.

    Rows are kept integral: the update is the cross-multiplication
    pivot*row - entry*pivot_row followed by division by the row content,
    which keeps entries integral without the blowup of naive rational
    pivoting.  Pivot choice: for each column in order, the first remaining
    row (in original order) with a nonzero entry.

    Returns (pivots, rows) where pivots is a list of (row_position, col)
    into the returned echelon rows.
    """
    rows = _int_rows(m)
    work = [row for _, row in rows]
    pivots = []
    used = [False] * len(work)
    for col in range(m.cols):
        piv_idx = -1
        for idx, row in enumerate(work):
            if not used[idx] and col in row:
                piv_idx = idx
                break
        if piv_idx < 0:
            continue
        used[piv_idx] = True
        pivots.append((piv_idx, col))
        prow = work[piv_idx]
        p = prow[col]
        for idx, row in enumerate(work):
            if used[idx] or col not in row:
                continue
            a = row[col]
            new = {}
            g = 0
            for c in row.keys() | prow.keys():
                x = p * row.get(c, 0) - a * prow.get(c, 0)
                if x:
                    new[c] = x
                    g = gcd(g, x)
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
    back substitution on the echelon rows in reverse pivot order.
    """
    pivots, work = _echelon_int(m)
    pivot_cols = [c for _, c in pivots]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * m.cols
        vec[fc] = ONE
        for idx, pc in reversed(pivots):
            row = work[idx]
            s = ZERO
            for c, a in row.items():
                if c != pc and vec[c] != 0:
                    s += a * vec[c]
            if s != 0:
                vec[pc] = -s / row[pc]
        basis.append(vec)
    return pivot_cols, basis


def nullspace(m: SparseMat) -> list[list[Fraction]]:
    """Deterministic basis of the right kernel, ordered by free column."""
    return _kernel(m)[1]


def column_space(m: SparseMat) -> SparseMat:
    """Pivot columns of m, as a matrix whose columns span ran(m)."""
    pivots, _ = _echelon_int(m)
    cols = [m.column(c) for _, c in pivots]
    return SparseMat.from_columns(cols, m.rows)


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
    return SparseMat(n, b.cols, {(r, c): -vec[r] for c, vec in enumerate(basis)
                                 for r in range(n) if vec[r] != 0})


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
    return SparseMat.from_columns(nullspace(basis.transpose()), basis.rows)


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
