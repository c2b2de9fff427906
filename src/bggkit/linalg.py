"""Exact sparse linear algebra over the rationals.

Everything here is exact: scalars are ``fractions.Fraction``, elimination is
fraction-free (integer rows with content normalization), and pivoting is
deterministic (first nonzero in column order), so ranks, nullspace bases,
projections and pseudoinverses are reproducible bit for bit.
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


def nullspace(m: SparseMat) -> list[list[Fraction]]:
    """Deterministic basis of the right kernel.

    One vector per free column, with entry 1 at that column; vectors are
    ordered by free column index.
    """
    pivots, work = _echelon_int(m)
    pivot_cols = [c for _, c in pivots]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    # Back substitution on the echelon rows, in reverse pivot order.
    basis = []
    ordered = pivots  # already in increasing column order
    for fc in free_cols:
        vec = [ZERO] * m.cols
        vec[fc] = ONE
        for idx, pc in reversed(ordered):
            row = work[idx]
            s = ZERO
            for c, a in row.items():
                if c != pc and vec[c] != 0:
                    s += a * vec[c]
            if s != 0:
                vec[pc] = -s / row[pc]
        basis.append(vec)
    return basis


def column_space(m: SparseMat) -> SparseMat:
    """Pivot columns of m, as a matrix whose columns span ran(m)."""
    pivots, _ = _echelon_int(m)
    cols = [m.column(c) for _, c in pivots]
    return SparseMat.from_columns(cols, m.rows)


def solve_dense(a: SparseMat, b: SparseMat) -> SparseMat:
    """Solve a @ x = b exactly for square invertible a (dense elimination)."""
    n = a.rows
    if a.cols != n:
        raise LinAlgError("solve_dense needs a square matrix")
    if b.rows != n:
        raise LinAlgError("rhs shape mismatch")
    aug = [row[:] + brow[:] for row, brow in zip(a.to_dense(), b.to_dense())]
    w = n + b.cols
    for col in range(n):
        piv = -1
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv < 0:
            raise LinAlgError("singular matrix in solve_dense")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            f = aug[r][col] / pv
            rowr, rowc = aug[r], aug[col]
            for c in range(col, w):
                rowr[c] -= f * rowc[c]
    ent = {}
    for r in range(n):
        pv = aug[r][r]
        for c in range(b.cols):
            v = aug[r][n + c] / pv
            if v != 0:
                ent[(r, c)] = v
    return SparseMat(n, b.cols, ent)


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


# -- inner products, projections, pseudoinverse ---------------------------


class InnerProduct:
    """Symmetric positive definite Gram matrix on a coordinate space.

    Definiteness is certified by a rational LDL^T factorization with all
    pivots positive.
    """

    def __init__(self, gram: SparseMat):
        if gram.rows != gram.cols:
            raise LinAlgError("Gram matrix must be square")
        if gram != gram.transpose():
            raise LinAlgError("Gram matrix must be symmetric")
        self._check_positive(gram)
        self.gram = gram

    @staticmethod
    def _check_positive(gram: SparseMat):
        n = gram.rows
        a = gram.to_dense()
        for k in range(n):
            p = a[k][k]
            if p <= 0:
                raise LinAlgError(f"Gram matrix is not positive definite (pivot {k})")
            for i in range(k + 1, n):
                if a[i][k] == 0:
                    continue
                f = a[i][k] / p
                rowi, rowk = a[i], a[k]
                for j in range(k, n):
                    rowi[j] -= f * rowk[j]

    @classmethod
    def standard(cls, n: int) -> "InnerProduct":
        ip = cls.__new__(cls)
        ip.gram = SparseMat.identity(n)
        return ip

    @property
    def dim(self) -> int:
        return self.gram.rows


def projection_onto(basis: SparseMat, ip: InnerProduct | None = None) -> SparseMat:
    """Orthogonal projection matrix onto the column span of basis.

    Fails if the basis columns are dependent.
    """
    n = basis.rows
    if basis.cols == 0:
        return SparseMat.zero(n, n)
    g = ip.gram if ip is not None else SparseMat.identity(n)
    btg = basis.transpose() @ g
    gramian = btg @ basis
    try:
        inv = inverse(gramian)
    except LinAlgError:
        raise LinAlgError("projection basis is linearly dependent")
    return basis @ inv @ btg


def project(basis: list[list[Fraction]], ip: InnerProduct, v: list[Fraction]) -> list[Fraction]:
    """ip-orthogonal projection of v onto span(basis)."""
    n = len(v)
    bmat = SparseMat.from_columns(basis, n)
    p = projection_onto(bmat, ip)
    return p.apply(v)


def orthogonal_complement(basis: SparseMat, ip: InnerProduct | None = None) -> SparseMat:
    """Basis (columns) of the ip-orthogonal complement of the column span."""
    n = basis.rows
    g = ip.gram if ip is not None else None
    constraints = basis.transpose() @ g if g is not None else basis.transpose()
    vecs = nullspace(constraints)
    return SparseMat.from_columns(vecs, n)


def pinv_onto(m: SparseMat, ip_dom: InnerProduct | None = None,
              ip_cod: InnerProduct | None = None) -> SparseMat:
    """Moore-Penrose pseudoinverse with respect to the two inner products.

    Sends y to the unique x in ker(m)^perp with m@x equal to the
    ip_cod-orthogonal projection of y onto ran(m).  Satisfies
    m @ pinv @ m == m and pinv @ m @ pinv == pinv exactly.
    """
    if m.is_zero():
        return SparseMat.zero(m.cols, m.rows)
    ker = SparseMat.from_columns(nullspace(m), m.cols)
    w = orthogonal_complement(ker, ip_dom)          # basis of ker(m)^perp
    c = column_space(m)                             # basis of ran(m)
    p_ran = projection_onto(c, ip_cod)
    mw = m @ w                                      # injective, same range as m
    e = solve_thin(c, mw)                           # mw = c @ e, e invertible
    return w @ inverse(e) @ solve_thin(c, p_ran)
