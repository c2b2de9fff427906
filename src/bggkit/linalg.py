"""Exact sparse linear algebra over the rationals.

A ``SparseMat`` is row-major: ``by_row`` maps each row that holds an entry
to a dict {column: nonzero int numerator}, over one positive common
denominator ``den``.  No empty row and no zero entry is stored, and the
matrix is kept in lowest terms (no factor common to ``den`` and every
numerator), so equal matrices have equal storage.  Every operation works on
these rows directly and runs on Python ``int``; rows are never mutated once
built, so results share unchanged rows with their operands.  The accessors
``get``, ``entries``, ``to_dense``, ``column`` and ``columns`` return
lowest-terms ``fractions.Fraction`` values.

One fraction-free elimination, ``_echelon_int``, serves rank, kernel, solve,
inverse, projection and pseudoinverse.  For each column in order it pivots
on the last remaining row that holds the column.  Which columns become
pivots depends only on the column order (a column is a pivot exactly when
it is independent of the columns before it), and given the pivots each
kernel vector (1 at its free column, 0 at the other free columns) is
unique, so every result is independent of the row choice and reproducible
bit for bit.
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
    """Sparse rational matrix: integer numerator rows over one denominator.

    ``by_row`` maps a row index to {column: nonzero int} and holds only
    nonempty rows; ``den`` is a positive int with no factor common to every
    numerator.  Treated as immutable after construction, rows included; all
    operations return new matrices.  Zero-row / zero-column shapes are
    legal and arise routinely as absent graded blocks.
    """

    __slots__ = ("rows", "cols", "by_row", "den")

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
        by_row: dict[int, dict[int, int]] = {}
        for (r, c), v in values.items():
            by_row.setdefault(r, {})[c] = v.numerator * (den // v.denominator)
        self.rows = rows
        self.cols = cols
        self.by_row = by_row
        self.den = den

    @classmethod
    def _from_rows(cls, rows: int, cols: int, by_row: dict, den: int) -> "SparseMat":
        """Matrix by_row/den from nonempty rows of nonzero ints and a positive den.

        The one place that reduces to lowest terms; takes ownership of the
        dict by_row, whose rows may be shared with other matrices.
        """
        if den != 1:
            g = den
            for row in by_row.values():
                g = gcd(g, *row.values())
                if g == 1:
                    break
            if g > 1:
                by_row = {r: {c: v // g for c, v in row.items()}
                          for r, row in by_row.items()}
                den //= g
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out.by_row = by_row
        out.den = den
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMat":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        return cls._from_rows(n, n, {i: {i: 1} for i in range(n)}, 1)

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
        v = self.by_row.get(r, {}).get(c)
        return ZERO if v is None else Fraction(v, self.den)

    @property
    def num(self) -> dict[tuple[int, int], int]:
        """The numerators by coordinate (a fresh read-only view)."""
        return {(r, c): v for r, row in self.by_row.items() for c, v in row.items()}

    @property
    def data(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero entries as Fractions (a fresh read-only view)."""
        den = self.den
        return {(r, c): Fraction(v, den)
                for r, row in self.by_row.items() for c, v in row.items()}

    @property
    def nnz(self) -> int:
        return sum(map(len, self.by_row.values()))

    def entries(self):
        """Entries as (row, col, value), sorted by coordinate."""
        by_row, den = self.by_row, self.den
        for r in sorted(by_row):
            row = by_row[r]
            for c in sorted(row):
                yield r, c, Fraction(row[c], den)

    def is_zero(self) -> bool:
        return not self.by_row

    def to_dense(self) -> list[list[Fraction]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for r, row in self.by_row.items():
            line = out[r]
            for c, v in row.items():
                line[c] = Fraction(v, self.den)
        return out

    def column(self, j: int) -> list[Fraction]:
        col = [ZERO] * self.rows
        for r, row in self.by_row.items():
            v = row.get(j)
            if v is not None:
                col[r] = Fraction(v, self.den)
        return col

    def columns(self) -> list[list[Fraction]]:
        cols = [[ZERO] * self.rows for _ in range(self.cols)]
        for r, row in self.by_row.items():
            for c, v in row.items():
                cols[c][r] = Fraction(v, self.den)
        return cols

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.by_row) == \
            (other.rows, other.cols, other.den, other.by_row)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, frozenset(
            (r, c, v) for r, row in self.by_row.items() for c, v in row.items())))

    def __add__(self, other: "SparseMat") -> "SparseMat":
        return self._plus(other, 1)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self._plus(other, -1)

    def _plus(self, other: "SparseMat", sign: int) -> "SparseMat":
        """self + sign * other, for sign = 1 or -1."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in add")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        # rows that only one side holds are shared (scaled when fa, fb != 1)
        out = dict(self.by_row) if fa == 1 else \
            {r: {c: v * fa for c, v in row.items()} for r, row in self.by_row.items()}
        for r, brow in other.by_row.items():
            row = out.get(r)
            if row is None:
                out[r] = brow if fb == 1 else {c: v * fb for c, v in brow.items()}
                continue
            new = dict(row)
            for c, v in brow.items():
                s = new.get(c, 0) + v * fb
                if s:
                    new[c] = s
                else:
                    del new[c]
            if new:
                out[r] = new
            else:
                del out[r]
        return SparseMat._from_rows(self.rows, self.cols, out, den)

    def __neg__(self) -> "SparseMat":
        return SparseMat._from_rows(
            self.rows, self.cols,
            {r: {c: -v for c, v in row.items()} for r, row in self.by_row.items()}, self.den)

    def scale(self, a) -> "SparseMat":
        a = _as_fraction(a)
        if a == 0:
            return SparseMat(self.rows, self.cols)
        p = a.numerator
        return SparseMat._from_rows(
            self.rows, self.cols,
            {r: {c: p * v for c, v in row.items()} for r, row in self.by_row.items()},
            a.denominator * self.den)

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch in matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        brows = other.by_row
        out = {}
        for i, arow in self.by_row.items():
            acc = None
            merged = False
            for k, a in arow.items():
                brow = brows.get(k)
                if brow is None:
                    continue
                if acc is None:
                    # the first row reached is shared when its multiple is 1
                    if a == 1:
                        acc = brow
                    else:
                        acc = {}
                        for j, b in brow.items():
                            acc[j] = a * b
                    continue
                if not merged:
                    acc = dict(acc)  # never write into a row of other
                    merged = True
                get = acc.get
                for j, b in brow.items():
                    acc[j] = get(j, 0) + a * b
            if merged and 0 in acc.values():
                acc = {j: v for j, v in acc.items() if v}
            if acc:
                out[i] = acc
        return SparseMat._from_rows(self.rows, other.cols, out, self.den * other.den)

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise LinAlgError("vector length mismatch")
        vden = lcm(*(x.denominator for x in vec))
        vnum = [x.numerator * (vden // x.denominator) for x in vec]
        out = [ZERO] * self.rows
        den = self.den * vden
        for r, row in self.by_row.items():
            s = 0
            for c, v in row.items():
                x = vnum[c]
                if x:
                    s += v * x
            if s:
                out[r] = Fraction(s, den)
        return out

    def transpose(self) -> "SparseMat":
        out: dict[int, dict[int, int]] = {}
        for r, row in self.by_row.items():
            for c, v in row.items():
                col = out.get(c)
                if col is None:
                    out[c] = {r: v}
                else:
                    col[r] = v
        return SparseMat._from_rows(self.cols, self.rows, out, self.den)

    def kron(self, other: "SparseMat") -> "SparseMat":
        out: dict[int, dict[int, int]] = {}
        _place(out, 0, 0, self, other, 1)
        return SparseMat._from_rows(self.rows * other.rows, self.cols * other.cols, out,
                                    self.den * other.den)

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, nnz={self.nnz})"


def _place(out: dict, r0: int, c0: int, a: SparseMat, b: SparseMat, f: int):
    """Write the numerator rows of f * kron(a, b) into out, top-left corner at
    (r0, c0); a row already in out is merged with, never written into."""
    brows, bcols = b.rows, b.cols
    bitems = b.by_row.items()
    get = out.get
    for r1, row1 in a.by_row.items():
        base = r0 + r1 * brows
        if len(row1) == 1:
            # every row of b at one column offset, scaled; shared if unchanged
            [(c1, scale)] = row1.items()
            shift = c0 + c1 * bcols
            scale *= f
            for r2, row2 in bitems:
                if scale == 1 and not shift:
                    new = row2
                else:
                    new = {}
                    for c, v in row2.items():
                        new[shift + c] = scale * v
                held = get(base + r2)
                out[base + r2] = new if held is None else {**held, **new}
            continue
        terms = [(c0 + c1 * bcols, f * v1) for c1, v1 in row1.items()]
        for r2, row2 in bitems:
            new = {}
            for c, v in row2.items():
                for shift, scale in terms:
                    new[shift + c] = scale * v
            held = get(base + r2)
            out[base + r2] = new if held is None else {**held, **new}


_ONE = SparseMat.identity(1)


def _factors(blk) -> tuple[SparseMat, SparseMat]:
    """A block as the pair (a, b) of a.kron(b)."""
    return blk if isinstance(blk, tuple) else (_ONE, blk)


def block_matrix(grid, row_dims: list[int], col_dims: list[int]) -> SparseMat:
    """Assemble a block matrix; None blocks are zero.  A block may be given
    as a pair (a, b) standing for a.kron(b), which is placed unformed."""
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
            a, b = _factors(blk)
            shape = (a.rows * b.rows, a.cols * b.cols)
            if shape != (row_dims[bi], col_dims[bj]):
                raise LinAlgError(f"block ({bi},{bj}) has shape {shape[0]}x{shape[1]}, "
                                  f"expected {row_dims[bi]}x{col_dims[bj]}")
            placed.append((roff[bi], coff[bj], blk))
    return assemble(roff[-1], coff[-1], placed)


def assemble(rows: int, cols: int, placed) -> SparseMat:
    """The rows x cols matrix holding each (r0, c0, block) with its top-left
    corner at (r0, c0); each must fit, and no two may hold the same entry.
    A block may be given as a pair (a, b) standing for a.kron(b), which is
    placed unformed."""
    placed = [(r0, c0, *_factors(blk)) for r0, c0, blk in placed]
    for r0, c0, a, b in placed:
        h, w = a.rows * b.rows, a.cols * b.cols
        if min(r0, c0) < 0 or r0 + h > rows or c0 + w > cols:
            raise LinAlgError(f"a {h}x{w} block at ({r0},{c0}) does not fit "
                              f"in {rows}x{cols}")
    den = lcm(*(a.den * b.den for _, _, a, b in placed))
    out: dict[int, dict[int, int]] = {}
    for r0, c0, a, b in placed:
        _place(out, r0, c0, a, b, den // (a.den * b.den))
    return SparseMat._from_rows(rows, cols, out, den)


def _positions(indices, size: int, what: str) -> dict:
    """{index: position} for a listing of distinct indices in range(size)."""
    pos = {}
    for k, i in enumerate(indices):
        if not 0 <= i < size:
            raise LinAlgError(f"{what} {i} is out of range for {size} {what}s")
        if i in pos:
            raise LinAlgError(f"{what} {i} is listed twice")
        pos[i] = k
    return pos


def _cols_at(m: SparseMat, pos: dict) -> SparseMat:
    """The columns of m listed in pos, column c moved to pos[c]."""
    out = {}
    for r, row in m.by_row.items():
        new = {pos[c]: v for c, v in row.items() if c in pos}
        if new:
            out[r] = new
    return SparseMat._from_rows(m.rows, len(pos), out, m.den)


def take_rows(m: SparseMat, rows) -> SparseMat:
    """The listed rows of m, in the listed order; an index may appear once."""
    pos = _positions(rows, m.rows, "row")
    src = m.by_row
    out = {k: src[r] for r, k in pos.items() if r in src}
    return SparseMat._from_rows(len(pos), m.cols, out, m.den)


def take_cols(m: SparseMat, cols) -> SparseMat:
    """The listed columns of m, in the listed order; an index may appear once."""
    return _cols_at(m, _positions(cols, m.cols, "column"))


def leading_block(m: SparseMat, rows: int, cols: int) -> SparseMat:
    """The first rows x cols block of m."""
    if not (0 <= rows <= m.rows and 0 <= cols <= m.cols):
        raise LinAlgError(f"leading block {rows}x{cols} does not fit in {m.rows}x{m.cols}")
    src = m.by_row
    out = {}
    for r in range(rows):
        row = src.get(r)
        if row is None:
            continue
        if max(row) < cols:
            out[r] = row
        else:
            new = {c: v for c, v in row.items() if c < cols}
            if new:
                out[r] = new
    return SparseMat._from_rows(rows, cols, out, m.den)


def hstack(mats: list[SparseMat]) -> SparseMat:
    rows = mats[0].rows if mats else 0
    return block_matrix([mats], [rows], [m.cols for m in mats])


def vstack(mats: list[SparseMat]) -> SparseMat:
    cols = mats[0].cols if mats else 0
    return block_matrix([[m] for m in mats], [m.rows for m in mats], [cols])


# -- elimination ----------------------------------------------------------


def _echelon_int(m: SparseMat):
    """Fraction-free sparse echelon form.

    Rows are the numerator rows of m, in row order, divided by their
    content, and stay integral: the update is the cross-multiplication
    pivot*row - entry*pivot_row followed by division by the row content,
    which keeps entries integral without the blowup of naive rational
    pivoting.  Pivot choice: for each column in order, the last remaining
    row (in original order) with a nonzero entry, read from a column ->
    remaining-rows index.

    Returns (pivots, rows) where pivots is a list of (row_position, col)
    into the returned echelon rows.
    """
    work = []
    src = m.by_row
    for r in sorted(src):
        row = src[r]
        g = gcd(*row.values())
        work.append({c: x // g for c, x in row.items()} if g > 1 else row)
    holders: dict[int, set[int]] = {}
    for idx, row in enumerate(work):
        for c in row:
            held = holders.get(c)
            if held is None:
                holders[c] = {idx}
            else:
                held.add(idx)
    pivots = []
    for col in range(m.cols):
        targets = holders.pop(col, None)
        if not targets:
            continue
        piv_idx = max(targets)
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
            if p == 1:
                new = dict(row)
            else:
                new = {}
                for c, x in row.items():
                    new[c] = p * x
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
    basis: dict[int, dict[int, int]] = {}
    for k, (num, d) in enumerate(vectors):
        f = den // d
        for c, x in num.items():
            held = basis.get(c)
            if held is None:
                basis[c] = {k: x * f}
            else:
                held[k] = x * f
    return pivot_cols, SparseMat._from_rows(m.cols, len(vectors), basis, den)


def nullspace(m: SparseMat) -> SparseMat:
    """Deterministic basis of the right kernel as the columns of a matrix,
    ordered by free column."""
    return _kernel(m)[1]


def column_space(m: SparseMat) -> SparseMat:
    """Pivot columns of m, as a matrix whose columns span ran(m)."""
    pivots, _ = _echelon_int(m)
    return _cols_at(m, {c: k for k, (_, c) in enumerate(pivots)})


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
