"""Exact sparse linear algebra over the rationals.

A ``SparseMat`` is row-major: ``by_row`` maps each row that holds an entry
to a dict {column: nonzero int numerator}, over one positive common
denominator ``den``.  No empty row and no zero entry is stored, and the
matrix is kept in lowest terms (no factor common to ``den`` and every
numerator), so equal matrices have equal storage.  Every operation works on
these rows directly and runs on Python ``int``; rows are never mutated once
built, so results share unchanged rows with their operands.  The accessors
``get``, ``entries``, ``to_dense`` and ``columns`` return lowest-terms
``fractions.Fraction`` values.  ``apply`` takes a list of rationals and
returns the product as a one-column matrix, formed by ``@``.

One fraction-free elimination, ``_echelon_int``, serves rank, kernel, solve,
inverse, projection and pseudoinverse.  It inserts the rows one at a time,
last row first, and reduces each by the stored row that leads at its least
column until it leads at a column no stored row leads at.  The leading
columns are the pivot columns, which depend only on the column order (a
column is a pivot exactly when it is independent of the columns before it),
and given the pivots each kernel vector (1 at its free column, 0 at the
other free columns) is unique, so every result is independent of the row
order and reproducible bit for bit.  ``rank`` eliminates the transpose of a
matrix with more rows than columns.
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
    numerator.  Treated as immutable after construction, rows included, so
    an operation may return an operand.  Zero-row / zero-column shapes are
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
        if a in (0, 1):
            return self if a else SparseMat(self.rows, self.cols)
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

    def apply(self, vec: list[Fraction]) -> "SparseMat":
        """self @ vec for a list of rationals, as a one-column matrix."""
        if len(vec) != self.cols:
            raise LinAlgError("vector length mismatch")
        den = lcm(*(x.denominator for x in vec))
        col = {r: {0: x.numerator * (den // x.denominator)} for r, x in enumerate(vec) if x}
        return self @ SparseMat._from_rows(self.cols, 1, col, den)

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


def components(*mats: SparseMat) -> list[list[int]]:
    """Connected components of the joint sparsity graph of square matrices
    (i ~ j when some matrix holds (i, j)), as sorted index lists in order of
    their least index; a symmetric pencil is block-diagonal on them."""
    cls = [{i} for i in range(mats[0].rows)]
    for m in mats:
        for r, row in m.by_row.items():
            for c in row:
                into, part = cls[r], cls[c]
                if into is not part:
                    into |= part
                    for i in part:
                        cls[i] = into
    return sorted({id(s): sorted(s) for s in cls}.values())


def hstack(mats: list[SparseMat]) -> SparseMat:
    rows = mats[0].rows if mats else 0
    return block_matrix([mats], [rows], [m.cols for m in mats])


def vstack(mats: list[SparseMat]) -> SparseMat:
    cols = mats[0].cols if mats else 0
    return block_matrix([[m] for m in mats], [m.rows for m in mats], [cols])


# -- elimination ----------------------------------------------------------


def _echelon_int(m: SparseMat):
    """Fraction-free sparse echelon form by row insertion.

    The numerator rows of m go in last row first, each divided by its
    content, and stay integral.  A row whose least column leads a stored row
    prow is replaced by p*row - a*prow (p and a the two entries there)
    divided by its content, which keeps entries integral without the blowup
    of naive rational pivoting; this repeats until the row leads at a column
    no stored row leads at, where it is stored, or vanishes.

    Returns (pivots, rows): the leading columns in increasing order and the
    stored rows in the same order, rows[k] leading at pivots[k].
    """
    lead: dict[int, dict[int, int]] = {}
    src = m.by_row
    for r in sorted(src, reverse=True):
        row = src[r]
        g = gcd(*row.values())
        if g > 1:
            row = {c: x // g for c, x in row.items()}
        while True:
            col = min(row)
            prow = lead.get(col)
            if prow is None:
                lead[col] = row
                break
            p, a = prow[col], row[col]
            new = dict(row) if p == 1 else {c: p * x for c, x in row.items()}
            for c, x in prow.items():
                y = new.get(c, 0) - a * x
                if y:
                    new[c] = y
                else:
                    # only a column of row can cancel
                    del new[c]
            if not new:
                break
            g = gcd(*new.values())
            row = {c: x // g for c, x in new.items()} if g > 1 else new
    pivots = sorted(lead)
    return pivots, [lead[c] for c in pivots]


def rank(m: SparseMat) -> int:
    """Exact rank over the rationals, eliminating along the shorter side."""
    return len(_echelon_int(m.transpose() if m.rows > m.cols else m)[0])


def _kernel(m: SparseMat):
    """Pivot columns and kernel basis of m from one echelon pass.

    One kernel vector per free column, with entry 1 at that column and 0 at
    the other free columns.  The pivot rows are solved once, in decreasing
    pivot order, for all free columns together: each variable is kept as
    integer numerators over the free columns and one positive denominator,
    in lowest terms.  The basis is returned as one matrix, column k the
    vector of the k-th free column, so it is the same as with rational back
    substitution.
    """
    pivots, rows = _echelon_int(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    sol = {c: ({k: 1}, 1) for k, c in enumerate(free)}
    for pc, row in zip(reversed(pivots), reversed(rows)):
        # every other column of row is free or a pivot solved already; an
        # absent one is zero in every vector
        terms = [(a, sol[c]) for c, a in row.items() if c in sol]
        den = lcm(*(d for _, (_, d) in terms))
        acc: dict[int, int] = {}
        for a, (num, d) in terms:
            f = a * (den // d)
            for k, x in num.items():
                acc[k] = acc.get(k, 0) + f * x
        acc = {k: x for k, x in acc.items() if x}
        if acc:
            # x_pc = -acc / (p * den), reduced with a positive denominator
            q = row[pc] * den
            g = gcd(q, *acc.values())
            s = g if q < 0 else -g
            sol[pc] = ({k: x // s for k, x in acc.items()}, abs(q) // g)
    den = lcm(*(d for _, d in sol.values()))
    basis = {c: {k: x * (den // d) for k, x in num.items()} for c, (num, d) in sol.items()}
    return pivots, SparseMat._from_rows(m.cols, len(free), basis, den)


def nullspace(m: SparseMat) -> SparseMat:
    """Deterministic basis of the right kernel as the columns of a matrix,
    ordered by free column."""
    return _kernel(m)[1]


def column_space(m: SparseMat) -> SparseMat:
    """Pivot columns of m, as a matrix whose columns span ran(m)."""
    pivots, _ = _echelon_int(m)
    return _cols_at(m, {c: k for k, c in enumerate(pivots)})


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
