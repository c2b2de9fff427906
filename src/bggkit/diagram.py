"""BGG diagrams over polynomial-coefficient forms.

A diagram is declared by its row value spaces and, for each row j >= 1, the
n constant tensors kappa_l generating the coordinate-linear row-lowering
operator K = sum_l x^l kappa_l.  Everything else is synthesized: the
algebraic connector S = dK - Kd, the twisted differential d_V = d - S, and
the exponential intertwiner F.  All operators preserve the weight
w = polynomial degree + form degree + row index, so they are finite exact
matrices weight by weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .forms import (
    FormBlock,
    LinMap,
    SumSpace,
    ValueSpace,
    exterior_derivative,
    form_indices,
    monomials,
    wedge_const,
    _mult_scalar,
    _d_scalar,
)
from .linalg import SparseMat, block_matrix, rank


class DiagramError(Exception):
    pass


class VerificationError(Exception):
    pass


@dataclass(frozen=True)
class KappaSpec:
    """Constant tensors kappa_l per row: maps[j-1][l-1] sends V_j to V_{j-1}."""
    maps: tuple[tuple[SparseMat, ...], ...]

    def row(self, j: int) -> tuple[SparseMat, ...]:
        return self.maps[j - 1]


@dataclass(frozen=True)
class DiagramSpec:
    name: str
    n: int
    rows: tuple[ValueSpace, ...]
    kappa: KappaSpec

    @property
    def N(self) -> int:
        return len(self.rows) - 1

    def validate(self):
        if self.n < 1:
            raise DiagramError("spatial dimension must be >= 1")
        if len(self.kappa.maps) != self.N:
            raise DiagramError(
                f"kappa defined for {len(self.kappa.maps)} rows, expected {self.N}")
        for j in range(1, self.N + 1):
            row = self.kappa.row(j)
            if len(row) != self.n:
                raise DiagramError(f"row {j}: expected {self.n} tensors, got {len(row)}")
            for l, k in enumerate(row, start=1):
                want = (self.rows[j - 1].dim, self.rows[j].dim)
                if (k.rows, k.cols) != want:
                    raise DiagramError(
                        f"row {j}, tensor {l}: shape {(k.rows, k.cols)} != {want}")
        # commutation at the constant level; this is what makes SK = KS hold
        for j in range(2, self.N + 1):
            up = self.kappa.row(j)       # V_j -> V_{j-1}
            down = self.kappa.row(j - 1)  # V_{j-1} -> V_{j-2}
            for l in range(self.n):
                for m in range(l + 1, self.n):
                    if down[l] @ up[m] != down[m] @ up[l]:
                        raise DiagramError(
                            f"kappa tensors do not commute at row j={j}, "
                            f"axes l={l + 1}, m={m + 1}")


@dataclass
class CheckResult:
    name: str
    weight: int
    index: int
    ok: bool
    where: tuple | None = None

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        loc = f" at entry {self.where}" if self.where else ""
        return f"[{status}] {self.name}  w={self.weight} i={self.index}{loc}"


@dataclass
class VerifyReport:
    diagram: str
    w_max: int
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        lines = [f"diagram {self.diagram}: {len(self.checks)} checks, "
                 f"{len(self.failures())} failures (w_max={self.w_max})"]
        names = sorted({c.name for c in self.checks})
        for name in names:
            sub = [c for c in self.checks if c.name == name]
            bad = [c for c in sub if not c.ok]
            status = "pass" if not bad else f"FAIL ({len(bad)}/{len(sub)})"
            lines.append(f"  {name:12s} {status}")
        for c in self.failures()[:10]:
            lines.append("  " + c.line())
        return "\n".join(lines)


class BuiltDiagram:
    """A diagram with all weight-graded block and column operators assembled.

    Construction verifies the defining relation connector = dK - Kd against
    the direct constant-tensor form on every stored block.
    """

    def __init__(self, spec: DiagramSpec, w_max: int = 8, validate: bool = True):
        if validate:
            spec.validate()
        self.spec = spec
        self.w_max = w_max
        self.n = spec.n
        self.N = spec.N
        self._columns: dict = {}
        self._connectors: dict = {}
        self._ops: dict = {}
        self._verify_synthesis()

    # -- spaces ------------------------------------------------------------

    def block(self, i: int, j: int, w: int) -> FormBlock:
        return FormBlock(self.n, i, w - i - j, self.spec.rows[j])

    def column(self, i: int, w: int) -> SumSpace:
        """Z^i at weight w: the direct sum over rows of the graded blocks."""
        key = (i, w)
        if key not in self._columns:
            if i < 0 or i > self.n + 1:
                self._columns[key] = SumSpace(())
            else:
                self._columns[key] = SumSpace(tuple(
                    (j, self.block(i, j, w)) for j in range(self.N + 1)))
        return self._columns[key]

    # -- constant-level data -------------------------------------------------

    def partial_const(self, i: int, j: int) -> SparseMat:
        """Pointwise connector on constants: Lambda^i (x) V_j -> Lambda^{i+1} (x) V_{j-1}."""
        key = (i, j)
        if key not in self._connectors:
            rows_out = len(form_indices(self.n, i + 1)) * self.spec.rows[j - 1].dim
            cols_in = len(form_indices(self.n, i)) * self.spec.rows[j].dim
            acc = SparseMat.zero(rows_out, cols_in)
            for l in range(1, self.n + 1):
                acc = acc + wedge_const(self.n, i, l).kron(self.kappa(j)[l - 1])
            self._connectors[key] = acc
        return self._connectors[key]

    def kappa(self, j: int) -> tuple[SparseMat, ...]:
        return self.spec.kappa.row(j)

    # -- block operators -----------------------------------------------------

    def d_block(self, i: int, j: int, w: int) -> LinMap:
        return exterior_derivative(self.block(i, j, w))

    def K_block(self, i: int, j: int, w: int) -> LinMap:
        dom = self.block(i, j, w)
        cod = self.block(i, j - 1, w)
        if dom.dim == 0 or cod.dim == 0:
            return LinMap.zero(dom, cod)
        n_dx = len(form_indices(self.n, i))
        acc = SparseMat.zero(cod.dim, dom.dim)
        for l in range(1, self.n + 1):
            acc = acc + _mult_scalar(self.n, dom.p, l).kron(
                SparseMat.identity(n_dx)).kron(self.kappa(j)[l - 1])
        return LinMap(dom, cod, acc)

    def S_block(self, i: int, j: int, w: int) -> LinMap:
        dom = self.block(i, j, w)
        cod = self.block(i + 1, j - 1, w)
        if dom.dim == 0 or cod.dim == 0:
            return LinMap.zero(dom, cod)
        n_mono = len(monomials(self.n, dom.p))
        mat = SparseMat.identity(n_mono).kron(self.partial_const(i, j))
        return LinMap(dom, cod, mat)

    def _S_block_synthesized(self, i: int, j: int, w: int) -> LinMap:
        k = self.K_block(i, j, w)
        d_after_k = exterior_derivative(k.cod)
        d = self.d_block(i, j, w)
        k_after_d = self.K_block(i + 1, j, w)
        return d_after_k @ k - k_after_d @ d

    def _verify_synthesis(self):
        for w in range(self.w_max + 1):
            for i in range(self.n + 1):
                for j in range(1, self.N + 1):
                    direct = self.S_block(i, j, w)
                    synth = self._S_block_synthesized(i, j, w)
                    if direct.mat != synth.mat:
                        raise DiagramError(
                            f"connector mismatch (dK - Kd vs constant form) at "
                            f"i={i}, j={j}, w={w}")

    # -- column operators ------------------------------------------------------

    def _column_op(self, kind: str, i: int, w: int) -> LinMap:
        key = (kind, i, w)
        if key in self._ops:
            return self._ops[key]
        if i < 0 or i > self.n:
            dom = self.column(i, w)
            cod = dom if kind == "K" else self.column(i + 1, w)
            out = LinMap.zero(dom, cod)
            self._ops[key] = out
            return out
        dom = self.column(i, w)
        if kind == "d":
            cod = self.column(i + 1, w)
            grid = [[self.d_block(i, j, w).mat if j == jj else None
                     for j in range(self.N + 1)] for jj in range(self.N + 1)]
        elif kind == "K":
            cod = dom
            grid = [[None] * (self.N + 1) for _ in range(self.N + 1)]
            for j in range(1, self.N + 1):
                grid[j - 1][j] = self.K_block(i, j, w).mat
        elif kind == "S":
            cod = self.column(i + 1, w)
            grid = [[None] * (self.N + 1) for _ in range(self.N + 1)]
            for j in range(1, self.N + 1):
                grid[j - 1][j] = self.S_block(i, j, w).mat
        else:
            raise KeyError(kind)
        mat = block_matrix(grid, cod.dims(), dom.dims())
        out = LinMap(dom, cod, mat)
        self._ops[key] = out
        return out

    def d(self, i: int, w: int) -> LinMap:
        return self._column_op("d", i, w)

    def K(self, i: int, w: int) -> LinMap:
        return self._column_op("K", i, w)

    def S(self, i: int, w: int) -> LinMap:
        return self._column_op("S", i, w)

    def d_V(self, i: int, w: int) -> LinMap:
        key = ("dV", i, w)
        if key not in self._ops:
            self._ops[key] = self.d(i, w) - self.S(i, w)
        return self._ops[key]

    def F(self, i: int, w: int) -> LinMap:
        """Column intertwiner sum_m K^m / m!; inverse of the same sum at -K."""
        key = ("F", i, w)
        if key not in self._ops:
            col = self.column(i, w)
            k = self.K(i, w).mat
            acc = SparseMat.identity(col.dim)
            power = SparseMat.identity(col.dim)
            for m in range(1, self.N + 1):
                power = k @ power
                acc = acc + power.scale(Fraction(1, factorial(m)))
            self._ops[key] = LinMap(col, col, acc)
        return self._ops[key]


def build(spec: DiagramSpec, w_max: int = 8, validate: bool = True) -> BuiltDiagram:
    """Build and synthesis-check a diagram for all weights up to w_max.

    With validate=False the constant-level commutation check is skipped;
    a bad spec then builds, and verify_identities reports exactly which
    per-weight identities break.
    """
    return BuiltDiagram(spec, w_max, validate)


def _first_mismatch(a: SparseMat, b: SparseMat):
    diff = a - b
    if diff.is_zero():
        return None
    return min(diff.data)


def verify_identities(bd: BuiltDiagram) -> VerifyReport:
    """Exact per-weight verification of every structural identity.

    Checks, for every weight and column index: dd = 0, SK = KS, S = dK - Kd,
    Sd = -dS, SS = 0, d_V d_V = 0, F d = d_V F, and the power rule
    d K^m - K^m d = m S K^{m-1} for m = 1..N.
    """
    checks = []

    def record(name, w, i, lhs, rhs):
        where = _first_mismatch(lhs, rhs)
        checks.append(CheckResult(name, w, i, where is None, where))

    n, N = bd.n, bd.N
    for w in range(bd.w_max + 1):
        for i in range(n + 1):
            d_i = bd.d(i, w)
            if i < n:
                record("dd=0", w, i, (bd.d(i + 1, w) @ d_i).mat,
                       SparseMat.zero(bd.column(i + 2, w).dim, bd.column(i, w).dim))
            # SK = KS blockwise
            for j in range(2, N + 1):
                lhs = bd.S_block(i, j - 1, w) @ bd.K_block(i, j, w)
                rhs = bd.K_block(i + 1, j - 1, w) @ bd.S_block(i, j, w)
                where = _first_mismatch(lhs.mat, rhs.mat)
                checks.append(CheckResult("SK=KS", w, i, where is None,
                                          (j,) + where if where else None))
            # S = dK - Kd columnwise
            if i < n:
                synth = (bd.d(i, w) @ bd.K(i, w)) - (bd.K(i + 1, w) @ bd.d(i, w))
                record("S=dK-Kd", w, i, bd.S(i, w).mat, synth.mat)
                record("Sd=-dS", w, i, (bd.S(i + 1, w) @ d_i).mat,
                       (-(bd.d(i + 1, w) @ bd.S(i, w))).mat)
                record("SS=0", w, i, (bd.S(i + 1, w) @ bd.S(i, w)).mat,
                       SparseMat.zero(bd.column(i + 2, w).dim, bd.column(i, w).dim))
                record("dVdV=0", w, i, (bd.d_V(i + 1, w) @ bd.d_V(i, w)).mat,
                       SparseMat.zero(bd.column(i + 2, w).dim, bd.column(i, w).dim))
            record("Fd=dVF", w, i, (bd.F(i + 1, w) @ bd.d(i, w)).mat,
                   (bd.d_V(i, w) @ bd.F(i, w)).mat)
            # power rule d K^m - K^m d = m S K^{m-1}
            k_i, k_i1 = bd.K(i, w).mat, bd.K(i + 1, w).mat
            pow_i = SparseMat.identity(bd.column(i, w).dim)
            pow_i1 = SparseMat.identity(bd.column(i + 1, w).dim)
            for m in range(1, N + 1):
                prev_pow_i = pow_i
                pow_i = k_i @ pow_i
                pow_i1 = k_i1 @ pow_i1
                lhs = (d_i.mat @ pow_i) - (pow_i1 @ d_i.mat)
                rhs = (bd.S(i, w).mat @ prev_pow_i).scale(m)
                record("dK^m rule", w, i, lhs, rhs)
    return VerifyReport(bd.spec.name, bd.w_max, checks)


@lru_cache(maxsize=None)
def _scalar_rank(n: int, i: int, p: int) -> int:
    return rank(_d_scalar(n, i, p))


@lru_cache(maxsize=None)
def _scalar_block_dim(n: int, i: int, p: int) -> int:
    unit = ValueSpace("R", ("1",))
    return FormBlock(n, i, p, unit).dim


def scalar_de_rham_cohomology(n: int, i: int, u: int) -> int:
    """Cohomology of the scalar homogeneous complex at row weight u, index i."""
    if u < 0 or i < 0 or i > n:
        return 0
    dim = _scalar_block_dim(n, i, u - i)
    r_out = _scalar_rank(n, i, u - i)
    r_in = _scalar_rank(n, i - 1, u - i + 1) if i > 0 else 0
    return dim - r_out - r_in


def row_cohomology_sum(bd: BuiltDiagram, i: int, w: int) -> int:
    """Independent oracle: sum over rows of the de-Rham cohomology dims."""
    return sum(bd.spec.rows[j].dim * scalar_de_rham_cohomology(bd.n, i, w - j)
               for j in range(bd.N + 1))


def twisted_cohomology(bd: BuiltDiagram) -> dict:
    """Cohomology dims of the twisted complex per (index, weight).

    Computed as dim ker d_V^i - rank d_V^{i-1} and asserted equal to the sum
    of the row de-Rham cohomologies computed independently from the
    block-diagonal differential.
    """
    dims = {}
    for w in range(bd.w_max + 1):
        prev_rank = 0
        for i in range(bd.n + 1):
            dv = bd.d_V(i, w)
            r = rank(dv.mat)
            h = bd.column(i, w).dim - r - prev_rank
            expected = row_cohomology_sum(bd, i, w)
            if h != expected:
                raise VerificationError(
                    f"twisted cohomology mismatch at i={i}, w={w}: "
                    f"{h} != row sum {expected}")
            dims[(i, w)] = h
            prev_rank = r
    return dims
