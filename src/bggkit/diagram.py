"""BGG diagrams over polynomial-coefficient forms.

A diagram is declared by its row value spaces and, for each row j >= 1, the
n constant tensors kappa_l generating the coordinate-linear row-lowering
operator K = sum_l x^l kappa_l.  Everything else is synthesized: the
algebraic connector S = dK - Kd, the twisted differential d_V = d - S, and
the exponential intertwiner F.  All operators preserve the weight
w = polynomial degree + form degree + row index, so they are finite exact
matrices weight by weight.

Every column operator here and in ``bgg`` takes one path: ``band`` assembles
it from its row blocks (a column operator sends row j to row j or j +- 1),
and ``memo`` caches it once per (index, weight) on the instance that owns it.
A translation-invariant operator given by its symbol, the constants
sigma_alpha of each block sum_alpha d^alpha (x) sigma_alpha (G, A and B in
``bgg``), is assembled by ``lift_symbol``; a pointwise operator lifted from
constants is its alpha = 0 case, ``lift_column``, or is applied to a matrix
by ``lift_apply``, which forms no lift.  ``nilpotent_terms`` sums only F
here and the oracles' chains in ``bgg``.

``DiagramSpec`` and ``KappaSpec`` are ``forms.Value``s, equal and hashed by
their fields; ``VerifyReport`` and ``CheckResult`` are plain records.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import factorial, lcm

from .forms import (
    FormBlock,
    LinMap,
    SumSpace,
    Value,
    axis_sum,
    blocks,
    exterior_derivative,
    form_indices,
    monomials,
    wedge_const,
    _d_factors,
    _diff_table,
    _mult_scalar,
)
from .linalg import LinAlgError, SparseMat, assemble, block_matrix, rank


class InputError(ValueError):
    """Rejected input from outside the program: the CLI's exit 2."""


def parse_rational(value: int | str) -> Fraction:
    """A rational from outside the program: an int, or text holding an
    integer, p/q or a decimal.  Text with an exponent is refused before
    ``Fraction`` would expand it, as "1e999999999" would form a
    billion-digit integer first; any other bad value raises InputError."""
    if type(value) is int or (type(value) is str and "e" not in value.lower()):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"not an integer, p/q or decimal: {value!r}")


def memo(method):
    """Cache ``method(self, *args)`` in the instance's own ``__dict__``, so
    the cache lives and dies with the instance."""
    @wraps(method)
    def cached(self, *args):
        table = self.__dict__.setdefault("_memo", {})
        key = (method, *args)
        if key not in table:
            table[key] = method(self, *args)
        return table[key]
    return cached


def band(blocks: dict, dom: SumSpace, cod: SumSpace, shift: int = 0) -> SparseMat:
    """Block matrix from dom to cod whose block (k + shift, k) is blocks[k].

    k counts the parts of dom; blocks missing from ``blocks`` or None are
    zero.  A block may be a kron pair, as ``linalg.block_matrix`` takes.
    """
    grid = [[None] * len(dom.parts) for _ in cod.parts]
    for k, blk in blocks.items():
        grid[k + shift][k] = blk
    return block_matrix(grid, cod.dims(), dom.dims())


def nilpotent_terms(first: SparseMat, step, limit: int) -> list:
    """The terms [first, step(first), step(step(first)), ...] of a series.

    ``first`` always comes first, so an empty series keeps its shape; the
    list ends before the first zero term after it.  Each step moves every
    row block one row further (K lowers the row index, T d and d T raise
    it) and a column has N + 1 rows, so at most N + 1 terms are nonzero:
    callers pass ``limit`` = N + 1 (N when ``first`` is K itself), which
    caps the loop and never cuts a nonzero term.
    """
    terms = [first]
    while len(terms) < limit and not terms[-1].is_zero():
        term = step(terms[-1])
        if term.is_zero():
            break
        terms.append(term)
    return terms


class VerificationError(Exception):
    """An exact certificate failed; ``report`` lists every failing check."""

    def __init__(self, message: str, report: VerifyReport | None = None):
        super().__init__(message)
        self.report = report


class KappaSpec(Value):
    """Constant tensors kappa_l per row: maps[j-1][l-1] sends V_j to V_{j-1};
    immutable by convention."""

    def __init__(self, maps: tuple[tuple[SparseMat, ...], ...]):
        self.maps = maps

    def _key(self) -> tuple:
        return (self.maps,)

    def row(self, j: int) -> tuple[SparseMat, ...]:
        return self.maps[j - 1]


class DiagramSpec(Value):
    """A diagram's name, spatial dimension, row value spaces and kappa
    tensors; immutable by convention."""

    def __init__(self, name: str, n: int, rows: tuple, kappa: KappaSpec):
        self.name = name
        self.n = n
        self.rows = rows
        self.kappa = kappa

    def _key(self) -> tuple:
        return self.name, self.n, self.rows, self.kappa

    @property
    def N(self) -> int:
        return len(self.rows) - 1

    def validate(self):
        """Reject a bad n, tensor count or shape (InputError), then certify
        ``kappa commute`` at j, axes (l, m), which makes SK = KS hold."""
        if self.n < 1:
            raise InputError("spatial dimension must be >= 1")
        if len(self.kappa.maps) != self.N:
            raise InputError(
                f"kappa defined for {len(self.kappa.maps)} rows, expected {self.N}")
        for j in range(1, self.N + 1):
            row = self.kappa.row(j)
            if len(row) != self.n:
                raise InputError(f"row {j}: expected {self.n} tensors, got {len(row)}")
            for l, k in enumerate(row, start=1):
                want = (self.rows[j - 1].dim, self.rows[j].dim)
                if (k.rows, k.cols) != want:
                    raise InputError(
                        f"row {j}, tensor {l}: shape {(k.rows, k.cols)} != {want}")
        report = VerifyReport(self.name, 0)
        for j in range(2, self.N + 1):
            up = self.kappa.row(j)       # V_j -> V_{j-1}
            down = self.kappa.row(j - 1)  # V_{j-1} -> V_{j-2}
            for l in range(self.n):
                for m in range(l + 1, self.n):
                    report.expect("kappa commute", None, j, down[l] @ up[m], down[m] @ up[l],
                                  at=(l + 1, m + 1))
        report.require("validate")


class CheckResult:
    """One exact certificate.  Constant-level checks have weight None; a
    failure's ``where`` starts with its location, row j first for a block."""

    def __init__(self, name: str, weight: int | None, index: int, ok: bool,
                 where: tuple | None = None):
        self.name = name
        self.weight = weight
        self.index = index
        self.ok = ok
        self.where = where

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        weight = "" if self.weight is None else f"w={self.weight} "
        loc = f" at entry {self.where}" if self.where else ""
        return f"[{status}] {self.name}  {weight}i={self.index}{loc}"


class VerifyReport:
    """Every exact certificate of a run, recorded through ``expect`` and
    ``holds``; ``require`` turns failures into one VerificationError."""

    def __init__(self, diagram: str, w_max: int):
        self.diagram = diagram
        self.w_max = w_max
        self.checks = []

    def expect(self, name: str, w: int | None, i: int, lhs: SparseMat,
               rhs: SparseMat | None = None, at: tuple = ()):
        """Record lhs == rhs, or lhs == 0 when rhs is None.

        A failure is located at ``at`` followed by the first coordinate
        where the two sides differ.
        """
        ok = lhs.is_zero() if rhs is None else lhs == rhs
        where = None
        if not ok:
            r, c, _ = next((lhs if rhs is None else lhs - rhs).entries())
            where = at + (r, c)
        self.checks.append(CheckResult(name, w, i, ok, where))

    def holds(self, name: str, w: int | None, i: int, ok: bool,
              at: tuple = ()) -> bool:
        """Record a rank or dimension condition; a failure is located at ``at``."""
        self.checks.append(CheckResult(name, w, i, ok, None if ok else at))
        return ok

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def require(self, stage: str):
        """Raise one VerificationError carrying this report if any check failed."""
        bad = self.failures()
        if bad:
            raise VerificationError(
                f"{stage}: {len(bad)} of {len(self.checks)} checks failed, "
                f"first {bad[0].line()}", self)

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
        self._verify_synthesis()

    # -- spaces ------------------------------------------------------------

    def block(self, i: int, j: int, w: int) -> FormBlock:
        return FormBlock(self.n, i, w - i - j, self.spec.rows[j])

    @memo
    def column(self, i: int, w: int) -> SumSpace:
        """Z^i at weight w: the direct sum over rows of the graded blocks."""
        if i < 0 or i > self.n + 1:
            return SumSpace(())
        return SumSpace(tuple((j, self.block(i, j, w)) for j in range(self.N + 1)))

    # -- constant-level data -------------------------------------------------

    @memo
    def partial_const(self, i: int, j: int) -> SparseMat:
        """Pointwise connector on constants: Lambda^i (x) V_j -> Lambda^{i+1} (x) V_{j-1}."""
        kappa = self.spec.kappa.row(j)
        return axis_sum(self.n, lambda l: wedge_const(self.n, i, l).kron(kappa[l - 1]))

    @memo
    def _K_consts(self, i: int, j: int) -> tuple[SparseMat, ...]:
        """I_Lambda^i (x) kappa_l for each axis l: K's constants on degree-i forms."""
        ident = SparseMat.identity(len(form_indices(self.n, i)))
        return tuple(ident.kron(kappa) for kappa in self.spec.kappa.row(j))

    # -- block operators -----------------------------------------------------

    def d_block(self, i: int, j: int, w: int) -> LinMap:
        return exterior_derivative(self.block(i, j, w))

    def K_block(self, i: int, j: int, w: int) -> LinMap:
        dom = self.block(i, j, w)
        cod = self.block(i, j - 1, w)
        if dom.dim == 0 or cod.dim == 0:
            return LinMap.zero(dom, cod)
        # x^l sends each monomial to its own target, so no two terms share an entry
        return LinMap(dom, cod, assemble(cod.dim, dom.dim, [
            (0, 0, (_mult_scalar(self.n, dom.p, l), const))
            for l, const in enumerate(self._K_consts(i, j), start=1)]))

    def S_block(self, i: int, j: int, w: int) -> LinMap:
        ident = SparseMat.identity(_mono_count(self, i, j, w))
        return LinMap(self.block(i, j, w), self.block(i + 1, j - 1, w),
                      ident.kron(self.partial_const(i, j)))

    def _verify_synthesis(self):
        """S = dK - Kd on every block (i, j, w), at row j; each K and d block
        is formed once."""
        report = VerifyReport(self.spec.name, self.w_max)
        n, N = self.n, self.N
        for w in range(self.w_max + 1):
            k = {(i, j): self.K_block(i, j, w) for i in range(n + 2) for j in range(1, N + 1)}
            d = {(i, j): self.d_block(i, j, w) for i in range(n + 1) for j in range(N + 1)}
            for j in range(1, N + 1):
                for i in range(n + 1):
                    synth = d[(i, j - 1)] @ k[(i, j)] - k[(i + 1, j)] @ d[(i, j)]
                    report.expect("connector=dK-Kd", w, i, self.S_block(i, j, w).mat,
                                  synth.mat, at=(j,))
        report.require("build")

    # -- column operators ------------------------------------------------------

    # d and S are zero outside 0..n: compute_D reaches d_V(n + 1, w).

    @memo
    def d(self, i: int, w: int) -> LinMap:
        dom, cod = self.column(i, w), self.column(i + 1, w)
        rows = range(self.N + 1) if 0 <= i <= self.n else ()
        return LinMap(dom, cod, band(
            {j: _d_factors(self.block(i, j, w)) for j in rows}, dom, cod))

    @memo
    def K(self, i: int, w: int) -> LinMap:
        col = self.column(i, w)
        return LinMap(col, col, band(
            {j: self.K_block(i, j, w).mat for j, _ in col.parts if j >= 1},
            col, col, shift=-1))

    def S(self, i: int, w: int) -> LinMap:
        dom, cod = self.column(i, w), self.column(i + 1, w)
        rows = range(1, self.N + 1) if 0 <= i <= self.n else ()
        return LinMap(dom, cod, lift_column(
            self, {j: self.partial_const(i, j) for j in rows}, i, w, dom, cod, shift=-1))

    @memo
    def d_V(self, i: int, w: int) -> LinMap:
        return self.d(i, w) - self.S(i, w)

    @memo
    def _d_V_rank(self, i: int, w: int) -> int:
        return rank(self.d_V(i, w).mat)

    @memo
    def F(self, i: int, w: int) -> LinMap:
        """Column intertwiner sum_m K^m / m!; inverse of the same sum at -K."""
        col = self.column(i, w)
        k = self.K(i, w).mat
        acc = SparseMat.identity(col.dim)
        # K^m lowers the row by m, so at most K, ..., K^N are nonzero
        for m, power in enumerate(nilpotent_terms(k, lambda p: k @ p, self.N), start=1):
            acc = acc + power.scale(Fraction(1, factorial(m)))
        return LinMap(col, col, acc)


def build(spec: DiagramSpec, w_max: int = 8, validate: bool = True) -> BuiltDiagram:
    """Build and synthesis-check a diagram for all weights up to w_max.

    With validate=False the constant-level commutation check is skipped;
    a bad spec then builds, and verify_identities reports exactly which
    per-weight identities break.
    """
    return BuiltDiagram(spec, w_max, validate)


def _mono_count(bd: BuiltDiagram, i: int, j: int, w: int) -> int:
    return len(monomials(bd.n, w - i - j))


def lift_symbol(bd: BuiltDiagram, symbol: dict, i: int, w: int, dom: SumSpace,
                cod: SumSpace) -> SparseMat:
    """Column operator whose block (j_out, j_in) is sum_alpha d^alpha (x)
    sigma_alpha, for ``symbol`` = {(j_out, j_in): {alpha: sigma_alpha}}.

    i is the form degree of the domain column, so d^alpha (``forms._diff_table``)
    starts on its row-j_in monomials, of degree w - i - j_in, and an alpha
    above that degree is dropped.  Distinct alpha send a monomial to distinct
    monomials, so the kron pairs hold disjoint entries and are placed unformed
    by one ``assemble``.
    """
    placed = []
    for (jo, ji), terms in symbol.items():
        p = w - i - ji
        rows, cols = cod.span(jo), dom.span(ji)
        for alpha, sigma in terms.items():
            if sum(alpha) > p:
                continue
            table = _diff_table(bd.n, p, alpha)
            if (table.rows * sigma.rows, table.cols * sigma.cols) != (len(rows), len(cols)):
                raise LinAlgError(f"block ({jo},{ji}) of the symbol does not fit "
                                  f"{len(rows)}x{len(cols)}")
            placed.append((rows.start, cols.start, (table, sigma)))
    return assemble(cod.dim, dom.dim, placed)


def lift_column(bd: BuiltDiagram, consts: dict, i: int, w: int, dom: SumSpace,
                cod: SumSpace, shift: int = 0) -> SparseMat:
    """Column operator whose block (j + shift, j) is I_mono (x) consts[j]: the
    symbol lift at alpha = 0.  Rows missing from consts are zero blocks."""
    zero = (0,) * bd.n
    return lift_symbol(bd, {(j + shift, j): {zero: c} for j, c in consts.items()},
                       i, w, dom, cod)


def lift_apply(bd: BuiltDiagram, consts: dict, i: int, w: int, dom: SumSpace,
               cod: SumSpace, x: SparseMat, shift: int = 0) -> SparseMat:
    """``lift_column(bd, consts, i, w, dom, cod, shift) @ x``, without forming
    the lift: row a of C = consts[j] on monomial m combines the rows of x at
    dom's row-j offset + m * C.cols + b into cod's row-(j + shift) offset +
    m * C.rows + a, accumulated as ``SparseMat.__matmul__`` does."""
    if x.rows != dom.dim:
        raise LinAlgError(f"shape mismatch in lift_apply: {dom.dim} columns @ {x.rows} rows")
    den = lcm(*(c.den for c in consts.values()))
    xrows = x.by_row
    out = {}
    for j, c in consts.items():
        f = den // c.den
        crows = [(a, [(b, f * v) for b, v in row.items()]) for a, row in c.by_row.items()]
        doff, coff = dom.offset(j), cod.offset(j + shift)
        for m in range(_mono_count(bd, i, j, w)):
            src, dst = doff + m * c.cols, coff + m * c.rows
            for a, crow in crows:
                acc = None
                merged = False
                for b, v in crow:
                    xrow = xrows.get(src + b)
                    if xrow is None:
                        continue
                    if acc is None:
                        # the first row reached is shared when its multiple is 1
                        acc = xrow if v == 1 else {k: v * y for k, y in xrow.items()}
                        continue
                    if not merged:
                        acc = dict(acc)  # never write into a row of x
                        merged = True
                    get = acc.get
                    for k, y in xrow.items():
                        acc[k] = get(k, 0) + v * y
                if merged and 0 in acc.values():
                    acc = {k: y for k, y in acc.items() if y}
                if acc:
                    out[dst + a] = acc
    return SparseMat._from_rows(cod.dim, x.cols, out, den * x.den)


def verify_identities(bd: BuiltDiagram) -> VerifyReport:
    """Exact per-weight verification of every structural identity.

    Checks, for every weight and column index: dd = 0, SK = KS, S = dK - Kd,
    Sd = -dS, SS = 0, d_V d_V = 0, F d = d_V F, and the power rule
    d K^m - K^m d = m S K^{m-1} for m = 1..N.
    """
    report = VerifyReport(bd.spec.name, bd.w_max)
    expect = report.expect
    n, N = bd.n, bd.N
    for w in range(bd.w_max + 1):
        # S is not memoized, so each lift is formed once here
        s = [bd.S(i, w) for i in range(n + 1)]
        for i in range(n + 1):
            d_i = bd.d(i, w)
            k_i, k_next = bd.K(i, w).mat, bd.K(i + 1, w).mat
            if i < n:
                expect("dd=0", w, i, (bd.d(i + 1, w) @ d_i).mat)
            if N >= 2:  # SK - KS = 0 on block (j - 2, j), the one block both products reach
                sk_2 = s[i].mat @ k_i  # also the power rule's m = 2 term
                gap = blocks(sk_2 - k_next @ s[i].mat, s[i].cod, s[i].dom)
                for j in range(2, N + 1):
                    expect("SK=KS", w, i, gap.get((j - 2, j), SparseMat.zero(
                        s[i].cod.space(j - 2).dim, s[i].dom.space(j).dim)), at=(j,))
            # S = dK - Kd columnwise
            dk, kd, sk = d_i.mat @ k_i, k_next @ d_i.mat, s[i].mat
            lhs = dk - kd
            if i < n:
                expect("S=dK-Kd", w, i, s[i].mat, lhs)
                expect("Sd=-dS", w, i, (s[i + 1] @ d_i).mat, (-(bd.d(i + 1, w) @ s[i])).mat)
                expect("SS=0", w, i, (s[i + 1] @ s[i]).mat)
                expect("dVdV=0", w, i, (bd.d_V(i + 1, w) @ bd.d_V(i, w)).mat)
            expect("Fd=dVF", w, i, (bd.F(i + 1, w) @ bd.d(i, w)).mat,
                   (bd.d_V(i, w) @ bd.F(i, w)).mat)
            # power rule d K^m - K^m d = m S K^{m-1}: each term gains one K per m
            for m in range(1, N + 1):
                if m > 1:
                    dk, kd, sk = dk @ k_i, k_next @ kd, sk_2 if m == 2 else sk @ k_i
                    lhs = dk - kd
                expect("dK^m rule", w, i, lhs, sk.scale(m))
    return report


def row_cohomology_sum(bd: BuiltDiagram, i: int, w: int) -> int:
    """Independent oracle: the sum over rows j of dim V_j times the cohomology
    of the homogeneous polynomial de Rham complex at weight w - j.  By the
    Poincare lemma that complex is exact but for the constants, at index 0
    and weight 0, so only row j = w contributes, and only at i = 0."""
    return bd.spec.rows[w].dim if i == 0 and 0 <= w <= bd.N else 0


def _count_cohomology(bd: BuiltDiagram, stage: str, check: str, dim, rank_of, expected) -> dict:
    """Cohomology dims h = dim(i, w) - rank(i, w) - rank(i - 1, w) per (index,
    weight), each checked as ``check``: h == expected(i, w); raises once."""
    report = VerifyReport(bd.spec.name, bd.w_max)
    dims = {}
    for w in range(bd.w_max + 1):
        ranks = [rank_of(i, w) for i in range(bd.n + 1)]
        for i, r in enumerate(ranks):
            dims[(i, w)] = h = dim(i, w) - r - (ranks[i - 1] if i else 0)
            report.holds(check, w, i, h == expected(i, w))
    report.require(stage)
    return dims


def twisted_cohomology(bd: BuiltDiagram) -> dict:
    """Cohomology dims of the twisted complex per (index, weight), asserted
    equal to the row de-Rham sums computed independently.  Each d_V rank is
    eliminated once per built diagram, so a repeated call only re-checks."""
    return _count_cohomology(bd, "twisted_cohomology", "twisted=row_sum",
                             lambda i, w: bd.column(i, w).dim, bd._d_V_rank,
                             lambda i, w: row_cohomology_sum(bd, i, w))
