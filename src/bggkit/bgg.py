"""Derivation machinery: pointwise Hodge splitting of the connectors,
partial inverses, the nilpotent homotopy, and the derived complex on the
harmonic spaces together with its inverse chain maps.

Every operator except d and K acts pointwise, so its constant-coefficient
data is computed once (the splitting projections and harmonic coordinate
maps on ``HodgeSplit``, the partial inverses and their kernel and range
projectors on ``TOps``).  ``lift_column`` is the single path from those
constants to a column operator at one weight: row block j becomes
I_mono (x) C_j, so every identity below closes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .diagram import BuiltDiagram, VerificationError
from .forms import CoordSpace, LinMap, SumSpace, monomials, pullback_block
from .linalg import (
    SparseMat,
    block_matrix,
    column_space,
    hstack,
    inverse,
    nullspace,
    orthogonal_complement,
    pinv_onto,
    projection_onto,
    rank,
    solve_thin,
    vstack,
)


def _mono_count(bd: BuiltDiagram, i: int, j: int, w: int) -> int:
    return len(monomials(bd.n, w - i - j))


def lift_column(bd: BuiltDiagram, consts: dict, i: int, w: int, dom: SumSpace,
                cod: SumSpace, shift: int = 0) -> SparseMat:
    """Column operator whose block (j + shift, j) is I_mono (x) consts[j].

    i is the form degree of the domain column; its row-j block at weight w
    fixes the monomial count.  Rows missing from consts, and rows without
    monomials, are zero blocks.
    """
    grid = [[None] * len(dom.parts) for _ in cod.parts]
    for j, const in consts.items():
        m = _mono_count(bd, i, j, w)
        if m:
            grid[j + shift][j] = SparseMat.identity(m).kron(const)
    return block_matrix(grid, cod.dims(), dom.dims())


@dataclass
class HodgeSplit:
    """Constant-coefficient orthogonal splitting per (form degree, row).

    Each space splits as ran(incoming) + ker(outgoing)^perp + harmonic,
    pairwise orthogonal for the standard coordinate inner product.
    ``coords`` maps a constant onto the coordinates of its harmonic part.
    """
    bd: BuiltDiagram
    ran: dict = field(default_factory=dict)
    kerp: dict = field(default_factory=dict)
    ups: dict = field(default_factory=dict)
    coords: dict = field(default_factory=dict)
    p_ran: dict = field(default_factory=dict)
    p_kerp: dict = field(default_factory=dict)
    p_ups: dict = field(default_factory=dict)

    def const_dim(self, i: int, j: int) -> int:
        from .forms import form_indices
        return len(form_indices(self.bd.n, i)) * self.bd.spec.rows[j].dim

    def p_ker(self, i: int, j: int) -> SparseMat:
        return self.p_ran[(i, j)] + self.p_ups[(i, j)]

    def ups_dim(self, i: int, j: int) -> int:
        return self.ups[(i, j)].cols

    def support(self) -> dict:
        return {(i, j): b.cols for (i, j), b in self.ups.items() if b.cols > 0}


def _outgoing(bd: BuiltDiagram, i: int, j: int) -> SparseMat | None:
    """Constant connector out of (i, j), or None if it is the zero map."""
    if j < 1 or i + 1 > bd.n:
        return None
    return bd.partial_const(i, j)


def _incoming(bd: BuiltDiagram, i: int, j: int) -> SparseMat | None:
    """Constant connector into (i, j), or None."""
    if i < 1 or j + 1 > bd.N:
        return None
    return bd.partial_const(i - 1, j + 1)


def hodge_split(bd: BuiltDiagram) -> HodgeSplit:
    """Split every constant block and certify the splitting exactly."""
    hs = HodgeSplit(bd)
    for i in range(bd.n + 1):
        for j in range(bd.N + 1):
            dim = hs.const_dim(i, j)
            inc = _incoming(bd, i, j)
            out = _outgoing(bd, i, j)
            ran = column_space(inc) if inc is not None else SparseMat.zero(dim, 0)
            if out is not None:
                ker = SparseMat.from_columns(nullspace(out), dim)
            else:
                ker = SparseMat.identity(dim)
            kerp = orthogonal_complement(ker)
            # harmonic part: ran^perp intersected with ker
            constraints = [ran.transpose()]
            if out is not None:
                constraints.insert(0, out)
            ups = SparseMat.from_columns(nullspace(vstack(constraints)), dim)
            coords = inverse(ups.transpose() @ ups) @ ups.transpose()
            if coords @ ups != SparseMat.identity(ups.cols):
                raise VerificationError(
                    f"harmonic coordinates do not invert the basis at (i={i}, j={j})")
            p_ran = projection_onto(ran)
            p_kerp = projection_onto(kerp)
            p_ups = projection_onto(ups)
            ident = SparseMat.identity(dim)
            if p_ran + p_kerp + p_ups != ident:
                raise VerificationError(
                    f"splitting does not resolve the identity at (i={i}, j={j})")
            for a, b in ((p_ran, p_kerp), (p_ran, p_ups), (p_kerp, p_ups)):
                if not (a @ b).is_zero():
                    raise VerificationError(
                        f"splitting components not orthogonal at (i={i}, j={j})")
            key = (i, j)
            hs.ran[key], hs.kerp[key], hs.ups[key] = ran, kerp, ups
            hs.coords[key] = coords
            hs.p_ran[key], hs.p_kerp[key], hs.p_ups[key] = p_ran, p_kerp, p_ups
    return hs


@dataclass
class TOps:
    """Partial inverses of the connectors, per block and per weight.

    ``const``, ``p_ker`` and ``p_ran`` hold, per (i, j) with an incoming
    connector, the constant partial inverse and the orthogonal projectors
    onto its kernel and its range.
    """
    bd: BuiltDiagram
    hs: HodgeSplit
    const: dict = field(default_factory=dict)
    p_ker: dict = field(default_factory=dict)
    p_ran: dict = field(default_factory=dict)
    _cols: dict = field(default_factory=dict)

    def column(self, i: int, w: int) -> LinMap:
        key = (i, w)
        if key not in self._cols:
            dom = self.bd.column(i, w)
            cod = self.bd.column(i - 1, w)
            consts = {j: c for (ii, j), c in self.const.items() if ii == i}
            self._cols[key] = LinMap(dom, cod, lift_column(
                self.bd, consts, i, w, dom, cod, shift=1))
        return self._cols[key]


def compute_T(bd: BuiltDiagram, hs: HodgeSplit) -> TOps:
    """Partial inverses T of the connectors, with their exact identities.

    T at (i, j) inverts the connector into (i, j) on its range and kills the
    orthogonal complement of the range.  Certifies TT = 0, TST = T,
    STS = S and both range/kernel complementarity statements exactly on
    constants (the lifts are identical on every weight block).
    """
    t = TOps(bd, hs)
    for i in range(bd.n + 1):
        for j in range(bd.N + 1):
            inc = _incoming(bd, i, j)
            if inc is None:
                continue
            t.const[(i, j)] = pinv_onto(inc)
    # identities on constants
    for (i, j), tc in t.const.items():
        s_in = _incoming(bd, i, j)
        # S T S = S and T S T = T
        if (s_in @ tc @ s_in) != s_in:
            raise VerificationError(f"STS failed at (i={i}, j={j})")
        if (tc @ s_in @ tc) != tc:
            raise VerificationError(f"TST failed at (i={i}, j={j})")
        # T T = 0 one step further down the diagonal
        tc2 = t.const.get((i - 1, j + 1))
        if tc2 is not None and not (tc2 @ tc).is_zero():
            raise VerificationError(f"TT failed at (i={i}, j={j})")
        # ran(T) = ker(S at source)^perp
        ran_t = column_space(tc)
        kerp_src = hs.kerp[(i - 1, j + 1)]
        if rank(hstack([ran_t, kerp_src])) != rank(ran_t) or \
           rank(ran_t) != rank(kerp_src):
            raise VerificationError(f"ran(T) != ker(S)^perp at (i={i}, j={j})")
        # ran(S) = ker(T at target)^perp
        ran_s = hs.ran[(i, j)]
        ker_t = SparseMat.from_columns(nullspace(tc), tc.cols)
        if not (ker_t.transpose() @ ran_s).is_zero():
            raise VerificationError(f"ran(S) not orthogonal to ker(T) at (i={i}, j={j})")
        if ran_s.cols + ker_t.cols != tc.cols:
            raise VerificationError(f"ran(S) + ker(T) dims off at (i={i}, j={j})")
        t.p_ker[(i, j)] = projection_onto(ker_t)
        t.p_ran[(i, j)] = projection_onto(ran_t)
    return t


def verify_T_column_identities(bd: BuiltDiagram, t: TOps, w: int) -> list:
    """TT = 0, TST = T and STS = S as column matrices at one weight."""
    failures = []
    for i in range(bd.n + 1):
        t_i = t.column(i, w).mat
        if i >= 1:
            t_prev = t.column(i - 1, w).mat
            if not (t_prev @ t_i).is_zero():
                failures.append(("TT=0", w, i))
        s_prev = bd.S(i - 1, w).mat if i >= 1 else None
        if s_prev is not None:
            if (t_i @ s_prev) @ t_i != t_i:
                failures.append(("TST=T", w, i))
            if (s_prev @ t_i) @ s_prev != s_prev:
                failures.append(("STS=S", w, i))
    return failures


@dataclass
class GOps:
    """Nilpotent homotopy per column index and weight."""
    bd: BuiltDiagram
    t: TOps
    _cols: dict = field(default_factory=dict)

    def column(self, i: int, w: int) -> LinMap:
        key = (i, w)
        if key not in self._cols:
            bd = self.bd
            dom = bd.column(i, w)
            cod = bd.column(i - 1, w)
            tmat = self.t.column(i, w).mat
            term = tmat
            acc = tmat
            if i >= 1:
                td = tmat @ bd.d(i - 1, w).mat
                for _ in range(bd.N):
                    term = td @ term
                    if term.is_zero():
                        break
                    acc = acc + term
            self._cols[key] = LinMap(dom, cod, -acc)
        return self._cols[key]


def verify_G_properties(bd: BuiltDiagram, hs: HodgeSplit, t: TOps, g: GOps,
                        w: int) -> list:
    """The three defining homotopy properties, exactly at one weight.

    (1) G vanishes on ker(T); (2) phi - d_V G phi lies in ker(T);
    (3) ran(G) is contained in ran(T).
    """
    failures = []
    for i in range(bd.n + 1):
        gm = g.column(i, w).mat
        tm = t.column(i, w).mat
        col = bd.column(i, w)
        # (1): G P_ker(T) = 0.  ker(T) = ker(T_const) lifted blockwise; rows
        # without a partial inverse lie entirely in the kernel.
        p_ker = {j: t.p_ker.get((i, j), SparseMat.identity(hs.const_dim(i, j)))
                 for j in range(bd.N + 1)}
        if not (gm @ lift_column(bd, p_ker, i, w, col, col)).is_zero():
            failures.append(("G|kerT=0", w, i))
        if i == 0:
            # (3) with no column below: G itself must vanish
            if not gm.is_zero():
                failures.append(("ranG in ranT", w, i))
            continue
        # (2): T (I - d_V G) = 0
        ident = SparseMat.identity(col.dim)
        if not (tm @ (ident - bd.d_V(i - 1, w).mat @ gm)).is_zero():
            failures.append(("T(I-dVG)=0", w, i))
        # (3): P_ran(T) G = G; row j of column i - 1 is the range of T at (i, j - 1)
        col_prev = bd.column(i - 1, w)
        p_ran = {j + 1: p for (ii, j), p in t.p_ran.items() if ii == i}
        if lift_column(bd, p_ran, i - 1, w, col_prev, col_prev) @ gm != gm:
            failures.append(("ranG in ranT", w, i))
    return failures


@dataclass
class BGGComplex:
    """The derived complex on the harmonic spaces, weight by weight."""
    bd: BuiltDiagram
    hs: HodgeSplit
    t: TOps
    g: GOps
    _ups_spaces: dict = field(default_factory=dict)
    _iota: dict = field(default_factory=dict)
    _pi: dict = field(default_factory=dict)
    _A: dict = field(default_factory=dict)
    _D: dict = field(default_factory=dict)

    def ups_space(self, i: int, w: int) -> SumSpace:
        key = (i, w)
        if key not in self._ups_spaces:
            parts = []
            for j in range(self.bd.N + 1):
                cnt = _mono_count(self.bd, i, j, w) * self.hs.ups_dim(i, j) \
                    if 0 <= i <= self.bd.n else 0
                parts.append((j, CoordSpace(f"ups({i},{j})w{w}", cnt)))
            self._ups_spaces[key] = SumSpace(tuple(parts))
        return self._ups_spaces[key]

    def inclusion(self, i: int, w: int) -> LinMap:
        """Harmonic coordinates into the ambient column."""
        key = (i, w)
        if key not in self._iota:
            dom, cod = self.ups_space(i, w), self.bd.column(i, w)
            consts = {j: b for (ii, j), b in self.hs.ups.items() if ii == i}
            self._iota[key] = LinMap(dom, cod, lift_column(
                self.bd, consts, i, w, dom, cod))
        return self._iota[key]

    def projection(self, i: int, w: int) -> LinMap:
        """Ambient column onto harmonic coordinates (orthogonal projection)."""
        key = (i, w)
        if key not in self._pi:
            dom, cod = self.bd.column(i, w), self.ups_space(i, w)
            consts = {j: c for (ii, j), c in self.hs.coords.items() if ii == i}
            self._pi[key] = LinMap(dom, cod, lift_column(
                self.bd, consts, i, w, dom, cod))
        return self._pi[key]

    def A(self, i: int, w: int) -> LinMap:
        """Chain map from harmonic coordinates into the twisted complex."""
        key = (i, w)
        if key not in self._A:
            iota = self.inclusion(i, w)
            dv = self.bd.d_V(i, w)
            g_next = self.g.column(i + 1, w)
            self._A[key] = LinMap(iota.dom, iota.cod,
                                  iota.mat - g_next.mat @ (dv.mat @ iota.mat))
        return self._A[key]

    def D(self, i: int, w: int) -> LinMap:
        key = (i, w)
        if key not in self._D:
            a = self.A(i, w)
            dv = self.bd.d_V(i, w)
            pi = self.projection(i + 1, w)
            self._D[key] = LinMap(a.dom, pi.cod, pi.mat @ (dv.mat @ a.mat))
        return self._D[key]

    def block_orders(self, i: int) -> list[int]:
        """Weight shifts of the nonzero derived-operator blocks at index i."""
        orders = set()
        for w in range(self.bd.w_max + 1):
            d = self.D(i, w)
            out_sp, in_sp = d.cod, d.dom
            for jo in range(self.bd.N + 1):
                for ji in range(self.bd.N + 1):
                    ro, co = out_sp.offset(jo), in_sp.offset(ji)
                    ro_end = ro + out_sp.space(jo).dim
                    co_end = co + in_sp.space(ji).dim
                    if any(ro <= r < ro_end and co <= c < co_end
                           for (r, c) in d.mat.data):
                        orders.add(1 + jo - ji)
        return sorted(orders)


def compute_D(bd: BuiltDiagram, hs: HodgeSplit, t: TOps, g: GOps) -> BGGComplex:
    """Assemble the derived complex and certify its defining identities."""
    bc = BGGComplex(bd, hs, t, g)
    for w in range(bd.w_max + 1):
        for i in range(bd.n + 1):
            d_i = bc.D(i, w)
            if i < bd.n:
                dd = bc.D(i + 1, w) @ d_i
                if not dd.is_zero():
                    raise VerificationError(f"D D != 0 at i={i}, w={w}")
            # d_V A = A D
            lhs = bd.d_V(i, w).mat @ bc.A(i, w).mat
            rhs = bc.A(i + 1, w).mat @ d_i.mat
            if lhs != rhs:
                raise VerificationError(f"d_V A != A D at i={i}, w={w}")
    return bc


@dataclass
class BOps:
    """Projection chain map from the twisted complex onto harmonic coordinates."""
    bc: BGGComplex
    _cols: dict = field(default_factory=dict)

    def column(self, i: int, w: int) -> LinMap:
        key = (i, w)
        if key not in self._cols:
            bc = self.bc
            bd = bc.bd
            pi = bc.projection(i, w)
            ident = SparseMat.identity(bd.column(i, w).dim)
            if i >= 1:
                dvg = bd.d_V(i - 1, w).mat @ bc.g.column(i, w).mat
                mat = pi.mat @ (ident - dvg)
            else:
                mat = pi.mat
            self._cols[key] = LinMap(bd.column(i, w), pi.cod, mat)
        return self._cols[key]


def verify_chain_maps(bc: BGGComplex, b: BOps, w: int) -> list:
    """B d_V = D B, B A = I and A B = I - d_V G - G d_V, at one weight."""
    bd = bc.bd
    failures = []
    for i in range(bd.n + 1):
        b_i = b.column(i, w)
        if i < bd.n:
            lhs = b.column(i + 1, w).mat @ bd.d_V(i, w).mat
            rhs = bc.D(i, w).mat @ b_i.mat
            if lhs != rhs:
                failures.append(("B dV = D B", w, i))
        ba = b_i.mat @ bc.A(i, w).mat
        if ba != SparseMat.identity(bc.ups_space(i, w).dim):
            failures.append(("B A = I", w, i))
        ab = bc.A(i, w).mat @ b_i.mat
        ident = SparseMat.identity(bd.column(i, w).dim)
        hom = ident
        if i >= 1:
            hom = hom - bd.d_V(i - 1, w).mat @ bc.g.column(i, w).mat
        hom = hom - bc.g.column(i + 1, w).mat @ bd.d_V(i, w).mat
        if ab != hom:
            failures.append(("A B = I - dVG - GdV", w, i))
    return failures


def bgg_cohomology(bc: BGGComplex) -> dict:
    """Cohomology dims of the derived complex, asserted against the twisted ones."""
    from .diagram import twisted_cohomology
    twisted = twisted_cohomology(bc.bd)
    dims = {}
    bd = bc.bd
    for w in range(bd.w_max + 1):
        prev_rank = 0
        for i in range(bd.n + 1):
            d = bc.D(i, w)
            r = rank(d.mat)
            h = bc.ups_space(i, w).dim - r - prev_rank
            if h != twisted[(i, w)]:
                raise VerificationError(
                    f"derived cohomology mismatch at i={i}, w={w}: "
                    f"{h} != twisted {twisted[(i, w)]}")
            dims[(i, w)] = h
            prev_rank = r
    return dims


@dataclass
class DerivedOps:
    bd: BuiltDiagram
    hs: HodgeSplit
    t: TOps
    g: GOps
    bc: BGGComplex
    b: BOps


def derive(bd: BuiltDiagram) -> DerivedOps:
    """Run the full pipeline: split, invert, homotopy, derived complex, B."""
    hs = hodge_split(bd)
    t = compute_T(bd, hs)
    g = GOps(bd, t)
    bc = compute_D(bd, hs, t, g)
    b = BOps(bc)
    return DerivedOps(bd, hs, t, g, bc, b)

# -- triangular block-structure oracles -------------------------------------


def _select_block(col: SumSpace, j: int) -> SparseMat:
    """Inclusion of the j-th summand into the column (a tall selector)."""
    dim = col.space(j).dim
    off = col.offset(j)
    return SparseMat(col.dim, dim, {(off + r, r): Fraction(1) for r in range(dim)})


def _rows_of_block(mat: SparseMat, out_space: SumSpace, jo: int) -> SparseMat:
    """Extract the rows of mat belonging to the jo-th output summand."""
    off = out_space.offset(jo)
    dim = out_space.space(jo).dim
    ent = {(r - off, c): v for (r, c), v in mat.data.items() if off <= r < off + dim}
    return SparseMat(dim, mat.cols, ent)


def _support_rows(mat: SparseMat, out_space: SumSpace) -> set:
    """Output summands that carry nonzero entries."""
    hit = set()
    for (r, _c) in mat.data:
        for j, _sp in out_space.parts:
            off = out_space.offset(j)
            if off <= r < off + out_space.space(j).dim:
                hit.add(j)
                break
    return hit


def verify_block_structure(ops: DerivedOps, i: int, w: int) -> list:
    """Check the triangular block form of G, A, d_V A, D, B and B F.

    Each assembled operator is compared block column by block column with
    the composite built directly from d, T, K and the splitting
    projections: the homotopy carries -(Td)^k T on its k-th sub-diagonal,
    the lift carries (Td)^k, the twisted image carries P_perp (dT)^k d, the
    derived operator P (dT)^k d, the projection chain map P (dT)^k, and
    B F combines the latter with the exponential columns.  Both the zero
    pattern and the entries must agree exactly.
    """
    bd, hs, t, g, bc, b = ops.bd, ops.hs, ops.t, ops.g, ops.bc, ops.b
    failures = []
    col_i = bd.column(i, w)
    col_prev = bd.column(i - 1, w)
    col_next = bd.column(i + 1, w)
    ups_i = bc.ups_space(i, w)
    ups_next = bc.ups_space(i + 1, w)
    d_i = bd.d(i, w).mat
    d_prev = bd.d(i - 1, w).mat if i >= 1 else None
    tmat = t.column(i, w).mat
    t_next = t.column(i + 1, w).mat
    # splitting projections of column i + 1, both block diagonal
    p_perp = {jo: SparseMat.identity(hs.const_dim(i + 1, jo)) - p
              for (ii, jo), p in hs.p_ran.items() if ii == i + 1}
    perp_next = lift_column(bd, p_perp, i + 1, w, col_next, col_next)
    pi_next = bc.projection(i + 1, w).mat

    def check(tag, assembled, out_space, expectations, ji):
        for jo, _sp in out_space.parts:
            got = _rows_of_block(assembled, out_space, jo)
            want = expectations.get(jo)
            if want is None:
                if not got.is_zero():
                    failures.append((tag, i, w, jo, ji))
            elif got != want:
                failures.append((tag, i, w, jo, ji))

    # homotopy blocks: row ji+k+1 carries -(Td)^k T
    gm = g.column(i, w).mat
    for ji in range(bd.N + 1):
        sel = _select_block(col_i, ji)
        expectations = {}
        term = tmat @ sel
        k = 0
        while not term.is_zero():
            support = _support_rows(term, col_prev)
            if support - {ji + k + 1}:
                failures.append(("G shift", i, w, ji, k))
                break
            expectations[ji + k + 1] = _rows_of_block(-term, col_prev, ji + k + 1)
            if d_prev is None:
                break
            term = tmat @ (d_prev @ term)
            k += 1
        check("G block", gm @ sel, col_prev, expectations, ji)

    # lift blocks on harmonic inputs: row ji+k carries (Td)^k iota
    am = bc.A(i, w).mat
    for ji in range(bd.N + 1):
        sel = _select_block(ups_i, ji)
        if sel.cols == 0:
            continue
        placed = bc.inclusion(i, w).mat @ sel
        expectations = {}
        term = placed
        k = 0
        while not term.is_zero():
            support = _support_rows(term, col_i)
            if support - {ji + k}:
                failures.append(("A shift", i, w, ji, k))
                break
            expectations[ji + k] = _rows_of_block(term, col_i, ji + k)
            term = t_next @ (d_i @ term)
            k += 1
        check("A block", am @ sel, col_i, expectations, ji)

        # twisted image: row ji+k carries P_perp d (Td)^k iota
        # derived operator: row ji+k carries P d (Td)^k iota, in coordinates
        dva = bd.d_V(i, w).mat @ (am @ sel)
        dm_col = bc.D(i, w).mat @ sel
        chain = d_i @ placed
        expect_dva = {}
        expect_d = {}
        k = 0
        while not chain.is_zero() and ji + k <= bd.N:
            jo = ji + k
            expect_dva[jo] = _rows_of_block(perp_next @ chain, col_next, jo)
            expect_d[jo] = _rows_of_block(pi_next @ chain, ups_next, jo)
            chain = d_i @ (t_next @ chain)
            k += 1
        check("dVA block", dva, col_next, expect_dva, ji)
        check("D block", dm_col, ups_next, expect_d, ji)

    # projection chain map blocks: row ji+k carries P (dT)^k
    bm = b.column(i, w).mat
    pi_i = bc.projection(i, w).mat
    for ji in range(bd.N + 1):
        sel = _select_block(col_i, ji)
        if sel.cols == 0:
            continue
        expectations = {}
        term = sel
        k = 0
        while not term.is_zero() and ji + k <= bd.N:
            proj = pi_i @ term
            expectations[ji + k] = _rows_of_block(proj, ups_i, ji + k)
            if d_prev is None:
                break
            term = d_prev @ (tmat @ term)
            k += 1
        expectations = {jo: blk for jo, blk in expectations.items()
                        if not blk.is_zero()}
        check("B block", bm @ sel, ups_i, expectations, ji)

    # B F blocks: column ji is sum_m B(., m) K^{ji-m} / (ji-m)!
    bf = bm @ bd.F(i, w).mat
    kmat = bd.K(i, w).mat
    for ji in range(bd.N + 1):
        sel = _select_block(col_i, ji)
        if sel.cols == 0:
            continue
        acc = bm @ sel
        term = sel
        for m in range(1, ji + 1):
            term = kmat @ term
            support = _support_rows(term, col_i)
            if support - {ji - m}:
                failures.append(("F shift", i, w, ji, m))
                break
            if term.is_zero():
                break
            acc = acc + (bm @ term).scale(Fraction(1, factorial(m)))
        if bf @ sel != acc:
            failures.append(("BF block", i, w, ji))
    return failures


# -- equivariance ------------------------------------------------------------


def pullback_column(bd: BuiltDiagram, a: SparseMat, value_actions, i: int,
                    w: int) -> LinMap:
    """Blockwise pullback of a column under the linear substitution x -> a@x."""
    col = bd.column(i, w)
    grid = [[None] * (bd.N + 1) for _ in range(bd.N + 1)]
    for j in range(bd.N + 1):
        blk = bd.block(i, j, w)
        if blk.dim == 0:
            grid[j][j] = SparseMat.zero(blk.dim, blk.dim)
        else:
            grid[j][j] = pullback_block(a, blk, value_actions[j]).mat
    return LinMap(col, col, block_matrix(grid, col.dims(), col.dims()))


def pullback_on_harmonics(bc: BGGComplex, a: SparseMat, value_actions,
                          i: int, w: int) -> LinMap:
    """The induced action on harmonic coordinates; requires invariance."""
    iota = bc.inclusion(i, w)
    phi = pullback_column(bc.bd, a, value_actions, i, w)
    image = phi.mat @ iota.mat
    coords = solve_thin(iota.mat, image)
    sp = bc.ups_space(i, w)
    return LinMap(sp, sp, coords)
