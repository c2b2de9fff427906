"""Derivation machinery: pointwise Hodge splitting of the connectors,
partial inverses, the nilpotent homotopy, and the derived complex on the
harmonic spaces together with its inverse chain maps.

Every operator except d and K acts pointwise, so its constant-coefficient
data is computed once (the splitting projections and harmonic coordinate
maps on ``HodgeSplit``, the partial inverses on ``TOps``).
``diagram.lift_column`` is the single path from those constants to a column
operator at one weight: row block j becomes I_mono (x) C_j, so every
identity below closes exactly.  Column operators are cached per instance
through ``diagram.memo``.  Each identity is recorded in a
``VerifyReport``; a derivation stage raises once, with the full report.

G, A and B are the terms of one nilpotent series in T and d, each summed
by ``diagram.nilpotent_terms``.  A is summed on the thin harmonic columns
and B on the thin projection rows, so neither multiplies by the square
homotopy G; G is formed only by the G, chain-map and block-structure
oracles and by the exporter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .diagram import BuiltDiagram, VerifyReport, _mono_count, band, lift_column, \
    memo, nilpotent_terms, twisted_cohomology
from .forms import CoordSpace, LinMap, SumSpace, form_indices, pullback_block
from .linalg import (
    SparseMat,
    column_space,
    hstack,
    inverse,
    nullspace,
    orthogonal_complement,
    pinv_onto,
    projection_onto,
    rank,
    solve_thin,
    take_cols,
    take_rows,
    vstack,
)


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
        return len(form_indices(self.bd.n, i)) * self.bd.spec.rows[j].dim

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
    report = VerifyReport(bd.spec.name, bd.w_max)
    for i in range(bd.n + 1):
        for j in range(bd.N + 1):
            dim = hs.const_dim(i, j)
            inc = _incoming(bd, i, j)
            out = _outgoing(bd, i, j)
            ran = column_space(inc) if inc is not None else SparseMat.zero(dim, 0)
            if out is not None:
                ker = nullspace(out)
            else:
                ker = SparseMat.identity(dim)
            kerp = orthogonal_complement(ker)
            # harmonic part: ran^perp intersected with ker
            constraints = [ran.transpose()]
            if out is not None:
                constraints.insert(0, out)
            ups = nullspace(vstack(constraints))
            coords = inverse(ups.transpose() @ ups) @ ups.transpose()
            p_ran = projection_onto(ran)
            p_kerp = projection_onto(kerp)
            p_ups = ups @ coords
            at = (j,)
            report.expect("coords ups=I", None, i, coords @ ups,
                          SparseMat.identity(ups.cols), at)
            report.expect("split=I", None, i, p_ran + p_kerp + p_ups,
                          SparseMat.identity(dim), at)
            report.expect("Pran Pkerp=0", None, i, p_ran @ p_kerp, at=at)
            report.expect("Pran Pups=0", None, i, p_ran @ p_ups, at=at)
            report.expect("Pkerp Pups=0", None, i, p_kerp @ p_ups, at=at)
            key = (i, j)
            hs.ran[key], hs.kerp[key], hs.ups[key] = ran, kerp, ups
            hs.coords[key] = coords
            hs.p_ran[key], hs.p_kerp[key], hs.p_ups[key] = p_ran, p_kerp, p_ups
    report.require("hodge_split")
    return hs


@dataclass
class TOps:
    """Partial inverses of the connectors, per block and per weight.

    ``const`` holds, per (i, j) with an incoming connector, the constant
    partial inverse; its kernel and range projectors are ``HodgeSplit``'s
    I - p_ran at (i, j) and p_kerp at the source, as ``compute_T`` certifies.
    """
    bd: BuiltDiagram
    hs: HodgeSplit
    const: dict = field(default_factory=dict)

    @memo
    def column(self, i: int, w: int) -> LinMap:
        dom = self.bd.column(i, w)
        cod = self.bd.column(i - 1, w)
        consts = {j: c for (ii, j), c in self.const.items() if ii == i}
        return LinMap(dom, cod, lift_column(self.bd, consts, i, w, dom, cod, shift=1))


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
    report = VerifyReport(bd.spec.name, bd.w_max)
    for (i, j), tc in t.const.items():
        s_in = _incoming(bd, i, j)
        at = (j,)
        report.expect("STS=S", None, i, s_in @ tc @ s_in, s_in, at)
        report.expect("TST=T", None, i, tc @ s_in @ tc, tc, at)
        # T T = 0 one step further down the diagonal
        tc2 = t.const.get((i - 1, j + 1))
        if tc2 is not None:
            report.expect("TT=0", None, i, tc2 @ tc, at=at)
        # ran(T) = ker(S at source)^perp
        ran_t = column_space(tc)
        kerp_src = hs.kerp[(i - 1, j + 1)]
        report.holds("ranT=kerS^perp", None, i,
                     rank(hstack([ran_t, kerp_src])) == rank(ran_t) == rank(kerp_src), at)
        # ran(S) = ker(T at target)^perp
        ran_s = hs.ran[(i, j)]
        ker_t = nullspace(tc)
        report.expect("kerT ranS=0", None, i, ker_t.transpose() @ ran_s, at=at)
        report.holds("ranS+kerT=dim", None, i, ran_s.cols + ker_t.cols == tc.cols, at)
    report.require("compute_T")
    return t


def verify_T_column_identities(bd: BuiltDiagram, t: TOps, w: int) -> list:
    """TT = 0, TST = T and STS = S as column matrices at one weight."""
    report = VerifyReport(bd.spec.name, bd.w_max)
    for i in range(1, bd.n + 1):
        t_i = t.column(i, w).mat
        s_prev = bd.S(i - 1, w).mat
        report.expect("TT=0", w, i, t.column(i - 1, w).mat @ t_i)
        report.expect("TST=T", w, i, (t_i @ s_prev) @ t_i, t_i)
        report.expect("STS=S", w, i, (s_prev @ t_i) @ s_prev, s_prev)
    return report.failures()


@dataclass
class GOps:
    """Nilpotent homotopy per column index and weight."""
    bd: BuiltDiagram
    t: TOps

    @memo
    def column(self, i: int, w: int) -> LinMap:
        """G = -sum_k (T d)^k T."""
        tcol = self.t.column(i, w)
        td = tcol.mat @ self.bd.d(i - 1, w).mat
        terms = nilpotent_terms(tcol.mat, lambda x: td @ x, self.bd.N + 1)
        return LinMap(tcol.dom, tcol.cod, -sum(terms[1:], terms[0]))


def verify_G_properties(bd: BuiltDiagram, hs: HodgeSplit, t: TOps, g: GOps,
                        w: int) -> list:
    """The three defining homotopy properties, exactly at one weight.

    (1) G vanishes on ker(T); (2) phi - d_V G phi lies in ker(T);
    (3) ran(G) is contained in ran(T).
    """
    report = VerifyReport(bd.spec.name, bd.w_max)
    for i in range(bd.n + 1):
        gm = g.column(i, w).mat
        tm = t.column(i, w).mat
        col = bd.column(i, w)
        # (1): G P_ker(T) = 0.  ker(T) = ran(S)^perp, lifted blockwise.
        p_ker = {j: SparseMat.identity(hs.const_dim(i, j)) - p
                 for (ii, j), p in hs.p_ran.items() if ii == i}
        report.expect("G|kerT=0", w, i, gm @ lift_column(bd, p_ker, i, w, col, col))
        if i == 0:
            # (3) with no column below: G itself must vanish
            report.expect("ranG in ranT", w, i, gm)
            continue
        # (2): T (I - d_V G) = 0
        ident = SparseMat.identity(col.dim)
        report.expect("T(I-dVG)=0", w, i, tm @ (ident - bd.d_V(i - 1, w).mat @ gm))
        # (3): P_ran(T) G = G; ran(T) = ker(S)^perp on column i - 1
        col_prev = bd.column(i - 1, w)
        p_ran = {j: p for (ii, j), p in hs.p_kerp.items() if ii == i - 1}
        report.expect("ranG in ranT", w, i,
                      lift_column(bd, p_ran, i - 1, w, col_prev, col_prev) @ gm, gm)
    return report.failures()


@dataclass
class BGGComplex:
    """The derived complex on the harmonic spaces, weight by weight."""
    bd: BuiltDiagram
    hs: HodgeSplit
    t: TOps
    g: GOps

    @memo
    def ups_space(self, i: int, w: int) -> SumSpace:
        parts = []
        for j in range(self.bd.N + 1):
            cnt = _mono_count(self.bd, i, j, w) * self.hs.ups_dim(i, j) \
                if 0 <= i <= self.bd.n else 0
            parts.append((j, CoordSpace(f"ups({i},{j})w{w}", cnt)))
        return SumSpace(tuple(parts))

    @memo
    def inclusion(self, i: int, w: int) -> LinMap:
        """Harmonic coordinates into the ambient column."""
        dom, cod = self.ups_space(i, w), self.bd.column(i, w)
        consts = {j: b for (ii, j), b in self.hs.ups.items() if ii == i}
        return LinMap(dom, cod, lift_column(self.bd, consts, i, w, dom, cod))

    @memo
    def projection(self, i: int, w: int) -> LinMap:
        """Ambient column onto harmonic coordinates (orthogonal projection)."""
        dom, cod = self.bd.column(i, w), self.ups_space(i, w)
        consts = {j: c for (ii, j), c in self.hs.coords.items() if ii == i}
        return LinMap(dom, cod, lift_column(self.bd, consts, i, w, dom, cod))

    @memo
    def A(self, i: int, w: int) -> LinMap:
        """Chain map from harmonic coordinates into the twisted complex.

        A = iota - G_{i+1} d_V iota, summed on the thin harmonic columns as
        sum_k (T d)^k iota: harmonic constants lie in ker S, as
        ``hodge_split`` certifies (``Pkerp Pups=0``), so d_V iota = d iota.
        """
        iota = self.inclusion(i, w)
        t_next = self.t.column(i + 1, w).mat
        d_i = self.bd.d(i, w).mat
        terms = nilpotent_terms(iota.mat, lambda x: t_next @ (d_i @ x), self.bd.N + 1)
        return LinMap(iota.dom, iota.cod, sum(terms[1:], terms[0]))

    @memo
    def D(self, i: int, w: int) -> LinMap:
        a = self.A(i, w)
        dv = self.bd.d_V(i, w)
        pi = self.projection(i + 1, w)
        return LinMap(a.dom, pi.cod, pi.mat @ (dv.mat @ a.mat))

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
                           for (r, c) in d.mat.num):
                        orders.add(1 + jo - ji)
        return sorted(orders)


def compute_D(bd: BuiltDiagram, hs: HodgeSplit, t: TOps, g: GOps) -> BGGComplex:
    """Assemble the derived complex and certify its defining identities."""
    bc = BGGComplex(bd, hs, t, g)
    report = VerifyReport(bd.spec.name, bd.w_max)
    for w in range(bd.w_max + 1):
        for i in range(bd.n + 1):
            d_i = bc.D(i, w).mat
            if i < bd.n:
                report.expect("DD=0", w, i, bc.D(i + 1, w).mat @ d_i)
            report.expect("dVA=AD", w, i, bd.d_V(i, w).mat @ bc.A(i, w).mat,
                          bc.A(i + 1, w).mat @ d_i)
    report.require("compute_D")
    return bc


@dataclass
class BOps:
    """Projection chain map from the twisted complex onto harmonic coordinates."""
    bc: BGGComplex

    @memo
    def column(self, i: int, w: int) -> LinMap:
        """B = pi (I - d_V G), summed on the thin projection rows as
        pi sum_k (d T)^k: pi annihilates ran S, as ``hodge_split`` certifies
        (``Pran Pups=0``), so pi d_V G = -pi sum_k d (T d)^k T.
        """
        bc = self.bc
        pi = bc.projection(i, w)
        d_prev = bc.bd.d(i - 1, w).mat
        t_i = bc.t.column(i, w).mat
        terms = nilpotent_terms(pi.mat, lambda x: (x @ d_prev) @ t_i, bc.bd.N + 1)
        return LinMap(pi.dom, pi.cod, sum(terms[1:], terms[0]))


def verify_chain_maps(bc: BGGComplex, b: BOps, w: int) -> list:
    """B d_V = D B, B A = I and A B = I - d_V G - G d_V, at one weight."""
    bd = bc.bd
    report = VerifyReport(bd.spec.name, bd.w_max)
    for i in range(bd.n + 1):
        b_i = b.column(i, w).mat
        if i < bd.n:
            report.expect("B dV = D B", w, i, b.column(i + 1, w).mat @ bd.d_V(i, w).mat,
                          bc.D(i, w).mat @ b_i)
        report.expect("B A = I", w, i, b_i @ bc.A(i, w).mat,
                      SparseMat.identity(bc.ups_space(i, w).dim))
        hom = SparseMat.identity(bd.column(i, w).dim)
        if i >= 1:
            hom = hom - bd.d_V(i - 1, w).mat @ bc.g.column(i, w).mat
        hom = hom - bc.g.column(i + 1, w).mat @ bd.d_V(i, w).mat
        report.expect("A B = I - dVG - GdV", w, i, bc.A(i, w).mat @ b_i, hom)
    return report.failures()


def bgg_cohomology(bc: BGGComplex) -> dict:
    """Cohomology dims of the derived complex, asserted against the twisted ones."""
    bd = bc.bd
    twisted = twisted_cohomology(bd)
    report = VerifyReport(bd.spec.name, bd.w_max)
    dims = {}
    for w in range(bd.w_max + 1):
        prev_rank = 0
        for i in range(bd.n + 1):
            r = rank(bc.D(i, w).mat)
            h = bc.ups_space(i, w).dim - r - prev_rank
            report.holds("derived=twisted", w, i, h == twisted[(i, w)])
            dims[(i, w)] = h
            prev_rank = r
    report.require("bgg_cohomology")
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


def _rows_of_block(mat: SparseMat, out_space: SumSpace, jo: int) -> SparseMat:
    """Extract the rows of mat belonging to the jo-th output summand."""
    off = out_space.offset(jo)
    return take_rows(mat, range(off, off + out_space.space(jo).dim))


def _cols_of_block(mat: SparseMat, in_space: SumSpace, ji: int) -> SparseMat:
    """Extract the columns of mat belonging to the ji-th input summand."""
    off = in_space.offset(ji)
    return take_cols(mat, range(off, off + in_space.space(ji).dim))


def _support_rows(mat: SparseMat, out_space: SumSpace) -> set:
    """Output summands that carry nonzero entries."""
    rows = {r for (r, _c) in mat.num}
    hit = set()
    off = 0
    for j, sp in out_space.parts:
        if any(r in rows for r in range(off, off + sp.dim)):
            hit.add(j)
        off += sp.dim
    return hit


def verify_block_structure(ops: DerivedOps, i: int, w: int) -> list:
    """Check the triangular block form of G, A, d_V A, D, B and B F.

    Each assembled operator is compared block column by block column with
    the composite built directly from d, T, K and the splitting
    projections.  Two chains are formed per block column ji.  The T-chain
    (Td)^k T gives the homotopy's -(Td)^k T on row ji+k+1 and the projection
    chain map's P d (Td)^k T there, next to P on row ji.  The iota-chain
    (Td)^k iota gives the lift on row ji+k, the twisted image's
    P_perp d (Td)^k iota and the derived operator's P d (Td)^k iota.  B F
    combines B with the powers of K, formed once.  Both the zero pattern and
    the entries must agree exactly.
    """
    bd, hs, t, g, bc, b = ops.bd, ops.hs, ops.t, ops.g, ops.bc, ops.b
    report = VerifyReport(bd.spec.name, bd.w_max)
    col_i = bd.column(i, w)
    col_prev = bd.column(i - 1, w)
    col_next = bd.column(i + 1, w)
    ups_i = bc.ups_space(i, w)
    ups_next = bc.ups_space(i + 1, w)
    d_i = bd.d(i, w).mat
    d_prev = bd.d(i - 1, w).mat
    tmat = t.column(i, w).mat
    t_next = t.column(i + 1, w).mat
    # splitting projections of column i + 1, both block diagonal
    p_perp = {jo: SparseMat.identity(hs.const_dim(i + 1, jo)) - p
              for (ii, jo), p in hs.p_ran.items() if ii == i + 1}
    perp_next = lift_column(bd, p_perp, i + 1, w, col_next, col_next)
    pi_next = bc.projection(i + 1, w).mat
    pi_i = bc.projection(i, w).mat
    gm = g.column(i, w).mat
    am = bc.A(i, w).mat
    dm = bc.D(i, w).mat
    bm = b.column(i, w).mat

    def check(tag, assembled, out_space, expectations, ji):
        for jo, _sp in out_space.parts:
            report.expect(tag, w, i, _rows_of_block(assembled, out_space, jo),
                          expectations.get(jo), at=(jo, ji))

    # one call per block column, so its chains are freed before the next
    def block_column(ji):
        t_chain = nilpotent_terms(_cols_of_block(tmat, col_i, ji),
                                  lambda x: tmat @ (d_prev @ x), bd.N + 1)
        expect_g = {}
        for k, term in enumerate(t_chain):
            if term.is_zero() or not report.holds(
                    "G shift", w, i, _support_rows(term, col_prev) <= {ji + k + 1}, (ji, k)):
                break
            expect_g[ji + k + 1] = _rows_of_block(-term, col_prev, ji + k + 1)
        check("G block", _cols_of_block(gm, col_i, ji), col_prev, expect_g, ji)

        if col_i.space(ji).dim:
            expect_b = {ji: _rows_of_block(_cols_of_block(pi_i, col_i, ji), ups_i, ji)}
            for k, term in enumerate(t_chain[:bd.N - ji]):
                expect_b[ji + k + 1] = _rows_of_block(pi_i @ (d_prev @ term), ups_i,
                                                      ji + k + 1)
            expect_b = {jo: blk for jo, blk in expect_b.items() if not blk.is_zero()}
            check("B block", _cols_of_block(bm, col_i, ji), ups_i, expect_b, ji)

        if ups_i.space(ji).dim == 0:
            return
        iota_chain = nilpotent_terms(_cols_of_block(bc.inclusion(i, w).mat, ups_i, ji),
                                     lambda x: t_next @ (d_i @ x), bd.N + 1)
        expect_a = {}
        for k, term in enumerate(iota_chain):
            if not report.holds("A shift", w, i,
                                _support_rows(term, col_i) <= {ji + k}, (ji, k)):
                break
            expect_a[ji + k] = _rows_of_block(term, col_i, ji + k)
        am_col = _cols_of_block(am, ups_i, ji)
        check("A block", am_col, col_i, expect_a, ji)

        expect_dva = {}
        expect_d = {}
        for k, term in enumerate(iota_chain[:bd.N + 1 - ji]):
            image = d_i @ term
            if image.is_zero():
                break
            expect_dva[ji + k] = _rows_of_block(perp_next @ image, col_next, ji + k)
            expect_d[ji + k] = _rows_of_block(pi_next @ image, ups_next, ji + k)
        check("dVA block", bd.d_V(i, w).mat @ am_col, col_next, expect_dva, ji)
        check("D block", _cols_of_block(dm, ups_i, ji), ups_next, expect_d, ji)

    for ji in range(bd.N + 1):
        block_column(ji)

    # B F blocks: column ji is sum_m B(., ji - m) K^m / m!
    bf = bm @ bd.F(i, w).mat
    kmat = bd.K(i, w).mat
    powers = nilpotent_terms(kmat, lambda x: kmat @ x, bd.N + 1)
    for ji in range(bd.N + 1):
        if col_i.space(ji).dim == 0:
            continue
        acc = _cols_of_block(bm, col_i, ji)
        for m, power in enumerate(powers[:ji], start=1):
            term = _cols_of_block(power, col_i, ji)
            if not report.holds("F shift", w, i,
                                _support_rows(term, col_i) <= {ji - m}, (ji, m)):
                break
            if term.is_zero():
                break
            acc = acc + (bm @ term).scale(Fraction(1, factorial(m)))
        report.expect("BF block", w, i, _cols_of_block(bf, col_i, ji), acc, at=(ji,))
    return report.failures()


# -- equivariance ------------------------------------------------------------


def pullback_column(bd: BuiltDiagram, a: SparseMat, value_actions, i: int,
                    w: int) -> LinMap:
    """Blockwise pullback of a column under the linear substitution x -> a@x."""
    col = bd.column(i, w)
    blocks = {j: pullback_block(a, blk, value_actions[j]).mat
              for j, blk in col.parts if blk.dim}
    return LinMap(col, col, band(blocks, col, col))


def pullback_on_harmonics(bc: BGGComplex, a: SparseMat, value_actions,
                          i: int, w: int) -> LinMap:
    """The induced action on harmonic coordinates; requires invariance."""
    iota = bc.inclusion(i, w)
    phi = pullback_column(bc.bd, a, value_actions, i, w)
    image = phi.mat @ iota.mat
    coords = solve_thin(iota.mat, image)
    sp = bc.ups_space(i, w)
    return LinMap(sp, sp, coords)
