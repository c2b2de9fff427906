"""Derivation machinery: pointwise Hodge splitting of the connectors,
partial inverses, the nilpotent homotopy, and the derived complex on the
harmonic spaces together with its inverse chain maps.

Every operator except d and K acts pointwise, so its constant-coefficient
data is computed once (the splitting bases, projections and harmonic
coordinate maps on ``HodgeSplit``, the partial inverses on ``TOps``) and
stored as {i: {j: C}}, by form degree i and row j.  ``diagram.lift_column``
forms one degree's {j: C} as a column operator at one weight, row block j
becoming I_mono (x) C_j, and ``diagram.lift_apply`` gives that operator's
exact product with a matrix without forming it, so every identity below
closes exactly.  The derived complex only applies T and pi: A applies T and
D applies pi.  Their lifts, ``TOps.column`` and ``BGGComplex.projection``,
are formed only for B, G, the oracles, the exporter and the pullbacks.
Column operators are cached per instance through ``diagram.memo``.  Each
identity is recorded in a ``VerifyReport``; a derivation stage raises once,
with the full report.

G, A and B are the terms of one nilpotent series in T and d, each summed
by ``diagram.nilpotent_terms``.  A is summed on the thin harmonic columns
and B on the thin projection rows, so neither multiplies by the square
homotopy G; G is formed only by the G, chain-map and block-structure
oracles and by the exporter.

A product that several stages read is formed once per (i, w) and memoized
with its factors: ``BGGComplex.dVA`` = d_V A gives D = pi d_V A and is the
assembled side of ``compute_D``'s dVA=AD and of the block-structure
oracle's dVA blocks; ``GOps.dVG`` = d_V G is read by the G oracle's
T(I - d_V G) = 0 and by the chain-map oracle's A B = I - d_V G - G d_V.
Each oracle still forms its expected side, the T- and iota-chains included,
from d, T and the splitting, so no oracle reads the series it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .diagram import BuiltDiagram, VerifyReport, _mono_count, band, lift_apply, \
    lift_column, memo, nilpotent_terms, twisted_cohomology
from .forms import CoordSpace, LinMap, SumSpace, blocks, form_indices, pullback_block
from .linalg import (
    LinAlgError,
    SparseMat,
    column_space,
    hstack,
    inverse,
    nullspace,
    pinv_onto,
    projection_onto,
    rank,
    vstack,
)


@dataclass
class HodgeSplit:
    """Constant-coefficient orthogonal splitting, keyed {i: {j: C}} by form
    degree and row, the layout ``diagram.lift_column`` takes.

    Each space splits as ran(incoming) + ker(outgoing)^perp + harmonic,
    pairwise orthogonal for the standard coordinate inner product.  ``ran``,
    ``kerp`` and ``ups`` hold bases of the three summands; ``coords`` maps a
    constant onto the coordinates of its harmonic part, ``p_kerp`` projects
    onto the middle summand and ``p_perp`` = I - P_ran onto the last two.
    """
    bd: BuiltDiagram
    ran: dict = field(default_factory=dict)
    kerp: dict = field(default_factory=dict)
    ups: dict = field(default_factory=dict)
    coords: dict = field(default_factory=dict)
    p_kerp: dict = field(default_factory=dict)
    p_perp: dict = field(default_factory=dict)

    def support(self) -> dict:
        return {(i, j): b.cols for i, row in self.ups.items()
                for j, b in row.items() if b.cols > 0}


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
            dim = len(form_indices(bd.n, i)) * bd.spec.rows[j].dim
            inc = _incoming(bd, i, j)
            out = _outgoing(bd, i, j)
            ran = column_space(inc) if inc is not None else SparseMat.zero(dim, 0)
            # ker(out)^perp = ran(out^T); a missing connector has kernel everything
            kerp = column_space(out.transpose()) if out is not None else SparseMat.zero(dim, 0)
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
            for store, c in ((hs.ran, ran), (hs.kerp, kerp), (hs.ups, ups),
                             (hs.coords, coords), (hs.p_kerp, p_kerp),
                             (hs.p_perp, SparseMat.identity(dim) - p_ran)):
                store.setdefault(i, {})[j] = c
    report.require("hodge_split")
    return hs


@dataclass
class TOps:
    """Partial inverses of the connectors, per block and per weight.

    ``const`` holds, as {i: {j: C}} for every form degree i, the constant
    partial inverse of each row j with an incoming connector; its kernel
    and range projectors are ``HodgeSplit``'s p_perp at (i, j) and p_kerp at
    the source (i - 1, j + 1), as ``compute_T`` certifies.
    """
    bd: BuiltDiagram
    hs: HodgeSplit
    const: dict = field(default_factory=dict)

    @memo
    def column(self, i: int, w: int) -> LinMap:
        dom = self.bd.column(i, w)
        cod = self.bd.column(i - 1, w)
        return LinMap(dom, cod, lift_column(self.bd, self.const.get(i, {}), i, w, dom, cod,
                                            shift=1))


def compute_T(bd: BuiltDiagram, hs: HodgeSplit) -> TOps:
    """Partial inverses T of the connectors, with their exact identities.

    T at (i, j) inverts the connector into (i, j) on its range and kills the
    orthogonal complement of the range.  Certifies TT = 0, TST = T,
    STS = S and both range/kernel complementarity statements exactly on
    constants (the lifts are identical on every weight block).
    """
    t = TOps(bd, hs)
    for i in range(bd.n + 1):
        t.const[i] = {j: pinv_onto(inc) for j in range(bd.N + 1)
                      if (inc := _incoming(bd, i, j)) is not None}
    # identities on constants
    report = VerifyReport(bd.spec.name, bd.w_max)
    for i, row in t.const.items():
        for j, tc in row.items():
            s_in = _incoming(bd, i, j)
            at = (j,)
            report.expect("STS=S", None, i, s_in @ tc @ s_in, s_in, at)
            report.expect("TST=T", None, i, tc @ s_in @ tc, tc, at)
            # T T = 0 one step further down the diagonal
            tc2 = t.const[i - 1].get(j + 1)
            if tc2 is not None:
                report.expect("TT=0", None, i, tc2 @ tc, at=at)
            # ran(T) = ker(S at source)^perp
            ran_t = column_space(tc)
            kerp_src = hs.kerp[i - 1][j + 1]
            report.holds("ranT=kerS^perp", None, i,
                         rank(hstack([ran_t, kerp_src])) == rank(ran_t) == rank(kerp_src), at)
            # ran(S) = ker(T at target)^perp
            ran_s = hs.ran[i][j]
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
        ts = t_i @ s_prev
        report.expect("TT=0", w, i, t.column(i - 1, w).mat @ t_i)
        report.expect("TST=T", w, i, ts @ t_i, t_i)
        report.expect("STS=S", w, i, s_prev @ ts, s_prev)
    return report.failures()


@dataclass
class GOps:
    """Nilpotent homotopy per column index and weight."""
    bd: BuiltDiagram
    t: TOps

    @memo
    def column(self, i: int, w: int) -> LinMap:
        """G = -sum_k (T d)^k T, summed from -T."""
        tcol = self.t.column(i, w)
        td = tcol.mat @ self.bd.d(i - 1, w).mat
        terms = nilpotent_terms(-tcol.mat, lambda x: td @ x, self.bd.N + 1)
        return LinMap(tcol.dom, tcol.cod, sum(terms[1:], terms[0]))

    @memo
    def dVG(self, i: int, w: int) -> LinMap:
        """d_V G, formed once for the G and chain-map oracles."""
        return self.bd.d_V(i - 1, w) @ self.column(i, w)


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
        report.expect("G|kerT=0", w, i, gm @ lift_column(bd, hs.p_perp[i], i, w, col, col))
        if i == 0:
            # (3) with no column below: G itself must vanish
            report.expect("ranG in ranT", w, i, gm)
            continue
        # (2): T (I - d_V G) = 0, read as T d_V G = T
        report.expect("T(I-dVG)=0", w, i, tm @ g.dVG(i, w).mat, tm)
        # (3): P_ran(T) G = G; ran(T) = ker(S)^perp on column i - 1
        col_prev = bd.column(i - 1, w)
        report.expect("ranG in ranT", w, i,
                      lift_column(bd, hs.p_kerp[i - 1], i - 1, w, col_prev, col_prev) @ gm, gm)
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
            cnt = _mono_count(self.bd, i, j, w) * self.hs.ups[i][j].cols \
                if 0 <= i <= self.bd.n else 0
            parts.append((j, CoordSpace(f"ups({i},{j})w{w}", cnt)))
        return SumSpace(tuple(parts))

    def inclusion(self, i: int, w: int) -> LinMap:
        """Harmonic coordinates into the ambient column."""
        dom, cod = self.ups_space(i, w), self.bd.column(i, w)
        return LinMap(dom, cod, lift_column(self.bd, self.hs.ups.get(i, {}), i, w, dom, cod))

    def projection(self, i: int, w: int) -> LinMap:
        """Ambient column onto harmonic coordinates (orthogonal projection);
        not memoized, so no lift outlives its reader (B, the block-structure
        oracle, ``pullback_on_harmonics``).  D applies it without forming it."""
        dom, cod = self.bd.column(i, w), self.ups_space(i, w)
        return LinMap(dom, cod, lift_column(self.bd, self.hs.coords.get(i, {}), i, w, dom, cod))

    @memo
    def A(self, i: int, w: int) -> LinMap:
        """Chain map from harmonic coordinates into the twisted complex.

        A = iota - G_{i+1} d_V iota, summed on the thin harmonic columns as
        sum_k (T d)^k iota: harmonic constants lie in ker S, as
        ``hodge_split`` certifies (``Pkerp Pups=0``), so d_V iota = d iota.
        Each step applies T through ``lift_apply``, so T's lift is not formed.
        """
        bd, iota = self.bd, self.inclusion(i, w)
        t_next, d_i = self.t.const.get(i + 1, {}), bd.d(i, w)
        terms = nilpotent_terms(iota.mat, lambda x: lift_apply(
            bd, t_next, i + 1, w, d_i.cod, d_i.dom, d_i.mat @ x, shift=1), bd.N + 1)
        return LinMap(iota.dom, iota.cod, sum(terms[1:], terms[0]))

    @memo
    def dVA(self, i: int, w: int) -> LinMap:
        """d_V A, formed once for D, ``compute_D`` and the block-structure oracle."""
        return self.bd.d_V(i, w) @ self.A(i, w)

    @memo
    def D(self, i: int, w: int) -> LinMap:
        """pi d_V A, with pi applied to d_V A rather than formed."""
        dva, ups = self.dVA(i, w), self.ups_space(i + 1, w)
        return LinMap(dva.dom, ups, lift_apply(self.bd, self.hs.coords.get(i + 1, {}), i + 1, w,
                                               dva.cod, ups, dva.mat))

    def block_orders(self, i: int) -> list[int]:
        """Weight shifts of the nonzero derived-operator blocks at index i."""
        ds = [self.D(i, w) for w in range(self.bd.w_max + 1)]
        return sorted({1 + jo - ji for d in ds for jo, ji in blocks(d.mat, d.cod, d.dom)})


def compute_D(bd: BuiltDiagram, hs: HodgeSplit, t: TOps, g: GOps) -> BGGComplex:
    """Assemble the derived complex and certify its defining identities."""
    bc = BGGComplex(bd, hs, t, g)
    report = VerifyReport(bd.spec.name, bd.w_max)
    for w in range(bd.w_max + 1):
        for i in range(bd.n + 1):
            d_i = bc.D(i, w).mat
            if i < bd.n:
                report.expect("DD=0", w, i, bc.D(i + 1, w).mat @ d_i)
            report.expect("dVA=AD", w, i, bc.dVA(i, w).mat, bc.A(i + 1, w).mat @ d_i)
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
            hom = hom - bc.g.dVG(i, w).mat
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


def verify_block_structure(ops: DerivedOps, i: int, w: int) -> list:
    """Check the triangular block form of G, A, d_V A, D, B and B F.

    Each assembled operator is split by ``forms.blocks`` and compared block
    by block with the composite built directly from d, T, K and the
    splitting projections.  The T-chain (Td)^k T and the iota-chain
    (Td)^k iota are formed once, on the whole T and iota: block column ji of
    a term is the term of that block column alone.  (Td)^k T gives G's
    -(Td)^k T on row ji+k+1 and B's P d (Td)^k T there, next to P on row ji;
    (Td)^k iota gives A's term on row ji+k, d_V A's P_perp d (Td)^k iota and
    D's P d (Td)^k iota.  The d (Td)^k products are those the chain steps
    form.  B F combines B with the powers of K.  The G, A and F shift checks
    read which block diagonal each split term lies on.  Both the zero
    pattern and the entries must agree exactly.
    """
    bd, hs, t, g, bc, b = ops.bd, ops.hs, ops.t, ops.g, ops.bc, ops.b
    report = VerifyReport(bd.spec.name, bd.w_max)
    col_i, col_next, ups_i = bd.column(i, w), bd.column(i + 1, w), bc.ups_space(i, w)
    # splitting projections, all block diagonal: P_perp on column i + 1, P on i and i + 1
    perp_next = lift_column(bd, hs.p_perp.get(i + 1, {}), i + 1, w, col_next, col_next)
    pi_i, pi_next = bc.projection(i, w).mat, bc.projection(i + 1, w).mat
    gop, bop = g.column(i, w), b.column(i, w)
    aop, dvaop, dop = bc.A(i, w), bc.dVA(i, w), bc.D(i, w)

    def chain(first, outer, inner, like):
        """The terms of the series (outer inner)^k first, split as maps like
        ``like``, and the products inner @ term that its steps form."""
        images = []

        def step(x):
            images.append(inner @ x)
            return outer @ images[-1]
        # a limit one past the N + 1 rows steps from every nonzero term, so
        # each one has its image
        terms = nilpotent_terms(first, step, bd.N + 2)
        return [blocks(x, like.cod, like.dom) for x in terms], images

    def walk(tag, splits, row_of, start=0):
        """Block column ji of the k-th split term, for k from start, while it
        is nonzero and lies on row row_of(ji, k) >= 0 alone, keyed (row, ji);
        the first term elsewhere fails ``tag`` at (ji, k) and ends the walk."""
        found = {}
        for ji in sorted({jj for _, jj in splits[0]}):
            for k, split in enumerate(splits, start):
                row = row_of(ji, k)
                col = {jo: blk for (jo, jj), blk in split.items() if jj == ji}
                if row < 0 or not col or not report.holds(tag, w, i, col.keys() <= {row}, (ji, k)):
                    break
                found[(row, ji)] = col[row]
        return found

    def diagonal(like, mats):
        """The block (ji + k, ji) of the k-th matrix, a map like ``like``;
        each matrix is split and dropped in turn."""
        return {(jo, ji): blk for k, x in enumerate(mats)
                for (jo, ji), blk in blocks(x, like.cod, like.dom).items() if jo - ji == k}

    def check(tag, op, want):
        got = blocks(op.mat, op.cod, op.dom)
        for ji, part in op.dom.parts:
            for jo, out in op.cod.parts:
                report.expect(tag, w, i, got.get((jo, ji), SparseMat.zero(out.dim, part.dim)),
                              want.get((jo, ji)), at=(jo, ji))

    tmat = t.column(i, w).mat
    splits, images = chain(tmat, tmat, bd.d(i - 1, w).mat, gop)
    check("G block", -gop, walk("G shift", splits, lambda ji, k: ji + k + 1))
    check("B block", bop, diagonal(bop, [pi_i] + [pi_i @ x for x in images]))

    # the iota-chain replaces the T-chain, and is freed before the K powers
    splits, images = chain(bc.inclusion(i, w).mat, t.column(i + 1, w).mat, bd.d(i, w).mat, aop)
    check("A block", aop, walk("A shift", splits, lambda ji, k: ji + k))
    check("dVA block", dvaop, diagonal(dvaop, (perp_next @ x for x in images)))
    check("D block", dop, diagonal(dop, (pi_next @ x for x in images)))
    del splits, images

    # B F block column ji is B (I + sum_m K^m / m!) on column ji; its rows
    # are read as one part, so each block column is compared whole
    rows = SumSpace(((None, ups_i),))
    kmat = bd.K(i, w).mat
    powers = nilpotent_terms(kmat, lambda x: kmat @ x, bd.N + 1)
    shifted = walk("F shift", [blocks(p, col_i, col_i) for p in powers],
                   lambda ji, m: ji - m, start=1)
    b_k = [blocks(x, rows, col_i) for x in [bop.mat] + [bop.mat @ p for p in powers]]
    bf = blocks(bop.mat @ bd.F(i, w).mat, rows, col_i)
    for ji, part in col_i.parts:
        zero = SparseMat.zero(ups_i.dim, part.dim)
        ms = [ji - jo for jo, jj in shifted if jj == ji]
        want = sum((b_k[m].get((None, ji), zero).scale(Fraction(1, factorial(m)))
                    for m in ms), b_k[0].get((None, ji), zero))
        report.expect("BF block", w, i, bf.get((None, ji), zero), want, at=(ji,))
    return report.failures()


# -- equivariance ------------------------------------------------------------


def pullback_column(bd: BuiltDiagram, a: SparseMat, value_actions, i: int,
                    w: int) -> LinMap:
    """Blockwise pullback of a column under the linear substitution x -> a@x."""
    col = bd.column(i, w)
    diag = {j: pullback_block(a, blk, value_actions[j]).mat
            for j, blk in col.parts if blk.dim}
    return LinMap(col, col, band(diag, col, col))


def pullback_on_harmonics(bc: BGGComplex, a: SparseMat, value_actions,
                          i: int, w: int) -> LinMap:
    """The induced action on harmonic coordinates, pi phi iota; raises
    LinAlgError unless phi maps the harmonic space into itself."""
    iota = bc.inclusion(i, w)
    phi = pullback_column(bc.bd, a, value_actions, i, w)
    image = phi.mat @ iota.mat
    coords = bc.projection(i, w).mat @ image
    if iota.mat @ coords != image:
        raise LinAlgError(f"pullback leaves the harmonic space at i={i}, w={w}")
    sp = bc.ups_space(i, w)
    return LinMap(sp, sp, coords)
