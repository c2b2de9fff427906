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
Column operators are cached per instance through ``diagram.memo``, on the
stage objects (``HodgeSplit``, ``TOps``, ``GOps``, ``BGGComplex``, ``BOps``
and ``DerivedOps``, plain classes that compare by identity).  Each identity
is recorded in a ``VerifyReport``; a derivation stage raises once, with the
full report.

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
from d, T, K and the splitting, so no oracle reads the series it checks.
The block-structure oracle reads G, B, A, d_V A, D and F through one rule:
each is a series whose k-th term lies on one block diagonal, and F, the
series I + sum_m K^m / m!, is compared with its terms directly.  A term's
rows are checked by column range, and only an operator that differs from
the sum of its terms is split into blocks, to locate the difference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial

from .diagram import BuiltDiagram, VerifyReport, _count_cohomology, _mono_count, band, \
    lift_apply, lift_column, memo, nilpotent_terms, twisted_cohomology
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


class HodgeSplit:
    """Constant-coefficient orthogonal splitting, keyed {i: {j: C}} by form
    degree and row, the layout ``diagram.lift_column`` takes.

    Each space splits as ran(incoming) + ker(outgoing)^perp + harmonic,
    pairwise orthogonal for the standard coordinate inner product.  ``ran``,
    ``kerp`` and ``ups`` hold bases of the three summands; ``coords`` maps a
    constant onto the coordinates of its harmonic part, ``p_kerp`` projects
    onto the middle summand and ``p_perp`` = I - P_ran onto the last two.
    """

    def __init__(self, bd: BuiltDiagram):
        self.bd = bd
        self.ran, self.kerp, self.ups = {}, {}, {}
        self.coords, self.p_kerp, self.p_perp = {}, {}, {}

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


class TOps:
    """Partial inverses of the connectors, per block and per weight.

    ``const`` holds, as {i: {j: C}} for every form degree i, the constant
    partial inverse of each row j with an incoming connector; its kernel
    and range projectors are ``HodgeSplit``'s p_perp at (i, j) and p_kerp at
    the source (i - 1, j + 1), as ``compute_T`` certifies.
    """

    def __init__(self, bd: BuiltDiagram):
        self.bd = bd
        self.const = {}

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
    t = TOps(bd)
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


class GOps:
    """Nilpotent homotopy per column index and weight."""

    def __init__(self, bd: BuiltDiagram, t: TOps):
        self.bd = bd
        self.t = t

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


class BGGComplex:
    """The derived complex on the harmonic spaces, weight by weight."""

    def __init__(self, bd: BuiltDiagram, hs: HodgeSplit, t: TOps, g: GOps):
        self.bd = bd
        self.hs = hs
        self.t = t
        self.g = g

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


class BOps:
    """Projection chain map from the twisted complex onto harmonic coordinates."""

    def __init__(self, bc: BGGComplex):
        self.bc = bc

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
    twisted = twisted_cohomology(bc.bd)
    return _count_cohomology(bc.bd, "bgg_cohomology", "derived=twisted",
                             lambda i, w: bc.ups_space(i, w).dim,
                             lambda i, w: rank(bc.D(i, w).mat), lambda i, w: twisted[(i, w)])


class DerivedOps:
    """Every stage ``derive`` ran, in order."""

    def __init__(self, bd: BuiltDiagram, hs: HodgeSplit, t: TOps, g: GOps, bc: BGGComplex,
                 b: BOps):
        self.bd = bd
        self.hs = hs
        self.t = t
        self.g = g
        self.bc = bc
        self.b = b


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
    """Check the triangular block form of G, B, A, d_V A, D and F.

    Each operator is a series whose k-th term sends block column ji to row
    ji + diag(k) and nowhere else.  Every term is formed directly from d, T,
    K and the splitting projections.  The T-chain (Td)^k T and the
    iota-chain (Td)^k iota are formed once, on the whole T and iota, with
    the products d (Td)^k their steps form.  -G's terms are (Td)^k T on diag
    k + 1; B's are P and P d (Td)^k T, A's (Td)^k iota, d_V A's
    P_perp d (Td)^k iota and D's P d (Td)^k iota, all on diag k; F's are I
    and K^m / m! on diag -m.  The walk certifies ``<X> shift`` at (ji, k):
    a block column's first term off its diagonal fails and ends that
    column, and an empty term is skipped.  A row of a term lies on the
    diagonal when its least and greatest columns lie in the input part
    jo - diag(k) of its output part jo; only a row outside that range is
    scanned entry by entry.  Each term, less the columns already off, is
    subtracted from the operator, so both the zero pattern and the entries
    must agree exactly; only a nonzero remainder is split, and each of its
    nonzero blocks fails ``<X> block`` at its first entry.
    """
    bd, hs, t, bc = ops.bd, ops.hs, ops.t, ops.bc
    report = VerifyReport(bd.spec.name, bd.w_max)
    col_next = bd.column(i + 1, w)
    # splitting projections, all block diagonal: P_perp on column i + 1, P on i and i + 1
    perp_next = lift_column(bd, hs.p_perp.get(i + 1, {}), i + 1, w, col_next, col_next)
    pi_i, pi_next = bc.projection(i, w).mat, bc.projection(i + 1, w).mat

    def chain_terms(first, outer, inner):
        """The terms of the series (outer inner)^k first, and the products
        inner @ term that its steps form."""
        images = []

        def step(x):
            images.append(inner @ x)
            return outer @ images[-1]
        # a limit one past the N + 1 rows steps from every nonzero term, so
        # each one has its image
        return nilpotent_terms(first, step, bd.N + 2), images

    def series(tag, op, terms, diag):
        """Certify the rows of each term by column range and subtract the
        term, less its off columns, from ``op``; split only a nonzero rest."""
        row_part = [jo for jo, part in op.cod.parts for _ in range(part.dim)]
        span = {ji: op.dom.span(ji) for ji, _ in op.dom.parts}
        rest, off = op.mat, {}
        for k, x in enumerate(terms):
            for r, row in x.by_row.items():
                on = span.get(row_part[r] - diag(k), range(0))
                if min(row) not in on or max(row) not in on:
                    for c in row:
                        if c not in on:
                            off.setdefault(next(ji for ji, s in span.items() if c in s), k)
            if off:
                drop = [span[ji] for ji in off]
                x = SparseMat._from_rows(x.rows, x.cols, {
                    r: kept for r, row in x.by_row.items()
                    if (kept := {c: v for c, v in row.items() if not any(c in s for s in drop)})},
                    x.den)
            rest = rest - x
        for ji, _ in op.dom.parts:
            report.holds(f"{tag} shift", w, i, ji not in off, (ji, off.get(ji)))
        if not rest.is_zero():
            split = blocks(rest, op.cod, op.dom)
            for ji, _ in op.dom.parts:
                for jo, _ in op.cod.parts:
                    if (jo, ji) in split:
                        report.expect(f"{tag} block", w, i, split[jo, ji], at=(jo, ji))

    tmat = t.column(i, w).mat
    terms, images = chain_terms(tmat, tmat, bd.d(i - 1, w).mat)
    series("G", -ops.g.column(i, w), terms, lambda k: k + 1)
    series("B", ops.b.column(i, w), chain([pi_i], (pi_i @ x for x in images)), lambda k: k)

    # the iota-chain replaces the T-chain, and is freed before the K powers
    terms, images = chain_terms(bc.inclusion(i, w).mat, t.column(i + 1, w).mat, bd.d(i, w).mat)
    series("A", bc.A(i, w), terms, lambda k: k)
    series("dVA", bc.dVA(i, w), (perp_next @ x for x in images), lambda k: k)
    series("D", bc.D(i, w), (pi_next @ x for x in images), lambda k: k)
    del terms, images

    kmat = bd.K(i, w).mat
    powers = nilpotent_terms(kmat, lambda x: kmat @ x, bd.N + 1)
    scaled = (p.scale(Fraction(1, factorial(m))) for m, p in enumerate(powers, start=1))
    series("F", bd.F(i, w), chain([SparseMat.identity(kmat.rows)], scaled), lambda m: -m)
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
