"""Quadratic strain/curvature energies evaluated exactly over the unit cube.

Two evaluation routes are kept deliberately separate and asserted equal:
a direct term-by-term assembly from a small polynomial tensor calculus, and
the weighted norm of the first twisted differential taken from the shipped
diagrams.  Scalars are polynomials as monomial dicts; vector and matrix
fields are nested lists of scalars.

The direct route squares and integrates each scalar on integer numerators
over one common denominator (``l2sq_scalar``) and touches no matrix or
diagram code, so it stays an independent oracle.  The twisted route keeps,
per ``(diagram, w_max, metrics)``, the built diagram, its stacked column-0
space, the stacked d_V and the ``stacked_cube_gram`` of column 1 in one
bounded cache; a repeated request shape then costs one embedding, two
sparse applies and an integer dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from . import catalog
from .cube import stacked_column, stacked_cube_gram, stacked_map
from .diagram import BuiltDiagram, VerificationError, build
from .forms import monomials
from .linalg import SparseMat

F = Fraction


@dataclass(frozen=True)
class EnergyParams:
    """Weights of the strain and curvature terms (exact rationals)."""
    mu: Fraction = F(1)
    lam: Fraction = F(1)
    mu_c: Fraction = F(1)
    alpha: Fraction = F(1)
    beta: Fraction = F(1)
    gamma: Fraction = F(1)

    @classmethod
    def of(cls, *vals) -> "EnergyParams":
        return cls(*(F(v) for v in vals))

    def __str__(self) -> str:
        names = ("mu", "lam", "mu_c", "alpha", "beta", "gamma")
        return "(" + ", ".join(f"{k}={getattr(self, k)}" for k in names) + ")"


# -- polynomial tensor calculus ---------------------------------------------


def p_zero():
    return {}


def p_mono(alpha, c=F(1)):
    c = F(c)
    return {tuple(alpha): c} if c != 0 else {}


def p_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, F(0)) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def p_scale(a, c):
    c = F(c)
    return {k: c * v for k, v in a.items()} if c != 0 else {}


def p_diff(a, axis):
    """Partial derivative along a 1-based axis."""
    out = {}
    for m, c in a.items():
        e = m[axis - 1]
        if e:
            key = m[:axis - 1] + (e - 1,) + m[axis:]
            out[key] = c * e
    return out


def grad(vec, n):
    """Jacobian: row r, column l = d vec_r / d x_l."""
    return [[p_diff(vec[r], l) for l in range(1, n + 1)] for r in range(len(vec))]


def div(vec, n):
    out = {}
    for l in range(1, n + 1):
        out = p_add(out, p_diff(vec[l - 1], l))
    return out


def curl3(vec):
    return [
        p_add(p_diff(vec[2], 2), p_scale(p_diff(vec[1], 3), -1)),
        p_add(p_diff(vec[0], 3), p_scale(p_diff(vec[2], 1), -1)),
        p_add(p_diff(vec[1], 1), p_scale(p_diff(vec[0], 2), -1)),
    ]


def sym(m):
    k = len(m)
    return [[p_scale(p_add(m[r][c], m[c][r]), F(1, 2)) for c in range(k)]
            for r in range(k)]


def skw(m):
    k = len(m)
    return [[p_scale(p_add(m[r][c], p_scale(m[c][r], -1)), F(1, 2)) for c in range(k)]
            for r in range(k)]


def trace(m):
    out = {}
    for r in range(len(m)):
        out = p_add(out, m[r][r])
    return out


def dev(m):
    k = len(m)
    t = p_scale(trace(m), F(-1, k))
    out = [[dict(m[r][c]) for c in range(k)] for r in range(k)]
    for r in range(k):
        out[r][r] = p_add(out[r][r], t)
    return out


def mskw3(vec):
    z = p_zero()
    neg = lambda q: p_scale(q, -1)
    return [
        [z, neg(vec[2]), dict(vec[1])],
        [dict(vec[2]), z, neg(vec[0])],
        [neg(vec[1]), dict(vec[0]), z],
    ]


def mskw2(scalar):
    z = p_zero()
    return [[z, p_scale(scalar, -1)], [dict(scalar), z]]


def perp2(vec):
    return [p_scale(vec[1], -1), dict(vec[0])]


def vskw3(m):
    return [p_scale(p_add(m[2][1], p_scale(m[1][2], -1)), F(1, 2)),
            p_scale(p_add(m[0][2], p_scale(m[2][0], -1)), F(1, 2)),
            p_scale(p_add(m[1][0], p_scale(m[0][1], -1)), F(1, 2))]


def mat_add(a, b):
    return [[p_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[p_scale(x, c) for x in row] for row in a]


def l2sq_scalar(a, n) -> Fraction:
    """Integral of a^2 over the unit cube [0,1]^n.

    With D the lcm of a's denominators, the coefficients of (D a)^2 are
    summed per exponent e as ints, one product per unordered pair of
    monomials; x^e integrates to 1/prod(e_k + 1), so the integral is one
    integer sum over the lcm of those weights, divided by D^2 once.
    """
    if not a:
        return F(0)
    den = lcm(*(c.denominator for c in a.values()))
    terms = [(m, c.numerator * (den // c.denominator)) for m, c in a.items()]
    acc: dict[tuple, int] = {}
    for k, (ma, na) in enumerate(terms):
        e = tuple(2 * x for x in ma)
        acc[e] = acc.get(e, 0) + na * na
        na2 = 2 * na
        for mb, nb in terms[k + 1:]:
            e = tuple(x + y for x, y in zip(ma, mb))
            acc[e] = acc.get(e, 0) + na2 * nb
    weights = {e: prod(x + 1 for x in e) for e in acc}
    wden = lcm(*weights.values())
    total = sum(v * (wden // weights[e]) for e, v in acc.items())
    return F(total, wden * den * den)


def l2sq_vec(vec, n) -> Fraction:
    return sum((l2sq_scalar(v, n) for v in vec), F(0))


def l2sq_mat(m, n) -> Fraction:
    return sum((l2sq_scalar(x, n) for row in m for x in row), F(0))


def field_degree(components) -> int:
    deg = 0
    for comp in components:
        for m in comp.keys():
            deg = max(deg, sum(m))
    return deg


# -- constant metrics for the twisted-norm route ------------------------------


@lru_cache(maxsize=None)
def _proj_sym(n: int) -> SparseMat:
    """Projection onto symmetric matrices; constant index is (dx major, value)."""
    dim = n * n
    ent = {}
    for l in range(n):
        for r in range(n):
            a = l * n + r       # basis element e_r dx^{l+1}, i.e. entry (r, l)
            b = r * n + l
            ent[(a, a)] = ent.get((a, a), F(0)) + F(1, 2)
            ent[(a, b)] = ent.get((a, b), F(0)) + F(1, 2)
    return SparseMat(dim, dim, {k: v for k, v in ent.items() if v != 0})


@lru_cache(maxsize=None)
def _proj_skw(n: int) -> SparseMat:
    dim = n * n
    return SparseMat.identity(dim) - _proj_sym(n)


@lru_cache(maxsize=None)
def _trace_form(n: int) -> SparseMat:
    dim = n * n
    diag = [l * n + l for l in range(n)]
    return SparseMat(dim, dim, {(a, b): F(1) for a in diag for b in diag})


def cosserat_metric(params: EnergyParams) -> dict:
    """Block metrics on the two matrix-valued components of the twisted image."""
    c1 = _proj_sym(3).scale(params.mu) + _proj_skw(3).scale(params.mu_c) \
        + _trace_form(3).scale(params.lam / 2)
    c2 = _proj_sym(3).scale((params.gamma + params.beta) / 2) \
        + _proj_skw(3).scale((params.gamma - params.beta) / 2) \
        + _trace_form(3).scale(params.alpha / 2)
    return {0: c1, 1: c2}


# -- field embedding into diagram columns -------------------------------------


def _embed(bd: BuiltDiagram, space, i: int, rows) -> list:
    """Coefficient vector of polynomial row fields inside a stacked column.

    rows[j] lists the components of the row-j field of column i.  Raises
    ValueError for a monomial whose weight the stacked space lacks, so a
    field is never silently truncated.
    """
    vec = [F(0)] * space.dim
    for j, components in enumerate(rows):
        vdim = bd.spec.rows[j].dim
        if len(components) != vdim:
            raise ValueError(f"row {j} expects {vdim} components")
        base = {w: space.offset(w) + col.offset(j) for w, col in space.parts}
        for r, comp in enumerate(components):
            for m, c in comp.items():
                w = sum(m) + i + j
                if w not in base:
                    raise ValueError(
                        f"row {j} monomial {m} needs weight {w}, beyond the "
                        f"stacked weights (w_max {max(base)})")
                vec[base[w] + monomials(bd.n, w - i - j).index(m) * vdim + r] = c
    return vec


def _dot(a: list, b: list) -> Fraction:
    """Exact dot product of two rational vectors, summed on integer numerators."""
    da = lcm(*(x.denominator for x in a))
    db = lcm(*(y.denominator for y in b))
    return F(sum(x.numerator * (da // x.denominator) * y.numerator * (db // y.denominator)
                 for x, y in zip(a, b)), da * db)


@lru_cache(maxsize=8)
def _twisted_form(name: str, w_max: int, metric_items: tuple):
    """Built diagram, stacked column-0 space, stacked d_V and column-1 Gram.

    One entry per request shape (diagram name, w_max, sorted metric items);
    the Gram goes through stacked_cube_gram with the items as row metrics.
    """
    bd = build(catalog.get(name).spec, w_max)
    weights = range(w_max + 1)
    dom = stacked_column(bd, 0, weights)
    cod = stacked_column(bd, 1, weights)
    dv = stacked_map({w: bd.d_V(0, w) for w in weights}, dom, cod).mat
    return bd, dom, dv, stacked_cube_gram(bd, cod, 1, dict(metric_items))


def _checked_twisted_norm(direct: Fraction, name: str, rows: list,
                          metrics: dict) -> Fraction:
    """Assert direct equal to the weighted norm of d_V of the row fields.

    rows[j] lists the components of the row-j field of column 0 of the
    catalog diagram name; metrics[j] weights row j of the image column.
    """
    w_max = max([2] + [field_degree(comps) + j for j, comps in enumerate(rows)])
    bd, dom, dv, gram = _twisted_form(name, w_max, tuple(sorted(metrics.items())))
    out = dv.apply(_embed(bd, dom, 0, rows))
    via_complex = _dot(out, gram.apply(out))
    if direct != via_complex:
        raise VerificationError(
            f"energy mismatch: direct {direct} != twisted route {via_complex}")
    return direct


def cosserat_energy(u, omega, params: EnergyParams) -> Fraction:
    """Strain plus curvature energy of a displacement/rotation pair.

    u and omega are 3-component polynomial fields (monomial dicts).  The
    value is assembled term by term with exact cube integrals and asserted
    equal to the weighted norm of the first twisted differential of the
    rotation-coupled elasticity diagram applied to (u, omega).
    """
    n = 3
    gu = grad(u, n)
    e = mat_add(gu, mskw3(omega))
    direct = (
        params.mu * l2sq_mat(sym(gu), n)
        + params.mu_c / 2 * l2sq_vec([p_scale(v, 2) for v in vskw3(e)], n)
        + params.lam / 2 * l2sq_scalar(div(u, n), n)
        + (params.gamma + params.beta) / 2 * l2sq_mat(sym(grad(omega, n)), n)
        + (params.gamma - params.beta) / 4 * l2sq_vec(curl3(omega), n)
        + params.alpha / 2 * l2sq_scalar(div(omega, n), n)
    )
    return _checked_twisted_norm(direct, "elasticity-3d", [u, omega],
                                 cosserat_metric(params))


def elasticity_energy(u, params: EnergyParams) -> Fraction:
    """Classical strain energy mu |sym grad u|^2 + lam/2 |div u|^2."""
    n = 3
    gu = grad(u, n)
    return params.mu * l2sq_mat(sym(gu), n) + params.lam / 2 * l2sq_scalar(div(u, n), n)


def generalized_dilation_energy(phi, u, params: EnergyParams) -> Fraction:
    """Trace-free-gradient coupling energy with an elastic core.

    alpha |dev grad phi + mskw u|^2 + mu |sym grad u|^2 + lam/2 |div u|^2;
    at alpha = 0 this is the classical elasticity energy of u.
    """
    n = 3
    coupled = mat_add(dev(grad(phi, n)), mskw3(u))
    return params.alpha * l2sq_mat(coupled, n) + elasticity_energy(u, params)


def generalized_cosserat_energy(u, sigma, omega, phi, weights3) -> Fraction:
    """Dilation-extended rotation-coupled energy from the three-row diagram.

    c1 |grad u - iota sigma + mskw omega|^2
    + c2 (|grad sigma - phi|^2 + |grad omega + mskw phi|^2)
    + c3 |grad phi|^2, asserted equal to the weighted norm of the first
    twisted differential of the three-row deformation diagram.  The bottom
    row enters with reversed orientation.
    """
    c1, c2, c3 = (F(x) for x in weights3)
    n = 3
    term1 = mat_add(grad(u, n), mskw3(omega))
    for r in range(3):
        term1[r][r] = p_add(term1[r][r], p_scale(sigma, -1))
    mid_a = [p_add(p_diff(sigma, l), p_scale(phi[l - 1], -1)) for l in (1, 2, 3)]
    mid_b = mat_add(grad(omega, n), mskw3(phi))
    direct = (c1 * l2sq_mat(term1, n)
              + c2 * (l2sq_vec(mid_a, n) + l2sq_mat(mid_b, n))
              + c3 * l2sq_mat(grad(phi, n), n))

    # middle-row value order: skew slots, then trace; the bottom row is reversed
    rows = [u, omega + [sigma], [p_scale(c, -1) for c in phi]]
    metrics = {0: SparseMat.identity(9).scale(c1),
               1: SparseMat.identity(12).scale(c2),
               2: SparseMat.identity(9).scale(c3)}
    return _checked_twisted_norm(direct, "conf-deformation-3d", rows, metrics)


def generalized_plate_energy(u, sigma, omega, phi, weights3) -> Fraction:
    """Two-dimensional plate analog from the planar three-row diagram.

    c1 |grad u - iota sigma - mskw omega|^2
    + c2 (|grad sigma - phi|^2 + |grad omega - perp phi|^2)
    + c3 |grad phi|^2, asserted against the first twisted differential.
    """
    c1, c2, c3 = (F(x) for x in weights3)
    n = 2
    term1 = mat_add(grad(u, n), mat_scale(mskw2(omega), -1))
    for r in range(2):
        term1[r][r] = p_add(term1[r][r], p_scale(sigma, -1))
    mid_a = [p_add(p_diff(sigma, l), p_scale(phi[l - 1], -1)) for l in (1, 2)]
    pp = perp2(phi)
    mid_b = [[p_add(p_diff(omega, l), p_scale(pp[l - 1], -1))] for l in (1, 2)]
    direct = (c1 * l2sq_mat(term1, n)
              + c2 * (l2sq_vec(mid_a, n)
                      + l2sq_vec([row[0] for row in mid_b], n))
              + c3 * l2sq_mat(grad(phi, n), n))

    metrics = {0: SparseMat.identity(4).scale(c1),
               1: SparseMat.identity(4).scale(c2),
               2: SparseMat.identity(4).scale(c3)}
    return _checked_twisted_norm(direct, "mobius-2d", [u, [sigma, omega], phi],
                                 metrics)


def random_field(rng, n: int, components: int, degree: int):
    """Seeded random polynomial field with small rational coefficients."""
    field = []
    for _ in range(components):
        comp = {}
        for p in range(degree + 1):
            for m in monomials(n, p):
                num = rng.randint(-4, 4)
                if num:
                    comp[m] = F(num, rng.randint(1, 3))
        field.append(comp)
    return field
