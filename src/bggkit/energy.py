"""Quadratic strain/curvature energies evaluated exactly over the unit cube.

Two evaluation routes are kept deliberately separate and asserted equal:
a direct term-by-term assembly from a small polynomial tensor calculus, and
the weighted norm of the first twisted differential taken from the shipped
diagrams.  Scalars are polynomials as monomial dicts; vector and matrix
fields are nested lists of scalars.

Both routes run on integers: each energy scales its fields once by the lcm
D of their denominators and divides the value by D^2 once.  The direct
route's calculus keeps int coefficients int, with constant factors such as
the 1/2 of a symmetric part moved into the term's rational weight, and
integrates each term to one Fraction (``l2sq_*``, with two bounded memo
tables); it touches no matrix or diagram code, so it stays an independent
oracle.  The twisted route takes its stacked spaces and field layout from
``cube``, and caches per ``(diagram, w_max)`` the built diagram and
stacked d_V, and per metrics the ``stacked_cube_gram`` G of d_V's
codomain; a repeated request shape then costs one embedding, one sparse
product y = d_V x on integer numerators over one denominator, and y^T G y.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm, prod
from operator import mul

from . import catalog
from .cube import embed, stacked_cube_gram, stacked_map
from .diagram import InputError, VerificationError, build
from .forms import Value, monomials
from .linalg import SparseMat

F = Fraction


class EnergyParams(Value):
    """Weights of the strain and curvature terms (exact rationals);
    immutable by convention, as ``cosserat_metric`` caches by them."""

    def __init__(self, mu: Fraction = F(1), lam: Fraction = F(1), mu_c: Fraction = F(1),
                 alpha: Fraction = F(1), beta: Fraction = F(1), gamma: Fraction = F(1)):
        self.mu = mu
        self.lam = lam
        self.mu_c = mu_c
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    def _key(self) -> tuple:
        return self.mu, self.lam, self.mu_c, self.alpha, self.beta, self.gamma

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
        s = out.get(k, 0) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def p_scale(a, c):
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


def twice_sym(m):
    """m + m^T, twice the symmetric part."""
    k = len(m)
    return [[p_add(m[r][c], m[c][r]) for c in range(k)] for r in range(k)]


def trace(m):
    out = {}
    for r in range(len(m)):
        out = p_add(out, m[r][r])
    return out


def k_dev(m):
    """k m - tr(m) I for a k x k matrix m: k times the trace-free part."""
    k = len(m)
    t = p_scale(trace(m), -1)
    out = [[p_scale(m[r][c], k) for c in range(k)] for r in range(k)]
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


def twice_vskw3(m):
    """The axial vector of m - m^T, twice that of the skew part of m."""
    return [p_add(m[2][1], p_scale(m[1][2], -1)),
            p_add(m[0][2], p_scale(m[2][0], -1)),
            p_add(m[1][0], p_scale(m[0][1], -1))]


def mat_add(a, b):
    return [[p_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[p_scale(x, c) for x in row] for row in a]


_PACKED: dict[int, dict] = {}
_WEIGHT: dict[int, dict] = {}


def _l2sq(comps) -> Fraction:
    """Sum over comps of the integrals of a^2 over the unit cube [0,1]^n.

    With D the lcm of the denominators, the coefficients of each (D a)^2
    are summed per exponent e as ints, one product per unordered pair of
    monomials; x^e integrates to 1/prod(e_k + 1), so the sum is one integer
    over the lcm of those weights, divided by D^2 once.  Each monomial's
    exponents are packed into one int, one field per variable, each wide
    enough for twice the largest exponent, so a pair's exponent is one int
    addition that never carries between fields.

    Calls share two memo tables keyed first by that width: _PACKED[bits][m]
    is monomial m packed, _WEIGHT[bits][e] the weight of a packed exponent
    e (no variable count: unused high fields are 0 and weigh 1).  A call
    finding over 8192 entries at its width starts both tables afresh.
    """
    den = lcm(*(c.denominator for a in comps for c in a.values()))
    monos = [m for a in comps for m in a]
    if not monos:
        return F(0)
    bits = (2 * max(chain.from_iterable(monos), default=0)).bit_length()
    shifts = [bits * k for k in range(len(monos[0]))]
    packed, weight = _PACKED.setdefault(bits, {}), _WEIGHT.setdefault(bits, {})
    if len(packed) + len(weight) > 8192:
        packed, weight = _PACKED[bits], _WEIGHT[bits] = {}, {}
    for m in monos:
        if m not in packed:
            packed[m] = sum(x << s for x, s in zip(m, shifts))
    acc: dict[int, int] = {}
    for a in comps:
        terms = [(packed[m], c.numerator * (den // c.denominator)) for m, c in a.items()]
        for k, (ea, na) in enumerate(terms):
            e = 2 * ea
            acc[e] = acc.get(e, 0) + na * na
            na2 = 2 * na
            for eb, nb in terms[k + 1:]:
                e = ea + eb
                acc[e] = acc.get(e, 0) + na2 * nb
    mask = (1 << bits) - 1
    for e in acc:
        if e not in weight:
            weight[e] = prod(((e >> s) & mask) + 1 for s in shifts)
    wden = lcm(*map(weight.__getitem__, acc))
    total = sum(v * (wden // weight[e]) for e, v in acc.items())
    return F(total, wden * den * den)


def l2sq_scalar(a) -> Fraction:
    """Integral of a^2 over the unit cube in a's variables."""
    return _l2sq([a])


def l2sq_vec(vec) -> Fraction:
    return _l2sq(vec)


def l2sq_mat(m) -> Fraction:
    return _l2sq([x for row in m for x in row])


def field_degree(components) -> int:
    deg = 0
    for comp in components:
        for m in comp.keys():
            deg = max(deg, sum(m))
    return deg


def _integer_fields(n: int, *fields) -> tuple[list, int]:
    """The fields over one common denominator D, as int coefficients, and D.

    Each field is (name, value, count): value is a list of count
    components, or one component when count is None; a component maps
    monomials (n non-negative int exponents) to int or Fraction
    coefficients.  Anything else raises InputError naming the field and
    the component or monomial.  Zero coefficients are dropped.  A monomial
    object is checked once; an equal but distinct one, such as (1.0, 0, 0)
    after (1, 0, 0), is checked anew.
    """
    comps = []
    for name, value, count in fields:
        if count is None:
            comps.append((name, value))
        elif isinstance(value, (list, tuple)) and len(value) == count:
            comps.extend((f"{name}[{r}]", comp) for r, comp in enumerate(value))
        else:
            got = len(value) if isinstance(value, (list, tuple)) else type(value).__name__
            raise InputError(f"{name} must be a list of {count} components, got {got}")
    checked = {}
    for label, comp in comps:
        if not isinstance(comp, dict):
            raise InputError(f"{label} must be a dict of monomial coefficients")
        for m, c in comp.items():
            if checked.get(m) is not m:
                if not (isinstance(m, tuple) and len(m) == n
                        and all(isinstance(e, int) and e >= 0 for e in m)):
                    raise InputError(f"{label}: monomial {m!r} is not {n} "
                                     f"non-negative int exponents")
                checked[m] = m
            if not isinstance(c, (int, Fraction)):
                raise InputError(f"{label}: coefficient {c!r} of {m} is not rational")
    den = lcm(*(c.denominator for _, comp in comps for c in comp.values()))
    ints = {label: {m: c.numerator * (den // c.denominator) for m, c in comp.items() if c}
            for label, comp in comps}
    return [ints[name] if count is None else [ints[f"{name}[{r}]"] for r in range(count)]
            for name, _, count in fields], den


# -- the twisted-norm route ---------------------------------------------------


@lru_cache(maxsize=None)
def _proj_sym_skw(n: int) -> tuple[SparseMat, SparseMat]:
    """Projections (I + Sw)/2 and (I - Sw)/2 onto symmetric and skew n x n
    matrices, Sw the transpose.  The constant index is (dx major, value):
    entry (r, l), the basis element e_r dx^{l+1}, sits at l * n + r."""
    sw = SparseMat(n * n, n * n, {(l * n + r, r * n + l): F(1)
                                  for l in range(n) for r in range(n)})
    eye = SparseMat.identity(n * n)
    return (eye + sw).scale(F(1, 2)), (eye - sw).scale(F(1, 2))


@lru_cache(maxsize=None)
def _trace_form(n: int) -> SparseMat:
    dim = n * n
    diag = [l * n + l for l in range(n)]
    return SparseMat(dim, dim, {(a, b): F(1) for a in diag for b in diag})


@lru_cache(maxsize=8)
def cosserat_metric(params: EnergyParams) -> dict:
    """Block metrics on the two matrix-valued components of the twisted image.

    Cached per params, so every caller shares one dict: do not mutate it.
    """
    sym, skw = _proj_sym_skw(3)
    c1 = sym.scale(params.mu) + skw.scale(params.mu_c) + _trace_form(3).scale(params.lam / 2)
    c2 = sym.scale((params.gamma + params.beta) / 2) \
        + skw.scale((params.gamma - params.beta) / 2) + _trace_form(3).scale(params.alpha / 2)
    return {0: c1, 1: c2}


@lru_cache(maxsize=8)
def _twisted_map(name: str, w_max: int):
    """Built diagram and the stacked d_V from column 0 to column 1."""
    bd = build(catalog.get(name).spec, w_max)
    return bd, stacked_map({w: bd.d_V(0, w) for w in range(w_max + 1)})


@lru_cache(maxsize=8)
def _twisted_form(name: str, w_max: int, metric_items: tuple):
    """Built diagram, stacked d_V and the Gram on its codomain.

    One entry per (diagram name, w_max, sorted metric items), sharing the
    build of _twisted_map; the Gram goes through stacked_cube_gram with the
    items as row metrics.
    """
    bd, dv = _twisted_map(name, w_max)
    return bd, dv, stacked_cube_gram(bd, dv.cod, 1, dict(metric_items))


def _checked_twisted_norm(direct: Fraction, name: str, rows: list,
                          metrics: dict) -> Fraction:
    """Assert direct equal to the weighted norm of d_V of the row fields.

    rows[j] lists the components of the row-j field of column 0 of the
    catalog diagram name; metrics[j] weights row j of the image column.
    Rows scaled by D and direct by D^2 pass or fail together.
    """
    w_max = max([2] + [field_degree(comps) + j for j, comps in enumerate(rows)])
    bd, dv, gram = _twisted_form(name, w_max, tuple(sorted(metrics.items())))
    y = dv.mat.apply(embed(bd, dv.dom, rows))
    ynum = [y.by_row.get(r, {0: 0})[0] for r in range(y.rows)]
    quad = 0
    for r, row in gram.by_row.items():
        yr = ynum[r]
        if yr:
            quad += yr * sum(map(mul, row.values(), map(ynum.__getitem__, row)))
    via_complex = F(quad, gram.den * y.den * y.den)
    if direct != via_complex:
        raise VerificationError(
            f"energy mismatch: direct {direct} != twisted route {via_complex}")
    return direct


def _elastic(gu, params: EnergyParams) -> Fraction:
    """mu |sym grad u|^2 + lam/2 |div u|^2 from the gradient gu of u."""
    return (F(params.mu) / 4 * l2sq_mat(twice_sym(gu))
            + F(params.lam) / 2 * l2sq_scalar(trace(gu)))


def cosserat_energy(u, omega, params: EnergyParams) -> Fraction:
    """Strain plus curvature energy of a displacement/rotation pair.

    u and omega are 3-component polynomial fields (monomial dicts).  The
    value is assembled term by term with exact cube integrals and asserted
    equal to the weighted norm of the first twisted differential of the
    rotation-coupled elasticity diagram applied to (u, omega).
    """
    (u, omega), den = _integer_fields(3, ("u", u, 3), ("omega", omega, 3))
    n = 3
    gu, gw = grad(u, n), grad(omega, n)
    # sym = twice_sym / 2, 2 vskw = twice_vskw3, curl = twice_vskw3 grad, div = tr grad
    direct = (
        _elastic(gu, params)
        + F(params.mu_c) / 2 * l2sq_vec(twice_vskw3(mat_add(gu, mskw3(omega))))
        + F(params.gamma + params.beta) / 8 * l2sq_mat(twice_sym(gw))
        + F(params.gamma - params.beta) / 4 * l2sq_vec(twice_vskw3(gw))
        + F(params.alpha) / 2 * l2sq_scalar(trace(gw))
    )
    return _checked_twisted_norm(direct, "elasticity-3d", [u, omega],
                                 cosserat_metric(params)) / (den * den)


def elasticity_energy(u, params: EnergyParams) -> Fraction:
    """Classical strain energy mu |sym grad u|^2 + lam/2 |div u|^2."""
    (u,), den = _integer_fields(3, ("u", u, 3))
    return _elastic(grad(u, 3), params) / (den * den)


def generalized_dilation_energy(phi, u, params: EnergyParams) -> Fraction:
    """Trace-free-gradient coupling energy with an elastic core.

    alpha |dev grad phi + mskw u|^2 + mu |sym grad u|^2 + lam/2 |div u|^2;
    at alpha = 0 this is the classical elasticity energy of u.
    """
    (phi, u), den = _integer_fields(3, ("phi", phi, 3), ("u", u, 3))
    n = 3
    # 3 (dev grad phi + mskw u)
    coupled = mat_add(k_dev(grad(phi, n)), mat_scale(mskw3(u), 3))
    return (F(params.alpha) / 9 * l2sq_mat(coupled)
            + _elastic(grad(u, n), params)) / (den * den)


def generalized_cosserat_energy(u, sigma, omega, phi, weights3) -> Fraction:
    """Dilation-extended rotation-coupled energy from the three-row diagram.

    c1 |grad u - iota sigma + mskw omega|^2
    + c2 (|grad sigma - phi|^2 + |grad omega + mskw phi|^2)
    + c3 |grad phi|^2, asserted equal to the weighted norm of the first
    twisted differential of the three-row deformation diagram.  The bottom
    row enters with reversed orientation.
    """
    c1, c2, c3 = (F(x) for x in weights3)
    (u, sigma, omega, phi), den = _integer_fields(
        3, ("u", u, 3), ("sigma", sigma, None), ("omega", omega, 3), ("phi", phi, 3))
    n = 3
    term1 = mat_add(grad(u, n), mskw3(omega))
    for r in range(3):
        term1[r][r] = p_add(term1[r][r], p_scale(sigma, -1))
    mid_a = [p_add(p_diff(sigma, l), p_scale(phi[l - 1], -1)) for l in (1, 2, 3)]
    mid_b = mat_add(grad(omega, n), mskw3(phi))
    direct = (c1 * l2sq_mat(term1)
              + c2 * (l2sq_vec(mid_a) + l2sq_mat(mid_b))
              + c3 * l2sq_mat(grad(phi, n)))

    # middle-row value order: skew slots, then trace; the bottom row is reversed
    rows = [u, omega + [sigma], [p_scale(c, -1) for c in phi]]
    metrics = {0: SparseMat.identity(9).scale(c1),
               1: SparseMat.identity(12).scale(c2),
               2: SparseMat.identity(9).scale(c3)}
    return _checked_twisted_norm(direct, "conf-deformation-3d", rows,
                                 metrics) / (den * den)


def generalized_plate_energy(u, sigma, omega, phi, weights3) -> Fraction:
    """Two-dimensional plate analog from the planar three-row diagram.

    c1 |grad u - iota sigma - mskw omega|^2
    + c2 (|grad sigma - phi|^2 + |grad omega - perp phi|^2)
    + c3 |grad phi|^2, asserted against the first twisted differential.
    """
    c1, c2, c3 = (F(x) for x in weights3)
    (u, sigma, omega, phi), den = _integer_fields(
        2, ("u", u, 2), ("sigma", sigma, None), ("omega", omega, None), ("phi", phi, 2))
    n = 2
    term1 = mat_add(grad(u, n), mat_scale(mskw2(omega), -1))
    for r in range(2):
        term1[r][r] = p_add(term1[r][r], p_scale(sigma, -1))
    mid_a = [p_add(p_diff(sigma, l), p_scale(phi[l - 1], -1)) for l in (1, 2)]
    pp = perp2(phi)
    mid_b = [p_add(p_diff(omega, l), p_scale(pp[l - 1], -1)) for l in (1, 2)]
    direct = (c1 * l2sq_mat(term1)
              + c2 * l2sq_vec(mid_a + mid_b)
              + c3 * l2sq_mat(grad(phi, n)))

    metrics = {0: SparseMat.identity(4).scale(c1),
               1: SparseMat.identity(4).scale(c2),
               2: SparseMat.identity(4).scale(c3)}
    return _checked_twisted_norm(direct, "mobius-2d", [u, [sigma, omega], phi],
                                 metrics) / (den * den)


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
