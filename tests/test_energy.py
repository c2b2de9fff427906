import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bggkit import energy
from bggkit.diagram import BuiltDiagram, VerificationError
from bggkit.energy import (
    EnergyParams,
    _checked_twisted_norm,
    cosserat_energy,
    cosserat_metric,
    elasticity_energy,
    generalized_cosserat_energy,
    generalized_dilation_energy,
    generalized_plate_energy,
    grad,
    l2sq_mat,
    l2sq_scalar,
    mskw3,
    p_mono,
    random_field,
    twice_vskw3,
)
from bggkit.forms import monomials

from oracles import cube_integral, poly_mul

F = Fraction

X = [p_mono((1, 0, 0)), p_mono((0, 1, 0)), p_mono((0, 0, 1))]
ZERO3 = [{}, {}, {}]
ONES = EnergyParams.of(1, 1, 1, 1, 1, 1)


def _polys(n):
    coeffs = st.builds(F, st.integers(-6, 6), st.integers(1, 12))
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeffs, max_size=8)


# degree 1, 9, 1: packed at field widths 2, 5, 2 over shared monomials, so a
# packed monomial or exponent weight read back at the wrong width is caught
_LOW2 = {(0, 0): F(2, 3), (1, 0): F(-1, 2), (0, 1): F(3, 5)}
_HIGH2 = {(0, 0): F(1, 2), (1, 0): F(-3, 4), (0, 1): F(5, 3), (9, 0): F(2, 7),
          (4, 5): F(-1, 5), (5, 0): F(1, 3), (2, 3): F(7, 2), (1, 1): F(-4, 9)}
_LOW3 = {(0, 0, 0): F(-5, 6), (1, 0, 0): F(1, 4), (0, 1, 0): F(2, 3), (0, 0, 1): F(-7, 5)}
_HIGH3 = {(0, 0, 0): F(1, 3), (1, 0, 0): F(2, 5), (0, 0, 1): F(-3, 2), (0, 0, 9): F(5, 4),
          (3, 4, 2): F(-2, 9), (5, 0, 0): F(1, 7), (1, 1, 0): F(3, 8), (0, 2, 3): F(-1, 6)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_polys(n), min_size=1, max_size=3))))
@example((3, [{}]))
@example((2, [{(1, 0): F(0), (0, 2): F(1, 3), (1, 1): F(-5, 4), (0, 0): F(7, 6)}]))
@example((3, [{(1, 2, 0): F(3), (0, 0, 0): F(1, 2), (2, 2, 2): F(-1)}]))
@example((2, [_LOW2, _HIGH2, _LOW2]))
@example((3, [_LOW3, _HIGH3, _LOW3]))
def test_l2sq_scalar_matches_oracle(case):
    # polys in turn, so later calls read what earlier ones left in the memo tables
    n, polys = case
    for poly in polys:
        assert l2sq_scalar(poly) == cube_integral(poly_mul(poly, poly), n)


def test_vskw_of_mskw_is_identity():
    c = [p_mono((0, 0, 0), 2), p_mono((0, 0, 0), -3), p_mono((0, 0, 0), F(1, 2))]
    assert twice_vskw3(mskw3(c)) == [{m: 2 * v for m, v in comp.items()} for comp in c]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cosserat_metric_quadratic_forms(seed):
    # x^T C x on a rational 3x3 matrix X, entry (r, l) at dx-major index 3 l + r
    rng = random.Random(seed)
    rat = lambda: F(rng.randint(-9, 9), rng.randint(1, 6))
    p = EnergyParams.of(*(rat() for _ in range(6)))
    x = [[rat() for _ in range(3)] for _ in range(3)]
    vec = [x[r][l] for l in range(3) for r in range(3)]
    sq = lambda sign: sum(((x[r][l] + sign * x[l][r]) / 2) ** 2
                          for r in range(3) for l in range(3))
    sym, skw, tr2 = sq(1), sq(-1), (x[0][0] + x[1][1] + x[2][2]) ** 2
    metric = cosserat_metric(p)
    form = {}
    for k, c in metric.items():
        assert c == c.transpose()
        dense = c.to_dense()
        form[k] = sum(vec[a] * dense[a][b] * vec[b] for a in range(9) for b in range(9))
    assert form[0] == p.mu * sym + p.mu_c * skw + p.lam / 2 * tr2
    assert form[1] == (p.gamma + p.beta) / 2 * sym + (p.gamma - p.beta) / 2 * skw \
        + p.alpha / 2 * tr2


def test_cosserat_identity_displacement():
    assert cosserat_energy(X, ZERO3, ONES) == F(15, 2)


def test_cosserat_constant_rotation():
    c = [p_mono((0, 0, 0), 1), p_mono((0, 0, 0), -2), p_mono((0, 0, 0), F(1, 2))]
    assert cosserat_energy(ZERO3, c, ONES) == 2 * (1 + 4 + F(1, 4))


def test_cosserat_zero():
    assert cosserat_energy(ZERO3, ZERO3, ONES) == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cosserat_twisted_norm_identity_random(seed):
    # the function itself asserts the identity between the two routes
    rng = random.Random(seed)
    params = EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2)
    for _ in range(5):
        u = random_field(rng, 3, 3, 2)
        omega = random_field(rng, 3, 3, 2)
        cosserat_energy(u, omega, params)


def _seeded_pairs(seed, count):
    rng = random.Random(seed)
    return [(random_field(rng, 3, 3, 2), random_field(rng, 3, 3, 2)) for _ in range(count)]


def test_twisted_cache_rejects_wrong_direct_on_miss_and_hit():
    (u, omega), = _seeded_pairs(8, 1)
    metrics = cosserat_metric(ONES)
    energy._twisted_form.cache_clear()
    wrong = cosserat_energy(u, omega, ONES) + F(1, 7)
    for expect_hit in (False, True):
        if not expect_hit:
            energy._twisted_form.cache_clear()
        before = energy._twisted_form.cache_info()
        with pytest.raises(VerificationError, match="energy mismatch"):
            _checked_twisted_norm(wrong, "elasticity-3d", [u, omega], metrics)
        after = energy._twisted_form.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == \
            ((1, 0) if expect_hit else (0, 1))


def test_twisted_cache_keeps_parameter_sets_apart():
    pairs = _seeded_pairs(9, 3)
    param_sets = [ONES, EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2)]
    energy._twisted_form.cache_clear()
    warm = [cosserat_energy(u, omega, params) for u, omega in pairs
            for params in param_sets]
    assert energy._twisted_form.cache_info().currsize == len(param_sets)
    cold = []
    for u, omega in pairs:
        for params in param_sets:
            energy._twisted_form.cache_clear()
            cold.append(cosserat_energy(u, omega, params))
    assert warm == cold
    assert len(set(warm)) == len(warm)


def test_parameter_sets_share_one_build():
    (u, omega), = _seeded_pairs(10, 1)
    param_sets = [ONES, EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2)]
    energy._twisted_map.cache_clear()
    energy._twisted_form.cache_clear()
    for params in param_sets:
        cosserat_energy(u, omega, params)
    assert energy._twisted_map.cache_info().misses == 1
    forms = [energy._twisted_form("elasticity-3d", 3,
                                  tuple(sorted(cosserat_metric(p).items())))
             for p in param_sets]
    assert energy._twisted_form.cache_info().currsize == len(param_sets)
    (bd, dv, gram), (bd2, dv2, gram2) = forms
    assert isinstance(bd, BuiltDiagram)
    assert bd is bd2 and dv is dv2
    assert gram != gram2


def test_dilation_energy_reduces_to_elasticity():
    rng = random.Random(5)
    u = random_field(rng, 3, 3, 3)
    phi = random_field(rng, 3, 3, 3)
    params = EnergyParams(mu=F(2), lam=F(3), alpha=F(0))
    assert generalized_dilation_energy(phi, u, params) == elasticity_energy(u, params)
    coupled = EnergyParams(mu=F(2), lam=F(3), alpha=F(1, 2))
    assert generalized_dilation_energy(ZERO3, u, coupled) > 0 or \
        elasticity_energy(u, coupled) == 0


def test_generalized_cosserat_reduces_when_dilation_and_curvature_vanish():
    # with sigma = 0 and phi = 0 only the first two blocks survive
    rng = random.Random(6)
    u = random_field(rng, 3, 3, 2)
    omega = random_field(rng, 3, 3, 2)
    val = generalized_cosserat_energy(u, {}, omega, ZERO3, (1, 1, 1))
    import bggkit.energy as en
    term1 = en.mat_add(grad(u, 3), mskw3(omega))
    expect = l2sq_mat(term1) + l2sq_mat(grad(omega, 3))
    assert val == expect


def test_generalized_plate_zero():
    z2 = [{}, {}]
    assert generalized_plate_energy(z2, {}, {}, z2, (1, 2, 3)) == 0


def test_generalized_plate_random_identity():
    rng = random.Random(7)
    for _ in range(3):
        u = random_field(rng, 2, 2, 2)
        phi = random_field(rng, 2, 2, 2)
        sigma = random_field(rng, 2, 1, 2)[0]
        omega = random_field(rng, 2, 1, 2)[0]
        generalized_plate_energy(u, sigma, omega, phi, (F(1, 2), 2, 1))


def test_energy_fifty_fields_three_param_sets():
    rng = random.Random(20240)
    params_sets = [
        EnergyParams.of(1, 1, 1, 1, 1, 1),
        EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2),
        EnergyParams.of(1, 0, 2, F(3, 2), 0, 1),
    ]
    count = 0
    for params in params_sets:
        for _ in range(50):
            u = random_field(rng, 3, 3, 1)
            omega = random_field(rng, 3, 3, 1)
            cosserat_energy(u, omega, params)
            count += 1
    assert count == 150


# Values recorded before the energies ran on integer numerators.
PINNED = [
    (31, "2124247/6480", "1241093/4320", "101195/648"),
    (32, "3535999/12960", "6451943/12960", "113747/810"),
    (33, "1803749/6480", "1399507/2160", "110996/1215"),
]


@pytest.mark.parametrize("seed, cosserat, three_row, plate", PINNED)
def test_energies_match_pinned_values(seed, cosserat, three_row, plate):
    rng = random.Random(seed)
    u, omega, phi = (random_field(rng, 3, 3, 2) for _ in range(3))
    sigma = random_field(rng, 3, 1, 2)[0]
    u2, phi2 = random_field(rng, 2, 2, 2), random_field(rng, 2, 2, 2)
    s2, o2 = random_field(rng, 2, 1, 2)[0], random_field(rng, 2, 1, 2)[0]
    params = EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2)
    assert str(cosserat_energy(u, omega, params)) == cosserat
    assert str(generalized_cosserat_energy(u, sigma, omega, phi, (F(1, 2), 2, F(3, 5)))) \
        == three_row
    assert str(generalized_plate_energy(u2, s2, o2, phi2, (1, F(2, 3), 2))) == plate


_MONOS = [m for d in range(3) for m in monomials(3, d)]
_BIG_DEN = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**9))
_COMPONENT = st.one_of(
    st.just({}),
    st.dictionaries(st.sampled_from(_MONOS), st.just(F(0)), min_size=1, max_size=3),
    st.dictionaries(st.sampled_from(_MONOS), _BIG_DEN, max_size=5),
)
_FIELD = st.lists(_COMPONENT, min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(_FIELD, _FIELD, _BIG_DEN.filter(lambda c: c != 0), st.integers(0, 2))
def test_cosserat_energy_is_quadratic_in_the_fields(u, omega, c, which):
    # scaling both fields by c changes the common denominator D of the fields
    params = [ONES, EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2),
              EnergyParams.of(1, 0, 2, F(3, 2), 0, 1)][which]
    scale = lambda field: [{m: c * v for m, v in comp.items()} for comp in field]
    assert cosserat_energy(scale(u), scale(omega), params) == \
        c * c * cosserat_energy(u, omega, params)


_ENTRY_POINTS = [
    (lambda bad: cosserat_energy(bad, ZERO3, ONES), "u", 3),
    (lambda bad: elasticity_energy(bad, ONES), "u", 3),
    (lambda bad: generalized_dilation_energy(bad, ZERO3, ONES), "phi", 3),
    (lambda bad: generalized_cosserat_energy(ZERO3, {}, bad, ZERO3, (1, 1, 1)), "omega", 3),
    (lambda bad: generalized_plate_energy([{}, {}], {}, {}, bad, (1, 1, 1)), "phi", 2),
]


@pytest.mark.parametrize("kind", ["too-few-components", "monomial-too-long",
                                  "bad-monomial-twice", "bad-coefficient-on-checked-monomial",
                                  "float-exponent-equal-to-checked"])
@pytest.mark.parametrize("energy_fn, name, n", _ENTRY_POINTS,
                         ids=["cosserat", "elasticity", "dilation", "three-row", "plate"])
def test_bad_field_shape_raises_value_error_naming_it(energy_fn, name, n, kind):
    mono, ok = (1,) * (n + 1), (0,) * n
    if kind == "too-few-components":
        bad, named = [{}] * (n - 1), f"{name} must be a list of {n} components, got {n - 1}"
    elif kind == "monomial-too-long":
        bad, named = [{}] * (n - 1) + [{mono: F(1)}], f"{name}[{n - 1}]: monomial {mono}"
    elif kind == "bad-monomial-twice":
        # each monomial is checked once, and the first component holding it is named
        bad, named = [{mono: F(1)}, {mono: F(1)}] + [{}] * (n - 2), f"{name}[0]: monomial {mono}"
    elif kind == "bad-coefficient-on-checked-monomial":
        # the monomial object passed in component 0; its coefficient is still checked
        bad = [{ok: F(1)}, {ok: 1.5}] + [{}] * (n - 2)
        named = f"{name}[1]: coefficient 1.5 of {ok} is not rational"
    else:
        # (1.0, 0, ...) equals the checked (1, 0, ...) but is another object
        one, fone = (1,) + ok[1:], (1.0,) + ok[1:]
        bad, named = [{one: F(1)}, {fone: F(1)}] + [{}] * (n - 2), f"{name}[1]: monomial {fone}"
    with pytest.raises(ValueError) as exc:
        energy_fn(bad)
    assert named in str(exc.value)
