import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bggkit import catalog, energy
from bggkit.diagram import VerificationError, build
from bggkit.energy import (
    EnergyParams,
    _checked_twisted_norm,
    cosserat_energy,
    cosserat_metric,
    curl3,
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
    vskw3,
)

from oracles import cube_integral, poly_mul

F = Fraction

X = [p_mono((1, 0, 0)), p_mono((0, 1, 0)), p_mono((0, 0, 1))]
ZERO3 = [{}, {}, {}]
ONES = EnergyParams.of(1, 1, 1, 1, 1, 1)


def _polys(n):
    coeffs = st.builds(F, st.integers(-6, 6), st.integers(1, 12))
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeffs, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(st.just(n), _polys(n))))
@example((3, {}))
@example((2, {(1, 0): F(0), (0, 2): F(1, 3), (1, 1): F(-5, 4), (0, 0): F(7, 6)}))
@example((3, {(1, 2, 0): F(3), (0, 0, 0): F(1, 2), (2, 2, 2): F(-1)}))
def test_l2sq_scalar_matches_oracle(case):
    n, poly = case
    assert l2sq_scalar(poly, n) == cube_integral(poly_mul(poly, poly), n)


def test_vskw_of_mskw_is_identity():
    c = [p_mono((0, 0, 0), 2), p_mono((0, 0, 0), -3), p_mono((0, 0, 0), F(1, 2))]
    assert vskw3(mskw3(c)) == c


def test_curl_is_twice_vskw_grad():
    rng = random.Random(11)
    u = random_field(rng, 3, 3, 3)
    gu = grad(u, 3)
    doubled = [dict((k, 2 * v) for k, v in comp.items()) for comp in vskw3(gu)]
    assert curl3(u) == doubled


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


def test_cosserat_degree_overflow_detected():
    # a degree beyond the built weight range must not be silently truncated
    from bggkit.energy import _embed
    from bggkit.cube import stacked_column
    bd = build(catalog.get("elasticity-3d").spec, 2)
    dom = stacked_column(bd, 0, range(3))
    high = [p_mono((4, 0, 0)), {}, {}]
    with pytest.raises(ValueError, match="weight 4"):
        _embed(bd, dom, 0, [high])


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
    expect = l2sq_mat(term1, 3) + l2sq_mat(grad(omega, 3), 3)
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
