import cmath
import math

import numpy as np
import pytest

from ergolab.expsums import (
    RationalAngle,
    RationalGrid,
    UniformGrid,
    decay_profile,
    grid_scan,
    max_over_grid,
    short_interval_sum,
    weighted_poly_sum,
)
from ergolab.polynomials import IntPolynomial
from ergolab.weights import WeightKind, constant_table, partial_sum, sieve, zero_table
from oracles import naive_weighted_poly_sum

LINEAR = IntPolynomial((0, 1))
SQUARE = IntPolynomial((0, 0, 1))


def test_single_term_has_unit_modulus(mobius_100k):
    for theta in (0.0, 1.0, RationalAngle(3, 7)):
        value = weighted_poly_sum(mobius_100k, SQUARE, theta, 1)
        assert abs(abs(value) - 1.0) < 1e-14


def test_theta_zero_reduces_to_partial_sum(mobius_100k):
    for n in (10, 1234, 100_000):
        value = weighted_poly_sum(mobius_100k, SQUARE, 0.0, n)
        assert value.imag == 0.0
        assert value.real == pytest.approx(partial_sum(mobius_100k, n) / n, abs=1e-15)


def test_against_big_integer_phase_oracle(liouville_100k):
    value = weighted_poly_sum(liouville_100k, SQUARE, RationalAngle(1, 5), 1000)
    oracle = naive_weighted_poly_sum(liouville_100k.values, SQUARE, 1, 5, 1000)
    assert abs(value - oracle) < 1e-12


def test_modulus_bounded_by_one(mobius_100k, liouville_100k):
    for table in (mobius_100k, liouville_100k):
        for theta in (RationalAngle(1, 3), RationalAngle(17, 4096), 2.5):
            assert abs(weighted_poly_sum(table, SQUARE, theta, 5000)) <= 1.0 + 1e-12


def test_conjugate_symmetry(mobius_100k):
    theta = RationalAngle(5, 17)
    s_plus = weighted_poly_sum(mobius_100k, SQUARE, theta, 2000)
    s_minus = weighted_poly_sum(mobius_100k, SQUARE, theta.conjugate(), 2000)
    assert abs(s_plus - s_minus.conjugate()) < 1e-13


def test_float_theta_uses_its_dyadic_value(mobius_100k):
    # 2 pi * 5/16 is exactly representable through the dyadic path.
    float_value = weighted_poly_sum(mobius_100k, SQUARE, 2 * math.pi * 5 / 16, 4096)
    exact_value = weighted_poly_sum(mobius_100k, SQUARE, RationalAngle(5, 16), 4096)
    assert abs(float_value - exact_value) < 1e-12


def test_float_theta_with_denominator_past_the_float_range(mobius_100k):
    # theta / 2 pi = 1e-300 / 2 pi is a dyadic rational with q = 2^1052
    value = weighted_poly_sum(mobius_100k, SQUARE, 1e-300, 1000)
    assert value.real == pytest.approx(partial_sum(mobius_100k, 1000) / 1000, abs=1e-15)
    assert abs(value.imag) < 1e-290


def test_rejects_bad_inputs(mobius_100k):
    with pytest.raises(ValueError):
        weighted_poly_sum(mobius_100k, SQUARE, 0.0, 0)
    with pytest.raises(ValueError):
        weighted_poly_sum(mobius_100k, SQUARE, -0.5, 10)
    with pytest.raises(ValueError):
        weighted_poly_sum(mobius_100k, SQUARE, 7.0, 10)


def test_grid_scan_matches_pointwise_sums(mobius_100k):
    grid = RationalGrid(64)
    scan = grid_scan(mobius_100k, SQUARE, grid, 3000)
    for a in (0, 1, 17, 63):
        point = weighted_poly_sum(mobius_100k, SQUARE, RationalAngle(a, 64), 3000)
        assert abs(scan[a] - point) < 1e-12


def test_max_over_grid_trivial_n1(mobius_100k):
    theta_star, value = max_over_grid(mobius_100k, SQUARE, RationalGrid(16), 1)
    assert theta_star == 0.0  # all moduli equal 1; ties break to smallest theta
    assert value == pytest.approx(1.0, abs=1e-14)


def test_max_over_grid_mobius_linear_is_small(mobius_100k):
    # Measured 0.0278 on this fixed configuration; decay keeps it below 0.05.
    _, value = max_over_grid(mobius_100k, LINEAR, RationalGrid(2048), 10**4)
    assert value < 0.05


def test_max_over_grid_uniform_matches_bruteforce_rescan(mobius_100k):
    grid = UniformGrid(64)
    theta_star, value = max_over_grid(mobius_100k, LINEAR, grid, 100)
    rescan = [
        abs(weighted_poly_sum(mobius_100k, LINEAR, t, 100)) for t in grid.thetas()
    ]
    best = int(np.argmax(rescan))
    assert theta_star == grid.thetas()[best]
    assert value == rescan[best]


def test_grid_refinement_monotonicity(mobius_100k):
    coarse = max_over_grid(mobius_100k, SQUARE, RationalGrid(256), 10**4)[1]
    fine = max_over_grid(mobius_100k, SQUARE, RationalGrid(512), 10**4)[1]
    assert coarse <= fine + 1e-12


def test_decay_profile_trend(mobius_1m):
    n_list = [1 << k for k in range(10, 21)]
    profile = decay_profile(mobius_1m, LINEAR, RationalGrid(4096), n_list)
    # Monotone decay from 2^12 onward (measured property of this table).
    tail = profile.max_values[2:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert profile.decay_exponent > 0
    assert math.isfinite(profile.exponent_stderr)


def test_decay_profile_constant_weight_control():
    table = constant_table(1 << 14)
    profile = decay_profile(
        table, LINEAR, RationalGrid(8), [1 << 10, 1 << 12, 1 << 14]
    )
    # theta = 0 is on the grid and the unweighted sum does not decay.
    assert all(abs(v - 1.0) < 1e-12 for v in profile.max_values)


def test_decay_profiles_of_the_two_weights_stay_close(mobius_1m):
    lio = sieve(WeightKind.LIOUVILLE, 1 << 20)
    grid = RationalGrid(4096)
    for k in (14, 16, 18, 20):
        vm = max_over_grid(mobius_1m, LINEAR, grid, 1 << k)[1]
        vl = max_over_grid(lio, LINEAR, grid, 1 << k)[1]
        assert abs(vm - vl) < 0.02


def test_decay_profile_needs_three_lengths(mobius_100k):
    with pytest.raises(ValueError):
        decay_profile(mobius_100k, LINEAR, RationalGrid(16), [100, 200])
    with pytest.raises(ValueError):
        decay_profile(mobius_100k, LINEAR, RationalGrid(16), [100, 200, 150])


def test_short_interval_window_is_inclusive(liouville_100k):
    theta = RationalAngle(1, 3)
    result = short_interval_sum(liouville_100k, theta, 500, 1)
    vals = liouville_100k.values
    expected = (
        vals[500] * cmath.exp(2j * cmath.pi * 500 / 3)
        + vals[501] * cmath.exp(2j * cmath.pi * 501 / 3)
    )
    assert abs(result.value - expected) < 1e-13


def test_short_interval_theta_zero_reduces_to_partial_sums(liouville_100k):
    n, m = 10**4, 10**4
    result = short_interval_sum(liouville_100k, 0.0, n, m)
    expected = (partial_sum(liouville_100k, 2 * n) - partial_sum(liouville_100k, n - 1)) / m
    assert result.value == pytest.approx(expected, abs=1e-15)
    assert result.value.imag == 0.0


def test_short_interval_against_direct_oracle(liouville_100k):
    n = 50_000
    m = math.ceil(n**0.7)
    # q = 4294967311 is past the int64 Horner limit
    for a, q in ((3, 7), (123456789, 4294967311)):
        result = short_interval_sum(liouville_100k, RationalAngle(a, q), n, m)
        oracle = 0j
        for k in range(n, n + m + 1):
            oracle += int(liouville_100k.values[k]) * cmath.exp(2j * cmath.pi * (a * k % q) / q)
        assert abs(result.value - oracle / m) < 1e-12
        assert result.meets_exponent_threshold  # m = ceil(n^0.7) >= n^(5/8)


def test_short_interval_exponent_flag():
    table = zero_table(10**6)
    # n^(5/8) for n = 10^5 is about 1333.5
    assert short_interval_sum(table, 0.0, 10**5, 1333).meets_exponent_threshold is False
    assert short_interval_sum(table, 0.0, 10**5, 1334).meets_exponent_threshold is True


def test_short_interval_bounds(liouville_100k):
    with pytest.raises(ValueError):
        short_interval_sum(liouville_100k, 0.0, 99_999, 2)
    with pytest.raises(ValueError):
        short_interval_sum(liouville_100k, 0.0, 0, 5)
