import cmath
import math

import numpy as np
import pytest

from ergolab import expsums
from ergolab.expsums import (
    RationalAngle,
    decay_profile,
    grid_scan,
    max_over_grid,
    short_interval_sum,
    weighted_poly_sum,
)
from ergolab.polynomials import IntPolynomial
from ergolab.weights import _SIEVE_BLOCK, WeightKind, constant_table, partial_sum, sieve, zero_table
from oracles import naive_weighted_poly_sum

LINEAR = IntPolynomial((0, 1))
SQUARE = IntPolynomial((0, 0, 1))
ZERO = RationalAngle(0, 1)


def test_single_term_has_unit_modulus(mobius_100k):
    for theta in (ZERO, RationalAngle(1, 6), RationalAngle(3, 7)):
        value = weighted_poly_sum(mobius_100k, SQUARE, theta, 1)
        assert abs(abs(value) - 1.0) < 1e-14


def test_theta_zero_reduces_to_partial_sum(mobius_100k):
    for n in (10, 1234, 100_000):
        value = weighted_poly_sum(mobius_100k, SQUARE, ZERO, n)
        assert value.imag == 0.0
        assert value.real == pytest.approx(partial_sum(mobius_100k, n) / n, abs=1e-15)


def test_against_big_integer_phase_oracle(liouville_100k):
    value = weighted_poly_sum(liouville_100k, SQUARE, RationalAngle(1, 5), 1000)
    oracle = naive_weighted_poly_sum(liouville_100k.values, SQUARE, 1, 5, 1000)
    assert abs(value - oracle) < 1e-12


def test_modulus_bounded_by_one(mobius_100k, liouville_100k):
    for table in (mobius_100k, liouville_100k):
        for theta in (RationalAngle(1, 3), RationalAngle(17, 4096), RationalAngle(2, 5)):
            assert abs(weighted_poly_sum(table, SQUARE, theta, 5000)) <= 1.0 + 1e-12


def test_conjugate_symmetry(mobius_100k):
    theta = RationalAngle(5, 17)
    s_plus = weighted_poly_sum(mobius_100k, SQUARE, theta, 2000)
    s_minus = weighted_poly_sum(mobius_100k, SQUARE, RationalAngle(-5, 17), 2000)
    assert abs(s_plus - s_minus.conjugate()) < 1e-13


def test_rejects_bad_inputs(mobius_100k):
    with pytest.raises(ValueError):
        weighted_poly_sum(mobius_100k, SQUARE, ZERO, 0)


def test_grid_scan_matches_pointwise_sums(mobius_100k):
    scan = grid_scan(mobius_100k, SQUARE, 64, 3000)
    for a in (0, 1, 17, 63):
        point = weighted_poly_sum(mobius_100k, SQUARE, RationalAngle(a, 64), 3000)
        assert abs(scan[a] - point) < 1e-12


def test_max_over_grid_trivial_n1(mobius_100k):
    theta_star, value = max_over_grid(mobius_100k, SQUARE, 16, 1)
    assert theta_star == 0.0  # all moduli equal 1; ties break to smallest theta
    assert value == pytest.approx(1.0, abs=1e-14)


def test_max_over_grid_mobius_linear_is_small(mobius_100k):
    # Measured 0.0278 on this fixed configuration; decay keeps it below 0.05.
    _, value = max_over_grid(mobius_100k, LINEAR, 2048, 10**4)
    assert value < 0.05


def test_grid_refinement_monotonicity(mobius_100k):
    coarse = max_over_grid(mobius_100k, SQUARE, 256, 10**4)[1]
    fine = max_over_grid(mobius_100k, SQUARE, 512, 10**4)[1]
    assert coarse <= fine + 1e-12


def test_decay_profile_trend(mobius_1m):
    n_list = [1 << k for k in range(10, 21)]
    profile = decay_profile(mobius_1m, LINEAR, 4096, n_list)
    # Monotone decay from 2^12 onward (measured property of this table).
    tail = profile.max_values[2:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert profile.decay_exponent > 0
    assert math.isfinite(profile.exponent_stderr)


def test_decay_profile_constant_weight_control():
    table = constant_table(1 << 14)
    profile = decay_profile(
        table, LINEAR, 8, [1 << 10, 1 << 12, 1 << 14]
    )
    # theta = 0 is on the grid and the unweighted sum does not decay.
    assert all(abs(v - 1.0) < 1e-12 for v in profile.max_values)


def test_decay_profiles_of_the_two_weights_stay_close(mobius_1m):
    lio = sieve(WeightKind.LIOUVILLE, 1 << 20)
    q = 4096
    for k in (14, 16, 18, 20):
        vm = max_over_grid(mobius_1m, LINEAR, q, 1 << k)[1]
        vl = max_over_grid(lio, LINEAR, q, 1 << k)[1]
        assert abs(vm - vl) < 0.02


def test_decay_profile_needs_three_lengths(mobius_100k):
    with pytest.raises(ValueError):
        decay_profile(mobius_100k, LINEAR, 16, [100, 200])
    with pytest.raises(ValueError):
        decay_profile(mobius_100k, LINEAR, 16, [100, 200, 150])
    # log log 1 = -inf would reach the fit
    with pytest.raises(ValueError):
        decay_profile(mobius_100k, LINEAR, 16, [1, 10, 100])


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
    result = short_interval_sum(liouville_100k, ZERO, n, m)
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


@pytest.fixture(scope="module")
def tables_past_a_sieve_block():
    return {kind: sieve(kind, _SIEVE_BLOCK + 10**4) for kind in WeightKind}


@pytest.mark.parametrize("kind", list(WeightKind))
@pytest.mark.parametrize("q", [1, 2, 7, 97, 4096, 4294967311])
def test_short_interval_folded_and_unfolded_windows(tables_past_a_sieve_block, kind, q):
    # A window of L n with two or more terms folds for q <= L, any other
    # lists its nonzero n.  Three windows cross a sieve block edge.
    table = tables_past_a_sieve_block[kind]
    a = 3 % q
    windows = [(1, 6000), (_SIEVE_BLOCK - 3000, 6000), (_SIEVE_BLOCK - 40, 80), (_SIEVE_BLOCK, 1)]
    for start, span in windows:
        oracle = 0j
        for n in range(start, start + span + 1):
            oracle += int(table.values[n]) * cmath.exp(2j * cmath.pi * (a * n % q) / q)
        result = short_interval_sum(table, RationalAngle(a, q), start, span)
        assert abs(result.value - oracle / span) < 1e-12, (start, span)


def test_short_interval_phases_one_value_per_class(mobius_1m, monkeypatch):
    # A window of 10^6 + 1 n at q = 7 folds onto at most 7 classes, so
    # at most 7 phases are taken, not one per n.
    taken, phases = [], expsums._phases

    def counted(poly, classes, theta):
        taken.append(len(classes))
        return phases(poly, classes, theta)

    monkeypatch.setattr(expsums, "_phases", counted)
    start, span = 10**4, 10**6
    result = short_interval_sum(mobius_1m, RationalAngle(1, 7), start, span)
    assert 0 < sum(taken) <= 7, taken
    n = np.arange(start, start + span + 1)
    per_n = np.sum(mobius_1m.values[start : start + span + 1] * np.exp(2j * np.pi * (n % 7) / 7))
    assert abs(result.value - per_n / span) < 1e-12


def test_benchmark_short_window_phases_run_in_int64(monkeypatch):
    # expsum short --weight liouville --start 2000000 --span 100000
    # --theta a/4294967311: q is above 3037000499, but every class is
    # below 2.1e6, so each Horner step fits in int64.
    dtypes, evaluate = [], expsums.eval_mod_range

    def recorded(*args):
        result = evaluate(*args)
        dtypes.append(result.dtype)
        return result

    monkeypatch.setattr(expsums, "eval_mod_range", recorded)
    table = sieve(WeightKind.LIOUVILLE, 2_100_000)
    q = 4294967311
    for a in (1, 2, q - 1):
        result = short_interval_sum(table, RationalAngle(a, q), 2_000_000, 100_000)
        values = table.values[2_000_000 : 2_100_001].tolist()
        oracle = sum(v * cmath.exp(2j * cmath.pi * (a * n % q) / q)
                     for n, v in enumerate(values, 2_000_000) if v)
        assert abs(result.value - oracle / 100_000) < 1e-12
    assert dtypes == [np.int64] * 3


def test_phases_with_a_top_coefficient_zero_mod_q():
    # a * P(r) mod q with a folded into the coefficients: 3 * (1 + 3 r) is
    # 3 mod 9 for every r, and 2 * (5 + 7 r^2) mod 7 is the constant 3
    classes = np.arange(20)
    phases = expsums._phases(IntPolynomial((1, 3)), classes, RationalAngle(3, 9))
    assert np.array_equal(phases, np.full(20, np.exp(2j * np.pi * (1 / 3))))
    phases = expsums._phases(IntPolynomial((5, 0, 7)), classes, RationalAngle(2, 7))
    assert np.array_equal(phases, np.full(20, np.exp(2j * np.pi * (3 / 7))))


@pytest.mark.parametrize("q", [97, 4294967311, 2**53 - 111, 2**53 + 5, 2**70 + 25])
def test_phases_round_each_residue_once(q):
    # r / q is Python's correctly rounded int / int, whichever dtype the
    # residues come in
    poly = IntPolynomial((7, -3, 0, 11))
    classes = np.array([0, 1, 2, 12345, 2_000_000, 3 * 10**9])
    a = q // 3 + 1
    turns = np.array([(a * poly(int(r))) % q / q for r in classes])
    assert np.array_equal(expsums._phases(poly, classes, RationalAngle(a, q)),
                          np.exp(2j * np.pi * turns))


def test_short_interval_exponent_flag():
    table = zero_table(10**6)
    # n^(5/8) for n = 10^5 is about 1333.5
    assert short_interval_sum(table, ZERO, 10**5, 1333).meets_exponent_threshold is False
    assert short_interval_sum(table, ZERO, 10**5, 1334).meets_exponent_threshold is True


def test_short_interval_bounds(liouville_100k):
    with pytest.raises(ValueError):
        short_interval_sum(liouville_100k, ZERO, 99_999, 2)
    with pytest.raises(ValueError):
        short_interval_sum(liouville_100k, ZERO, 0, 5)
