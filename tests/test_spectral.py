import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_rel_error, polys
from ergolab import folding, rng, spectral
from ergolab.dynamics import CyclicShift, RationalRotation, TrigPolynomial, bilinear_average
from ergolab.expsums import RationalAngle, weighted_poly_sum
from ergolab.polynomials import IntPolynomial
from ergolab.spectral import (
    SQUARE_IDENTITY_RTOL,
    OffDiagonalKernel,
    PeriodicSignal,
    Spectrum,
    build_kernels,
    d_coefficients,
    dft,
    direct_average_all,
    idft,
    l2_norm_of_average,
    spectral_average_all,
)
from ergolab.weights import WeightKind, partial_sum, sieve, zero_table
from oracles import naive_bilinear_average, naive_d_coefficient, naive_dft

LINEAR = IntPolynomial((0, 1))
NEG_LINEAR = IntPolynomial((0, -1))
SQUARE = IntPolynomial((0, 0, 1))


def test_dft_of_constant_is_delta_spectrum():
    spec = dft(PeriodicSignal.constant(17))
    assert abs(spec.coeffs[0] - 1.0) < 1e-14
    assert np.max(np.abs(spec.coeffs[1:])) < 1e-14


def test_dft_of_delta_is_flat():
    j = 12
    spec = dft(PeriodicSignal.delta(j))
    assert np.max(np.abs(spec.coeffs - 1.0 / j)) < 1e-15


def test_dft_matches_naive_transform_including_prime_lengths():
    for j in (1, 2, 31, 45, 97):
        sig = PeriodicSignal.seeded_complex(j, 1000 + j)
        reference = naive_dft(sig.values)
        assert max_rel_error(dft(sig).coeffs, reference) < 1e-12


def test_roundtrip_and_parseval():
    for j in (31, 64, 97, 256, 1024):
        sig = PeriodicSignal.seeded_complex(j, j)
        spec = dft(sig)
        back = idft(spec)
        assert max_rel_error(back.values, sig.values) < 1e-12
        lhs = np.mean(np.abs(sig.values) ** 2)
        rhs = np.sum(np.abs(spec.coeffs) ** 2)
        assert abs(lhs - rhs) / max(1.0, lhs) < 1e-12


def test_norms():
    sig = PeriodicSignal(4, np.array([1.0, -1.0, 1.0, 1.0]))
    assert sig.norm(2) == pytest.approx(1.0)
    assert sig.norm(np.inf) == 1.0
    assert sig.norm_counting(2) == pytest.approx(2.0)


def test_d_coefficients_period_one(mobius_100k):
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, 5000, 1)
    expected = partial_sum(mobius_100k, 5000) / 5000
    assert abs(coeffs[0, 0] - expected) < 1e-12


def test_d_coefficients_zero_mode_is_weighted_mean(mobius_100k):
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, 3000, 64)
    expected = partial_sum(mobius_100k, 3000) / 3000
    assert abs(coeffs[0, 0] - expected) < 1e-12


def test_d_coefficients_match_naive_summation(mobius_100k):
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, 1000, 64)
    picks = rng.integers_mod(77, 12, 64)
    for k, l in zip(picks[:6], picks[6:]):
        reference = naive_d_coefficient(
            mobius_100k.values, SQUARE, LINEAR, 1000, 64, int(k), int(l)
        )
        assert abs(coeffs[int(k), int(l)] - reference) < 1e-12


def test_d_coefficients_bounded_by_one(mobius_100k, liouville_100k):
    for table in (mobius_100k, liouville_100k):
        coeffs = d_coefficients(table, SQUARE, NEG_LINEAR, 2000, 128)
        assert np.max(np.abs(coeffs)) <= 1.0 + 1e-12


def test_kernels_single_summand(mobius_100k):
    l_kernel = build_kernels(mobius_100k, SQUARE, LINEAR, 1, 32)
    # L's marginals: the particles at P(r) = (u + v) mod J and at Q(r) = v
    for positions in ((l_kernel.rows + l_kernel.cols) % 32, l_kernel.cols):
        dense = np.zeros(32)
        np.add.at(dense, positions, l_kernel.masses)
        assert dense[1 % 32] == 1.0  # P(1) = Q(1) = 1, mass nu(1)/1 = +1
        assert np.count_nonzero(dense) == 1
    assert l_kernel.masses.sum() == pytest.approx(1.0)


def test_kernel_total_mass_is_partial_mean(mobius_100k):
    n = 4000
    l_kernel = build_kernels(mobius_100k, SQUARE, LINEAR, n, 64)
    assert l_kernel.masses.sum() == pytest.approx(partial_sum(mobius_100k, n) / n)


def test_kernel_transform_reproduces_coefficient_slices(mobius_100k):
    j = 32
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, 500, j)
    l_kernel = build_kernels(mobius_100k, SQUARE, LINEAR, 500, j)
    transformed = l_kernel.transform()
    # transform(L)[k, s] == D[k][(s - k) mod J], row k of D rolled by k
    worst = 0.0
    for k in range(j):
        worst = max(worst, np.max(np.abs(transformed[k] - np.roll(coeffs[k], k))))
    assert worst < 1e-12


def _random_particles(period: int, count: int, seed: int) -> OffDiagonalKernel:
    rows = rng.integers_mod(seed, count, period)
    cols = rng.integers_mod(seed + 1, count, period)
    masses = 2.0 * rng.uniform01(seed + 2, count) - 1.0
    return OffDiagonalKernel(period, rows, cols, masses)


def test_transform_matches_full_inverse_fft():
    for j in (1, 2, 3, 31, 64, 97, 256):
        kernel = _random_particles(j, 3 * j, 500 + j)
        reference = np.fft.ifft2(kernel.dense()) * j * j
        assert max_rel_error(kernel.transform(), reference) < 1e-12


def _dense_total_degree(kernel: OffDiagonalKernel, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_k F(f)(k) F(g)(s-k) transform()[k, s] by the full contraction."""
    j = kernel.period
    k = np.arange(j)
    g_shifted = (np.fft.fft(g) / j)[(k[None, :] - k[:, None]) % j]
    return np.einsum("k,ks,ks->s", np.fft.fft(f) / j, g_shifted, kernel.transform())


# 1 and 3 put one to three u rows in each block, so blocks split the rows.
block_sizes = st.sampled_from([1, 3, folding._BLOCK_ELEMENTS])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(0, 200), st.integers(0, 2**32 - 1), block_sizes)
def test_total_degree_matches_dense_contraction(period, count, seed, block):
    kernel = _random_particles(period, count, seed)
    f = rng.complex_box(seed + 3, period)
    g = rng.complex_box(seed + 4, period)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(folding, "_BLOCK_ELEMENTS", block)
        got = kernel.total_degree(f, g)
    want = _dense_total_degree(kernel, f, g)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


KERNEL_TABLES = [sieve(kind, 300) for kind in WeightKind] + [zero_table(300)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(1, 300),
    st.sampled_from(KERNEL_TABLES),
    polys(max_degree=3),
    polys(max_degree=3),
    st.integers(0, 2**32 - 1),
    block_sizes,
)
def test_total_degree_matches_explicit_d(period, n, table, p_poly, q_poly, seed, block):
    # n below the period leaves every n its own class.
    f = PeriodicSignal.seeded_complex(period, seed)
    g = PeriodicSignal.seeded_complex(period, seed + 1)
    l_kernel = build_kernels(table, p_poly, q_poly, n, period)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(folding, "_BLOCK_ELEMENTS", block)
        got = l_kernel.total_degree(f.values, g.values)
    coeffs = d_coefficients(table, p_poly, q_poly, n, period)
    want = spectral._total_degree_spectrum(dft(f), dft(g), coeffs)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_total_degree_rejects_other_periods():
    kernel = _random_particles(8, 4, 1)
    with pytest.raises(ValueError):
        kernel.total_degree(np.ones(8), np.ones(16))


# 3 splits the rows of J = 97 into blocks of one row (a block of 3 elements
# holds no 97-long row) and J = 2 into two blocks; the default holds J = 97
# in one block and J = 1024 in blocks of 32 rows.
@pytest.mark.parametrize("block", [3, folding._BLOCK_ELEMENTS])
@pytest.mark.parametrize("period", [1, 2, 97, 1024])
def test_total_degree_spectrum_matches_the_roll_loop(period, block, monkeypatch):
    coeffs = rng.complex_box(period, period * period).reshape(period, period)
    f_spec = Spectrum(period, rng.complex_box(period + 1, period))
    g_spec = Spectrum(period, rng.complex_box(period + 2, period))
    want = np.zeros(period, dtype=np.complex128)
    for k in range(period):
        want += f_spec.coeffs[k] * np.roll(g_spec.coeffs * coeffs[k], k)
    monkeypatch.setattr(folding, "_BLOCK_ELEMENTS", block)
    got = spectral._total_degree_spectrum(f_spec, g_spec, coeffs)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize(
    "period, weight, p_poly, q_poly",
    [(1024, "liouville_100k", IntPolynomial((0, 1, 0, 1)), NEG_LINEAR), (2048, "mobius_100k", SQUARE, LINEAR)],
)
def test_both_routes_hold_under_2_mib(period, weight, p_poly, q_poly, request):
    # The two spectral-check routes at the benchmark's sizes, N = 1e5, each
    # hold O(block + J) scratch: 1.1 to 1.7 MiB with blocks of 2^15 elements.
    table = request.getfixturevalue(weight)
    n = table.limit
    l_kernel = build_kernels(table, p_poly, q_poly, n, period)
    f = PeriodicSignal.seeded_complex(period, 1)
    g = PeriodicSignal.seeded_complex(period, 2)
    for route in (
        lambda: l_kernel.total_degree(f.values, g.values),
        lambda: direct_average_all(table, p_poly, q_poly, f, g, n),
    ):
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak


def test_spectral_equals_direct_trivial_cases(mobius_100k):
    j = 64
    ones = PeriodicSignal.constant(j)
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, 2000, j)
    averaged = spectral_average_all(dft(ones), dft(ones), coeffs)
    expected = partial_sum(mobius_100k, 2000) / 2000
    assert np.max(np.abs(averaged.values - expected)) < 1e-12

    zeros = zero_table(10_000)
    coeffs0 = d_coefficients(zeros, SQUARE, LINEAR, 2000, j)
    f = PeriodicSignal.seeded_complex(j, 5)
    averaged0 = spectral_average_all(dft(f), dft(f), coeffs0)
    assert np.max(np.abs(averaged0.values)) < 1e-15


def test_spectral_equals_direct_random_config(mobius_100k):
    j, n = 256, 1000
    f = PeriodicSignal.seeded_complex(j, 31)
    g = PeriodicSignal.seeded_complex(j, 32)
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, n, j)
    a_spec = spectral_average_all(dft(f), dft(g), coeffs)
    a_dir = direct_average_all(mobius_100k, SQUARE, LINEAR, f, g, n)
    assert max_rel_error(a_spec.values, a_dir.values) < 1e-9


def test_direct_average_matches_naive_loop(mobius_100k):
    j, n = 16, 300
    f = PeriodicSignal.seeded_complex(j, 41)
    g = PeriodicSignal.seeded_complex(j, 42)
    for base in (0, 7, 15):
        got = bilinear_average(CyclicShift(j), f, g, SQUARE, NEG_LINEAR, mobius_100k, n, base)
        want = naive_bilinear_average(
            mobius_100k.values, SQUARE, NEG_LINEAR, f.values, g.values, j, n, base
        )
        assert abs(got - want) < 1e-12


def test_direct_average_all_consistent_with_single(mobius_100k):
    j, n = 32, 500
    f = PeriodicSignal.seeded_complex(j, 51)
    g = PeriodicSignal.seeded_complex(j, 52)
    all_values = direct_average_all(mobius_100k, SQUARE, LINEAR, f, g, n)
    for base in (0, 9, 31):
        single = bilinear_average(CyclicShift(j), f, g, SQUARE, LINEAR, mobius_100k, n, base)
        assert abs(all_values.values[base] - single) < 1e-13


def test_period_mismatch_raises(mobius_100k):
    f = PeriodicSignal.constant(8)
    g = PeriodicSignal.constant(16)
    with pytest.raises(ValueError):
        direct_average_all(mobius_100k, SQUARE, LINEAR, f, g, 100)
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, 100, 8)
    with pytest.raises(ValueError):
        spectral_average_all(dft(f), dft(g), coeffs)


def test_l2_identity_trivial(mobius_100k):
    j = 32
    ones = PeriodicSignal.constant(j)
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, 1500, j)
    value = l2_norm_of_average(dft(ones), dft(ones), coeffs)
    expected = (partial_sum(mobius_100k, 1500) / 1500) ** 2
    assert abs(value - expected) < 1e-12

    zeros = zero_table(10_000)
    coeffs0 = d_coefficients(zeros, SQUARE, LINEAR, 1500, j)
    assert l2_norm_of_average(dft(ones), dft(ones), coeffs0) == pytest.approx(0.0, abs=1e-18)


def test_l2_identity_random(mobius_100k):
    j, n = 512, 2000
    f = PeriodicSignal.seeded_complex(j, 71)
    g = PeriodicSignal.seeded_complex(j, 72)
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, n, j)
    spectral_side = l2_norm_of_average(dft(f), dft(g), coeffs)
    direct_side = float(
        np.mean(np.abs(direct_average_all(mobius_100k, SQUARE, LINEAR, f, g, n).values) ** 2)
    )
    assert abs(spectral_side - direct_side) / max(1.0, direct_side) < 1e-9


@pytest.mark.parametrize("weight", ["mobius_100k", "liouville_100k"])
def test_three_routes_to_one_d_entry(weight, request):
    # D[k][l] = (1/N) sum nu(n) e((k P(n) + l Q(n)) / J) three ways: the 2-d
    # transform of the particles, one exponential sum of kP + lQ at 1/J, and
    # the rotation by 1/J with the characters e_k and e_l at x = 0.
    table = request.getfixturevalue(weight)
    j, n = 64, 20_000
    coeffs = d_coefficients(table, SQUARE, LINEAR, n, j)
    # at (0, 0), kP + lQ is constant: D[0][0] is the mean of the weights
    assert abs(coeffs[0][0] - partial_sum(table, n) / n) < 1e-12
    for k, l in [(0, 1), (1, 0), (3, 5), (0, j - 1), (j - 1, 1), (j - 1, j - 1)]:
        by_sum = weighted_poly_sum(table, IntPolynomial((0, l, k)), RationalAngle(1, j), n)
        e_k, e_l = TrigPolynomial((k,), (1,)), TrigPolynomial((l,), (1,))
        by_rotation = bilinear_average(RationalRotation(1, j), e_k, e_l, SQUARE, LINEAR, table, n, 0)
        assert abs(by_sum - coeffs[k][l]) < 1e-12
        assert abs(by_rotation - coeffs[k][l]) < 1e-12


L4_TABLES = {kind: sieve(kind, 4096) for kind in WeightKind}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 64),
    st.sets(st.integers(1, 4096), min_size=1, max_size=5).map(sorted),
    st.sampled_from(list(WeightKind)),
    polys(max_degree=3),
    polys(max_degree=3),
    st.integers(0, 2**32 - 1),
)
def test_l4_report_matches_spectral_l2_identity(period, n_list, kind, p_poly, q_poly, seed):
    # The orbit sums at every length of the list, from one pass, against
    # the independent D[k][l] route at each length.
    table = L4_TABLES[kind]
    f = PeriodicSignal.seeded_complex(period, seed)
    g = PeriodicSignal.seeded_complex(period, seed + 1)
    sums = folding.orbit_sums(table, p_poly, q_poly, f.values, g.values, n_list)
    rows = np.concatenate(list(sums))
    assert rows.shape == (len(n_list), period)
    f_spec, g_spec = dft(f), dft(g)
    for n_max, row in zip(n_list, rows):
        direct = float(np.mean(np.abs(row / n_max) ** 2))
        coeffs = d_coefficients(table, p_poly, q_poly, n_max, period)
        value = l2_norm_of_average(f_spec, g_spec, coeffs)
        assert abs(direct - value) <= SQUARE_IDENTITY_RTOL * max(1.0, value)
