import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import folding, maximal, rng
from ergolab.maximal import (
    CLASSICAL_P,
    CLASSICAL_Q,
    LacunaryLadder,
    band_maximal,
    band_peaks,
    default_lambda_grid,
    global_maximal,
    oscillation_sum,
    weak_type_statistic,
)
from ergolab.polynomials import IntPolynomial
from ergolab.spectral import PeriodicSignal
from ergolab.weights import WeightKind, sieve, zero_table

LINEAR = IntPolynomial((0, 1))
SQUARE = IntPolynomial((0, 0, 1))


def brute_band_maximal(phi, psi, p_poly, q_poly, table, ladder, k):
    """Recompute every A_N from scratch, no incremental reuse."""
    j = phi.period
    lo, hi = ladder.band(k)
    members = [m for m in ladder.members if lo <= m <= hi]
    w = table.values
    out = np.zeros(j)
    for base in range(j):
        averages = {}
        for n_value in members:
            ns = np.arange(1, n_value + 1, dtype=np.int64)
            fa = phi.values[(base + np.array([p_poly(int(n)) for n in ns])) % j]
            gb = psi.values[(base + np.array([q_poly(int(n)) for n in ns])) % j]
            ws = w[1 : n_value + 1].astype(np.float64)
            averages[n_value] = (ws * (fa * gb)).sum() / n_value
        out[base] = max(abs(averages[n] - averages[members[0]]) for n in members)
    return out


def test_ladder_members_and_duplicates():
    ladder = LacunaryLadder.build(2.0, 1 << 10)
    assert ladder.members == tuple(1 << k for k in range(11))
    slow = LacunaryLadder.build(1.1, 20)
    assert slow.members == tuple(sorted(set(slow.members)))
    assert slow.members[0] == 1
    assert all(b > a for a, b in zip(slow.members, slow.members[1:]))


def test_ladder_validation():
    with pytest.raises(ValueError):
        LacunaryLadder.build(1.0, 100)
    with pytest.raises(ValueError):
        LacunaryLadder.build(2.0, 0)
    with pytest.raises(ValueError):
        LacunaryLadder.build(2.0, 16, band_count=10)
    ladder = LacunaryLadder.build(2.0, 16, band_count=3)
    assert ladder.bands == (1, 2, 4, 8)
    with pytest.raises(ValueError):
        ladder.band(4)


@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
def test_ladder_rejects_non_finite_rho(rho):
    with pytest.raises(ValueError, match="finite"):
        LacunaryLadder.build(rho, 100)


def test_band_endpoints_are_consecutive_members():
    ladder = LacunaryLadder.build(4.0, 256)
    assert ladder.band(1) == (1, 4)
    assert [ladder.band(k) for k in range(1, ladder.band_count + 1)] == list(
        zip(ladder.members, ladder.members[1:])
    )
    assert ladder.bands == ladder.members


def test_ladder_builds_only_the_members_its_bands_read():
    # Up to 2^24 this ladder has more than MAX_LADDER_MEMBERS members; ten
    # bands read the first eleven, which are 1..11.
    assert LacunaryLadder.build(1.000001, 1 << 24, band_count=10).members == tuple(range(1, 12))
    assert LacunaryLadder.build(2.0, 1 << 24, band_count=3).members == (1, 2, 4, 8)


def test_band_maximal_zero_weights():
    table = zero_table(1 << 10)
    ladder = LacunaryLadder.build(2.0, 1 << 8)
    phi = PeriodicSignal.seeded_pm1(32, 7)
    result = band_maximal(phi, phi, CLASSICAL_P, CLASSICAL_Q, table, ladder, 7)
    assert np.max(np.abs(result.values)) == 0.0


def test_band_maximal_matches_bruteforce_exactly(mobius_100k, liouville_100k):
    j = 64
    phi = PeriodicSignal.seeded_pm1(j, 71)
    psi = PeriodicSignal.seeded_pm1(j, 72)
    ladder = LacunaryLadder.build(2.0, 1 << 8)
    band = 7  # [2^6, 2^7] within the n <= 2^8 ladder
    for table in (mobius_100k, liouville_100k):
        ours = band_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, table, ladder, band)
        brute = brute_band_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, table, ladder, band)
        assert np.array_equal(ours.values.real, brute)
        assert np.all(ours.values.imag == 0)


def test_band_maximal_general_polynomials_match_bruteforce(mobius_100k):
    j = 16
    phi = PeriodicSignal.seeded_pm1(j, 81)
    psi = PeriodicSignal.seeded_pm1(j, 82)
    ladder = LacunaryLadder.build(2.0, 1 << 7)
    for band in (5, 6, 7):
        ours = band_maximal(phi, psi, SQUARE, LINEAR, mobius_100k, ladder, band)
        brute = brute_band_maximal(phi, psi, SQUARE, LINEAR, mobius_100k, ladder, band)
        assert np.array_equal(ours.values.real, brute)


def test_band_peaks_match_each_band_and_the_brute_force(mobius_100k):
    j = 16
    phi = PeriodicSignal.seeded_pm1(j, 83)
    psi = PeriodicSignal.seeded_pm1(j, 84)
    ladder = LacunaryLadder.build(2.0, 1 << 7)
    peaks = list(band_peaks(phi, psi, SQUARE, LINEAR, mobius_100k, ladder, 7))
    assert len(peaks) == 7
    for band, peak in enumerate(peaks, 1):
        single = band_maximal(phi, psi, SQUARE, LINEAR, mobius_100k, ladder, band)
        assert np.array_equal(single.values, peak)
        brute = brute_band_maximal(phi, psi, SQUARE, LINEAR, mobius_100k, ladder, band)
        assert np.array_equal(peak, brute)


def test_band_peaks_divide_each_sum_once(mobius_100k):
    # m_k = |S_{N_{k+1}} / N_{k+1} - S_{N_k} / N_k| with each S_N an exact
    # int64 sum and each quotient rounded once in float64.  A complex
    # division by N would round twice wherever 1/N is inexact.
    j, bands = 16, 20
    ladder = LacunaryLadder.build(1.3, 1 << 24, band_count=bands)
    phi = PeriodicSignal.seeded_pm1(j, 91)
    psi = PeriodicSignal.seeded_pm1(j, 92)
    f, g = (s.values.real.astype(np.int64) for s in (phi, psi))
    weights = mobius_100k.values.astype(np.int64)
    members = ladder.members[: bands + 1]
    base, running, averages = np.arange(j), np.zeros(j, dtype=np.int64), {}
    for n in range(1, members[-1] + 1):
        running += weights[n] * f[(base + n) % j] * g[(base - n) % j]
        averages[n] = running / n
    expected = [np.abs(averages[hi] - averages[lo]) for lo, hi in zip(members, members[1:])]
    peaks = list(band_peaks(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, ladder, bands))
    assert len(peaks) == bands
    assert all(np.array_equal(peak, want) for peak, want in zip(peaks, expected))


@pytest.mark.parametrize("rows", [1, 3])
def test_band_peaks_across_block_edges(mobius_100k, monkeypatch, rows):
    # Blocks of one and of three rows of running sums: bands straddle the
    # block edges, and each band's bits stay those of one block.
    j, bands = 16, 40
    ladder = LacunaryLadder.build(1.1, 1 << 24, band_count=bands)
    phi = PeriodicSignal.seeded_pm1(j, 93)
    psi = PeriodicSignal.seeded_pm1(j, 94)
    args = (phi, psi, SQUARE, LINEAR, mobius_100k, ladder, bands)
    whole = list(band_peaks(*args))
    monkeypatch.setattr(folding, "_BLOCK_ELEMENTS", rows * j)
    split = list(band_peaks(*args))
    assert len(split) == len(whole) == bands
    assert all(a.tobytes() == b.tobytes() for a, b in zip(split, whole))


def test_oscillation_holds_no_band_by_period_array():
    # A (K + 1) x J complex array of running sums at K = 500, J = 8192 is
    # 65 MB; one pass holds a few J-long vectors and its gather blocks.
    j, bands = 8192, 500
    ladder = LacunaryLadder.build(1.01, 1 << 24, band_count=bands)
    table = sieve(WeightKind.MOBIUS, ladder.bands[-1])
    phi = PeriodicSignal.seeded_pm1(j, 1)
    psi = PeriodicSignal.seeded_pm1(j, 2)
    tracemalloc.start()
    try:
        report = oscillation_sum(phi, psi, CLASSICAL_P, CLASSICAL_Q, table, ladder, bands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.band_l2_norms) == bands
    assert peak < 16 * 2**20, peak


def test_oscillation_zero_weights():
    table = zero_table(1 << 10)
    phi = PeriodicSignal.seeded_pm1(64, 5)
    ladder = LacunaryLadder.build(2.0, 1 << 10)
    report = oscillation_sum(phi, phi, CLASSICAL_P, CLASSICAL_Q, table, ladder, 8)
    assert all(r == 0.0 for r in report.ratios)


def test_oscillation_single_band_direct(mobius_100k):
    j = 64
    phi = PeriodicSignal.seeded_pm1(j, 91)
    psi = PeriodicSignal.seeded_pm1(j, 92)
    ladder = LacunaryLadder.build(2.0, 1 << 8)
    report = oscillation_sum(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, ladder, 1)
    band = band_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, ladder, 1)
    expected = float(np.sqrt(np.mean(np.abs(band.values) ** 2)))
    assert report.band_l2_norms[0] == pytest.approx(expected, abs=1e-15)
    assert report.ratios[0] == pytest.approx(
        expected / (phi.norm(4) * psi.norm(4)), abs=1e-15
    )


def test_oscillation_cumulative_bookkeeping(mobius_100k):
    j = 32
    phi = PeriodicSignal.seeded_pm1(j, 101)
    psi = PeriodicSignal.seeded_pm1(j, 102)
    ladder = LacunaryLadder.build(2.0, 1 << 10)
    report = oscillation_sum(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, ladder, 10)
    assert report.cumulative == pytest.approx(np.cumsum(report.band_l2_norms))
    assert all(b >= a for a, b in zip(report.cumulative, report.cumulative[1:]))


def test_oscillation_ratio_trend(mobius_100k):
    j = 1 << 10
    phi = PeriodicSignal.seeded_pm1(j, 111)
    psi = PeriodicSignal.seeded_pm1(j, 112)
    ladder = LacunaryLadder.build(2.0, 1 << 12)
    report = oscillation_sum(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, ladder, 12)
    assert report.ratio_at(12) <= 3.0 * report.ratio_at(4)


def test_band_maximal_dominated_by_global(mobius_100k):
    j = 32
    phi = PeriodicSignal.seeded_pm1(j, 121)
    psi = PeriodicSignal.seeded_pm1(j, 122)
    ladder = LacunaryLadder.build(2.0, 1 << 8)
    top = global_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, 1 << 8)
    for band in (3, 5, 8):
        m = band_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, ladder, band)
        assert np.all(m.values.real <= 2 * top.values.real + 1e-12)


def brute_global_maximal(phi, psi, p_poly, q_poly, table, n_max):
    """max over every N <= n_max of |S_N(j)| / N, S_N summed one n at a time;
    integer arithmetic for real integer-valued signals."""
    period = phi.period
    j = np.arange(period)
    exact = not np.any(phi.values.imag) and not np.any(psi.values.imag)
    f = phi.values.real.astype(np.int64) if exact else phi.values
    g = psi.values.real.astype(np.int64) if exact else psi.values
    running = np.zeros(period, dtype=f.dtype)
    peak = np.zeros(period)
    for n in range(1, n_max + 1):
        w = int(table.values[n])
        if w:
            running = running + w * f[(j + p_poly(n)) % period] * g[(j + q_poly(n)) % period]
        peak = np.maximum(peak, np.abs(running) / n)
    return peak


def integer_with_a_zero(period, seed):
    """Values in -2..2 with phi(0) = 0: on the int32 path, but the stop at
    max|phi| max|psi| never fires, since the j with j + P(1) = 0 mod J
    reads a zero term at N = 1 and stays below the bound."""
    values = rng.integers_mod(seed, period, 5) - 2
    values[0] = 0
    return PeriodicSignal(period, values)


ORBIT_POLYS = [LINEAR, IntPolynomial((0, -1)), SQUARE, IntPolynomial((0, 1, 0, 1))]
GLOBAL_TABLES = {
    "mobius": sieve(WeightKind.MOBIUS, 400),
    "liouville": sieve(WeightKind.LIOUVILLE, 400),
    "zero": zero_table(400),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(GLOBAL_TABLES)),
    st.sampled_from(ORBIT_POLYS),
    st.sampled_from(ORBIT_POLYS),
    st.sampled_from([1, 2, 3, 16, 97]),
    st.integers(1, 400),
    st.sampled_from(["pm1", "integer", "complex"]),
    st.integers(0, 2**32 - 1),
    # rows per block of running sums: blocks whose least N is not their last
    st.sampled_from([2, 5, None]),
)
def test_global_maximal_matches_brute_sup(kind, p_poly, q_poly, period, n_max, signal, seed, rows):
    make = {
        "pm1": PeriodicSignal.seeded_pm1,
        "integer": integer_with_a_zero,
        "complex": PeriodicSignal.seeded_complex,
    }[signal]
    phi, psi = make(period, seed), make(period, seed + 1)
    table = GLOBAL_TABLES[kind]
    with pytest.MonkeyPatch.context() as patch:
        if rows:
            patch.setattr(folding, "_BLOCK_ELEMENTS", rows * period)
        result = global_maximal(phi, psi, p_poly, q_poly, table, n_max).values
    expected = brute_global_maximal(phi, psi, p_poly, q_poly, table, n_max)
    assert np.array_equal(result.imag, np.zeros(period))
    if signal != "complex":  # the int32 path: exact
        assert np.array_equal(result.real, expected)
    else:
        assert np.max(np.abs(result.real - expected)) <= 1e-12 * max(1.0, np.max(expected))


def test_global_maximal_stops_at_its_exact_bound(monkeypatch, mobius_100k):
    # +-1 signals reach max|phi| max|psi| = 1 at N = 1 everywhere, so the
    # pass stops after its first block; a zero, or a complex signal,
    # keeps the full pass.
    period, n_max = 64, 20000
    read = []
    orbit_sums = folding.orbit_sums

    def counted(*args):
        for block in orbit_sums(*args):
            read.append(len(block))
            yield block

    monkeypatch.setattr(folding, "orbit_sums", counted)
    rows = np.count_nonzero(mobius_100k.values[1 : n_max + 1])
    blocks = -(-rows // (folding._BLOCK_ELEMENTS // period))
    phi, psi = PeriodicSignal.seeded_pm1(period, 1), PeriodicSignal.seeded_pm1(period, 2)
    top = global_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, n_max)
    assert np.array_equal(top.values, np.ones(period)) and len(read) == 1
    zeroed = PeriodicSignal(period, np.where(np.arange(period) == 0, 0, phi.values))
    for f, g in ((zeroed, psi), (PeriodicSignal.seeded_complex(period, 1), psi)):
        read.clear()
        global_maximal(f, g, CLASSICAL_P, CLASSICAL_Q, mobius_100k, n_max)
        assert (len(read), sum(read)) == (blocks, rows)


def test_global_maximal_rejects_mismatched_periods(mobius_100k):
    phi, psi = PeriodicSignal.seeded_pm1(8, 1), PeriodicSignal.seeded_pm1(16, 2)
    for table in (mobius_100k, zero_table(64)):
        with pytest.raises(ValueError, match="signal periods differ"):
            global_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, table, 32)


def test_global_maximal_delta_hand_value(mobius_100k):
    # phi = psi = delta_0 on Z/4Z with P(n) = n, Q(n) = -n: the n-th term
    # hits j iff j + n = 0 and j - n = 0 mod 4, i.e. 2j = 0 and n = -j.
    j = 4
    n_max = 12
    delta = PeriodicSignal.delta(j)
    result = global_maximal(delta, delta, CLASSICAL_P, CLASSICAL_Q, mobius_100k, n_max)
    mu = mobius_100k.values
    expected = np.zeros(j)
    for base in range(j):
        best = 0.0
        running = 0.0
        for n in range(1, n_max + 1):
            if (base + n) % j == 0 and (base - n) % j == 0:
                running += int(mu[n])
            best = max(best, abs(running) / n)
        expected[base] = best
    assert np.allclose(result.values.real, expected, atol=1e-15)
    assert expected[1] == 0 and expected[3] == 0


def test_global_maximal_zero_weights_and_monotone(mobius_100k):
    j = 16
    phi = PeriodicSignal.seeded_pm1(j, 131)
    psi = PeriodicSignal.seeded_pm1(j, 132)
    zeros = zero_table(1 << 10)
    assert np.max(np.abs(global_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, zeros, 512).values)) == 0
    small = global_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, 256).values.real
    large = global_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, 1024).values.real
    assert np.all(large >= small - 1e-15)


def test_maximal_statistics_homogeneous(mobius_100k):
    j = 32
    phi = PeriodicSignal.seeded_pm1(j, 141)
    psi = PeriodicSignal.seeded_pm1(j, 142)
    scaled = PeriodicSignal(j, -4.0 * phi.values)
    base = global_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, 512)
    big = global_maximal(scaled, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, 512)
    # |c| = 4 is a power of two, so the scaling is exact in floats.
    assert np.array_equal(big.values.real, 4.0 * base.values.real)


def test_weak_type_statistic(mobius_100k):
    j = 256
    phi = PeriodicSignal.seeded_pm1(j, 151)
    psi = PeriodicSignal.seeded_pm1(j, 152)
    grid = default_lambda_grid(phi, psi)
    report = weak_type_statistic(
        phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, 2048, grid
    )
    assert report.statistic > 0
    assert report.norm_product == pytest.approx(
        phi.norm_counting(2) * psi.norm_counting(2)
    )
    assert report.ratio == pytest.approx(report.statistic / report.norm_product)
    assert report.lambda_at_max in report.lambda_grid


def test_weak_type_empty_level_set(mobius_100k):
    j = 16
    phi = PeriodicSignal.seeded_pm1(j, 161)
    psi = PeriodicSignal.seeded_pm1(j, 162)
    # Any lambda above ||phi||_inf ||psi||_inf bounds every average.
    report = weak_type_statistic(
        phi, psi, CLASSICAL_P, CLASSICAL_Q, mobius_100k, 256, np.array([1.5])
    )
    assert report.statistic == 0.0
    assert report.level_counts == (0,)


def test_weak_type_zero_weights():
    phi = PeriodicSignal.seeded_pm1(16, 171)
    report = weak_type_statistic(
        phi, phi, CLASSICAL_P, CLASSICAL_Q, zero_table(512), 256, np.array([0.1, 1.0])
    )
    assert report.statistic == 0.0


def _literal_ladder(rho, limit):
    """Distinct floor(rho**n) <= limit, one power at a time."""
    members = []
    n = 0
    while True:
        value = math.floor(rho**n)
        if value > limit:
            return tuple(members)
        if not members or value > members[-1]:
            members.append(value)
        n += 1


@pytest.mark.parametrize("rho", [1.001, 1.1, 1.5, 2.0, 3.7])
def test_ladder_members_match_literal_definition(rho):
    for limit in (1, 7, 1000, 10**6):
        assert LacunaryLadder.build(rho, limit).members == _literal_ladder(rho, limit)


def test_ladder_near_one_hits_every_integer():
    # Below 1e5 consecutive powers of 1 + 1e-7 differ by less than 0.01,
    # so the literal definition yields every integer; the power-by-power
    # loop would need about 1.2e8 steps to show it.
    assert LacunaryLadder.build(1 + 1e-7, 10**5).members == tuple(range(1, 10**5 + 1))


def test_ladder_member_cap(monkeypatch):
    monkeypatch.setattr(maximal, "MAX_LADDER_MEMBERS", 100)
    assert len(LacunaryLadder.build(1.001, 100).members) == 100
    with pytest.raises(ValueError, match="distinct members"):
        LacunaryLadder.build(1.001, 101)
