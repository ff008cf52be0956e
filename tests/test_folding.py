"""Property tests: folded orbit sums against plain per-n loops.

Folding onto the classes n mod J must not change any orbit sum,
exponential sum or mass kernel.  Cases cover periods above and below the
sum length, polynomials of every degree with negative coefficients, and
both weights.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import folding
from ergolab.dynamics import (
    CyclicShift,
    RationalRotation,
    TrigPolynomial,
    bilinear_average,
    convergence_trace,
)
from ergolab.expsums import RationalAngle, RationalGrid, grid_scan, weighted_poly_sum
from ergolab.polynomials import MAX_DEGREE, IntPolynomial
from ergolab.spectral import PeriodicSignal, build_kernels, direct_average_all
from ergolab.weights import WeightKind, sieve
from oracles import naive_bilinear_average, naive_weighted_poly_sum

N_CAP = 400
TABLES = {kind: sieve(kind, N_CAP) for kind in WeightKind}
SETTINGS = settings(max_examples=40, deadline=None)

periods = st.integers(1, 64)
# exponential-sum denominators, on both sides of the sum length
denominators = st.integers(1, 200)
# and past the int64 Horner limit, past 2^63 and past 2^64
sum_denominators = st.one_of(denominators, st.sampled_from([4294967311, 2**63 + 5, 2**80 + 1]))
lengths = st.integers(1, N_CAP)
tables = st.sampled_from(sorted(TABLES, key=lambda kind: kind.value)).map(TABLES.get)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def polys(draw):
    degree = draw(st.integers(1, MAX_DEGREE))
    coeffs = draw(st.lists(st.integers(-50, 50), min_size=degree, max_size=degree))
    lead = draw(st.integers(-50, 50).filter(bool))
    return IntPolynomial((*coeffs, lead))


def close(actual, reference):
    return abs(actual - reference) <= 1e-12 * max(1.0, abs(reference))


@SETTINGS
@given(periods, lengths, tables, polys(), polys(), seeds, st.integers(0, 63))
def test_complex_routes_match_oracle(period, n_max, table, p_poly, q_poly, seed, j):
    j %= period
    f = PeriodicSignal.seeded_complex(period, seed)
    g = PeriodicSignal.seeded_complex(period, seed + 1)
    ref = naive_bilinear_average(table.values, p_poly, q_poly, f.values, g.values, period, n_max, j)
    assert close(direct_average_all(table, p_poly, q_poly, f, g, n_max).values[j], ref)
    system = CyclicShift(period)
    assert close(bilinear_average(system, f, g, p_poly, q_poly, table, n_max, j), ref)
    trace = convergence_trace(system, f, g, p_poly, q_poly, table, 2.0, j, n_limit=n_max)
    last, value = trace.final
    ref_last = naive_bilinear_average(table.values, p_poly, q_poly, f.values, g.values, period, last, j)
    assert close(value, ref_last)


@SETTINGS
@given(periods, tables, polys(), polys(), seeds, st.sets(st.integers(1, N_CAP), min_size=1, max_size=6))
def test_pm1_running_sums_are_exact(period, table, p_poly, q_poly, seed, checkpoints):
    checkpoints = sorted(checkpoints)
    f = PeriodicSignal.seeded_pm1(period, seed).values.real.astype(np.int64)
    g = PeriodicSignal.seeded_pm1(period, seed + 1).values.real.astype(np.int64)
    sums = folding.orbit_sums(
        table, p_poly, q_poly, f.astype(np.complex128), g.astype(np.complex128), checkpoints
    )

    js = np.arange(period)
    running = np.zeros(period, dtype=np.int64)
    expected = []
    for n in range(1, checkpoints[-1] + 1):
        w = int(table.values[n])
        if w:
            running += w * f[(js + p_poly(n) % period) % period] * g[(js + q_poly(n) % period) % period]
        if n in checkpoints:
            expected.append(running.copy())
    assert np.array_equal(sums.imag, np.zeros_like(sums.imag))
    assert np.array_equal(sums.real, np.array(expected, dtype=np.float64))


@SETTINGS
@given(periods, lengths, tables, polys(), polys(), st.integers(0, 10**6), st.integers(0, 63))
def test_rotation_folds_with_its_denominator(q, n_max, table, p_poly, q_poly, numerator, x):
    numerator = next(p for p in range(numerator, numerator + 10**6) if np.gcd(p, q) == 1)
    system = RationalRotation(numerator, q)
    x %= q
    f = TrigPolynomial((1, 3), (1.0, 0.5j))
    g = TrigPolynomial((2, -5), (0.25 - 1j, 1.0))

    def at(obs, k):
        return sum(c * cmath.exp(2j * cmath.pi * (m * k % q) / q) for m, c in zip(obs.modes, obs.coeffs))

    total = 0j
    for n in range(1, n_max + 1):
        w = int(table.values[n])
        if w:
            total += w * at(f, x + p_poly(n) * numerator) * at(g, x + q_poly(n) * numerator)
    ref = total / n_max
    assert close(bilinear_average(system, f, g, p_poly, q_poly, table, n_max, x), ref)


def per_n(poly, n_max, period):
    """P(n) mod period for n = 1..n_max, one Python integer at a time."""
    return np.array([poly(n) % period for n in range(1, n_max + 1)], dtype=np.int64)


@SETTINGS
@given(denominators, lengths, tables, polys())
def test_grid_scan_histogram_matches_per_n(q, n_max, table, poly):
    hist = np.bincount(per_n(poly, n_max, q), weights=table.values[1 : n_max + 1], minlength=q)
    expected = np.fft.ifft(hist) * (q / n_max)
    assert np.array_equal(grid_scan(table, poly, RationalGrid(q), n_max), expected)


@SETTINGS
@given(sum_denominators, st.integers(0, 199), lengths, tables, polys())
def test_weighted_poly_sum_matches_oracle(q, numer, n_max, table, poly):
    angle = RationalAngle(numer, q)
    ref = naive_weighted_poly_sum(table.values, poly, numer, q, n_max)
    assert close(weighted_poly_sum(table, poly, angle, n_max), ref)


def test_weighted_poly_sum_with_denominator_past_int64():
    # q > N leaves every n its own class, however wide q is
    table, poly, q = TABLES[WeightKind.LIOUVILLE], IntPolynomial((5, -3, 0, 2)), 2**80 + 1
    ref = naive_weighted_poly_sum(table.values, poly, 3, q, N_CAP)
    assert close(weighted_poly_sum(table, poly, RationalAngle(3, q), N_CAP), ref)


@SETTINGS
@given(periods, lengths, tables, polys(), polys())
def test_kernels_match_per_n_tables(period, n_max, table, p_poly, q_poly):
    w = table.values[1 : n_max + 1] / n_max
    a, b = per_n(p_poly, n_max, period), per_n(q_poly, n_max, period)
    k_p, k_q, l_kernel = build_kernels(table, p_poly, q_poly, n_max, period)
    for kernel, positions in ((k_p, a), (k_q, b)):
        expected = np.zeros(period)
        np.add.at(expected, positions, w)
        assert np.max(np.abs(kernel.dense() - expected)) <= 1e-15
    expected = np.zeros((period, period))
    np.add.at(expected, ((a - b) % period, b), w)
    assert np.max(np.abs(l_kernel.dense() - expected)) <= 1e-15


def test_class_masses_reject_bad_lengths():
    table = TABLES[WeightKind.MOBIUS]
    for lengths in ([], [5, 5], [0], [N_CAP + 1]):
        with pytest.raises(ValueError):
            folding.class_masses(table, 8, lengths)
    with pytest.raises(ValueError):
        folding.class_masses(table, 0, [10])
