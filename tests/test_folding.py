"""Property tests: folded orbit sums against plain per-n loops.

Folding onto the classes n mod J must not change any orbit sum,
exponential sum or mass kernel.  Cases cover periods above and below the
sum length, polynomials of every degree with negative coefficients, and
both weights.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polys
from ergolab import folding, rng
from ergolab.dynamics import (
    CyclicShift,
    RationalRotation,
    TrigPolynomial,
    bilinear_average,
    convergence_trace,
)
from ergolab.expsums import RationalAngle, grid_scan, weighted_poly_sum
from ergolab.maximal import CLASSICAL_P, CLASSICAL_Q, LacunaryLadder, band_peaks, global_maximal
from ergolab.polynomials import IntPolynomial
from ergolab.spectral import PeriodicSignal, build_kernels, direct_average_all
from ergolab.weights import WeightKind, WeightTable, sieve, zero_table
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


def close(actual, reference):
    return abs(actual - reference) <= 1e-12 * max(1.0, abs(reference))


# Elements per block: 1 and 7 split rows over blocks and gather one term at
# a time, 200 gathers a folded segment's classes several at a time.
block_elements = st.sampled_from([1, 7, 200, folding._BLOCK_ELEMENTS])


@SETTINGS
@given(
    periods,
    lengths,
    tables,
    polys(),
    polys(),
    seeds,
    st.integers(0, 63),
    st.sets(lengths, max_size=5),
    block_elements,
)
def test_complex_routes_match_oracle(period, n_max, table, p_poly, q_poly, seed, j, more, block):
    j %= period
    f = PeriodicSignal.seeded_complex(period, seed)
    g = PeriodicSignal.seeded_complex(period, seed + 1)
    checkpoints = sorted({n_max, *more})
    ladder = LacunaryLadder.build(2.0, n_max)
    system = CyclicShift(period)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(folding, "_BLOCK_ELEMENTS", block)
        sums = np.concatenate(list(folding.orbit_sums(
            table, p_poly, q_poly, f.values, g.values, checkpoints
        )))
        direct = direct_average_all(table, p_poly, q_poly, f, g, n_max).values[j]
        average = bilinear_average(system, f, g, p_poly, q_poly, table, n_max, j)
        last, value = convergence_trace(system, f, g, p_poly, q_poly, table, ladder, j).final
    assert sums.dtype == np.complex128
    for n, row in zip(checkpoints, sums, strict=True):
        ref = naive_bilinear_average(table.values, p_poly, q_poly, f.values, g.values, period, n, j)
        assert close(row[j] / n, ref)
    ref = naive_bilinear_average(table.values, p_poly, q_poly, f.values, g.values, period, n_max, j)
    assert close(direct, ref)
    assert close(average, ref)
    ref_last = naive_bilinear_average(table.values, p_poly, q_poly, f.values, g.values, period, last, j)
    assert close(value, ref_last)


@SETTINGS
@given(periods, tables, polys(), polys(), seeds, st.sets(st.integers(1, N_CAP), min_size=1, max_size=6))
def test_pm1_running_sums_are_exact(period, table, p_poly, q_poly, seed, checkpoints):
    checkpoints = sorted(checkpoints)
    f = PeriodicSignal.seeded_pm1(period, seed).values.real.astype(np.int64)
    g = PeriodicSignal.seeded_pm1(period, seed + 1).values.real.astype(np.int64)
    blocks = list(folding.orbit_sums(
        table, p_poly, q_poly, f.astype(np.complex128), g.astype(np.complex128), checkpoints
    ))
    assert not any(block.flags.writeable for block in blocks)
    sums = np.concatenate(blocks)
    assert sums.dtype == np.int32

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
    assert np.array_equal(grid_scan(table, poly, q, n_max), expected)


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
    l_kernel = build_kernels(table, p_poly, q_poly, n_max, period)
    # L's marginals: its particles at P(r) = (u + v) mod J and at Q(r) = v
    sheared = (l_kernel.rows + l_kernel.cols) % period
    for positions, per_n_positions in ((sheared, a), (l_kernel.cols, b)):
        marginal, expected = np.zeros(period), np.zeros(period)
        np.add.at(marginal, positions, l_kernel.masses)
        np.add.at(expected, per_n_positions, w)
        assert np.max(np.abs(marginal - expected)) <= 1e-15
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
    # a window must start at n >= 1 and at or below its first length
    for start in (0, -3, 11, 20):
        with pytest.raises(ValueError):
            folding.class_masses(table, 8, [10, 20], start)


def per_n_masses(values, period, lengths, start=1):
    """(offsets, classes, masses) from one dict per segment, one n at a time;
    the first segment starts at n = start.

    A segment spanning at least the period lists its classes in increasing
    order (a folded segment, or one with at most one term), any other in
    the order of its n.
    """
    offsets, classes, masses = [0], [], []
    lo = start
    for hi in lengths:
        segment = {}
        for n in range(lo, hi + 1):
            if values[n]:
                segment[n % period] = segment.get(n % period, 0) + int(values[n])
        rows = [(r, m) for r, m in segment.items() if m]
        if hi - lo + 1 >= period:
            rows.sort()
        classes += [r for r, _ in rows]
        masses += [m for _, m in rows]
        offsets.append(len(classes))
        lo = hi + 1
    return [np.array(x, dtype=np.int64) for x in (offsets, classes, masses)]


# short spans (runs of unfolded segments) mixed with spans past small periods
spans = st.lists(st.one_of(st.integers(1, 4), st.integers(5, 150)), min_size=1, max_size=12)
mass_periods = st.one_of(st.integers(1, 8), st.just(64), st.just(N_CAP + 7))
mass_tables = st.sampled_from(["mobius", "liouville", "zero", "one term per segment"])
# blocks of the nonzero count that end inside and past the window
window_blocks = st.sampled_from([1, 2, 3, 5, 1 << 15])


def mass_table(kind, lengths):
    if kind == "zero":
        return zero_table(N_CAP)
    if kind == "one term per segment":
        values = np.zeros(N_CAP + 1, dtype=np.int8)
        values[lengths] = TABLES[WeightKind.LIOUVILLE].values[lengths]
        return WeightTable(None, N_CAP, values)
    return TABLES[WeightKind(kind)]


@SETTINGS
@given(mass_periods, spans, mass_tables, st.sampled_from(["array", "list", "tuple"]))
def test_class_masses_match_per_n_dict(period, steps, kind, form):
    lengths = [n for n in np.cumsum(steps).tolist() if n <= N_CAP] or [N_CAP]
    table = mass_table(kind, lengths)
    given_lengths = {"array": np.array(lengths), "list": lengths, "tuple": tuple(lengths)}[form]
    actual = folding.class_masses(table, period, given_lengths)
    for got, expected in zip(actual, per_n_masses(table.values, period, lengths)):
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


@SETTINGS
@given(mass_periods, spans, mass_tables, st.integers(1, N_CAP), window_blocks)
def test_class_masses_of_a_window_match_per_n_dict(period, steps, kind, start, block):
    # The segments of [start, hi] alone, with the nonzero terms counted in
    # blocks that start at the window: only n >= start may reach a class.
    lengths = [start - 1 + n for n in np.cumsum(steps).tolist() if start - 1 + n <= N_CAP] or [N_CAP]
    table = mass_table(kind, lengths)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(folding, "_BLOCK_ELEMENTS", block)
        actual = folding.class_masses(table, period, lengths, start)
    for got, expected in zip(actual, per_n_masses(table.values, period, lengths, start), strict=True):
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


def test_class_masses_memory_per_term():
    # every n <= 2^20 its own segment at period 4096: tracemalloc peak per n
    n_max = 1 << 20
    table = sieve(WeightKind.MOBIUS, n_max)
    lengths = np.arange(1, n_max + 1, dtype=np.int64)
    tracemalloc.start()
    try:
        folding.class_masses(table, 4096, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72 * n_max, peak / n_max


@pytest.mark.parametrize("period", [1, 2, 512, 4096])
def test_class_masses_returns_an_unfolded_run_without_copies(period, mobius_1m):
    # Global-mode lengths, every nonzero n <= 2^20: no segment folds, so
    # the entries are one run.  Its classes and masses are returned as
    # built and offsets is one cumsum in place: 7 int64 arrays of one
    # element per segment at the peak (56 B), plus a fixed 64 KiB for
    # Python objects.
    lengths = np.flatnonzero(mobius_1m.values[1:]) + 1
    tracemalloc.start()
    try:
        folding.class_masses(mobius_1m, period, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * lengths.size + (1 << 16), peak / lengths.size


@pytest.mark.parametrize("period", [1, 2])
def test_class_masses_wide_segments_add_little_memory(period, mobius_1m):
    # Global-mode lengths, every nonzero n <= 2^20: at J = 1 and 2 about
    # half the segments span two or more n (wide), at J = 4096 none does.
    # Counting the terms of the wide segments may add at most 4 B per wide
    # segment to the fold's peak: its scratch must be freed before the
    # per-segment arrays of the unfolded n are built.
    table = mobius_1m
    lengths = np.flatnonzero(table.values[1:]) + 1
    wide = np.count_nonzero(np.diff(lengths, prepend=0) >= 2)
    peaks = []
    for j in (period, 4096):
        tracemalloc.start()
        try:
            folding.class_masses(table, j, lengths)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] - peaks[1] < 4 * wide, (peaks[0] - peaks[1]) / wide


integer_tables = st.sampled_from([*(TABLES[kind] for kind in WeightKind), zero_table(N_CAP)])


@SETTINGS
@given(mass_periods, spans, integer_tables, st.sampled_from([1, 2, 3, 5]))
def test_class_masses_count_terms_in_blocks(period, steps, table, block):
    # The terms of each wide segment are counted in blocks of the table;
    # block edges anywhere must not change the counts or the fold.
    lengths = [n for n in np.cumsum(steps).tolist() if n <= N_CAP] or [N_CAP]
    ends = np.array([0, *lengths])
    terms = np.concatenate([[0], np.cumsum(table.values[1:] != 0)])[ends]
    expected = folding.class_masses(table, period, lengths)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(folding, "_BLOCK_ELEMENTS", block)
        assert np.array_equal(folding._nonzero_counts(table.values, ends), terms)
        actual = folding.class_masses(table, period, lengths)
    for got, want in zip(actual, expected):
        assert np.array_equal(got, want)


def integer_signal(kind, period, seed):
    """+-1 or small integer values, as complex128 like PeriodicSignal holds."""
    if kind == "pm1":
        return PeriodicSignal.seeded_pm1(period, seed).values
    values = np.random.default_rng(seed).integers(-3, 4, period)
    return values.astype(np.complex128)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@SETTINGS
@given(
    st.integers(1, 97),
    integer_tables,
    polys(max_degree=3),
    polys(max_degree=3),
    st.sampled_from(["pm1", "small"]),
    seeds,
    # short spans leave segments without terms, long ones fold past the period
    spans,
    block_elements,
)
def test_int32_path_matches_complex_path(period, table, p_poly, q_poly, kind, seed, steps, block):
    lengths = [n for n in np.cumsum(steps).tolist() if n <= N_CAP] or [N_CAP]
    phi = PeriodicSignal(period, integer_signal(kind, period, seed))
    psi = PeriodicSignal(period, integer_signal(kind, period, seed + 1))
    bands = tuple(lengths[::3]) if len(lengths) > 3 else (lengths[0], lengths[-1])
    ladder = LacunaryLadder(rho=2.0, limit=N_CAP, members=tuple(lengths), bands=bands)

    def run():
        blocks = list(folding.orbit_sums(table, p_poly, q_poly, phi.values, psi.values, lengths))
        return (
            np.concatenate(blocks).astype(np.complex128),
            global_maximal(phi, psi, p_poly, q_poly, table, lengths[-1]).values,
            list(band_peaks(phi, psi, p_poly, q_poly, table, ladder, ladder.band_count)),
            direct_average_all(table, p_poly, q_poly, phi, psi, lengths[-1]).values,
            blocks[0].dtype,
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(folding, "_BLOCK_ELEMENTS", block)
        exact = run()
        patch.setattr(folding, "_int32_signals", lambda f, g, n_end: None)  # complex128 path
        reference = run()
    assert exact[-1] == np.int32 and reference[-1] == np.complex128
    sums, maximal, peaks, direct, _ = exact
    assert same_bits(sums, reference[0])
    assert same_bits(maximal, reference[1])
    assert len(peaks) == len(reference[2])
    assert all(same_bits(a, b) for a, b in zip(peaks, reference[2]))
    assert same_bits(direct, reference[3])


@pytest.mark.parametrize(
    "f_value, g_value, dtype",
    [
        (2**20, 2**11, np.complex128),  # max|f| max|g| N = 2^31 at N = 1
        (2**31 - 1, 1, np.int32),
        (-(2**31 - 1), -1, np.int32),
        (0.5, 2, np.complex128),
        (1 + 1j, 1, np.complex128),
        (np.nan, 1, np.complex128),
        (np.inf, 0, np.complex128),  # inf * 0: a NaN sum, which numpy flags as invalid
    ],
)
def test_int32_path_needs_real_integers_below_2_31(f_value, g_value, dtype):
    table = TABLES[WeightKind.MOBIUS]  # mu(1) = 1
    f = np.full(3, f_value, dtype=np.complex128)
    g = np.full(3, g_value, dtype=np.complex128)
    invalid = "ignore" if np.isinf(f_value) and g_value == 0 else "warn"
    with np.errstate(invalid=invalid):
        (block,) = folding.orbit_sums(table, CLASSICAL_P, CLASSICAL_Q, f, g, [1])
    assert block.dtype == dtype
    if dtype == np.int32:
        assert np.array_equal(block, [[f_value * g_value] * 3])


def dilate(poly, d):
    """The polynomial m -> P(d^2 m)."""
    return IntPolynomial(tuple(c * d ** (2 * i) for i, c in enumerate(poly.coeffs)))


def test_liouville_orbit_sums_from_mobius(mobius_100k, liouville_100k):
    # lambda = mu * 1_squares, so S^lambda_N(j) = sum_{d <= sqrt N} S^mu_{N // d^2}(j),
    # the d-th sum along P(d^2 .) and Q(d^2 .); both sides are int32 sums.
    period, n_max = 64, 20_000
    p_poly, q_poly = IntPolynomial((0, 0, 1)), IntPolynomial((0, 1))
    f = PeriodicSignal.seeded_pm1(period, 901).values
    g = PeriodicSignal.seeded_pm1(period, 902).values

    def row(table, p, q, n):
        (block,) = folding.orbit_sums(table, p, q, f, g, [n])
        return block[0]

    expected = row(liouville_100k, p_poly, q_poly, n_max)
    total = sum(
        row(mobius_100k, dilate(p_poly, d), dilate(q_poly, d), n_max // (d * d))
        for d in range(1, math.isqrt(n_max) + 1)
    )
    assert expected.dtype == total.dtype == np.int32
    assert np.array_equal(total, expected)


def real_or_complex_signal(kind, period, seed):
    values = PeriodicSignal.seeded_complex(period, seed).values
    return {"float64": values.real, "complex128": values, "integer float64": np.round(3 * values.real)}[kind]


signal_dtypes = st.sampled_from(["float64", "complex128", "integer float64"])


@SETTINGS
@given(
    st.integers(1, 97),
    tables,
    polys(max_degree=3),
    polys(max_degree=3),
    signal_dtypes,
    signal_dtypes,
    seeds,
    # one-term segments, and a segment 2 < n <= 50 that folds below J = 48
    st.one_of(spans.map(lambda steps: [n for n in np.cumsum(steps).tolist() if n <= N_CAP] or [N_CAP]),
              st.just([2, 50])),
)
def test_real_and_complex_signals_mix(period, table, p_poly, q_poly, f_kind, g_kind, seed, lengths):
    f = real_or_complex_signal(f_kind, period, seed)
    g = real_or_complex_signal(g_kind, period, seed + 1)
    mixed = np.concatenate(list(folding.orbit_sums(table, p_poly, q_poly, f, g, lengths)))
    cast = [x.astype(np.complex128) for x in (f, g)]
    reference = np.concatenate(list(folding.orbit_sums(table, p_poly, q_poly, *cast, lengths)))
    assert same_bits(mixed, reference)


def test_global_maximal_holds_blocks_not_rows():
    # Every row at J = 512, N = 2^20 would be 0.64e6 x 512 int32 values,
    # 1.3 GB; a pass holds the fold (its O(N) arrays, about 49 B per n) and
    # one block of rows.  phi(0) = 0 keeps the signals on the int32 path
    # but never lets global_maximal stop at its bound, so this measures a
    # full blocked pass.
    n_max, period = 1 << 20, 512
    table = sieve(WeightKind.MOBIUS, n_max)
    phi = PeriodicSignal(period, np.where(np.arange(period) == 0, 0, rng.pm1(1, period)))
    psi = PeriodicSignal.seeded_pm1(period, 2)
    tracemalloc.start()
    try:
        global_maximal(phi, psi, CLASSICAL_P, CLASSICAL_Q, table, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n_max, peak / n_max
