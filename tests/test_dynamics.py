import numpy as np
import pytest

from ergolab import rng
from ergolab.dynamics import (
    AverageTrace,
    CyclicShift,
    RationalRotation,
    TrigPolynomial,
    bilinear_average,
    convergence_trace,
    multilinear_average,
)
from ergolab.maximal import LacunaryLadder
from ergolab.polynomials import IntPolynomial
from ergolab.spectral import PeriodicSignal, d_coefficients, dft, spectral_average_all
from ergolab.weights import constant_table, partial_sum, sieve, zero_table
from oracles import naive_bilinear_average

LINEAR = IntPolynomial((0, 1))
SQUARE = IntPolynomial((0, 0, 1))


def test_unweighted_constant_average_is_one():
    table = constant_table(5000)
    system = CyclicShift(32)
    ones = PeriodicSignal.constant(32)
    for n in (1, 100, 5000):
        value = bilinear_average(system, ones, ones, SQUARE, LINEAR, table, n, 7)
        assert value == pytest.approx(1.0, abs=1e-15)


def test_constant_observables_reduce_to_partial_sum(mobius_100k):
    system = CyclicShift(64)
    ones = PeriodicSignal.constant(64)
    n = 4321
    value = bilinear_average(system, ones, ones, SQUARE, LINEAR, mobius_100k, n, 0)
    assert value == pytest.approx(partial_sum(mobius_100k, n) / n, abs=1e-14)


def test_cyclic_average_equals_direct_average_bitwise(mobius_100k):
    j = 128
    f = PeriodicSignal.seeded_pm1(j, 301)
    g = PeriodicSignal.seeded_pm1(j, 302)
    system = CyclicShift(j)
    for x in (0, 17, 127):
        ours = bilinear_average(system, f, g, SQUARE, LINEAR, mobius_100k, 10_000, x)
        loop = naive_bilinear_average(
            mobius_100k.values, SQUARE, LINEAR, f.values, g.values, j, 10_000, x
        )
        assert ours == loop  # +-1 signals: both sums are exact integers over N


def test_cyclic_average_matches_spectral_oracle(mobius_100k):
    j = 128
    f = PeriodicSignal.seeded_pm1(j, 311)
    g = PeriodicSignal.seeded_pm1(j, 312)
    coeffs = d_coefficients(mobius_100k, SQUARE, LINEAR, 10_000, j)
    x = 41
    ours = bilinear_average(CyclicShift(j), f, g, SQUARE, LINEAR, mobius_100k, 10_000, x)
    oracle = spectral_average_all(dft(f), dft(g), coeffs).values[x]
    assert abs(ours - oracle) < 1e-9


def test_rotation_average_matches_cmath_loop(liouville_100k):
    import cmath

    rot = RationalRotation(3, 257)
    f = TrigPolynomial(modes=(1, -2), coeffs=(1.0, 0.5j))
    g = TrigPolynomial(modes=(4,), coeffs=(1.0,))
    n, x = 500, 11
    value = bilinear_average(rot, f, g, SQUARE, LINEAR, liouville_100k, n, x)
    total = 0j
    for k in range(1, n + 1):
        pos_f = (x + (k * k % 257) * 3) % 257
        pos_g = (x + (k % 257) * 3) % 257
        fv = cmath.exp(2j * cmath.pi * pos_f / 257) + 0.5j * cmath.exp(-4j * cmath.pi * pos_f / 257)
        gv = cmath.exp(8j * cmath.pi * pos_g / 257)
        total += int(liouville_100k.values[k]) * fv * gv
    assert abs(value - total / n) < 1e-11


def test_rotation_by_one_over_j_is_the_cyclic_shift(mobius_100k):
    # One orbit rule: RationalRotation(1, J) and CyclicShift(J) both add 1
    # mod J, so a trigonometric polynomial and its samples at the J points
    # a/J give the same terms, gathered in the same order.
    j = 97
    f = TrigPolynomial(modes=(1, -3), coeffs=(1.0, 0.25 - 0.5j))
    g = TrigPolynomial(modes=(2, 5), coeffs=(0.5j, 1.0))
    points = np.arange(j)
    f_cyc = PeriodicSignal(j, f.at_points(points, j))
    g_cyc = PeriodicSignal(j, g.at_points(points, j))
    rot, cyc = RationalRotation(1, j), CyclicShift(j)
    for n, x in ((1, 0), (500, 13), (10_000, 96)):
        assert bilinear_average(rot, f, g, SQUARE, LINEAR, mobius_100k, n, x) == bilinear_average(
            cyc, f_cyc, g_cyc, SQUARE, LINEAR, mobius_100k, n, x
        )
    ladder = LacunaryLadder.build(1.5, 50_000)
    for x in (0, 41):
        rot_trace = convergence_trace(rot, f, g, SQUARE, LINEAR, mobius_100k, ladder, x)
        cyc_trace = convergence_trace(cyc, f_cyc, g_cyc, SQUARE, LINEAR, mobius_100k, ladder, x)
        assert rot_trace.lengths == cyc_trace.lengths
        assert np.array_equal(rot_trace.values, cyc_trace.values)


def test_rotation_requires_coprime_frequency():
    with pytest.raises(ValueError):
        RationalRotation(4, 12)


def test_invalid_states_rejected(mobius_100k):
    ones = PeriodicSignal.constant(8)
    with pytest.raises(ValueError):
        bilinear_average(CyclicShift(8), ones, ones, SQUARE, LINEAR, mobius_100k, 10, 8)
    with pytest.raises(ValueError):
        bilinear_average(CyclicShift(8), ones, ones, SQUARE, LINEAR, mobius_100k, 10, -1)


def test_multilinear_k1_constant():
    table = constant_table(1000)
    ones = PeriodicSignal.constant(16)
    value = multilinear_average(CyclicShift(16), [ones], [LINEAR], table, 1000, 3)
    assert value == pytest.approx(1.0, abs=1e-15)


def test_multilinear_k2_agrees_with_bilinear_exactly(mobius_100k):
    j = 64
    system = CyclicShift(j)
    for trial in range(100):
        f = PeriodicSignal.seeded_complex(j, rng.derive_seed(400, 2 * trial))
        g = PeriodicSignal.seeded_complex(j, rng.derive_seed(400, 2 * trial + 1))
        n = 100 + 37 * trial
        x = trial % j
        two = bilinear_average(system, f, g, SQUARE, LINEAR, mobius_100k, n, x)
        multi = multilinear_average(system, [f, g], [SQUARE, LINEAR], mobius_100k, n, x)
        assert two == multi


def test_multilinear_k3_zero_weights():
    table = zero_table(1000)
    j = 16
    obs = [PeriodicSignal.seeded_pm1(j, s) for s in (1, 2, 3)]
    value = multilinear_average(
        CyclicShift(j), obs, [LINEAR, SQUARE, LINEAR], table, 1000, 0
    )
    assert value == 0.0


def test_trace_zero_weights_all_zero():
    table = zero_table(4096)
    j = 16
    f = PeriodicSignal.seeded_pm1(j, 21)
    ladder = LacunaryLadder.build(2.0, table.limit)
    trace = convergence_trace(CyclicShift(j), f, f, SQUARE, LINEAR, table, ladder, 3)
    assert all(v == 0 for v in trace.values)


def test_trace_matches_from_scratch_recomputation(mobius_100k):
    j = 97
    f = PeriodicSignal.seeded_pm1(j, 31)
    g = PeriodicSignal.seeded_pm1(j, 32)
    system = CyclicShift(j)
    ladder = LacunaryLadder.build(2.0, 50_000)
    trace = convergence_trace(system, f, g, SQUARE, LINEAR, mobius_100k, ladder, 10)
    for n_value, value in zip(trace.lengths, trace.values):
        scratch = bilinear_average(system, f, g, SQUARE, LINEAR, mobius_100k, n_value, 10)
        assert abs(value - scratch) < 1e-12


def test_trace_decays_on_cyclic_shift(mobius_1m):
    j = 97
    f = PeriodicSignal.seeded_pm1(j, 41)
    g = PeriodicSignal.seeded_pm1(j, 42)
    ladder = LacunaryLadder.build(2.0, 10**6)
    trace = convergence_trace(CyclicShift(j), f, g, SQUARE, LINEAR, mobius_1m, ladder, 0)
    assert abs(trace.values[-1]) < abs(trace.values[0])
    # |A_1| = |nu(1) f(x + P(1)) g(x + Q(1))| = 1 for pm1 observables.
    assert abs(trace.values[0]) == pytest.approx(1.0, abs=1e-15)


def test_trace_bounded_by_sup_norms(liouville_100k):
    j = 31
    f = PeriodicSignal.seeded_complex(j, 51)
    g = PeriodicSignal.seeded_complex(j, 52)
    ladder = LacunaryLadder.build(1.5, 10_000)
    trace = convergence_trace(CyclicShift(j), f, g, SQUARE, LINEAR, liouville_100k, ladder, 7)
    bound = f.norm(np.inf) * g.norm(np.inf)
    assert all(abs(v) <= bound + 1e-12 for v in trace.values)


def test_trace_rejects_a_ladder_past_the_table(mobius_100k):
    f = PeriodicSignal.constant(8)
    ladder = LacunaryLadder.build(2.0, 2 * mobius_100k.limit)
    assert ladder.members[-1] > mobius_100k.limit
    with pytest.raises(ValueError, match="outside table range"):
        convergence_trace(CyclicShift(8), f, f, SQUARE, LINEAR, mobius_100k, ladder, 0)


def test_trace_values_are_a_read_only_complex_array(mobius_100k):
    f = PeriodicSignal.seeded_pm1(16, 61)
    ladder = LacunaryLadder.build(2.0, 4096)
    trace = convergence_trace(CyclicShift(16), f, f, SQUARE, LINEAR, mobius_100k, ladder, 5)
    assert trace.values.dtype == np.complex128
    assert trace.values.shape == (len(trace.lengths),)
    with pytest.raises(ValueError):
        trace.values[0] = 0


def test_trace_first_at_least():
    trace = AverageTrace(0, (1, 2, 64, 128), (1j, 0.5, 0.25, 0.1))
    assert trace.first_at_least(64) == (64, 0.25)
    assert trace.final == (128, 0.1)
    with pytest.raises(ValueError):
        trace.first_at_least(1000)
