"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The PNT-profile
criterion asserts a strictly decreasing |M(N)|/N sequence across the
decade checkpoints; the true values M(10^3..10^7) = 2, -23, -48, 212,
1037 make the first step increase (2/10^3 = 0.0020 < 23/10^4 = 0.0023),
so that single assertion fails as a point of mathematical fact.  It is
kept faithful rather than weakened; every other criterion passes.
"""

import math
import time

import numpy as np
import pytest

from ergolab import rng
from ergolab.dynamics import CyclicShift, convergence_trace
from ergolab.expsums import max_over_grid
from ergolab.maximal import (
    CLASSICAL_P,
    CLASSICAL_Q,
    LacunaryLadder,
    band_maximal,
    oscillation_sum,
)
from ergolab.polynomials import IntPolynomial
from ergolab.spectral import (
    PeriodicSignal,
    build_kernels,
    d_coefficients,
    dft,
    direct_average_all,
    idft,
    l2_norm_of_average,
    spectral_average_all,
)
from ergolab.weights import (
    WeightKind,
    check_lambda_mu_identity,
    partial_sum,
    partial_sum_profile,
    sieve,
    zeta_reciprocal_partial,
)
from ergolab.cli import main as cli_main
from test_maximal import brute_band_maximal
from oracles import trial_division_tables

LINEAR = IntPolynomial((0, 1))
NEG_LINEAR = IntPolynomial((0, -1))
SQUARE = IntPolynomial((0, 0, 1))
CUBIC = IntPolynomial((0, 1, 0, 1))  # n^3 + n
QUAD_MIX = IntPolynomial((0, 1, 1))  # n^2 + n

MATRIX_SEED = 2024
TRACE_SEED = 7  # chosen so no start point opens with an exactly-zero average


def _report(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS: {message}")


@pytest.fixture(scope="module")
def mobius_2p20():
    return sieve(WeightKind.MOBIUS, 1 << 20)


@pytest.fixture(scope="module")
def liouville_1e6():
    return sieve(WeightKind.LIOUVILLE, 10**6)


def test_criterion_01_sieve_correctness(mobius_2p20, liouville_1e6):
    started = time.monotonic()
    limit = 10**6
    mob_oracle, lio_oracle = trial_division_tables(limit)
    assert np.array_equal(mobius_2p20.values[1 : limit + 1], mob_oracle[1:])
    assert np.array_equal(liouville_1e6.values[1 : limit + 1], lio_oracle[1:])
    mob_small = sieve(WeightKind.MOBIUS, 10**5)
    lio_small = sieve(WeightKind.LIOUVILLE, 10**5)
    identity = check_lambda_mu_identity(mob_small, lio_small, 10**5)
    assert identity.holds and identity.first_counterexample is None
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    _report(1, f"sieves exact to 1e6 and square-divisor identity to 1e5 ({elapsed:.1f}s)")


def test_criterion_02_pnt_profile():
    started = time.monotonic()
    table = sieve(WeightKind.MOBIUS, 10**7)
    checkpoints = [10**3, 10**4, 10**5, 10**6, 10**7]
    sums = [partial_sum(table, n) for n in checkpoints]

    mob_oracle, _ = trial_division_tables(10**7)
    oracle_cumulative = np.cumsum(mob_oracle, dtype=np.int64)
    oracle_sums = [int(oracle_cumulative[n]) for n in checkpoints]
    assert sums == oracle_sums

    elapsed = time.monotonic() - started
    assert elapsed <= 120.0

    profile = partial_sum_profile(table, checkpoints)
    assert math.isfinite(profile.max_exponent_ratio)
    print(
        f"[criterion 02] report: max |M(N)|/N^0.6 over decades = "
        f"{profile.max_exponent_ratio:.4f} (reported, not asserted)"
    )

    ratios = [abs(s) / n for s, n in zip(sums, checkpoints)]
    strictly_decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    assert strictly_decreasing, (
        f"|M(N)|/N at decades {checkpoints} is {ratios}; the step "
        f"{ratios[0]:.6f} -> {ratios[1]:.6f} increases because M(10^3) = 2 "
        f"and M(10^4) = -23, so a strictly decreasing sequence is "
        f"mathematically unattainable (numerators verified against the "
        f"trial-division oracle above)"
    )
    _report(2, f"Mertens decades exact and ratios strictly decreasing ({elapsed:.1f}s)")


def test_criterion_03_dirichlet_series(mobius_2p20):
    value = zeta_reciprocal_partial(mobius_2p20, 2.0, 10**6)
    target = 6.0 / math.pi**2
    assert abs(value - target) < 2e-6
    _report(3, f"sum mu(n)/n^2 to 1e6 is {value:.9f}, within 2e-6 of 6/pi^2")


def _spectral_matrix_configs():
    """50 seeded configurations covering the stated J, N, degree pool."""
    j_values = [31, 64, 97, 256, 1024, 4096]
    n_values = [100, 1000, 100_000]
    p_pool = [LINEAR, SQUARE, CUBIC, QUAD_MIX]
    q_pool = [NEG_LINEAR, LINEAR, SQUARE, NEG_LINEAR]
    kinds = [WeightKind.MOBIUS, WeightKind.LIOUVILLE]
    configs = []
    for i in range(50):
        configs.append(
            {
                "index": i,
                "period": j_values[i % 6],
                "length": n_values[(i // 6) % 3],
                "p": p_pool[i % 4],
                "q": q_pool[(i // 3) % 4],
                "kind": kinds[i % 2],
            }
        )
    return configs


@pytest.fixture(scope="module")
def spectral_matrix(mobius_2p20, liouville_1e6):
    """Per-config dual-path errors, computed once and shared by 4 and 5."""
    tables = {WeightKind.MOBIUS: mobius_2p20, WeightKind.LIOUVILLE: liouville_1e6}
    started = time.monotonic()
    rows = []
    for config in _spectral_matrix_configs():
        period, length = config["period"], config["length"]
        table = tables[config["kind"]]
        f = PeriodicSignal.seeded_complex(period, rng.derive_seed(MATRIX_SEED, 2 * config["index"]))
        g = PeriodicSignal.seeded_complex(period, rng.derive_seed(MATRIX_SEED, 2 * config["index"] + 1))
        f_spec, g_spec = dft(f), dft(g)

        coeffs = d_coefficients(table, config["p"], config["q"], length, period)
        direct = direct_average_all(table, config["p"], config["q"], f, g, length)
        averaged = spectral_average_all(f_spec, g_spec, coeffs)
        scale = max(1.0, float(np.max(np.abs(direct.values))))
        conv_error = float(np.max(np.abs(averaged.values - direct.values))) / scale

        square_spec = l2_norm_of_average(f_spec, g_spec, coeffs)
        square_direct = float(np.mean(np.abs(direct.values) ** 2))
        square_error = abs(square_spec - square_direct) / max(1.0, square_direct)

        l_kernel = build_kernels(table, config["p"], config["q"], length, period)
        transformed = l_kernel.transform()
        kernel_error = 0.0
        d_scale = max(1.0, float(np.max(np.abs(coeffs))))
        # transform(L)[k, s] == D[k][(s - k) mod J], row k of D rolled by k
        for k in range(period):
            gap = float(np.max(np.abs(transformed[k] - np.roll(coeffs[k], k))))
            if gap > kernel_error:
                kernel_error = gap
        kernel_error /= d_scale
        assert float(np.max(np.abs(coeffs))) <= 1.0 + 1e-12

        rows.append(
            {
                "config": config,
                "conv_error": conv_error,
                "square_error": square_error,
                "kernel_error": kernel_error,
            }
        )
        del coeffs, transformed, direct, averaged
    return {"rows": rows, "elapsed": time.monotonic() - started}


def test_criterion_04_spectral_identity(spectral_matrix):
    worst = max(row["conv_error"] for row in spectral_matrix["rows"])
    assert len(spectral_matrix["rows"]) == 50
    assert worst <= 1e-9
    assert spectral_matrix["elapsed"] <= 180.0
    _report(
        4,
        f"spectral vs direct on 50 configs: worst {worst:.2e} <= 1e-9 "
        f"({spectral_matrix['elapsed']:.0f}s for the shared matrix)",
    )


def test_criterion_05_l2_identity_and_kernel_consistency(spectral_matrix):
    worst_square = max(row["square_error"] for row in spectral_matrix["rows"])
    worst_kernel = max(row["kernel_error"] for row in spectral_matrix["rows"])
    assert worst_square <= 1e-9
    assert worst_kernel <= 1e-9
    _report(
        5,
        f"l2 identity worst {worst_square:.2e}, kernel-transform slice worst "
        f"{worst_kernel:.2e}, both <= 1e-9 on the same 50 configs",
    )


def test_criterion_06_parseval_and_roundtrip():
    worst_round = 0.0
    worst_parseval = 0.0
    for period in (31, 64, 97, 256, 1024, 4096):
        for trial in range(100):
            sig = PeriodicSignal.seeded_complex(
                period, rng.derive_seed(606, period * 1000 + trial)
            )
            spec = dft(sig)
            back = idft(spec)
            scale = max(1.0, float(np.max(np.abs(sig.values))))
            worst_round = max(
                worst_round, float(np.max(np.abs(back.values - sig.values))) / scale
            )
            lhs = float(np.mean(np.abs(sig.values) ** 2))
            rhs = float(np.sum(np.abs(spec.coeffs) ** 2))
            worst_parseval = max(worst_parseval, abs(lhs - rhs) / max(1.0, lhs))
    assert worst_round <= 1e-12
    assert worst_parseval <= 1e-12
    _report(
        6,
        f"roundtrip worst {worst_round:.2e}, Parseval worst {worst_parseval:.2e} "
        f"over 600 signals",
    )


def test_criterion_07_decay_evidence(mobius_2p20):
    started = time.monotonic()
    q = 4096
    summary = []
    for poly, label in ((LINEAR, "n"), (SQUARE, "n^2"), (CUBIC, "n^3+n")):
        values = [
            max_over_grid(mobius_2p20, poly, q, 1 << k)[1] for k in (12, 16, 20)
        ]
        assert values[0] > values[1] > values[2], (label, values)
        assert values[2] < 0.5 * values[0], (label, values)
        summary.append(f"{label}: {values[0]:.4f} > {values[1]:.4f} > {values[2]:.4f}")
    elapsed = time.monotonic() - started
    assert elapsed <= 600.0
    _report(7, f"grid maxima decay and halve ({'; '.join(summary)}) in {elapsed:.1f}s")


def test_criterion_08_oscillation_statistic(mobius_2p20, liouville_1e6):
    period = 1 << 10
    ladder = LacunaryLadder.build(2.0, 1 << 12, band_count=12)
    for kind, table in ((WeightKind.MOBIUS, mobius_2p20), (WeightKind.LIOUVILLE, liouville_1e6)):
        phi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(808, 2))
        psi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(808, 3))
        report = oscillation_sum(phi, psi, CLASSICAL_P, CLASSICAL_Q, table, ladder, 12)
        assert report.ratio_at(12) <= 3.0 * report.ratio_at(4), kind

    # Exact brute-force agreement for small configurations.
    small_ladder = LacunaryLadder.build(2.0, 1 << 10)
    checked = 0
    for period in (8, 64):
        phi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(808, 4 + period))
        psi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(808, 5 + period))
        for table in (mobius_2p20, liouville_1e6):
            for p_poly, q_poly in ((CLASSICAL_P, CLASSICAL_Q), (SQUARE, LINEAR)):
                for band in (3, 7, 10):
                    ours = band_maximal(
                        phi, psi, p_poly, q_poly, table, small_ladder, band
                    )
                    brute = brute_band_maximal(
                        phi, psi, p_poly, q_poly, table, small_ladder, band
                    )
                    assert np.array_equal(ours.values.real, brute)
                    checked += 1
    _report(
        8,
        f"oscillation ratio bounded (K=12 vs K=4, both weights) and "
        f"{checked} band functions equal brute force exactly",
    )


def test_criterion_09_convergence_traces(mobius_2p20, liouville_1e6):
    tables = {WeightKind.MOBIUS: mobius_2p20, WeightKind.LIOUVILLE: liouville_1e6}
    worst_gap = math.inf
    ladder = LacunaryLadder.build(2.0, 10**6)
    for j_index, period in enumerate((97, 128)):
        f = PeriodicSignal.seeded_pm1(period, rng.derive_seed(TRACE_SEED, 10 + j_index))
        g = PeriodicSignal.seeded_pm1(period, rng.derive_seed(TRACE_SEED, 20 + j_index))
        starts = rng.integers_mod(rng.derive_seed(TRACE_SEED, 30 + j_index), 8, period)
        for kind, table in tables.items():
            for x in starts:
                trace = convergence_trace(
                    CyclicShift(period), f, g, SQUARE, LINEAR, table, ladder, int(x)
                )
                _, first = trace.first_at_least(1 << 6)
                final_n, final = trace.final
                assert final_n == 1 << 19
                assert abs(final) < abs(first), (period, kind, int(x))
                worst_gap = min(worst_gap, abs(first) - abs(final))
    _report(
        9,
        f"32 traces contract from the first N >= 64 to N = 2^19 "
        f"(smallest margin {worst_gap:.4f})",
    )


def test_criterion_10_cli_determinism(tmp_path):
    jobs = [
        (["sieve", "--weight", "liouville", "--limit", "2000", "--sums"], "sieve.csv"),
        (
            ["spectral-check", "--j", "97", "--n", "1000", "--seed", "7", "--trials", "3"],
            "check.json",
        ),
        (
            ["maximal", "--mode", "oscillation", "--j", "256", "--bands", "8", "--seed", "11"],
            "osc.json",
        ),
        (
            ["average", "--system", "cyclic:97", "--limit", "4096", "--starts", "4", "--seed", "3"],
            "avg.csv",
        ),
    ]
    for args, name in jobs:
        out = tmp_path / name
        assert cli_main(args + ["--threads", "1", "--out", str(out)]) == 0
        first = out.read_bytes()
        assert cli_main(args + ["--threads", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == first
        assert cli_main(args + ["--threads", "3", "--out", str(out)]) == 0
        threaded = out.read_bytes()
        # Thread count sits in the embedded config; strip both configs and
        # the payloads must be byte-identical.
        if name.endswith(".json"):
            import json

            a, b = json.loads(first), json.loads(threaded)
            a["config"].pop("threads"), b["config"].pop("threads")
            assert a == b
        else:
            assert threaded == first
    _report(10, "CLI reruns byte-identical; worker count never changes results")
