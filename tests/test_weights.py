import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import rng, weights
from ergolab.weights import (
    DEFAULT_LIMIT_CAP,
    CapacityError,
    WeightKind,
    WeightTable,
    check_lambda_mu_identity,
    constant_table,
    partial_sum,
    partial_sum_profile,
    sieve,
    zeta_reciprocal_partial,
    zero_table,
)
from oracles import (
    liouville_scalar,
    mertens_recurrence,
    mobius_scalar,
    trial_division_tables,
)


def test_sieve_small_values():
    mob = sieve(WeightKind.MOBIUS, 30)
    lio = sieve(WeightKind.LIOUVILLE, 30)
    assert mob.values[1] == 1
    assert lio.values[1] == 1
    assert mob.values[12] == 0          # 12 = 2^2 * 3
    assert lio.values[8] == -1          # Omega(8) = 3
    assert mob.values[30] == -1         # three distinct primes


def test_sieve_limit_one():
    assert sieve(WeightKind.MOBIUS, 1).values[1] == 1
    assert sieve(WeightKind.LIOUVILLE, 1).values[1] == 1


def test_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        sieve(WeightKind.MOBIUS, 0)
    with pytest.raises(CapacityError):
        sieve(WeightKind.MOBIUS, DEFAULT_LIMIT_CAP + 1)


def test_sieve_matches_trial_division_to_10k():
    mob_oracle, lio_oracle = trial_division_tables(10_000)
    mob = sieve(WeightKind.MOBIUS, 10_000)
    lio = sieve(WeightKind.LIOUVILLE, 10_000)
    assert np.array_equal(mob.values[1:], mob_oracle[1:])
    assert np.array_equal(lio.values[1:], lio_oracle[1:])


PROPERTY_LIMIT = 200_000

# p**k for primes p and k >= 2, up to PROPERTY_LIMIT: the loop bound
# pk <= limit and the cofactor test change their answer at these limits.
PRIME_POWERS = sorted(
    p**k
    for p in range(2, math.isqrt(PROPERTY_LIMIT) + 1)
    if all(p % d for d in range(2, math.isqrt(p) + 1))
    for k in range(2, PROPERTY_LIMIT.bit_length())
    if p**k < PROPERTY_LIMIT
)
sieve_limits = st.one_of(
    st.integers(1, 64),
    st.builds(int.__add__, st.sampled_from(PRIME_POWERS), st.sampled_from((-1, 0, 1))),
)


@settings(max_examples=60, deadline=None)
@given(sieve_limits)
def test_sieve_matches_trial_division_at_prime_power_edges(limit):
    mob_oracle, lio_oracle = trial_division_tables(limit)
    assert np.array_equal(sieve(WeightKind.MOBIUS, limit).values[1:], mob_oracle[1:])
    assert np.array_equal(sieve(WeightKind.LIOUVILLE, limit).values[1:], lio_oracle[1:])


EDGE_POWERS = (4, 8, 9, 25, 27, 49, 1024, 3125)
EDGE_ORACLE = trial_division_tables(max(EDGE_POWERS) + 1)


@pytest.mark.parametrize("block", [1, 7, 64, 65537])
def test_sieve_blocks_match_trial_division_at_prime_power_edges(block, monkeypatch):
    # Blocks of 1 and 7 n put a block edge next to every prime power; 65537
    # holds every limit in one block.
    monkeypatch.setattr(weights, "_SIEVE_BLOCK", block)
    for limit in sorted({pk + step for pk in EDGE_POWERS for step in (-1, 0, 1)}):
        for kind, oracle in zip((WeightKind.MOBIUS, WeightKind.LIOUVILLE), EDGE_ORACLE):
            assert np.array_equal(sieve(kind, limit).values, oracle[: limit + 1]), (kind, limit)


@pytest.mark.parametrize("kind", list(WeightKind))
def test_sieve_scratch_is_one_block(kind):
    # Beside the int8 table, a sieve holds one block of scratch (about
    # 9 B per n), never an array per n of the whole range.
    limit = 1 << 22
    tracemalloc.start()
    try:
        sieve(kind, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - limit < 16 * weights._SIEVE_BLOCK, peak - limit


def test_sieve_matches_scalar_oracle_spot_checks():
    mob = sieve(WeightKind.MOBIUS, 50_000)
    lio = sieve(WeightKind.LIOUVILLE, 50_000)
    picks = rng.integers_mod(2024, 300, 50_000) + 1
    for n in picks:
        n = int(n)
        assert mob.values[n] == mobius_scalar(n)
        assert lio.values[n] == liouville_scalar(n)


def test_liouville_never_zero_mobius_squarefree_support(mobius_100k, liouville_100k):
    assert not np.any(liouville_100k.values[1:] == 0)
    assert np.max(np.abs(mobius_100k.values)) <= 1
    nz = mobius_100k.values[1:] != 0
    # On squarefree n the two weights agree.
    assert np.array_equal(
        mobius_100k.values[1:][nz], liouville_100k.values[1:][nz]
    )


def test_liouville_complete_multiplicativity(liouville_100k):
    vals = liouville_100k.values
    m_picks = rng.integers_mod(5, 200, 316) + 1
    n_picks = rng.integers_mod(6, 200, 316) + 1
    for m, n in zip(m_picks, n_picks):
        m, n = int(m), int(n)
        assert vals[m * n] == vals[m] * vals[n]


def test_partial_sum_small(mobius_100k):
    assert partial_sum(mobius_100k, 1) == 1
    assert partial_sum(mobius_100k, 2) == 0


def test_partial_sum_against_scalar_oracle(mobius_100k):
    expected = sum(mobius_scalar(n) for n in range(1, 10_001))
    assert partial_sum(mobius_100k, 10_000) == expected
    assert expected == -23


def test_partial_sum_against_recurrence_oracle(mobius_1m):
    assert partial_sum(mobius_1m, 10**6) == mertens_recurrence(10**6)
    assert partial_sum(mobius_1m, 10**6) == 212


def test_partial_sum_bounds(mobius_100k):
    with pytest.raises(ValueError):
        partial_sum(mobius_100k, 0)
    with pytest.raises(ValueError):
        partial_sum(mobius_100k, 100_001)


def test_lambda_mu_identity_small_and_bulk(mobius_100k, liouville_100k):
    assert check_lambda_mu_identity(mobius_100k, liouville_100k, 1).holds
    assert check_lambda_mu_identity(mobius_100k, liouville_100k, 4).holds
    result = check_lambda_mu_identity(mobius_100k, liouville_100k, 100_000)
    assert result.holds and result.first_counterexample is None


def test_lambda_mu_identity_reports_counterexample(mobius_100k):
    corrupted = np.array(mobius_100k.values[:101])
    corrupted[77] = -corrupted[77] if corrupted[77] else 1
    bad_lambda_source = sieve(WeightKind.LIOUVILLE, 100)
    bad = WeightTable.from_values(corrupted, kind=None)
    # Corrupt the mu side: convolution no longer reproduces lambda at 77.
    result = check_lambda_mu_identity(bad, bad_lambda_source, 100)
    assert not result.holds
    assert result.first_counterexample == 77


def test_zeta_reciprocal_trivial(mobius_100k):
    assert zeta_reciprocal_partial(mobius_100k, 2.0, 1) == 1.0


def test_zeta_reciprocal_s2(mobius_1m):
    target = 6.0 / math.pi**2
    value = zeta_reciprocal_partial(mobius_1m, 2.0, 10**6)
    assert abs(value - target) < 2e-6


def test_zeta_reciprocal_s4(mobius_100k):
    target = 90.0 / math.pi**4
    value = zeta_reciprocal_partial(mobius_100k, 4.0, 10**4)
    assert abs(value - target) < 1e-8


def test_zeta_reciprocal_domain(mobius_100k):
    with pytest.raises(ValueError):
        zeta_reciprocal_partial(mobius_100k, 1.0, 100)


def test_partial_sum_profile_reported(mobius_1m):
    profile = partial_sum_profile(mobius_1m, [10**3, 10**4, 10**5, 10**6])
    assert profile.sums == (2, -23, -48, 212)
    assert math.isfinite(profile.max_exponent_ratio)
    # The linear profile trends down even though it is not monotone.
    assert profile.linear_ratios[-1] < profile.linear_ratios[0]


def test_custom_tables():
    ones = constant_table(50)
    zeros = zero_table(50)
    assert partial_sum(ones, 50) == 50
    assert partial_sum(zeros, 50) == 0
    with pytest.raises(ValueError):
        WeightTable.from_values(np.array([0, 2, 1], dtype=np.int64))


def test_values_are_immutable(mobius_100k):
    with pytest.raises(ValueError):
        mobius_100k.values[5] = 1
