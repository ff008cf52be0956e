"""Sieved multiplicative weights and their partial-sum diagnostics.

Values nu(n) live in {-1, 0, +1}:

    liouville(n) = (-1)**Omega(n), Omega counting prime factors with
    multiplicity; mobius(n) agrees with liouville(n) on squarefree n and
    vanishes when a squared prime divides n; both equal +1 at n = 1.

Tables are sieved in blocks of _SIEVE_BLOCK n from the primes up to
sqrt(limit) (see sieve) and are immutable afterwards, so concurrent
readers need no locking.  Partial sums are exact 64-bit integers.
"""

from __future__ import annotations

import enum
import math
import numpy as np

from .limits import DEFAULT_LIMIT_CAP, CapacityError, check_capacity


class WeightKind(enum.Enum):
    MOBIUS = "mobius"
    LIOUVILLE = "liouville"


class WeightTable:
    """Sieved weight values for n = 1..limit.

    Attributes:
        kind: which arithmetic function the table holds; None for custom
            tables built through ``from_values`` (test controls etc.).
        limit: largest sieved argument.
        values: int8 array of length limit+1; index 0 is an unused sentinel.
    """

    __slots__ = ("kind", "limit", "values", "_cumulative")

    def __init__(self, kind: WeightKind | None, limit: int, values: np.ndarray):
        self.kind, self.limit, self.values = kind, limit, values
        self._cumulative: np.ndarray | None = None

    @classmethod
    def from_values(cls, values: np.ndarray, kind: WeightKind | None = None) -> "WeightTable":
        arr = np.asarray(values, dtype=np.int8)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("values must be a 1-d array with at least indexes 0 and 1")
        if arr.min() < -1 or arr.max() > 1:
            raise ValueError("weight values must lie in {-1, 0, +1}")
        arr = arr.copy()
        arr[0] = 0
        arr.setflags(write=False)
        return cls(kind=kind, limit=arr.size - 1, values=arr)

    def cumulative(self) -> np.ndarray:
        """Exact running sums sum_{n<=N} nu(n) as int64, cached."""
        if self._cumulative is None:
            self._cumulative = self.values.astype(np.int64)  # in place: no int64 cast copy
            np.cumsum(self._cumulative, out=self._cumulative)
            self._cumulative.setflags(write=False)
        return self._cumulative


# n per block of sieve.  A block's scratch, about 9 B per n, stays near
# the size of a core's L2 cache: 2^18 and 2^19 were fastest on a 2-core
# machine, 2^16 and 2^20 slower.
_SIEVE_BLOCK = 1 << 18


def sieve(kind: WeightKind, limit: int) -> WeightTable:
    """Sieve mobius or liouville values for all n <= limit.

    The primes up to sqrt(limit) come from one small sieve; the table is
    then sieved in blocks of _SIEVE_BLOCK n, so beside the int8 table the
    scratch is O(block).  In a block each prime p flips the sign of its
    multiples and multiplies p into their product of small prime factors;
    liouville repeats both at every power p**k <= limit, while mobius
    zeroes the multiples of p**2.  An n <= limit has at most one prime
    factor above sqrt(limit), present on a nonzero n exactly when that
    product ends below n, and a last flip counts it.  Python loops run
    once per prime power and block; O(limit log log limit) element updates.

    Raises:
        ValueError: limit < 1.
        CapacityError: limit above DEFAULT_LIMIT_CAP, before any allocation.
    """
    if limit < 1:
        raise ValueError("sieve limit must be at least 1")
    check_capacity(limit)

    # (p, p**k): flip the multiples of p**k and multiply p into them.
    # mobius takes k = 1 only and zeroes the multiples of each p**2.
    steps, squares = [], []
    for p in _primes_upto(math.isqrt(limit)):
        if kind is WeightKind.MOBIUS:
            steps.append((p, p))
            squares.append(p * p)
            continue
        pk = p
        while pk <= limit:
            steps.append((p, pk))
            pk *= p
    values = np.empty(limit + 1, dtype=np.int8)
    values[0] = 0
    for lo in range(1, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        block = values[lo:hi]
        block[:] = 1
        product = np.ones(hi - lo, dtype=np.uint32)  # of small prime factors, <= n < 2^32
        for p, pk in steps:
            first = -lo % pk  # index of the first multiple of pk in the block
            signs, factors = block[first::pk], product[first::pk]
            np.negative(signs, out=signs)
            factors *= p
        for square in squares:
            block[-lo % square :: square] = 0
        # The last flip, block *= 1 - 2 [product < n], in int8 arithmetic.
        flip = (product < np.arange(lo, hi, dtype=np.uint32)).view(np.int8)
        flip *= -2
        flip += 1
        block *= flip
    values.setflags(write=False)
    return WeightTable(kind=kind, limit=limit, values=values)


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, from a sieve of Eratosthenes over n + 1 flags."""
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    return np.flatnonzero(prime).tolist()


def constant_table(limit: int, value: int = 1) -> WeightTable:
    """All-constant table (control experiments); value in {-1, 0, +1}."""
    return WeightTable.from_values(np.full(limit + 1, value, dtype=np.int8))


def zero_table(limit: int) -> WeightTable:
    return constant_table(limit, 0)


def partial_sum(table: WeightTable, n: int) -> int:
    """sum_{m<=n} nu(m), exact."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range [1, {table.limit}]")
    return int(table.cumulative()[n])


class IdentityCheck:
    __slots__ = ("holds", "first_counterexample")

    def __init__(self, holds: bool, first_counterexample: int | None):
        self.holds, self.first_counterexample = holds, first_counterexample


def check_lambda_mu_identity(
    mu_table: WeightTable, lambda_table: WeightTable, n: int
) -> IdentityCheck:
    """Verify liouville(m) == sum over d*d | m of mobius(m / d^2) for m <= n.

    The convolution side is accumulated by a direct double loop over the
    square divisors d*d, vectorized per d.
    """
    if n < 1 or n > mu_table.limit or n > lambda_table.limit:
        raise ValueError("n outside the range of the supplied tables")
    conv = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, math.isqrt(n) + 1):
        step = d * d
        count = n // step
        conv[step :: step][:count] += mu_table.values[1 : count + 1]
    mismatch = np.nonzero(conv[1:] != lambda_table.values[1 : n + 1])[0]
    if mismatch.size:
        return IdentityCheck(False, int(mismatch[0]) + 1)
    return IdentityCheck(True, None)


def zeta_reciprocal_partial(mu_table: WeightTable, s: float, n: int) -> float:
    """Partial Dirichlet series sum_{m<=n} mobius(m) / m**s, real s > 1.

    Converges to the reciprocal of zeta(s); the crude tail bound is
    sum_{m>n} m**-s < n**(1-s)/(s-1).
    """
    if not s > 1:
        raise ValueError("s must exceed 1 for the series to converge")
    if not 1 <= n <= mu_table.limit:
        raise ValueError(f"n={n} outside table range [1, {mu_table.limit}]")
    powers = np.arange(1, n + 1, dtype=np.float64) ** (-s)
    return float(np.sum(mu_table.values[1 : n + 1] * powers))


class PartialSumProfile:
    """|partial_sum(N)| against N and against N**exponent at checkpoints."""

    __slots__ = ("checkpoints", "sums", "linear_ratios", "exponent", "exponent_ratios")

    def __init__(
        self,
        checkpoints: tuple[int, ...],
        sums: tuple[int, ...],
        linear_ratios: tuple[float, ...],
        exponent: float,
        exponent_ratios: tuple[float, ...],
    ):
        self.checkpoints, self.sums, self.linear_ratios = checkpoints, sums, linear_ratios
        self.exponent, self.exponent_ratios = exponent, exponent_ratios

    @property
    def max_exponent_ratio(self) -> float:
        return max(self.exponent_ratios)


def partial_sum_profile(
    table: WeightTable, checkpoints: list[int], exponent: float = 0.6
) -> PartialSumProfile:
    """Report |sum_{n<=N} nu(n)| / N and / N**exponent at the checkpoints.

    Reported, not asserted: the exponent profile is an empirical stand-in
    for square-root-cancellation behaviour of the partial sums.
    """
    sums = [partial_sum(table, n) for n in checkpoints]
    return PartialSumProfile(
        checkpoints=tuple(checkpoints),
        sums=tuple(sums),
        linear_ratios=tuple(abs(s) / n for s, n in zip(sums, checkpoints)),
        exponent=exponent,
        exponent_ratios=tuple(abs(s) / n**exponent for s, n in zip(sums, checkpoints)),
    )
