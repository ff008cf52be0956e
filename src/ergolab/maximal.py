"""Lacunary ladders and maximal / oscillation statistics on Z/JZ.

For a weight table nu, polynomials P, Q and signals phi, psi on Z/JZ,
the running averages are

    A_N(j) = (1/N) sum_{n<=N} nu(n) phi(j + P(n)) psi(j + Q(n)).

The ladder I_rho = {floor(rho^n)} discretizes N.  A band [N_k, N_{k+1}]
of two consecutive ladder members carries the oscillation function

    m_k(j) = |A_{N_{k+1}}(j) - A_{N_k}(j)|

whose normalized l2 norms are summed and compared against
sqrt(K) * ||phi||_4 ||psi||_4; all K bands come from one band_peaks pass,
one fold in O(J) memory.  The global maximal function takes the sup of
|A_N(j)| over every N up to a cutoff, and the weak-type statistic is sup
over lambda of lambda * #{j : maximal(j) > lambda} with unnormalized
counting on the j side.

The classical orbit pair is P(n) = n, Q(n) = -n; all entry points accept
arbitrary integer polynomial pairs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from . import folding
from .polynomials import IntPolynomial
from .spectral import PeriodicSignal
from .weights import WeightTable

#: Classical two-sided orbit: phi(j + n) psi(j - n).
CLASSICAL_P = IntPolynomial((0, 1))
CLASSICAL_Q = IntPolynomial((0, -1))

#: Most distinct members one ladder may hold.  An average ladder this
#: dense up to its limit, or a maximal run asking for this many bands, is
#: rejected instead of built.
MAX_LADDER_MEMBERS = 1 << 20


class LacunaryLadder:
    """Distinct members floor(rho^n) <= limit; band k is (members[k-1], members[k])."""

    __slots__ = ("rho", "limit", "members")

    def __init__(self, rho: float, limit: int, members: tuple[int, ...]):
        self.rho, self.limit, self.members = rho, limit, members

    @classmethod
    def build(
        cls, rho: float, limit: int, band_count: int | None = None
    ) -> "LacunaryLadder":
        """Every member up to limit, or only the first band_count+1.

        Small rho produces repeated floor values; only distinct members
        are kept, so bands are strictly increasing.  Instead of evaluating
        every power, each step finds the smallest exponent whose floor
        exceeds the last member: the next exponent if it does, else a log
        estimate corrected one exponent at a time until exact, so members
        match the power-by-power definition.
        A non-finite rho, rho <= 1, more than MAX_LADDER_MEMBERS distinct
        members, and a band_count below 1 or past the members up to limit
        raise ValueError.
        """
        if not math.isfinite(rho) or rho <= 1.0:
            raise ValueError("rho must be finite and exceed 1")
        if limit < 1:
            raise ValueError("limit must be at least 1")
        log_rho = math.log1p(rho - 1.0)
        members = [1]
        n = 0
        while band_count is None or len(members) <= band_count:
            target = members[-1] + 1
            m = n + 1
            value = math.floor(rho**m)
            if value < target:
                m = max(m + 1, math.ceil(math.log(target) / log_rho))
                value = math.floor(rho**m)
                while value < target:
                    m += 1
                    value = math.floor(rho**m)
                while m - 1 > n + 1:
                    below = math.floor(rho ** (m - 1))
                    if below < target:
                        break
                    m, value = m - 1, below
            if value > limit:
                break
            if len(members) == MAX_LADDER_MEMBERS:
                raise ValueError(
                    f"ladder rho={rho} up to {limit} has more than "
                    f"{MAX_LADDER_MEMBERS} distinct members"
                )
            members.append(value)
            n = m
        if band_count is not None and not 1 <= band_count < len(members):
            raise ValueError(
                f"band_count {band_count} needs {band_count + 1} members, "
                f"ladder has {len(members)}"
            )
        return cls(rho=rho, limit=limit, members=tuple(members))

    @property
    def bands(self) -> tuple[int, ...]:
        """The band endpoints, which are the members."""
        return self.members

    @property
    def band_count(self) -> int:
        return len(self.members) - 1

    def band(self, k: int) -> tuple[int, int]:
        """Endpoints (N_k, N_{k+1}) of band k, 1-based."""
        if not 1 <= k <= self.band_count:
            raise ValueError(f"band index {k} outside 1..{self.band_count}")
        return self.members[k - 1], self.members[k]


def band_peaks(
    phi: PeriodicSignal,
    psi: PeriodicSignal,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    ladder: LacunaryLadder,
    band_count: int,
) -> Iterator[np.ndarray]:
    """Yield m_k(j) = |A_{N_{k+1}}(j) - A_{N_k}(j)|, k = 1..band_count, each
    a J-long float array, from one orbit_sums pass over the members
    N_1..N_{band_count+1}: one subtraction per block of running sums, and
    one across the edge to the previous block's last average.  Each average
    is S_N / N rounded once: an int32 sum is real, and a complex sum
    divides its real and imaginary parts in float64.
    """
    if not 1 <= band_count <= ladder.band_count:
        raise ValueError(f"band_count {band_count} outside 1..{ladder.band_count}")
    members = ladder.members[: band_count + 1]
    last, done = None, 0
    for block in folding.orbit_sums(table, p_poly, q_poly, phi.values, psi.values, members):
        n_values = np.array(members[done : done + len(block)], dtype=np.float64)[:, None]
        done += len(block)
        if np.iscomplexobj(block):
            averages = np.divide(block.view(np.float64), n_values).view(np.complex128)
        else:
            averages = block / n_values
        if last is not None:
            yield np.abs(averages[0] - last)
        yield from np.abs(np.diff(averages, axis=0))
        last = averages[-1]


def band_maximal(
    phi: PeriodicSignal,
    psi: PeriodicSignal,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    ladder: LacunaryLadder,
    k: int,
) -> PeriodicSignal:
    """j -> |A_{N_{k+1}}(j) - A_{N_k}(j)|, the oscillation over band k.

    Row k of band_peaks; values are nonnegative reals.
    """
    peaks = band_peaks(phi, psi, p_poly, q_poly, table, ladder, k)
    peak = next(itertools.islice(peaks, k - 1, None))
    return PeriodicSignal(phi.period, peak.astype(np.complex128))


class OscillationReport:
    """Per-band l2 norms, their running sums, and the sqrt(K)-normalized ratios."""

    __slots__ = ("band_count", "band_l2_norms", "cumulative", "norm4_product", "ratios")

    def __init__(
        self,
        band_count: int,
        band_l2_norms: tuple[float, ...],
        cumulative: tuple[float, ...],
        norm4_product: float,
        ratios: tuple[float, ...],
    ):
        self.band_count, self.band_l2_norms, self.cumulative = band_count, band_l2_norms, cumulative
        self.norm4_product, self.ratios = norm4_product, ratios

    def ratio_at(self, k: int) -> float:
        return self.ratios[k - 1]


def oscillation_sum(
    phi: PeriodicSignal,
    psi: PeriodicSignal,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    ladder: LacunaryLadder,
    band_count: int,
) -> OscillationReport:
    """sum_{k<=K} ||m_k||_2 against sqrt(K) ||phi||_4 ||psi||_4 for K = 1..band_count.

    All bands come from one band_peaks pass.  ratios[K-1] is the running
    comparison; boundedness of the ratio sequence is the checkable trend
    (the comparison constant itself is not effective).
    """
    peaks = band_peaks(phi, psi, p_poly, q_poly, table, ladder, band_count)
    norms = [float(np.sqrt(np.mean(peak**2))) for peak in peaks]

    cumulative = np.cumsum(norms)
    norm4 = phi.norm(4) * psi.norm(4)
    ks = np.arange(1, band_count + 1, dtype=np.float64)
    if norm4 > 0:
        ratios = cumulative / (np.sqrt(ks) * norm4)
    else:
        ratios = np.zeros(band_count)
    return OscillationReport(
        band_count=band_count,
        band_l2_norms=tuple(norms),
        cumulative=tuple(float(c) for c in cumulative),
        norm4_product=norm4,
        ratios=tuple(float(r) for r in ratios),
    )


def global_maximal(
    phi: PeriodicSignal,
    psi: PeriodicSignal,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    n_max: int,
) -> PeriodicSignal:
    """j -> sup over every N <= n_max of |A_N(j)| (not just ladder members).

    |S_N| only moves at an N with a nonzero weight, so this reads
    folding.orbit_sums at those N: one term per segment, one J-long
    update per term, O(N J).  Each block of running sums takes one abs
    and one max; it is divided only where it can raise the peak.

    On orbit_sums' int32 path the pass stops early, exactly: there
    |S_N(j)| <= M N with M = max|phi| max|psi| an exact integer, and
    rounding is monotone, so no later |S_N(j)| / N rounds above M.  Once
    every peak has reached M, no later block can raise one.  For +-1
    signals and nu(1) = 1 that happens at N = 1, in the first block.
    """
    period = phi.period
    if psi.period != period:
        raise ValueError("signal periods differ")
    folding.check_length(table, n_max)
    peak = np.zeros(period, dtype=np.float64)
    lengths = np.flatnonzero(table.values[1 : n_max + 1]) + 1
    if lengths.size:
        bound = math.inf
        if folding._int32_signals(phi.values, psi.values, int(lengths[-1])):
            bound = float(np.max(np.abs(phi.values)) * np.max(np.abs(psi.values)))
        done = 0
        for block in folding.orbit_sums(table, p_poly, q_poly, phi.values, psi.values, lengths):
            n_values = lengths[done : done + len(block), None]
            done += len(block)
            levels = np.abs(block)
            # Rounding is monotone, so no |S_N| / N of the block can pass a
            # peak that max |S_N| / (its least N) does not pass.
            if not np.all(levels.max(axis=0) / n_values[0] <= peak):
                np.maximum(peak, (levels / n_values).max(axis=0), out=peak)
            if np.all(peak >= bound):
                break
    return PeriodicSignal(period, peak.astype(np.complex128))


class WeakTypeReport:
    """Level-set statistic sup_lambda lambda * #{j : maximal(j) > lambda}."""

    __slots__ = (
        "statistic", "lambda_at_max", "norm_product", "ratio", "lambda_grid", "level_counts",
    )

    def __init__(
        self,
        statistic: float,
        lambda_at_max: float,
        norm_product: float,
        ratio: float,
        lambda_grid: tuple[float, ...],
        level_counts: tuple[int, ...],
    ):
        self.statistic, self.lambda_at_max = statistic, lambda_at_max
        self.norm_product, self.ratio = norm_product, ratio
        self.lambda_grid, self.level_counts = lambda_grid, level_counts


#: Points of the default lambda grid.
LAMBDA_GRID_POINTS = 64


def default_lambda_grid(phi: PeriodicSignal, psi: PeriodicSignal) -> np.ndarray:
    """Logarithmic grid of LAMBDA_GRID_POINTS from 1e-4 to ||phi||_inf ||psi||_inf.

    The level-count function is a step function jumping at the maximal
    values; a log grid brackets the jumps across the dynamic range.
    """
    top = phi.norm(np.inf) * psi.norm(np.inf)
    if top <= 0:
        return np.full(LAMBDA_GRID_POINTS, 1e-4)
    return np.geomspace(1e-4, top, LAMBDA_GRID_POINTS)


def weak_type_statistic(
    phi: PeriodicSignal,
    psi: PeriodicSignal,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    n_max: int,
    lambda_grid: np.ndarray,
) -> WeakTypeReport:
    """Max over the grid of lambda * #{j : global_maximal(j) > lambda}.

    j-counting is unnormalized; the comparison norms ||phi||_2 ||psi||_2
    use plain sums as well.
    """
    grid = np.asarray(lambda_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("lambda grid must be nonempty and positive")
    maximal = np.abs(global_maximal(phi, psi, p_poly, q_poly, table, n_max).values)
    counts = (maximal[None, :] > grid[:, None]).sum(axis=1)
    stats = grid * counts
    best = int(np.argmax(stats))
    norm_product = phi.norm_counting(2) * psi.norm_counting(2)
    statistic = float(stats[best])
    return WeakTypeReport(
        statistic=statistic,
        lambda_at_max=float(grid[best]),
        norm_product=norm_product,
        ratio=statistic / norm_product if norm_product > 0 else 0.0,
        lambda_grid=tuple(float(g) for g in grid),
        level_counts=tuple(int(c) for c in counts),
    )
