"""Lacunary ladders and maximal / oscillation statistics on Z/JZ.

For a weight table nu, polynomials P, Q and signals phi, psi on Z/JZ,
the running averages are

    A_N(j) = (1/N) sum_{n<=N} nu(n) phi(j + P(n)) psi(j + Q(n)).

The ladder I_rho = {floor(rho^n)} discretizes N.  A band [N_k, N_{k+1}]
(consecutive chosen ladder members) carries the oscillation function

    m_k(j) = max over ladder members N in [N_k, N_{k+1}] of |A_N(j) - A_{N_k}(j)|

whose normalized l2 norms are summed and compared against
sqrt(K) * ||phi||_4 ||psi||_4.  The global maximal function takes the sup
of |A_N(j)| over every N up to a cutoff, and the weak-type statistic is
sup over lambda of lambda * #{j : maximal(j) > lambda} with unnormalized
counting on the j side.

The classical orbit pair is P(n) = n, Q(n) = -n; all entry points accept
arbitrary integer polynomial pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import folding
from .polynomials import IntPolynomial, eval_mod_range
from .spectral import PeriodicSignal
from .weights import WeightTable

#: Classical two-sided orbit: phi(j + n) psi(j - n).
CLASSICAL_P = IntPolynomial((0, 1))
CLASSICAL_Q = IntPolynomial((0, -1))

#: Most distinct members one ladder may hold.  A rho this close to 1 over
#: this long a range is rejected instead of built.
MAX_LADDER_MEMBERS = 1 << 20


@dataclass(frozen=True)
class LacunaryLadder:
    """Members floor(rho^n) <= limit (duplicates removed) plus chosen bands."""

    rho: float
    limit: int
    members: tuple[int, ...]
    bands: tuple[int, ...]

    @classmethod
    def build(
        cls, rho: float, limit: int, band_count: int | None = None
    ) -> "LacunaryLadder":
        """Default bands are the first band_count+1 ladder members.

        Small rho produces repeated floor values; only distinct members
        are kept, so bands are strictly increasing.  Instead of evaluating
        every power, each step finds the smallest exponent whose floor
        exceeds the last member: the next exponent if it does, else a log
        estimate corrected one exponent at a time until exact, so members
        match the power-by-power definition.
        More than MAX_LADDER_MEMBERS distinct members raise ValueError.
        """
        if rho <= 1.0:
            raise ValueError("rho must exceed 1")
        if limit < 1:
            raise ValueError("limit must be at least 1")
        log_rho = math.log1p(rho - 1.0)
        members = [1]
        n = 0
        while True:
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
        if band_count is None:
            bands = tuple(members)
        else:
            if band_count < 1 or band_count + 1 > len(members):
                raise ValueError(
                    f"band_count {band_count} needs {band_count + 1} members, "
                    f"ladder has {len(members)}"
                )
            bands = tuple(members[: band_count + 1])
        return cls(rho=rho, limit=limit, members=tuple(members), bands=bands)

    @property
    def band_count(self) -> int:
        return len(self.bands) - 1

    def band(self, k: int) -> tuple[int, int]:
        """Endpoints (N_k, N_{k+1}) of band k, 1-based."""
        if not 1 <= k <= self.band_count:
            raise ValueError(f"band index {k} outside 1..{self.band_count}")
        return self.bands[k - 1], self.bands[k]

    def members_between(self, lo: int, hi: int) -> list[int]:
        return [m for m in self.members if lo <= m <= hi]


def _check_pair(phi: PeriodicSignal, psi: PeriodicSignal) -> int:
    if phi.period != psi.period:
        raise ValueError("signal periods differ")
    return phi.period


def _band_peak(averages: np.ndarray) -> np.ndarray:
    """max over the rows of |A_N - A_{N_k}|, the first row being A_{N_k}."""
    return np.abs(averages - averages[0]).max(axis=0)


def band_maximal(
    phi: PeriodicSignal,
    psi: PeriodicSignal,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    ladder: LacunaryLadder,
    k: int,
) -> PeriodicSignal:
    """j -> max over ladder members N in band k of |A_N(j) - A_{N_k}(j)|.

    Computed from one incremental pass; values are nonnegative reals.
    A band whose endpoints coincide (single member) is identically zero.
    """
    lo, hi = ladder.band(k)
    checkpoints = ladder.members_between(lo, hi)
    sums = folding.orbit_sums(table, p_poly, q_poly, phi.values, psi.values, checkpoints)
    averages = sums / np.array(checkpoints, dtype=np.float64)[:, None]
    return PeriodicSignal(phi.period, _band_peak(averages).astype(np.complex128))


@dataclass(frozen=True)
class OscillationReport:
    """Per-band l2 norms, their running sums, and the sqrt(K)-normalized ratios."""

    band_count: int
    band_l2_norms: tuple[float, ...]
    cumulative: tuple[float, ...]
    norm4_product: float
    ratios: tuple[float, ...]

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

    All bands come from one incremental pass.  ratios[K-1] is the running
    comparison; boundedness of the ratio sequence is the checkable trend
    (the comparison constant itself is not effective).
    """
    if not 1 <= band_count <= ladder.band_count:
        raise ValueError(f"band_count {band_count} outside 1..{ladder.band_count}")
    checkpoints = ladder.members_between(ladder.bands[0], ladder.bands[band_count])
    sums = folding.orbit_sums(table, p_poly, q_poly, phi.values, psi.values, checkpoints)
    averages = sums / np.array(checkpoints, dtype=np.float64)[:, None]
    positions = {n_value: row for row, n_value in enumerate(checkpoints)}

    norms = []
    for k in range(1, band_count + 1):
        lo, hi = ladder.band(k)
        peak = _band_peak(averages[positions[lo] : positions[hi] + 1])
        norms.append(float(np.sqrt(np.mean(peak**2))))

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

    Between consecutive nonzero weights |S| is constant while N grows, so
    the sup cannot move there and those N are skipped.  The sup needs A_N
    at every N with a nonzero weight, so the sum cannot be folded onto
    residue classes the way the ladder statistics are: this stays one
    J-long update per term, O(N J).
    """
    period = _check_pair(phi, psi)
    folding.check_length(table, n_max)
    w = table.values[1 : n_max + 1].astype(np.float64)
    n_values = np.arange(1, n_max + 1, dtype=np.int64)
    a = eval_mod_range(p_poly, n_values, period)
    b = eval_mod_range(q_poly, n_values, period)
    f_windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([phi.values, phi.values]), period
    )
    g_windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([psi.values, psi.values]), period
    )
    running = np.zeros(period, dtype=np.complex128)
    peak = np.zeros(period, dtype=np.float64)
    for i in np.nonzero(w)[0]:
        running += w[i] * f_windows[a[i]] * g_windows[b[i]]
        np.maximum(peak, np.abs(running) / (i + 1), out=peak)
    return PeriodicSignal(period, peak.astype(np.complex128))


@dataclass(frozen=True)
class WeakTypeReport:
    """Level-set statistic sup_lambda lambda * #{j : maximal(j) > lambda}."""

    statistic: float
    lambda_at_max: float
    norm_product: float
    ratio: float
    lambda_grid: tuple[float, ...]
    level_counts: tuple[int, ...]


def default_lambda_grid(
    phi: PeriodicSignal, psi: PeriodicSignal, points: int = 64
) -> np.ndarray:
    """Logarithmic grid from 1e-4 to ||phi||_inf ||psi||_inf.

    The level-count function is a step function jumping at the maximal
    values; a log grid brackets the jumps across the dynamic range.
    """
    top = phi.norm(np.inf) * psi.norm(np.inf)
    if top <= 0:
        return np.full(points, 1e-4)
    return np.geomspace(1e-4, top, points)


def weak_type_statistic(
    phi: PeriodicSignal,
    psi: PeriodicSignal,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    n_max: int,
    lambda_grid: np.ndarray,
    p: float = 2.0,
    q: float = 2.0,
) -> WeakTypeReport:
    """Max over the grid of lambda * #{j : global_maximal(j) > lambda}.

    j-counting is unnormalized; the comparison norms ||phi||_p ||psi||_q
    use plain sums as well.  p and q must be conjugate (1/p + 1/q = 1).
    """
    grid = np.asarray(lambda_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("lambda grid must be nonempty and positive")
    inv = (0.0 if p == np.inf else 1.0 / p) + (0.0 if q == np.inf else 1.0 / q)
    if abs(inv - 1.0) > 1e-9:
        raise ValueError(f"exponents p={p}, q={q} are not conjugate")
    maximal = np.abs(global_maximal(phi, psi, p_poly, q_poly, table, n_max).values)
    counts = (maximal[None, :] > grid[:, None]).sum(axis=1)
    stats = grid * counts
    best = int(np.argmax(stats))
    norm_product = phi.norm_counting(p) * psi.norm_counting(q)
    statistic = float(stats[best])
    return WeakTypeReport(
        statistic=statistic,
        lambda_at_max=float(grid[best]),
        norm_product=norm_product,
        ratio=statistic / norm_product if norm_product > 0 else 0.0,
        lambda_grid=tuple(float(g) for g in grid),
        level_counts=tuple(int(c) for c in counts),
    )
