"""Weighted polynomial exponential sums and their decay profiles.

The central quantity is S(theta) = (1/N) sum_{n<=N} nu(n) e^{i P(n) theta}.
Because P(n) grows like n^deg, the phase P(n) * theta is meaningless in
floating point unless the reduction mod 2 pi is exact.  Every frequency
is therefore a RationalAngle, an exact fraction of the circle theta =
2 pi a / q, and the phase residues (a * P(n)) mod q are computed in exact
integer arithmetic by polynomials.eval_mod_range, whatever the size of q.
Only the final e^{2 pi i r / q} is floating point.

Since P(n) mod q depends only on n mod q, the sums over n <= N fold onto
the classes r = n mod q (ergolab.folding): nu enters through the exact
class masses, and P is evaluated once per class, not once per n.  Grid
scans over all a for a fixed q reduce to a length-q histogram of the
class residues followed by one inverse FFT, so a full scan costs
O(N + q log q) rather than O(N q); scans at several lengths (grid_scans)
fold once and sum the segment histograms.  Short-interval sums fold
their window [N, N + M] alone: a window at least as wide as q falls onto
at most q classes, and a narrower one lists its nonzero n, each its own
class.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import folding
from .limits import MAX_GRID_DENOMINATOR
from .polynomials import IntPolynomial, eval_mod_range
from .weights import WeightTable

_TWO_PI = 2.0 * math.pi


class RationalAngle:
    """Exact angle 2 pi * numerator / denominator, normalized mod 2 pi: the
    fraction of a turn in lowest terms, 0 <= numerator < denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        if denominator < 1:
            raise ValueError("denominator must be positive")
        numerator %= denominator
        common = math.gcd(numerator, denominator)
        self.numerator, self.denominator = numerator // common, denominator // common


def _phases(poly: IntPolynomial, classes: np.ndarray, theta: RationalAngle) -> np.ndarray:
    """e^{i P(r) theta} for each class r mod q, with P(r) * theta reduced
    mod 2 pi exactly: a * P(r) mod q, with a folded into the coefficients,
    runs in int64 wherever polynomials.eval_mod_range can."""
    q = theta.denominator
    residues = eval_mod_range(poly, classes, q, theta.numerator)
    if q >= 1 << 53:  # int / int rounds once, also past the float range
        residues = residues.astype(object)
    return np.exp(2j * np.pi * (residues / q).astype(np.float64))


def weighted_poly_sum(
    table: WeightTable, poly: IntPolynomial, theta: RationalAngle, n_max: int
) -> complex:
    """(1/N) sum_{n<=N} nu(n) e^{i P(n) theta} with exact phase reduction."""
    return complex(_class_sum(table, poly, theta, 1, n_max) / n_max)


def _class_sum(table: WeightTable, poly: IntPolynomial, theta: RationalAngle, lo: int, hi: int):
    """sum_{lo <= n <= hi} nu(n) e^{i P(n) theta} from one class_masses
    pass: P is evaluated once per class n mod q, and each class phase is
    one complex exponential of its reduced residue."""
    _, classes, masses = folding.class_masses(table, theta.denominator, [hi], lo)
    return np.sum(masses * _phases(poly, classes, theta))


def grid_scans(table: WeightTable, poly: IntPolynomial, q: int, lengths) -> Iterator[np.ndarray]:
    """Yield grid_scan(table, poly, q, N) for each N of the strictly
    increasing lengths: one class_masses pass, a histogram of each segment's
    residues summed over the segments, one inverse FFT per length.  The
    histograms are sums of integers, exact in float64, so each scan is
    bitwise the one of its length alone.
    """
    offsets, classes, masses = folding.class_masses(table, q, lengths)
    residues = folding.residues(poly, q, lengths[-1])[classes]
    hist = np.zeros(q)
    for k, n_max in enumerate(lengths):
        lo, hi = offsets[k], offsets[k + 1]
        hist += np.bincount(residues[lo:hi], weights=masses[lo:hi], minlength=q)
        yield np.fft.ifft(hist) * (q / n_max)


def grid_scan(table: WeightTable, poly: IntPolynomial, q: int, n_max: int) -> np.ndarray:
    """All grid values S(2 pi a / q), a = 0..q-1, via histogram + FFT."""
    return next(grid_scans(table, poly, q, [n_max]))


# Moduli within this absolute margin of the maximum count as tied; the
# smallest theta among them wins.  Keeps exact mathematical ties (which
# float rounding would otherwise break arbitrarily) deterministic.
_TIE_EPS = 1e-12


def _argmax_smallest(values: np.ndarray) -> int:
    top = float(np.max(values))
    return int(np.argmax(values >= top - _TIE_EPS))


def grid_maxima(
    table: WeightTable, poly: IntPolynomial, q: int, lengths
) -> list[tuple[float, float]]:
    """(theta_star, max |S|) over the grid 2 pi a / q at each N of lengths,
    in their order (repeats allowed); ties break to the smallest theta.
    Reads one grid_scans pass over the sorted distinct lengths.
    """
    distinct = sorted(set(lengths))
    peaks = {}
    for n_max, scan in zip(distinct, grid_scans(table, poly, q, distinct)):
        values = np.abs(scan)
        a_star = _argmax_smallest(values)
        peaks[n_max] = _TWO_PI * a_star / q, float(values[a_star])
    return [peaks[n_max] for n_max in lengths]


def max_over_grid(
    table: WeightTable, poly: IntPolynomial, q: int, n_max: int
) -> tuple[float, float]:
    """(theta_star, max |S|) over the grid 2 pi a / q; ties break to the
    smallest theta."""
    return grid_maxima(table, poly, q, [n_max])[0]


class DecayProfile:
    """Grid maxima against N with a fitted C / (log N)**A model.

    decay_exponent is the fitted A (with its standard error); amplitude
    is the fitted C.  The fit is reported, never asserted: only the
    measured trend is meaningful.
    """

    __slots__ = (
        "lengths", "max_values", "theta_stars", "decay_exponent", "exponent_stderr",
        "amplitude", "residuals",
    )

    def __init__(
        self,
        lengths: tuple[int, ...],
        max_values: tuple[float, ...],
        theta_stars: tuple[float, ...],
        decay_exponent: float,
        exponent_stderr: float,
        amplitude: float,
        residuals: tuple[float, ...],
    ):
        self.lengths, self.max_values, self.theta_stars = lengths, max_values, theta_stars
        self.decay_exponent, self.exponent_stderr = decay_exponent, exponent_stderr
        self.amplitude, self.residuals = amplitude, residuals


def decay_profile(
    table: WeightTable, poly: IntPolynomial, q: int, n_list: list[int]
) -> DecayProfile:
    """Take grid_maxima over the grid 2 pi a / q at n_list and fit log(max)
    against log log N."""
    if len(n_list) < 3:
        raise ValueError("decay fit needs at least 3 lengths")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if n_list[0] < 2:
        raise ValueError("decay fit needs every length >= 2, where log log N is finite")
    thetas, maxima = zip(*grid_maxima(table, poly, q, n_list))
    if min(maxima) <= 0.0:
        raise ValueError("cannot fit a log-power decay model through zero maxima")

    x = np.log(np.log(np.array(n_list, dtype=np.float64)))
    y = np.log(np.array(maxima))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = intercept + slope * x
    residuals = y - fitted
    dof = max(len(n_list) - 2, 1)
    slope_var = (residuals @ residuals / dof) / ((x - x.mean()) @ (x - x.mean()))
    return DecayProfile(
        lengths=tuple(n_list),
        max_values=tuple(maxima),
        theta_stars=tuple(thetas),
        decay_exponent=float(-slope),
        exponent_stderr=float(np.sqrt(slope_var)),
        amplitude=float(np.exp(intercept)),
        residuals=tuple(float(r) for r in residuals),
    )


class ShortIntervalSum:
    """Windowed weighted exponential sum with the 5/8-exponent flag."""

    __slots__ = ("value", "start", "span", "meets_exponent_threshold")

    def __init__(self, value: complex, start: int, span: int, meets_exponent_threshold: bool):
        self.value, self.start, self.span = value, start, span
        self.meets_exponent_threshold = meets_exponent_threshold


_LINEAR = IntPolynomial((0, 1))


def short_interval_sum(
    table: WeightTable, theta: RationalAngle, start: int, span: int
) -> ShortIntervalSum:
    """(1/M) sum_{N <= n <= N+M} nu(n) e^{i n theta}, window ends inclusive,
    folded onto the classes n mod q of the window alone.

    The companion flag reports whether M >= N^(5/8), checked in exact
    integer arithmetic as M^8 >= N^5.
    """
    if start < 1 or span < 1:
        raise ValueError("start and span must be positive")
    value = complex(_class_sum(table, _LINEAR, theta, start, start + span) / span)
    return ShortIntervalSum(
        value=value,
        start=start,
        span=span,
        meets_exponent_threshold=span**8 >= start**5,
    )
