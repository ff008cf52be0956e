"""Weighted polynomial exponential sums and their decay profiles.

The central quantity is S(theta) = (1/N) sum_{n<=N} nu(n) e^{i P(n) theta}.
Because P(n) grows like n^deg, the phase P(n) * theta is meaningless in
floating point unless the reduction mod 2 pi is exact.  Every frequency
is therefore carried as an exact fraction of the circle, theta =
2 pi a / q: a float input is interpreted as the dyadic rational it
already is (via float.as_integer_ratio on theta / 2 pi), and the phase
residues (a * P(n)) mod q are computed in exact integer arithmetic by
polynomials.eval_mod_range, whatever the size of q (a float theta has q
up to 2^1074).  Only the final e^{2 pi i r / q} is floating point.

Since P(n) mod q depends only on n mod q, the sums over n <= N fold onto
the classes r = n mod q (ergolab.folding): nu enters through the exact
class masses, and P is evaluated once per class, not once per n.  Grid
scans over all a for a fixed q reduce to a length-q histogram of the
class residues followed by one inverse FFT, so a full scan costs
O(N + q log q) rather than O(N q).  Short-interval sums stay per-n: their
window does not start at n = 1, and when q exceeds the window each n is
its own class anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import folding
from .polynomials import IntPolynomial, eval_mod_range
from .weights import WeightTable

_TWO_PI = 2.0 * math.pi
# Largest grid denominator the command line accepts: grid_scan allocates
# a q-long histogram and FFT, and a scan writes one row per grid point.
MAX_GRID_DENOMINATOR = 1 << 22


@dataclass(frozen=True)
class RationalAngle:
    """Exact angle 2 pi * numerator / denominator, normalized mod 2 pi."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        frac = Fraction(self.numerator, self.denominator) % 1
        object.__setattr__(self, "numerator", frac.numerator)
        object.__setattr__(self, "denominator", frac.denominator)

    @property
    def turns(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def conjugate(self) -> "RationalAngle":
        return RationalAngle(-self.numerator, self.denominator)


def _as_turns(theta) -> Fraction:
    """Exact fraction of the circle for a float or RationalAngle frequency."""
    if isinstance(theta, RationalAngle):
        return theta.turns
    if isinstance(theta, Fraction):
        return theta % 1
    theta = float(theta)
    if not 0.0 <= theta < _TWO_PI:
        raise ValueError("theta must lie in [0, 2*pi)")
    return Fraction(*((theta / _TWO_PI) % 1.0).as_integer_ratio())


def _phases(poly: IntPolynomial, n_values: np.ndarray, turns: Fraction) -> np.ndarray:
    """e^{2 pi i P(n) turns} with P(n) * turns reduced mod 1 exactly."""
    a, q = turns.numerator, turns.denominator
    residues = (a % q) * eval_mod_range(poly, n_values, q) % q
    # int / int rounds once, also for Python integers past the float range
    return np.exp(2j * np.pi * (residues / q).astype(np.float64))


def weighted_poly_sum(table: WeightTable, poly: IntPolynomial, theta, n_max: int) -> complex:
    """(1/N) sum_{n<=N} nu(n) e^{i P(n) theta} with exact phase reduction.

    theta may be a RationalAngle, a Fraction of the circle, or a float in
    [0, 2 pi).  P is evaluated exactly once per class n mod q, and each
    class phase is one complex exponential of its reduced residue.
    """
    turns = _as_turns(theta)
    _, classes, masses = folding.class_masses(table, turns.denominator, [n_max])
    phases = _phases(poly, classes, turns)
    return complex(np.dot(masses, phases) / n_max)


@dataclass(frozen=True)
class RationalGrid:
    """Frequencies 2 pi a / denominator for a = 0..denominator-1."""

    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("grid denominator must be positive")


@dataclass(frozen=True)
class UniformGrid:
    """Equally spaced double-precision frequencies in [0, 2 pi)."""

    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("grid must contain at least one point")

    def thetas(self) -> np.ndarray:
        return np.arange(self.points) * (_TWO_PI / self.points)


def grid_scan(
    table: WeightTable, poly: IntPolynomial, grid: RationalGrid, n_max: int
) -> np.ndarray:
    """All grid values S(2 pi a / q), a = 0..q-1, via histogram + FFT."""
    q = grid.denominator
    _, classes, masses = folding.class_masses(table, q, [n_max])
    residues = folding.residues(poly, q, n_max)[classes]
    hist = np.bincount(residues, weights=masses, minlength=q)
    return np.fft.ifft(hist) * (q / n_max)


# Moduli within this absolute margin of the maximum count as tied; the
# smallest theta among them wins.  Keeps exact mathematical ties (which
# float rounding would otherwise break arbitrarily) deterministic.
_TIE_EPS = 1e-12


def _argmax_smallest(values: np.ndarray) -> int:
    top = float(np.max(values))
    return int(np.argmax(values >= top - _TIE_EPS))


def max_over_grid(
    table: WeightTable, poly: IntPolynomial, grid, n_max: int
) -> tuple[float, float]:
    """(theta_star, max |S|) over the grid; ties break to the smallest theta."""
    if isinstance(grid, RationalGrid):
        values = np.abs(grid_scan(table, poly, grid, n_max))
        a_star = _argmax_smallest(values)
        return _TWO_PI * a_star / grid.denominator, float(values[a_star])
    if isinstance(grid, UniformGrid):
        thetas = grid.thetas()
        moduli = np.array(
            [abs(weighted_poly_sum(table, poly, t, n_max)) for t in thetas]
        )
        i_star = _argmax_smallest(moduli)
        return float(thetas[i_star]), float(moduli[i_star])
    raise TypeError(f"unsupported grid type {type(grid).__name__}")


@dataclass(frozen=True)
class DecayProfile:
    """Grid maxima against N with a fitted C / (log N)**A model.

    decay_exponent is the fitted A (with its standard error); amplitude
    is the fitted C.  The fit is reported, never asserted: only the
    measured trend is meaningful.
    """

    lengths: tuple[int, ...]
    max_values: tuple[float, ...]
    theta_stars: tuple[float, ...]
    decay_exponent: float
    exponent_stderr: float
    amplitude: float
    residuals: tuple[float, ...]


def decay_profile(
    table: WeightTable, poly: IntPolynomial, grid, n_list: list[int]
) -> DecayProfile:
    """Run max_over_grid at each N and fit log(max) against log log N."""
    if len(n_list) < 3:
        raise ValueError("decay fit needs at least 3 lengths")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    thetas, maxima = [], []
    for n_max in n_list:
        theta_star, value = max_over_grid(table, poly, grid, n_max)
        thetas.append(theta_star)
        maxima.append(value)
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


@dataclass(frozen=True)
class ShortIntervalSum:
    """Windowed weighted exponential sum with the 5/8-exponent flag."""

    value: complex
    start: int
    span: int
    meets_exponent_threshold: bool


_LINEAR = IntPolynomial((0, 1))


def short_interval_sum(
    table: WeightTable, theta, start: int, span: int
) -> ShortIntervalSum:
    """(1/M) sum_{N <= n <= N+M} nu(n) e^{i n theta}, window ends inclusive.

    The companion flag reports whether M >= N^(5/8), checked in exact
    integer arithmetic as M^8 >= N^5.
    """
    if start < 1 or span < 1:
        raise ValueError("start and span must be positive")
    folding.check_length(table, start + span)
    turns = _as_turns(theta)
    n_values = np.arange(start, start + span + 1, dtype=np.int64)
    phases = _phases(_LINEAR, n_values, turns)
    w = table.values[start : start + span + 1].astype(np.float64)
    value = complex(np.dot(w, phases) / span)
    return ShortIntervalSum(
        value=value,
        start=start,
        span=span,
        meets_exponent_threshold=span**8 >= start**5,
    )
