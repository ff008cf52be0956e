"""Weighted bilinear and multilinear averages along polynomial orbits.

Two exactly representable measure-preserving systems:

  * CyclicShift(J): states are residues mod J, the map adds 1, and
    observables are J-periodic signals.  Orbit positions x + P(n) are
    reduced mod J in exact integer arithmetic.
  * RationalRotation(p, q): states are the q points a/q of the circle,
    the map adds p/q (gcd(p, q) = 1 so the rotation is ergodic), and
    observables are trigonometric polynomials.  Irrational rotations are
    approximated by continued-fraction convergents p/q supplied by the
    caller.

The central object is A_N(x) = (1/N) sum_{n<=N} nu(n) f(T^{P(n)} x) g(T^{Q(n)} x);
on the cyclic shift this is, by construction, the same expression the
spectral module evaluates, which gives an external oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import folding
from .maximal import LacunaryLadder
from .polynomials import IntPolynomial, eval_mod_range
from .spectral import PeriodicSignal
from .weights import WeightKind, WeightTable

MAX_ROTATION_DENOMINATOR = 1 << 31
MAX_TRIG_MODES = 64


@dataclass(frozen=True)
class CyclicShift:
    """j -> j + 1 on Z/JZ; preserves normalized counting measure."""

    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be at least 1")

    def check_state(self, x: int) -> int:
        if not 0 <= x < self.period:
            raise ValueError(f"state {x} outside Z/{self.period}Z")
        return x


@dataclass(frozen=True)
class RationalRotation:
    """x -> x + p/q on the q-point circle {a/q}; requires gcd(p, q) = 1."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if not 1 <= self.denominator <= MAX_ROTATION_DENOMINATOR:
            raise ValueError("denominator outside [1, 2^31]")
        if gcd(self.numerator, self.denominator) != 1:
            raise ValueError("numerator and denominator must be coprime")

    def check_state(self, x: int) -> int:
        if not 0 <= x < self.denominator:
            raise ValueError(f"state {x} is not a point a/{self.denominator}")
        return x


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite mode expansion sum_i c_i e^{2 pi i m_i x} on the circle."""

    modes: tuple[int, ...]
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.modes) != len(self.coeffs) or not self.modes:
            raise ValueError("modes and coeffs must be equal-length and nonempty")
        if len(self.modes) > MAX_TRIG_MODES:
            raise ValueError(f"at most {MAX_TRIG_MODES} modes supported")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("modes must be distinct")

    def at_points(self, numerators: np.ndarray, denominator: int) -> np.ndarray:
        """Values at the circle points numerators/denominator."""
        numerators = np.asarray(numerators, dtype=np.int64)
        out = np.zeros(numerators.shape, dtype=np.complex128)
        for mode, coeff in zip(self.modes, self.coeffs):
            residues = (mode % denominator) * (numerators % denominator) % denominator
            out += coeff * np.exp(2j * np.pi * residues / denominator)
        return out


def continued_fraction_convergents(alpha: float, max_denominator: int) -> list[tuple[int, int]]:
    """Convergents p/q of alpha with q <= max_denominator.

    Standard recurrence p_k = a_k p_{k-1} + p_{k-2} (same for q).  Use the
    last convergent as the rotation frequency when an irrational rotation
    is wanted: consecutive convergents are automatically coprime.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    out: list[tuple[int, int]] = []
    p_prev, q_prev, p_cur, q_cur = 1, 0, int(np.floor(alpha)), 1
    x = alpha - np.floor(alpha)
    out.append((p_cur, q_cur))
    for _ in range(64):
        if x <= 0:
            break
        x = 1.0 / x
        a = int(np.floor(x))
        x -= a
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > max_denominator:
            break
        out.append((p_cur, q_cur))
    return out


def windowed_orbit_signal(
    system,
    observable,
    poly: IntPolynomial,
    x: int,
    n_bar: int,
    period: int,
) -> PeriodicSignal:
    """Orbit samples cut off outside [-2*n_bar, 2*n_bar], embedded in Z/period.

    The signal is observable(T^{P(n)} x) for |n| <= 2*n_bar and zero
    otherwise, with index n taken mod period.  This is the finite-window
    transfer of a dynamical-system observable to a shift-system signal;
    period must exceed 4*n_bar so the window does not wrap onto itself.
    """
    if n_bar < 1:
        raise ValueError("n_bar must be at least 1")
    if period <= 4 * n_bar:
        raise ValueError("period must exceed 4 * n_bar to hold the window")
    x = system.check_state(x)
    window = np.arange(-2 * n_bar, 2 * n_bar + 1, dtype=np.int64)
    samples = _orbit_values(
        system, observable, eval_mod_range(poly, window, state_count(system)), x
    )
    values = np.zeros(period, dtype=np.complex128)
    values[window % period] = samples
    return PeriodicSignal(period, values)


def preserves_counting_measure(system) -> bool:
    """Literal pushforward check: the one-step map permutes the states."""
    if isinstance(system, CyclicShift):
        states = np.arange(system.period)
        image = (states + 1) % system.period
    elif isinstance(system, RationalRotation):
        states = np.arange(system.denominator)
        image = (states + system.numerator) % system.denominator
    else:
        raise TypeError(f"unsupported system {type(system).__name__}")
    return bool(np.array_equal(np.sort(image), states))


def visits_every_state(system: RationalRotation, x: int = 0) -> bool:
    """Ergodicity of the rotation: the orbit of x covers all q points."""
    q = system.denominator
    orbit = (x + np.arange(q, dtype=np.int64) * system.numerator) % q
    return bool(np.unique(orbit).size == q)


def state_count(system) -> int:
    """Number of states; orbit positions depend on n only modulo it."""
    if isinstance(system, CyclicShift):
        return system.period
    if isinstance(system, RationalRotation):
        return system.denominator
    raise TypeError(f"unsupported system {type(system).__name__}")


def _orbit_values(system, observable, residues: np.ndarray, x: int, power: int = 1):
    """observable(T^{power * P} x) for each residue P mod state_count(system).

    A rotation by p/q has q states, so its orbits fold with period q.
    """
    count = state_count(system)
    if power != 1:
        residues = (power % count) * residues % count
    if isinstance(system, CyclicShift):
        if not isinstance(observable, PeriodicSignal) or observable.period != count:
            raise ValueError("cyclic shift observables must be signals of matching period")
        return observable.values[(x + residues) % count]
    if not isinstance(observable, TrigPolynomial):
        raise ValueError("rotation observables must be trigonometric polynomials")
    positions = (x + residues * (system.numerator % count)) % count
    return observable.at_points(positions, count)


def _folded_terms(system, observables, polys, powers, x: int, n_end: int) -> np.ndarray:
    """prod_i f_i(T^{power_i * P_i(r)} x) for every class r of n <= n_end."""
    count = state_count(system)
    prod = None
    for obs, poly, power in zip(observables, polys, powers):
        values = _orbit_values(system, obs, folding.residues(poly, count, n_end), x, power)
        prod = values if prod is None else prod * values
    return prod


def _folded_average(system, observables, polys, powers, table, n_max: int, x: int) -> complex:
    """(1/N) sum_{n<=N} nu(n) prod_i f_i(T^{power_i P_i(n)} x), one term per class."""
    _, classes, masses = folding.class_masses(table, state_count(system), [n_max])
    terms = _folded_terms(system, observables, polys, powers, x, n_max)
    return complex(np.dot(masses, terms[classes]) / n_max)


def bilinear_average(
    system,
    f,
    g,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    n_max: int,
    x: int,
) -> complex:
    """(1/N) sum_{n<=N} nu(n) f(T^{P(n)} x) g(T^{Q(n)} x)."""
    x = system.check_state(x)
    return _folded_average(system, [f, g], [p_poly, q_poly], [1, 1], table, n_max, x)


def multilinear_average(
    system,
    observables,
    polys,
    table: WeightTable,
    n_max: int,
    x: int,
    powers=None,
) -> complex:
    """(1/N) sum nu(n) prod_i f_i(T_i^{P_i(n)} x) with each T_i a power of T."""
    if len(observables) != len(polys) or not observables:
        raise ValueError("need k >= 1 observables with one polynomial each")
    if powers is None:
        powers = [1] * len(observables)
    if len(powers) != len(observables):
        raise ValueError("powers must match the observables")
    x = system.check_state(x)
    return _folded_average(system, observables, polys, powers, table, n_max, x)


@dataclass(frozen=True)
class AverageTrace:
    """A_N(x) sampled along the lacunary ladder."""

    start: int
    weight_kind: WeightKind | None
    p_spec: str
    q_spec: str
    lengths: tuple[int, ...]
    values: tuple[complex, ...]

    def first_at_least(self, n_min: int) -> tuple[int, complex]:
        for n_value, value in zip(self.lengths, self.values):
            if n_value >= n_min:
                return n_value, value
        raise ValueError(f"trace has no length >= {n_min}")

    @property
    def final(self) -> tuple[int, complex]:
        return self.lengths[-1], self.values[-1]


def convergence_trace(
    system,
    f,
    g,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    rho: float,
    x: int,
    n_limit: int | None = None,
) -> AverageTrace:
    """A_N(x) for every ladder member N = floor(rho^m) up to the limit.

    One pass with running sums: the class masses of each stretch between
    consecutive members weight the per-class terms, and are accumulated,
    never recomputed from scratch.
    """
    x = system.check_state(x)
    limit = min(table.limit, n_limit) if n_limit else table.limit
    ladder = LacunaryLadder.build(rho, limit)
    members = np.array(ladder.members, dtype=np.int64)
    offsets, classes, masses = folding.class_masses(table, state_count(system), members)
    terms = _folded_terms(system, [f, g], [p_poly, q_poly], [1, 1], x, ladder.members[-1])
    prefix = np.concatenate([[0], np.cumsum(masses * terms[classes])])
    values = prefix[offsets[1:]] / members
    return AverageTrace(
        start=x,
        weight_kind=table.kind,
        p_spec=p_poly.spec_string(),
        q_spec=q_poly.spec_string(),
        lengths=tuple(int(m) for m in members),
        values=tuple(complex(v) for v in values),
    )


def cauchy_schwarz_split(
    system,
    f,
    f_approx,
    g,
    g_approx,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    n_max: int,
    x: int,
) -> tuple[float, float]:
    """(lhs, rhs) of the splitting bound used to pass from bounded to
    square-integrable observables:

        |A_N(f - f1, g - g1)(x)| <= ((1/N) sum |df|^2 along P-orbit)^(1/2)
                                  * ((1/N) sum |dg|^2 along Q-orbit)^(1/2)

    Holds pointwise because |nu| <= 1."""
    x = system.check_state(x)
    df = PeriodicSignal(f.period, f.values - f_approx.values)
    dg = PeriodicSignal(g.period, g.values - g_approx.values)
    lhs = abs(bilinear_average(system, df, dg, p_poly, q_poly, table, n_max, x))
    n_values = np.arange(1, n_max + 1, dtype=np.int64)
    count = state_count(system)
    df_orbit = np.abs(_orbit_values(system, df, eval_mod_range(p_poly, n_values, count), x)) ** 2
    dg_orbit = np.abs(_orbit_values(system, dg, eval_mod_range(q_poly, n_values, count), x)) ** 2
    rhs = float(np.sqrt(df_orbit.mean()) * np.sqrt(dg_orbit.mean()))
    return lhs, rhs
