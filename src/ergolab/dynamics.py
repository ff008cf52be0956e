"""Weighted bilinear and multilinear averages along polynomial orbits.

Two exactly representable measure-preserving systems:

  * CyclicShift(J): states are residues mod J, the map adds 1, and
    observables are J-periodic signals.
  * RationalRotation(p, q): states are the q points a/q of the circle,
    the map adds p/q (gcd(p, q) = 1 so the rotation is ergodic), and
    observables are trigonometric polynomials.

Both are one rule, x -> x + step mod states: the cyclic shift is the
rotation by 1/J.  Orbit positions x + step * P(n) are reduced mod states
in exact integer arithmetic, so they depend on n only modulo states.

The central object is A_N(x) = (1/N) sum_{n<=N} nu(n) f(T^{P(n)} x) g(T^{Q(n)} x);
on the cyclic shift this is, by construction, the same expression the
spectral module evaluates, which gives an external oracle for both.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from math import gcd

import numpy as np

from . import folding
from .limits import MAX_CYCLIC_PERIOD
from .maximal import LacunaryLadder
from .polynomials import IntPolynomial
from .spectral import PeriodicSignal
from .weights import WeightTable

MAX_ROTATION_DENOMINATOR = 1 << 31
MAX_TRIG_MODES = 64


class CyclicShift:
    """j -> j + 1 on Z/JZ; preserves normalized counting measure."""

    __slots__ = ("period",)

    def __init__(self, period: int):
        if not 1 <= period <= MAX_CYCLIC_PERIOD:
            raise ValueError("period outside [1, 2^20]")
        self.period = period

    @property
    def states(self) -> int:
        return self.period

    @property
    def step(self) -> int:
        return 1


class RationalRotation:
    """x -> x + p/q on the q-point circle {a/q}; requires gcd(p, q) = 1."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        if not 1 <= denominator <= MAX_ROTATION_DENOMINATOR:
            raise ValueError("denominator outside [1, 2^31]")
        if gcd(numerator, denominator) != 1:
            raise ValueError("numerator and denominator must be coprime")
        self.numerator, self.denominator = numerator, denominator

    @property
    def states(self) -> int:
        return self.denominator

    @property
    def step(self) -> int:
        return self.numerator % self.denominator


class TrigPolynomial:
    """Finite mode expansion sum_i c_i e^{2 pi i m_i x} on the circle."""

    __slots__ = ("modes", "coeffs")

    def __init__(self, modes: tuple[int, ...], coeffs: tuple[complex, ...]):
        if len(modes) != len(coeffs) or not modes:
            raise ValueError("modes and coeffs must be equal-length and nonempty")
        if len(modes) > MAX_TRIG_MODES:
            raise ValueError(f"at most {MAX_TRIG_MODES} modes supported")
        if len(set(modes)) != len(modes):
            raise ValueError("modes must be distinct")
        self.modes, self.coeffs = modes, coeffs

    def at_points(self, numerators: np.ndarray, denominator: int) -> np.ndarray:
        """Values at the circle points numerators/denominator."""
        numerators = np.asarray(numerators, dtype=np.int64)
        out = np.zeros(numerators.shape, dtype=np.complex128)
        for mode, coeff in zip(self.modes, self.coeffs):
            residues = (mode % denominator) * (numerators % denominator) % denominator
            out += coeff * np.exp(2j * np.pi * residues / denominator)
        return out


def _check_state(system, x: int) -> int:
    if not 0 <= x < system.states:
        raise ValueError(f"state {x} outside [0, {system.states})")
    return x


def _orbit_values(system, observable, residues: np.ndarray, x: int):
    """observable(T^P x) for each residue P mod system.states."""
    count = system.states
    positions = (x + residues * system.step) % count
    if isinstance(system, CyclicShift):
        if not isinstance(observable, PeriodicSignal) or observable.period != count:
            raise ValueError("cyclic shift observables must be signals of matching period")
        return observable.values[positions]
    if not isinstance(observable, TrigPolynomial):
        raise ValueError("rotation observables must be trigonometric polynomials")
    return observable.at_points(positions, count)


def _running_averages(system, observables, polys, table: WeightTable, lengths, starts):
    """Yield, for each x in starts, the read-only complex array of
    A_N(x) = (1/N) sum_{n<=N} nu(n) prod_i f_i(T^{P_i(n)} x) at each N of
    the strictly increasing lengths.

    The class masses between consecutive lengths (one class_masses pass)
    and the residues P_i(r) do not depend on x; each start costs one
    product of gathers and one running sum, read at the segment ends and
    summed in a fixed order without BLAS.  Every start is checked before
    the fold; a length past table.limit raises ValueError.
    """
    if len(observables) != len(polys) or not observables:
        raise ValueError("need k >= 1 observables with one polynomial each")
    starts = [_check_state(system, x) for x in starts]
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets, classes, masses = folding.class_masses(table, system.states, lengths)
    residues = [folding.residues(poly, system.states, int(lengths[-1])) for poly in polys]
    for x in starts:
        terms = functools.reduce(np.multiply, (
            _orbit_values(system, obs, r, x) for obs, r in zip(observables, residues)
        ))
        # one expression, so no running sum outlives its start
        values = np.concatenate([[0], np.cumsum(masses * terms[classes])])[offsets[1:]] / lengths
        values.flags.writeable = False
        yield values


def bilinear_average(system, f, g, p_poly, q_poly, table, n_max: int, x: int) -> complex:
    """(1/N) sum_{n<=N} nu(n) f(T^{P(n)} x) g(T^{Q(n)} x)."""
    return multilinear_average(system, [f, g], [p_poly, q_poly], table, n_max, x)


def multilinear_average(
    system, observables, polys, table: WeightTable, n_max: int, x: int
) -> complex:
    """(1/N) sum nu(n) prod_i f_i(T^{P_i(n)} x), one term per class.

    A power T^k of the map is the polynomial k * P_i."""
    (values,) = _running_averages(system, observables, polys, table, [n_max], [x])
    return complex(values[0])


class AverageTrace:
    """A_N(x) sampled along the lacunary ladder; values is a read-only
    complex128 array, one per length."""

    __slots__ = ("start", "lengths", "values")

    def __init__(self, start: int, lengths: tuple[int, ...], values: np.ndarray):
        self.start, self.lengths, self.values = start, lengths, values

    def first_at_least(self, n_min: int) -> tuple[int, complex]:
        for n_value, value in zip(self.lengths, self.values):
            if n_value >= n_min:
                return n_value, value
        raise ValueError(f"trace has no length >= {n_min}")

    @property
    def final(self) -> tuple[int, complex]:
        return self.lengths[-1], self.values[-1]


def convergence_traces(
    system,
    f,
    g,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    table: WeightTable,
    ladder: LacunaryLadder,
    starts,
) -> Iterator[AverageTrace]:
    """Yield the trace of A_N(x) over the ladder members N for each x in starts,
    all from one fold (_running_averages).  A ladder past table.limit
    raises ValueError.
    """
    starts = list(starts)
    averages = _running_averages(system, [f, g], [p_poly, q_poly], table, ladder.members, starts)
    for x, values in zip(starts, averages):
        yield AverageTrace(start=x, lengths=ladder.members, values=values)


def convergence_trace(system, f, g, p_poly, q_poly, table, ladder, x: int) -> AverageTrace:
    """A_N(x) for every member N of the ladder: convergence_traces at one start."""
    return next(convergence_traces(system, f, g, p_poly, q_poly, table, ladder, [x]))
