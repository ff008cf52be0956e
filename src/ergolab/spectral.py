"""Finitary Fourier engine on Z/JZ with dual-path cross-validation.

Normalization (everything downstream depends on it): the forward
transform of a J-periodic function carries the 1/J factor,

    F(f)(k) = (1/J) * sum_n f(n) e^{-2 pi i k n / J},
    f(j)    = sum_k F(f)(k) e^{+2 pi i k j / J},

so Parseval reads (1/J) sum_j |f(j)|^2 = sum_k |F(f)(k)|^2.  Most FFT
libraries put the 1/J on the inverse; here it is on the forward
transform.  Kernels are signed mass distributions and transform without
the 1/J factor: the transform of a point mass at x is k -> e^{2 pi i k x / J}.

The weighted average

    A_N(j) = (1/N) sum_{n<=N} nu(n) f(j + P(n)) g(j + Q(n))

admits two computation routes: the direct sum above, and the spectral
route through the coefficients

    D[N][k][l] = (1/N) sum_{n<=N} nu(n) e^{2 pi i (k P(n) + l Q(n)) / J},

via A_N(j) = sum_s c[s] e^{2 pi i s j / J}, where the total-degree spectrum
is c[s] = sum_k F(f)(k) F(g)(s-k) D[N][k][s-k].  Three routes compute A_N:

- the direct route, folding.orbit_sums;
- the blocked c: build_kernels puts one particle per class r = n mod J,
  of mass m_r / N, at (P(r) - Q(r), Q(r)), where m_r are the class masses
  of ergolab.folding; OffDiagonalKernel.total_degree reads it row by row
  and never builds D.  spectral-check takes this route;
- the explicit D: d_coefficients shears the same particles back to
  (P(r), Q(r)) and returns their 2-d transform, the J x J array D, which
  spectral_average_all contracts.

All three start from those class masses, which the test suite checks
against plain per-n loops; past that they are independent code paths and
the test suite holds them together at tight tolerances; any disagreement
is a bug, not a feature.

lp norms on Z/JZ use the normalized counting measure:
||f||_p = ((1/J) sum |f(j)|^p)^(1/p).
"""

from __future__ import annotations

import numpy as np

from . import folding, rng
# The tolerances in force and the spectral-check period cap, read by the CLI
# from ergolab.limits before it loads this module.
from .limits import (
    CONV_RTOL,
    KERNEL_CONSISTENCY_RTOL,
    MAX_CHECK_PERIOD,
    PARSEVAL_RTOL,
    ROUNDTRIP_RTOL,
    SQUARE_IDENTITY_RTOL,
    TOLERANCES,
)
from .polynomials import IntPolynomial
from .weights import WeightTable


class PeriodicSignal:
    """Complex J-periodic sequence; index arithmetic is always mod J."""

    __slots__ = ("period", "values")

    def __init__(self, period: int, values: np.ndarray):
        self.period = period
        self.values = np.asarray(values, dtype=np.complex128)
        if self.period < 1 or self.values.shape != (self.period,):
            raise ValueError("values must be a complex vector of length period >= 1")

    @classmethod
    def constant(cls, period: int, value: complex = 1.0) -> "PeriodicSignal":
        return cls(period, np.full(period, value, dtype=np.complex128))

    @classmethod
    def delta(cls, period: int, at: int = 0) -> "PeriodicSignal":
        values = np.zeros(period, dtype=np.complex128)
        values[at % period] = 1.0
        return cls(period, values)

    @classmethod
    def seeded_pm1(cls, period: int, seed: int) -> "PeriodicSignal":
        return cls(period, rng.pm1(seed, period).astype(np.complex128))

    @classmethod
    def seeded_complex(cls, period: int, seed: int) -> "PeriodicSignal":
        return cls(period, rng.complex_box(seed, period))

    def norm(self, p: float) -> float:
        """lp norm under the normalized counting measure (1/J) sum."""
        if p == np.inf:
            return float(np.max(np.abs(self.values)))
        return float(np.mean(np.abs(self.values) ** p) ** (1.0 / p))

    def norm_counting(self, p: float) -> float:
        """lp norm under unnormalized counting measure (plain sum)."""
        if p == np.inf:
            return float(np.max(np.abs(self.values)))
        return float(np.sum(np.abs(self.values) ** p) ** (1.0 / p))


class Spectrum:
    """Fourier coefficients under the 1/J-forward normalization."""

    __slots__ = ("period", "coeffs")

    def __init__(self, period: int, coeffs: np.ndarray):
        self.period = period
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        if self.period < 1 or self.coeffs.shape != (self.period,):
            raise ValueError("coeffs must be a complex vector of length period >= 1")


def dft(signal: PeriodicSignal) -> Spectrum:
    """Forward transform, 1/J on this side.  Exact-length FFT for any J."""
    return Spectrum(signal.period, np.fft.fft(signal.values) / signal.period)


def idft(spectrum: Spectrum) -> PeriodicSignal:
    return PeriodicSignal(spectrum.period, np.fft.ifft(spectrum.coeffs) * spectrum.period)


def d_coefficients(
    table: WeightTable,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    n_max: int,
    period: int,
) -> np.ndarray:
    """The J x J array D[k][l] of weighted character sums, |D[k][l]| <= 1,
    in O(N + J^2 log J).

    D is the transform of the particles of build_kernels sheared back from
    (u, v) = (P(r) - Q(r), Q(r)) to ((u + v) mod J, v) = (P(r), Q(r));
    phases are exact because the residues are computed with modular Horner
    evaluation.
    """
    kernel = build_kernels(table, p_poly, q_poly, n_max, period)
    rows = (kernel.rows + kernel.cols) % period
    return OffDiagonalKernel(period, rows, kernel.cols, kernel.masses).transform()


class OffDiagonalKernel:
    """Signed particle masses on (Z/JZ)^2."""

    __slots__ = ("period", "rows", "cols", "masses")

    def __init__(self, period: int, rows: np.ndarray, cols: np.ndarray, masses: np.ndarray):
        self.period, self.rows, self.cols, self.masses = period, rows, cols, masses

    def dense(self) -> np.ndarray:
        flat = np.bincount(
            self.rows * self.period + self.cols,
            weights=self.masses,
            minlength=self.period * self.period,
        )
        return flat.reshape(self.period, self.period)

    def transform(self) -> np.ndarray:
        """(k, s) -> sum_i mass_i e^{2 pi i (k u_i + s v_i) / J}.

        The masses are real, so entry (k, s) is the conjugate of the
        forward transform at (k, s) and equals it at (-k, -s): rfft2 gives
        the columns s < J//2 + 1, and the rest are its columns and rows
        read backwards.
        """
        j = self.period
        half = np.fft.rfft2(self.dense())
        h = j // 2 + 1
        m = j - h
        out = np.empty((j, j), dtype=np.complex128)
        np.conjugate(half, out=out[:, :h])
        out[0, h:] = half[0, m:0:-1]
        out[1:, h:] = half[:0:-1, m:0:-1]
        return out

    def total_degree(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """c[s] = sum_k F(f)(k) F(g)(s-k) transform()[k, s], without the
        J x J transform.

        f and g are the J values of two J-periodic signals.  Grouped by
        row u, the particles give c = sum_u fft(f(. + u) g) * ifft(M_u),
        where M_u holds the masses of row u at their columns: the J factors
        of the two transforms cancel.  M_u is real, so J ifft(M_u) is the
        conjugate of its real-input transform on columns s < J//2 + 1 and
        that transform at column J - s above.  Rows go in blocks of about
        folding._BLOCK_ELEMENTS elements, each one gather, one fft, one
        bincount and one rfft, so memory is O(block * J).
        """
        j = self.period
        if f.shape != (j,) or g.shape != (j,):
            raise ValueError("signals must have the kernel's period")
        order = np.argsort(self.rows, kind="stable")
        rows, cols, masses = self.rows[order], self.cols[order], self.masses[order]
        u, starts = np.unique(rows, return_index=True)
        bounds = np.append(starts, rows.size)
        f_windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([f, f]), j)
        block = max(1, folding._BLOCK_ELEMENTS // j)
        h = j // 2 + 1
        m = j - h
        total = np.zeros(j, dtype=np.complex128)
        for first in range(0, u.size, block):
            last = min(first + block, u.size)
            x = f_windows[u[first:last]]
            x *= g
            x = np.fft.fft(x, axis=1)
            lo, hi = bounds[first], bounds[last]
            slot = np.repeat(np.arange(last - first), np.diff(bounds[first : last + 1]))
            grid = np.bincount(
                slot * j + cols[lo:hi], weights=masses[lo:hi], minlength=(last - first) * j
            )
            half = np.fft.rfft(grid.reshape(-1, j), axis=1)
            x[:, h:] *= half[:, m:0:-1]
            x[:, :h] *= half.conj()
            total += x.sum(axis=0)
        return total / j


def build_kernels(
    table: WeightTable,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    n_max: int,
    period: int,
) -> OffDiagonalKernel:
    """L: one particle per class r = n mod J of mass m_r / N at
    (P(r) - Q(r), Q(r)).

    The 2-d transform of L reproduces the D matrix along fixed-total
    slices: transform(L)[k, s] == D[k][(s-k) mod J], and L.total_degree
    gives the total-degree spectrum c without either.
    """
    _, classes, masses = folding.class_masses(table, period, [n_max])
    a = folding.residues(p_poly, period, n_max)[classes]
    b = folding.residues(q_poly, period, n_max)[classes]
    return OffDiagonalKernel(period, (a - b) % period, b, masses / n_max)


def _total_degree_spectrum(f_spec: Spectrum, g_spec: Spectrum, coeffs: np.ndarray) -> np.ndarray:
    """c[s] = sum_k F(f)(k) F(g)(s-k) D[k][s-k]; regrouping by s = k + l.

    Rows k go in blocks of about folding._BLOCK_ELEMENTS elements.  The
    terms F(f)(k) F(g)(l) D[k][l] of a block are laid twice along l, and a
    view whose row k starts k places further left reads each at
    s = (k + l) mod J, as np.roll(row k, k) would: one skew gather and one
    sum per block, in one reused scratch array.
    """
    j = coeffs.shape[0]
    if not f_spec.period == g_spec.period == j:
        raise ValueError("spectra and coefficients must share one period")
    ff, fg = f_spec.coeffs, g_spec.coeffs
    block = min(j, max(1, folding._BLOCK_ELEMENTS // j))
    twice = np.empty((block, 2 * j), dtype=np.complex128)
    rows, cols = twice.strides
    total = np.zeros(j, dtype=np.complex128)
    for first in range(0, j, block):
        size = min(block, j - first)
        terms = twice[:size, :j]
        np.multiply(coeffs[first : first + size], fg, out=terms)
        terms *= ff[first : first + size, None]
        twice[:size, j:] = terms
        # row i of the view starts at twice[i, j - (first + i)]
        skew = np.lib.stride_tricks.as_strided(
            twice[0, j - first :], shape=terms.shape, strides=(rows - cols, cols), writeable=False
        )
        total += skew.sum(axis=0)
    return total


def spectral_average_all(f_spec: Spectrum, g_spec: Spectrum, coeffs: np.ndarray) -> PeriodicSignal:
    """A_N at every j through the Fourier route from D: one inverse
    transform of the total-degree spectrum."""
    total = _total_degree_spectrum(f_spec, g_spec, coeffs)
    return idft(Spectrum(coeffs.shape[0], total))


def direct_average_all(
    table: WeightTable,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    f: PeriodicSignal,
    g: PeriodicSignal,
    n_max: int,
) -> PeriodicSignal:
    """Direct route evaluated at every j.

    The sum is folded onto the classes n mod J, so it costs O(N + J^2)
    rather than O(N J).
    """
    (block,) = folding.orbit_sums(table, p_poly, q_poly, f.values, g.values, [n_max])
    return PeriodicSignal(f.period, np.divide(block[0], n_max, dtype=np.complex128))


def l2_norm_of_average(f_spec: Spectrum, g_spec: Spectrum, coeffs: np.ndarray) -> float:
    """Squared normalized l2 norm of A_N from the spectral side:
    sum_s |sum_k F(f)(k) F(g)(s-k) D[k][s-k]|^2.

    Equals (1/J) sum_j |A_N(j)|^2; the test suite checks the direct side.
    """
    total = _total_degree_spectrum(f_spec, g_spec, coeffs)
    return float(np.sum(np.abs(total) ** 2))
