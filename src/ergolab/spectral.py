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

via A_N(j) = sum_{k,l} F(f)(k) F(g)(l) D[N][k][l] e^{2 pi i (k+l) j / J}.
D is the 2-d transform of the lifted kernel pair: one particle per class
r = n mod J with mass m_r / N at (P(r), Q(r)), where m_r are the class
masses of ergolab.folding.  The direct route is folding.orbit_sums.  Both
routes start from those class masses, which the test suite checks against
plain per-n loops; past that they are independent code paths and the
test suite holds them together at tight tolerances; any disagreement is
a bug, not a feature.

lp norms on Z/JZ use the normalized counting measure:
||f||_p = ((1/J) sum |f(j)|^p)^(1/p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import folding, rng
from .polynomials import IntPolynomial
from .weights import WeightTable

# Tolerances in force for the dual-path identities (relative to
# max(1, reference magnitude)).
ROUNDTRIP_RTOL = 1e-12
PARSEVAL_RTOL = 1e-12
CONV_RTOL = 1e-9
SQUARE_IDENTITY_RTOL = 1e-9
KERNEL_CONSISTENCY_RTOL = 1e-9

TOLERANCES = {
    "roundtrip_rtol": ROUNDTRIP_RTOL,
    "parseval_rtol": PARSEVAL_RTOL,
    "conv_rtol": CONV_RTOL,
    "square_identity_rtol": SQUARE_IDENTITY_RTOL,
    "kernel_consistency_rtol": KERNEL_CONSISTENCY_RTOL,
}

# Largest period the command line accepts: d_coefficients builds dense
# J x J arrays, about 2.6 GB of peak memory at J = 8192.
MAX_DENSE_PERIOD = 8192


@dataclass
class PeriodicSignal:
    """Complex J-periodic sequence; index arithmetic is always mod J."""

    period: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
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


@dataclass
class Spectrum:
    """Fourier coefficients under the 1/J-forward normalization."""

    period: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.period < 1 or self.coeffs.shape != (self.period,):
            raise ValueError("coeffs must be a complex vector of length period >= 1")


def dft(signal: PeriodicSignal) -> Spectrum:
    """Forward transform, 1/J on this side.  Exact-length FFT for any J."""
    return Spectrum(signal.period, np.fft.fft(signal.values) / signal.period)


def idft(spectrum: Spectrum) -> PeriodicSignal:
    return PeriodicSignal(spectrum.period, np.fft.ifft(spectrum.coeffs) * spectrum.period)


@dataclass
class DCoefficients:
    """Matrix D[k][l] of weighted character sums; |D[k][l]| <= 1."""

    period: int
    length: int
    matrix: np.ndarray

    def slice_by_total(self, s: int) -> np.ndarray:
        """Vector over k of D[k][(s-k) mod J], the fixed-total-degree slice."""
        j = self.period
        k = np.arange(j)
        return self.matrix[k, (s - k) % j]


def d_coefficients(
    table: WeightTable,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    n_max: int,
    period: int,
) -> DCoefficients:
    """All J^2 coefficients in O(N + J^2 log J).

    D is the transform of off_diagonal(K_P, K_Q), the folded kernels of
    build_kernels lifted to (P(r), Q(r)); phases are exact because the
    residues are computed with modular Horner evaluation.
    """
    k_p, k_q, _ = build_kernels(table, p_poly, q_poly, n_max, period)
    matrix = off_diagonal(k_p, k_q).transform()
    return DCoefficients(period=period, length=n_max, matrix=matrix)


@dataclass
class DiagonalKernel:
    """Signed particle masses on Z/JZ: one particle per class n mod J."""

    period: int
    positions: np.ndarray
    masses: np.ndarray

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def dense(self) -> np.ndarray:
        out = np.zeros(self.period, dtype=np.float64)
        np.add.at(out, self.positions, self.masses)
        return out

    def transform(self) -> np.ndarray:
        """k -> sum_i mass_i e^{2 pi i k x_i / J} (no 1/J for mass tables)."""
        return np.fft.ifft(self.dense()) * self.period


@dataclass
class OffDiagonalKernel:
    """Signed particle masses on (Z/JZ)^2."""

    period: int
    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def dense(self) -> np.ndarray:
        flat = np.bincount(
            self.rows * self.period + self.cols,
            weights=self.masses,
            minlength=self.period * self.period,
        )
        return flat.reshape(self.period, self.period)

    def transform(self) -> np.ndarray:
        """(k, s) -> sum_i mass_i e^{2 pi i (k u_i + s v_i) / J}."""
        out = np.fft.ifft2(self.dense())
        out *= self.period * self.period
        return out


def off_diagonal(
    kernel: DiagonalKernel, other: DiagonalKernel | None = None
) -> OffDiagonalKernel:
    """Lift particle kernels to the product space.

    With one argument the particles land on the diagonal (x_i, x_i); with
    two kernels sharing the same particle masses they land on (x_i, y_i).
    """
    if other is None:
        other = kernel
    if kernel.period != other.period:
        raise ValueError("kernel periods differ")
    if kernel.positions.shape != other.positions.shape or not np.array_equal(
        kernel.masses, other.masses
    ):
        raise ValueError("kernels must share the same particle list and masses")
    return OffDiagonalKernel(
        period=kernel.period,
        rows=kernel.positions.copy(),
        cols=other.positions.copy(),
        masses=kernel.masses.copy(),
    )


def build_kernels(
    table: WeightTable,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    n_max: int,
    period: int,
) -> tuple[DiagonalKernel, DiagonalKernel, OffDiagonalKernel]:
    """(K_P, K_Q, L): one particle per class r = n mod J of mass m_r / N,
    at P(r) in K_P, at Q(r) in K_Q and at (P(r)-Q(r), Q(r)) in L.

    The 2-d transform of L reproduces the D matrix along fixed-total
    slices: transform(L)[k, s] == D[k][(s-k) mod J].
    """
    _, classes, masses = folding.class_masses(table, period, [n_max])
    w = masses / n_max
    a = folding.residues(p_poly, period, n_max)[classes]
    b = folding.residues(q_poly, period, n_max)[classes]
    k_p = DiagonalKernel(period, a, w)
    k_q = DiagonalKernel(period, b, w.copy())
    l_kernel = OffDiagonalKernel(period, (a - b) % period, b, w.copy())
    return k_p, k_q, l_kernel


def _total_degree_spectrum(
    f_spec: Spectrum, g_spec: Spectrum, coeffs: DCoefficients
) -> np.ndarray:
    """c[s] = sum_k F(f)(k) F(g)(s-k) D[k][s-k]; regrouping by s = k + l."""
    if not f_spec.period == g_spec.period == coeffs.period:
        raise ValueError("spectra and coefficients must share one period")
    j = coeffs.period
    ff, fg = f_spec.coeffs, g_spec.coeffs
    total = np.zeros(j, dtype=np.complex128)
    for k in range(j):
        total += ff[k] * np.roll(fg * coeffs.matrix[k], k)
    return total


def spectral_average_all(
    f_spec: Spectrum, g_spec: Spectrum, coeffs: DCoefficients
) -> PeriodicSignal:
    """A_N at every j through the Fourier route: one inverse transform of
    the total-degree spectrum."""
    total = _total_degree_spectrum(f_spec, g_spec, coeffs)
    return idft(Spectrum(coeffs.period, total))


def spectral_average(
    f_spec: Spectrum, g_spec: Spectrum, coeffs: DCoefficients, j: int
) -> complex:
    total = _total_degree_spectrum(f_spec, g_spec, coeffs)
    period = coeffs.period
    chars = np.exp(2j * np.pi * (j % period) * np.arange(period) / period)
    return complex(np.sum(total * chars))


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
    sums = folding.orbit_sums(table, p_poly, q_poly, f.values, g.values, [n_max])
    return PeriodicSignal(f.period, sums[0] / n_max)


def l2_norm_of_average(
    f_spec: Spectrum, g_spec: Spectrum, coeffs: DCoefficients
) -> float:
    """Squared normalized l2 norm of A_N from the spectral side:
    sum_s |sum_k F(f)(k) F(g)(s-k) D[k][s-k]|^2.

    Equals (1/J) sum_j |A_N(j)|^2; the test suite checks the direct side.
    """
    total = _total_degree_spectrum(f_spec, g_spec, coeffs)
    return float(np.sum(np.abs(total) ** 2))


@dataclass(frozen=True)
class L4BoundRow:
    length: int
    l2_norm: float
    norm4_product: float
    ratio: float


def l4_bound_report(
    f: PeriodicSignal,
    g: PeriodicSignal,
    table: WeightTable,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    n_list: list[int],
) -> list[L4BoundRow]:
    """||A_N||_2 against ||f||_4 ||g||_4 for increasing N.

    Emits the measured ratio per N so its decay can be inspected; no hard
    bound is asserted because the comparison constant is not effective.
    The class masses come from one segmented pass over the N list; the
    matrix at each N is the transform of the lifted kernel pair built
    from the segments up to that N.
    """
    if f.period != g.period:
        raise ValueError("signal periods differ")
    period = f.period
    offsets, classes, masses = folding.class_masses(table, period, n_list)
    f_spec, g_spec = dft(f), dft(g)
    norm4 = f.norm(4) * g.norm(4)

    rows = []
    a = folding.residues(p_poly, period, n_list[-1])[classes]
    b = folding.residues(q_poly, period, n_list[-1])[classes]
    for k, n_max in enumerate(n_list):
        end = offsets[k + 1]
        kernel = OffDiagonalKernel(period, a[:end], b[:end], masses[:end] / n_max)
        coeffs = DCoefficients(period=period, length=n_max, matrix=kernel.transform())
        l2 = float(np.sqrt(l2_norm_of_average(f_spec, g_spec, coeffs)))
        ratio = l2 / norm4 if norm4 > 0 else 0.0
        rows.append(L4BoundRow(n_max, l2, norm4, ratio))
    return rows
