"""Exact integer polynomials with overflow-safe modular evaluation.

Coefficients are stored constant term first.  eval_mod_range runs one
Horner loop, reduced mod m at every step, over a whole array of
arguments.  It is exact for every modulus m >= 1: up to
_VECTOR_MODULUS_MAX, where (m-1)**2 + (m-1) fits in int64, the loop runs
on int64 elements; above it the same loop runs on Python integers in an
object-dtype array.  eval_mod is the scalar reference it is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 8
_COEFF_BOUND = 1 << 63
# Largest modulus for which (m-1)**2 + (m-1) fits in int64.
_VECTOR_MODULUS_MAX = 3_037_000_499


@dataclass(frozen=True)
class IntPolynomial:
    """Non-constant polynomial with integer coefficients, constant first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        if len(trimmed) < 2:
            raise ValueError("polynomial must be non-constant (degree >= 1)")
        if len(trimmed) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(trimmed) - 1} exceeds cap {MAX_DEGREE}")
        for c in trimmed:
            if not -_COEFF_BOUND <= c < _COEFF_BOUND:
                raise ValueError("coefficients must fit in signed 64 bits")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, n: int) -> int:
        """Exact value P(n) by Horner's rule on Python integers."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def spec_string(self) -> str:
        """Round-trippable "c0,c1,...,cd" form (see parse_poly)."""
        return ",".join(str(c) for c in self.coeffs)


def parse_poly(text: str) -> IntPolynomial:
    """Parse "c0,c1,...,cd" (constant term first) into a polynomial."""
    try:
        coeffs = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed polynomial string {text!r}: {exc}") from None
    return IntPolynomial(coeffs)


def eval_mod(poly: IntPolynomial, n: int, m: int) -> int:
    """P(n) mod m in [0, m), exact for arbitrary n and m >= 1.

    Every Horner step is reduced mod m; Python integers make the
    intermediate products exact regardless of size.
    """
    if m < 1:
        raise ValueError("modulus must be at least 1")
    acc = 0
    nr = n % m
    for c in reversed(poly.coeffs):
        acc = (acc * nr + c) % m
    return acc


def eval_mod_range(poly: IntPolynomial, n_values: np.ndarray, m: int) -> np.ndarray:
    """P(n) mod m in [0, m) for an array of int64 arguments, exact for m >= 1.

    The result is int64 for m <= _VECTOR_MODULUS_MAX and an object-dtype
    array of Python integers above it.
    """
    if m < 1:
        raise ValueError("modulus must be at least 1")
    n_values = np.asarray(n_values, dtype=np.int64)
    if m > _VECTOR_MODULUS_MAX:
        n_values = n_values.astype(object)
    nr = n_values % m
    acc = np.zeros_like(nr)
    for c in reversed(poly.coeffs):
        acc = (acc * nr + (c % m)) % m
    return acc


def maps_naturals_to_naturals(poly: IntPolynomial, probe_limit: int) -> bool:
    """True when the leading coefficient is positive and P(n) >= 0 for
    n = 0..probe_limit (finite probe; no symbolic positivity check)."""
    if probe_limit < 1:
        raise ValueError("probe_limit must be at least 1")
    if poly.coeffs[-1] <= 0:
        return False
    return all(poly(n) >= 0 for n in range(probe_limit + 1))
