"""Exact integer polynomials with overflow-safe modular evaluation.

Coefficients are stored constant term first.  eval_mod_range runs one
Horner loop, reduced mod m at every step, over a whole array of
arguments.  It is exact for every modulus m >= 1: where every step,
at most (m-1) * max(n mod m) + (m-1), fits in int64, the loop runs on
int64 elements, which holds for all arguments when m <= 3037000499;
otherwise the same loop runs on Python integers in an object-dtype
array.  eval_mod is the scalar reference it is tested against.
"""

from __future__ import annotations

import numpy as np

MAX_DEGREE = 8
_COEFF_BOUND = 1 << 63


class IntPolynomial:
    """Non-constant polynomial with integer coefficients, constant first.

    Two polynomials are equal when their trimmed coefficients are.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        trimmed = list(coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        if len(trimmed) < 2:
            raise ValueError("polynomial must be non-constant (degree >= 1)")
        if len(trimmed) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(trimmed) - 1} exceeds cap {MAX_DEGREE}")
        for c in trimmed:
            if not -_COEFF_BOUND <= c < _COEFF_BOUND:
                raise ValueError("coefficients must fit in signed 64 bits")
        self.coeffs = tuple(int(c) for c in trimmed)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, n: int) -> int:
        """Exact value P(n) by Horner's rule on Python integers."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc


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


def eval_mod_range(
    poly: IntPolynomial, n_values: np.ndarray, m: int, scale: int = 1
) -> np.ndarray:
    """scale * P(n) mod m in [0, m) for an array of int64 arguments, exact
    for m >= 1.  scale multiplies each coefficient mod m, in Python
    integers, so no step multiplies two residues.

    The result is int64 when m < 2^63 and each Horner step, at most
    (m-1) * max(n mod m) + (m-1), is below 2^63, and an object-dtype
    array of Python integers otherwise.
    """
    if m < 1:
        raise ValueError("modulus must be at least 1")
    n_values = np.asarray(n_values, dtype=np.int64)
    if m < _COEFF_BOUND:
        nr = n_values % m
        top = int(nr.max()) if nr.size else 0
        if (m - 1) * top + (m - 1) >= _COEFF_BOUND:  # a step could overflow int64
            nr = nr.astype(object)
    else:
        nr = n_values.astype(object) % m
    acc = np.zeros_like(nr)
    for c in reversed(poly.coeffs):
        acc = (acc * nr + scale * c % m) % m
    return acc
