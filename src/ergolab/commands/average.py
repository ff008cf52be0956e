"""average: bilinear averages along a lacunary ladder, as CSV."""

from __future__ import annotations

import math

import numpy as np

from .. import dynamics, maximal, rng
from ..cli import UsageError, _output, _poly, _table
from ..csvrows import _re_im_abs, _write_rows
from ..spectral import PeriodicSignal


def _parse_system(spec: str):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "cyclic":
            return dynamics.CyclicShift(int(rest))
        if kind == "rotation":
            numer, _, denom = rest.partition("/")
            return dynamics.RationalRotation(int(numer), int(denom))
    except ValueError as exc:
        raise UsageError(f"--system: {exc}") from None
    raise UsageError(f"--system: unknown kind {spec!r}")


def _finite_complex(text: str) -> complex:
    value = complex(text)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse_observable(spec: str, system):
    kind, _, rest = spec.partition(":")
    try:
        if isinstance(system, dynamics.CyclicShift):
            period = system.period
            if kind == "pm1":
                return PeriodicSignal.seeded_pm1(period, int(rest))
            if kind == "complex":
                return PeriodicSignal.seeded_complex(period, int(rest))
            if kind == "delta":
                return PeriodicSignal.delta(period, int(rest))
            if kind == "const":
                return PeriodicSignal.constant(period, _finite_complex(rest))
        else:
            if kind == "modes":
                modes, coeffs = [], []
                for part in rest.split(";"):
                    mode, _, coeff = part.partition("=")
                    modes.append(int(mode))
                    coeffs.append(_finite_complex(coeff))
                return dynamics.TrigPolynomial(tuple(modes), tuple(coeffs))
    except ValueError as exc:
        raise UsageError(f"observable {spec!r}: {exc}") from None
    raise UsageError(f"observable {spec!r} not valid for {type(system).__name__}")


def _sup_bound(observable) -> float:
    """A bound on sup |f|: the largest |value| of a signal, sum |c| of modes."""
    if isinstance(observable, dynamics.TrigPolynomial):
        return sum(map(abs, observable.coeffs))
    return observable.norm(math.inf)


def run(config: dict) -> int:
    system = _parse_system(config["system"])
    f = _parse_observable(config["f"], system)
    g = _parse_observable(config["g"], system)
    # the running sums stay below sup|f| sup|g| N, which must be a float
    if not math.isfinite(_sup_bound(f) * _sup_bound(g) * config["limit"]):
        raise UsageError("--f/--g: sup|f| * sup|g| * --limit overflows a float")
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    try:  # before the sieve; every start's trace reads this one ladder
        ladder = maximal.LacunaryLadder.build(config["rho"], config["limit"])
    except ValueError as exc:
        raise UsageError(f"--rho/--limit: {exc}") from None
    table = _table(config, config["limit"])
    starts = [0]
    if config["starts"] > 1:
        others = rng.integers_mod(config["seed"], config["starts"] - 1, system.states)
        starts.extend(int(s) for s in others)
    traces = dynamics.convergence_traces(system, f, g, p_poly, q_poly, table, ladder, starts)
    with _output(config["out"]) as out:  # one start's rows at a time
        out.write("start,n,re,im,abs\n")
        for trace in traces:
            lengths = np.array(trace.lengths)
            column = np.full(len(lengths), trace.start)
            _write_rows(out, [column, lengths, *_re_im_abs(trace.values)])
    return 0
