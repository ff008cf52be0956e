"""expsum: weighted polynomial exponential sums, in scan, profile or
short mode."""

from __future__ import annotations

import numpy as np

from .. import expsums
from ..cli import UsageError, _lengths, _poly, _table, _write_report


def run(config: dict) -> int:
    poly = _poly(config, "poly")
    mode = config["mode"]
    if mode == "profile":
        lengths = _lengths(config["n_list"])
        limit = max(lengths)
    elif mode == "scan":
        limit = config["n_max"]
    else:
        limit = config["start"] + config["span"]
    table = _table(config, limit)
    if mode == "scan":
        from ..csvrows import _re_im_abs, _write_csv  # short writes JSON: it never loads the writer

        q = config["grid_den"]
        values = expsums.grid_scan(table, poly, q, config["n_max"])
        thetas = 2.0 * np.pi * np.arange(q) / q
        _write_csv(config["out"], "theta,re,im,abs", [thetas, *_re_im_abs(values)])
        return 0
    if mode == "profile":
        from ..csvrows import _write_csv

        peaks = expsums.grid_maxima(table, poly, config["grid_den"], lengths)
        theta_stars, maxima = np.array(peaks).T
        _write_csv(config["out"], "n,max_abs,theta_star", [np.array(lengths), maxima, theta_stars])
        return 0
    numer, _, denom = config["theta"].partition("/")
    try:
        angle = expsums.RationalAngle(int(numer), int(denom))
    except ValueError as exc:
        raise UsageError(f"--theta: {exc}") from None
    result = expsums.short_interval_sum(table, angle, config["start"], config["span"])
    results = {
        "re": result.value.real,
        "im": result.value.imag,
        "abs": abs(result.value),
        "start": result.start,
        "span": result.span,
        "meets_exponent_threshold": result.meets_exponent_threshold,
    }
    _write_report(config, results)
    return 0
