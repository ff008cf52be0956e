"""Command-line entry point.

Subcommands: sieve, expsum (scan | profile | short), average,
spectral-check, maximal, report.  Every run is fully determined by the
merged configuration and the seed; reports embed the configuration,
tool version, and the tolerance constants in force, and are written
byte-identically on repeated runs (wall-clock timing goes to stderr
only).  Precedence: built-in defaults < config file (key=value lines)
< explicit flags.  A config key is the flag name (n-max or n_max), and
every merged value passes the same conversion, choices and range checks
whichever source it came from.  ERGO_LAB_THREADS overrides the default
worker count; an explicit --threads flag wins; either way it is at most
MAX_THREADS.  Worker count never changes output.

Exit codes: 0 success, 2 invariant violation detected mid-run,
3 I/O failure (including a missing or unreadable --config file),
64 usage error (including a table past the sieve capacity, a value
outside its option's low..high such as a spectral-check --j above
spectral.MAX_CHECK_PERIOD or --trials above MAX_TRIALS, an average
cyclic:J period above dynamics.MAX_CYCLIC_PERIOD, an average whose
sup|f| * sup|g| * --limit overflows a float, a maximal run past
MAX_WORK element updates, a non-finite --rho and a report input that is not
valid JSON).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import NamedTuple

# numpy and the numerical layers are imported by the commands that use
# them: report and a usage error load neither, and sieve loads weights only.
from . import __version__
from .limits import (
    MAX_CHECK_PERIOD,
    MAX_CYCLIC_PERIOD,
    MAX_GRID_DENOMINATOR,
    TOLERANCES,
    CapacityError,
    check_capacity,
)

USAGE_EXIT = 64

# Most worker threads, seeded starts and spectral-check trials a run may
# ask for; fixed so a config exits the same way on every machine.
MAX_THREADS = 64
MAX_STARTS = 1024
MAX_TRIALS = 1024
# Most element updates a maximal run may ask for, max(J, 512) times the
# sum of min(N_k - N_{k-1}, J) over its orbit_sums lengths: 12 to 15 s of
# global mode with +-1 signals (int32 sums) on a 2-core machine.
MAX_WORK = 1 << 32


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 means invariant here
        raise UsageError(message)


_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _to_bool(value) -> bool:
    return _BOOL_STRINGS[str(value).strip().lower()]


def _to_list(value) -> list:
    """Flag values arrive as a list, config-file values as "a,b"."""
    return value.split(",") if isinstance(value, str) else list(value)


def _default_threads():
    """ERGO_LAB_THREADS if set; checked like a --threads value."""
    return os.environ.get("ERGO_LAB_THREADS", 1)


class _Option(NamedTuple):
    """One option: flag --some-key, config key some-key or some_key.

    A callable default is evaluated at parse time.  low and high bound
    the converted value, inclusive.
    """

    default: object = None
    convert: Callable = str
    help: str | None = None
    choices: tuple = ()
    low: int | None = None
    high: int | None = None


# argparse form of the flags that do not take one string
_FLAG_FORMS = {_to_bool: {"action": "store_true"}, _to_list: {"nargs": "+"}}

_WEIGHT = _Option("mobius", choices=("liouville", "mobius"))  # weights.WeightKind values
_SEED = _Option(0, int)
_RHO = _Option(2.0, float)
_OUT = _Option(help="output file path")
_THREADS = _Option(
    _default_threads, int, "worker count (never changes output)", low=1, high=MAX_THREADS
)

_OPTIONS: dict[str, dict[str, _Option]] = {
    "sieve": {
        "weight": _WEIGHT,
        "limit": _Option(1000, int, low=1),
        "out": _OUT,
        "sums": _Option(False, _to_bool, "append running partial sums"),
        "threads": _THREADS,
    },
    "expsum": {
        "mode": _Option("scan", help="what to compute", choices=("scan", "profile", "short")),
        "weight": _WEIGHT,
        "poly": _Option("0,1", help='phase polynomial "c0,c1,..."'),
        "n_max": _Option(10000, int),
        "grid_den": _Option(4096, int, high=MAX_GRID_DENOMINATOR),
        "n_list": _Option("1024,4096,16384", help="comma-separated lengths (profile mode)"),
        "start": _Option(10000, int, "window start (short mode)"),
        "span": _Option(1000, int, "window span (short mode)"),
        "theta": _Option("0/1", help="frequency a/q in turns (short mode)"),
        "out": _OUT,
        "threads": _THREADS,
    },
    "average": {
        "system": _Option("cyclic:128", help="cyclic:J or rotation:p/q"),
        "f": _Option(
            "pm1:1", help="observable spec (pm1:SEED delta:K const:C complex:SEED modes:M=C;..)"
        ),
        "g": _Option("pm1:2", help="observable spec"),
        "poly_p": _Option("0,0,1"),
        "poly_q": _Option("0,1"),
        "weight": _WEIGHT,
        "rho": _RHO,
        "limit": _Option(65536, int, low=1),
        "starts": _Option(1, int, "number of seeded start points", low=1, high=MAX_STARTS),
        "seed": _SEED,
        "out": _OUT,
        "threads": _THREADS,
    },
    "spectral-check": {
        "j": _Option(256, int, low=1, high=MAX_CHECK_PERIOD),
        "n": _Option(1000, int, low=1),
        "poly_p": _Option("0,0,1"),
        "poly_q": _Option("0,1"),
        "weight": _WEIGHT,
        "seed": _SEED,
        "trials": _Option(3, int, low=1, high=MAX_TRIALS),
        "inject_fault": _Option(
            False, _to_bool, "corrupt one coefficient (test fixture; forces exit 2)"
        ),
        "out": _OUT,
        "threads": _THREADS,
    },
    "maximal": {
        "mode": _Option("oscillation", choices=("band", "global", "weaktype", "oscillation")),
        "j": _Option(1024, int, low=1, high=MAX_CYCLIC_PERIOD),
        "rho": _RHO,
        "bands": _Option(10, int, low=1),
        "n_max": _Option(0, int, "0: use the last band endpoint", low=0),
        "weight": _WEIGHT,
        "poly_p": _Option("0,1"),
        "poly_q": _Option("0,-1"),
        "seed": _SEED,
        "out": _OUT,
        "threads": _THREADS,
    },
    "report": {
        "inputs": _Option((), _to_list),
        "out": _OUT,
        "threads": _THREADS,
    },
}

# expsum's mode is an optional positional word, not a flag
_POSITIONAL = ("expsum", "mode")

# the lengths each expsum mode reads, each at least 1
_EXPSUM_LENGTHS = {
    "scan": ("n_max", "grid_den"),
    "profile": ("grid_den",),
    "short": ("start", "span"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ergolab", description=__doc__, argument_default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, help=_COMMANDS[name].__doc__, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value file; flags take precedence")
        for key, option in options.items():
            form = dict(_FLAG_FORMS.get(option.convert, {}))
            if option.choices:
                form["metavar"] = "{" + ",".join(option.choices) + "}"
            if (name, key) == _POSITIONAL:  # choices are checked in _checked
                p.add_argument(key, nargs="?", help=option.help, **form)
            else:
                p.add_argument(_flag(key), help=option.help, **form)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except UnicodeDecodeError as exc:
        raise UsageError(f"--config {path}: {exc}") from None
    return values


def parse_args(argv) -> dict:
    """Merged, validated run configuration (defaults < config file < flags)."""
    explicit = vars(_build_parser().parse_args(list(argv)))
    subcommand = explicit.pop("subcommand")
    options = _OPTIONS[subcommand]

    merged = {k: o.default() if callable(o.default) else o.default for k, o in options.items()}
    config_path = explicit.pop("config", None)
    if config_path:
        file_values = _read_config_file(config_path)
        unknown = set(file_values) - set(options)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        merged.update(file_values)
    merged.update(explicit)

    config = {key: _checked(subcommand, key, value) for key, value in merged.items()}
    config["subcommand"] = subcommand
    _validate(config)
    return config


def _checked(subcommand: str, key: str, value):
    """The one conversion and range check, whatever the value's source."""
    if value is None:
        return None
    option = _OPTIONS[subcommand][key]
    name = " ".join(_POSITIONAL) if (subcommand, key) == _POSITIONAL else _flag(key)
    try:
        value = option.convert(value)
    except (KeyError, TypeError, ValueError):
        raise UsageError(f"{name}: cannot read {value!r}") from None
    if option.choices and value not in option.choices:
        raise UsageError(f"{name} must be one of {', '.join(option.choices)}")
    if option.low is not None:
        _at_least(key, value, option.low)
    if option.high is not None and value > option.high:
        raise UsageError(f"{name} must be at most {option.high}")
    return value


def _at_least(key: str, value, low: int) -> None:
    if value < low:
        raise UsageError(f"{_flag(key)} must be at least {low}")


def _validate(config: dict) -> None:
    """The checks that span options or read a format."""
    if "rho" in config:
        if not math.isfinite(config["rho"]):
            raise UsageError("--rho must be finite")
        if config["rho"] <= 1.0:
            raise UsageError("--rho: rho must exceed 1")
    if config["subcommand"] == "expsum":
        mode = config["mode"]
        for key in _EXPSUM_LENGTHS[mode]:
            _at_least(key, config[key], 1)
        if mode == "profile":
            _lengths(config["n_list"])
        if mode == "short" and "/" not in config["theta"]:
            raise UsageError("--theta must be a fraction a/q")
    if config["subcommand"] == "report" and not config["inputs"]:
        raise UsageError("--inputs requires at least one file")


def _lengths(text) -> list[int]:
    """The --n-list lengths; each must be at least 1."""
    try:
        lengths = [int(part) for part in str(text).split(",")]
    except ValueError:
        raise UsageError(f"--n-list: cannot read {text!r}") from None
    if min(lengths) < 1:
        raise UsageError("--n-list lengths must be at least 1")
    return lengths


def _poly(config: dict, key: str):
    """The IntPolynomial that option key spells."""
    from .polynomials import parse_poly

    try:
        return parse_poly(config[key])
    except ValueError as exc:
        raise UsageError(f"{_flag(key)}: {exc}") from None


# ----------------------------------------------------------------- output --

# Rows per CSV block: the writer holds one block's text, never the file's.
_CSV_BLOCK_ROWS = 1 << 14


@contextmanager
def _output(path: str | None):
    """stdout (left open) when path is None, else the file at path."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_report(config: dict, results: dict, status: str = "ok") -> None:
    """The JSON report: configuration, tolerances, status and results."""
    payload = {
        "tool": "ergolab",
        "version": __version__,
        "subcommand": config["subcommand"],
        "config": {k: v for k, v in config.items() if k != "subcommand"},
        "tolerances": dict(TOLERANCES),
        "status": status,
        "results": results,
    }
    with _output(config["out"]) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str | None, header: str, columns) -> None:
    """The header, then the rows of the columns (see _write_rows)."""
    with _output(path) as out:
        out.write(header + "\n")
        _write_rows(out, columns)


def _write_rows(out, columns) -> None:
    """One line per row of the equal-length columns (numpy arrays, ranges,
    lists or tuples), _CSV_BLOCK_ROWS at a time; a cell prints as str() of
    its Python value.  When every column is a range or an integer array,
    each block is written by _integer_rows; otherwise by str.format, which
    float cells need for their repr."""
    import numpy as np

    integer = all(_is_integer(column) for column in columns)
    line = ",".join(["{}"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        cells = [column[start : start + _CSV_BLOCK_ROWS] for column in columns]
        if integer:
            out.write(_integer_rows(cells))
            continue
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
        out.write("".join(map(line.format, *cells)))


def _is_integer(column) -> bool:
    """True for a range and an integer numpy array."""
    dtype = getattr(column, "dtype", None)
    return isinstance(column, range) or dtype is not None and dtype.kind in "iu"


def _integer_rows(cells) -> str:
    """The CSV lines of one block of integer columns (ranges or integer
    arrays), each cell as str() writes it.

    The block becomes one uint8 matrix, a row per line and a column per
    character.  Each CSV column is a field as wide as its longest cell,
    then its separator.  Digits fill a field from the right, one floor
    division by 10 each (in uint32 when every magnitude fits), a "-" goes
    just left of each negative cell's digits, and a mask keeps what was
    written: one boolean compress of the matrix is the text, row by row.
    """
    import numpy as np

    rows = len(cells[0])
    fields = []
    for cell in cells:
        if isinstance(cell, range):
            cell = np.arange(cell.start, cell.stop, cell.step, dtype=np.int64)
        magnitude = cell.astype(np.uint64)  # a negative wraps to 2^64 - |cell|
        negative = cell < 0 if cell.dtype.kind == "i" else None
        if negative is not None and negative.any():
            np.negative(magnitude, out=magnitude, where=negative)
        else:
            negative = None
        top = int(magnitude.max()) if rows else 0
        if top < 1 << 32:
            magnitude = magnitude.astype(np.uint32)
        fields.append((magnitude, negative, len(str(top))))
    width = sum(digits + (negative is not None) + 1 for _, negative, digits in fields)
    text = np.empty((rows, width), dtype=np.uint8)
    keep = np.ones((rows, width), dtype=bool)
    end = -1  # the separator column of the field before
    for q, negative, digits in fields:
        start, end = end + 1, end + 1 + digits + (negative is not None)
        count = np.ones(rows, dtype=np.intp)  # digits of each cell
        for k in range(digits):  # units first; q holds magnitude // 10^k
            column = end - 1 - k
            if k:  # a leading zero where q is 0
                np.not_equal(q, 0, out=keep[:, column])
                count += keep[:, column]
            quotient = q // 10
            text[:, column] = q - quotient * 10 + ord("0")
            q = quotient
        if negative is not None:  # the sign column is kept only for a "-"
            keep[:, start] = False
            at = np.flatnonzero(negative) * width + (end - 1 - count[negative])
            text.ravel()[at] = ord("-")
            keep.ravel()[at] = True
        text[:, end] = ord(",")
    text[:, -1] = ord("\n")
    return text[keep].tobytes().decode("ascii")


def _re_im_abs(values) -> list:
    import numpy as np

    # abs(complex) is hypot(re, im); numpy's complex abs can differ in the last digit
    return [values.real, values.imag, np.hypot(values.real, values.imag)]


def run_sieve(kind, limit: int):
    """weights.sieve, looked up when called; every command sieves here."""
    from . import weights

    return weights.sieve(kind, limit)


def _table(config: dict, limit: int):
    """The table of config's --weight for n <= limit."""
    from .weights import WeightKind

    return run_sieve(WeightKind(config["weight"]), limit)


# ------------------------------------------------------------ subcommands --

def _cmd_sieve(config: dict) -> int:
    """write sieved weight values as CSV"""
    table = _table(config, config["limit"])
    header, columns = "n,value", [range(1, table.limit + 1), table.values[1:]]
    if config["sums"]:
        header, columns = header + ",partial_sum", [*columns, table.cumulative()[1:]]
    _write_csv(config["out"], header, columns)
    return 0


def _cmd_expsum(config: dict) -> int:
    """weighted polynomial exponential sums"""
    import numpy as np

    from .expsums import RationalAngle, RationalGrid, grid_maxima, grid_scan, short_interval_sum

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
        grid = RationalGrid(config["grid_den"])
        values = grid_scan(table, poly, grid, config["n_max"])
        thetas = 2.0 * np.pi * np.arange(grid.denominator) / grid.denominator
        _write_csv(config["out"], "theta,re,im,abs", [thetas, *_re_im_abs(values)])
        return 0
    if mode == "profile":
        peaks = grid_maxima(table, poly, RationalGrid(config["grid_den"]), lengths)
        theta_stars, maxima = np.array(peaks).T
        _write_csv(config["out"], "n,max_abs,theta_star", [lengths, maxima, theta_stars])
        return 0
    numer, _, denom = config["theta"].partition("/")
    try:
        angle = RationalAngle(int(numer), int(denom))
    except ValueError as exc:
        raise UsageError(f"--theta: {exc}") from None
    result = short_interval_sum(table, angle, config["start"], config["span"])
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


def _parse_system(spec: str):
    from . import dynamics

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
    from . import dynamics
    from .spectral import PeriodicSignal

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
    from . import dynamics

    if isinstance(observable, dynamics.TrigPolynomial):
        return sum(map(abs, observable.coeffs))
    return observable.norm(math.inf)


def _cmd_average(config: dict) -> int:
    """bilinear averages along a lacunary ladder"""
    from . import dynamics, maximal, rng

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
            column = [trace.start] * len(trace.lengths)
            _write_rows(out, [column, trace.lengths, *_re_im_abs(trace.values)])
    return 0


def _pooled_map(fn, items, threads: int):
    """Order-preserving map; the pool size never affects the output."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # loads logging; only pools need it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _cmd_spectral_check(config: dict) -> int:
    """dual-path Fourier identity check, JSON report"""
    import numpy as np

    from . import rng, spectral
    from .spectral import PeriodicSignal

    period, n_max = config["j"], config["n"]
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    table = _table(config, n_max)
    l_kernel = spectral.build_kernels(table, p_poly, q_poly, n_max, period)

    def one_trial(index: int) -> dict:
        f = PeriodicSignal.seeded_complex(period, rng.derive_seed(config["seed"], 2 * index))
        g = PeriodicSignal.seeded_complex(period, rng.derive_seed(config["seed"], 2 * index + 1))
        f_spec, g_spec = spectral.dft(f), spectral.dft(g)
        back = spectral.idft(f_spec)
        roundtrip = float(np.max(np.abs(back.values - f.values)))
        parseval = abs(
            float(np.mean(np.abs(f.values) ** 2)) - float(np.sum(np.abs(f_spec.coeffs) ** 2))
        )
        total = l_kernel.total_degree(f.values, g.values)
        if config["inject_fault"]:  # what adding 1e-3 to D[1][1] adds to c
            i = 1 % period
            total[2 * i % period] += 1e-3 * f_spec.coeffs[i] * g_spec.coeffs[i]
        a_spec = spectral.idft(spectral.Spectrum(period, total))
        a_dir = spectral.direct_average_all(table, p_poly, q_poly, f, g, n_max)
        scale = max(1.0, float(np.max(np.abs(a_dir.values))))
        conv = float(np.max(np.abs(a_spec.values - a_dir.values))) / scale
        sq_spec = float(np.sum(np.abs(total) ** 2))
        sq_dir = float(np.mean(np.abs(a_dir.values) ** 2))
        square = abs(sq_spec - sq_dir) / max(1.0, sq_dir)
        return {
            "trial": index,
            "roundtrip_error": roundtrip,
            "parseval_error": parseval,
            "conv_error": conv,
            "square_identity_error": square,
        }

    trials = _pooled_map(one_trial, list(range(config["trials"])), config["threads"])
    results = {
        "max_conv_error": max(t["conv_error"] for t in trials),
        "max_square5_error": max(t["square_identity_error"] for t in trials),
        "parseval_error": max(t["parseval_error"] for t in trials),
        "roundtrip_error": max(t["roundtrip_error"] for t in trials),
        "per_trial": trials,
    }
    violated = (
        results["max_conv_error"] > TOLERANCES["conv_rtol"]
        or results["max_square5_error"] > TOLERANCES["square_identity_rtol"]
        or results["parseval_error"] > TOLERANCES["parseval_rtol"]
        or results["roundtrip_error"] > TOLERANCES["roundtrip_rtol"]
    )
    status = "invariant_violation" if violated else "ok"
    _write_report(config, results, status=status)
    return 2 if violated else 0


def _cmd_maximal(config: dict) -> int:
    """maximal / oscillation statistics, JSON report"""
    import numpy as np

    from . import maximal, rng
    from .spectral import PeriodicSignal

    period = config["j"]
    phi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(config["seed"], 0))
    psi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(config["seed"], 1))
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    mode, n_top = config["mode"], config["n_max"]
    if mode in ("band", "oscillation") or not n_top:  # the modes that read the ladder
        try:
            ladder = maximal.LacunaryLadder.build(config["rho"], 1 << 24, band_count=config["bands"])
        except ValueError as exc:
            raise UsageError(f"--rho/--bands: {exc}") from None
        n_top = n_top or ladder.bands[-1]
    if mode in ("band", "oscillation"):  # one orbit_sums pass over the members
        n_read = ladder.bands[-1]
        spans = np.diff(ladder.members_between(ladder.bands[0], n_read), prepend=0)
        terms = int(np.minimum(spans, period).sum())
    else:  # one orbit_sums row per nonzero weight
        n_read = terms = n_top
    check_capacity(n_read)  # a table past the sieve cap reports that first
    # Below J = 512 a J-long update costs about as much as a 512-long one.
    work = max(period, 512) * terms
    if work > MAX_WORK:
        raise UsageError(f"--j {period} over {terms} terms is {work} element updates, "
                         f"at most {MAX_WORK}")
    table = _table(config, n_read)
    if mode == "band":
        peaks = maximal.band_peaks(phi, psi, p_poly, q_poly, table, ladder, ladder.band_count)
        signals = (PeriodicSignal(period, peak) for peak in peaks)
        results = {"bands": [
            {"band": k, "endpoints": list(ladder.band(k)),
             "l2_norm": m.norm(2), "max": m.norm(np.inf)}
            for k, m in enumerate(signals, 1)
        ]}
    elif mode == "oscillation":
        report = maximal.oscillation_sum(
            phi, psi, p_poly, q_poly, table, ladder, config["bands"]
        )
        results = {
            "band_l2_norms": list(report.band_l2_norms),
            "cumulative": list(report.cumulative),
            "ratios": list(report.ratios),
            "norm4_product": report.norm4_product,
        }
    elif mode == "global":
        signal = maximal.global_maximal(phi, psi, p_poly, q_poly, table, n_top)
        results = {
            "n_max": n_top,
            "l2_norm": signal.norm(2),
            "l4_norm": signal.norm(4),
            "max": signal.norm(np.inf),
        }
    else:
        grid = maximal.default_lambda_grid(phi, psi)
        report = maximal.weak_type_statistic(
            phi, psi, p_poly, q_poly, table, n_top, grid
        )
        results = {
            "n_max": n_top,
            "statistic": report.statistic,
            "lambda_at_max": report.lambda_at_max,
            "norm_product": report.norm_product,
            "ratio": report.ratio,
        }
    _write_report(config, results)
    return 0


# The line boundaries of str.splitlines; "\r\n" is one boundary.
_LINE_BREAKS = ("\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# Bytes per read of a report input.
_READ_CHUNK = 1 << 16


def _decoded_chunks(handle, digest) -> Iterator[str]:
    """The text of a binary file, _READ_CHUNK bytes at a time, as
    bytes.decode("utf-8", errors="replace") gives it whole; each chunk of
    bytes also goes to digest."""
    import codecs

    decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
    while chunk := handle.read(_READ_CHUNK):
        digest.update(chunk)
        yield decoder.decode(chunk)
    yield decoder.decode(b"", final=True)


def _first_line_and_count(chunks: Iterable[str]) -> tuple[str, int]:
    """(first line, line count) as "".join(chunks).splitlines() gives them,
    one chunk at a time and without building the list of lines.  A "\r"
    that ends one chunk and a "\n" that starts the next are one boundary.
    A break is counted only in a chunk that holds one, which a memchr-fast
    `in` finds, so a chunk of "\n"-ended lines costs one full pass."""
    head, count, last, open_line = [], 0, "", True
    for text in chunks:
        if not text:
            continue
        count += sum(text.count(brk) for brk in _LINE_BREAKS if brk in text)
        if "\r" in text:
            count -= text.count("\r\n")
        if last == "\r" and text[0] == "\n":
            count -= 1
        if open_line:
            ends = [end for end in map(text.find, _LINE_BREAKS) if end >= 0]
            head.append(text[: min(ends, default=len(text))])
            open_line = not ends
        last = text[-1]
    if last and last not in _LINE_BREAKS:
        count += 1
    return "".join(head), count


def _cmd_report(config: dict) -> int:
    """aggregate prior outputs into one JSON summary"""
    import hashlib  # maps OpenSSL's libcrypto; no other command needs it

    entries = []
    for path in config["inputs"]:
        digest = hashlib.sha256()
        entry = {"path": path, "bytes": 0, "sha256": ""}  # filled once the file is read
        with open(path, "rb") as handle:
            chunks = _decoded_chunks(handle, digest)
            if path.endswith(".json"):
                entry["kind"] = "json"
                try:
                    entry["content"] = json.loads("".join(chunks))
                except json.JSONDecodeError as exc:
                    raise UsageError(f"--inputs: {path} is not valid JSON: {exc}") from None
            else:
                entry["kind"] = "csv"
                entry["header"], lines = _first_line_and_count(chunks)
                entry["rows"] = max(lines - 1, 0)
            entry["bytes"], entry["sha256"] = handle.tell(), digest.hexdigest()
        entries.append(entry)
    _write_report(config, {"inputs": entries})
    return 0


_COMMANDS = {
    "sieve": _cmd_sieve,
    "expsum": _cmd_expsum,
    "average": _cmd_average,
    "spectral-check": _cmd_spectral_check,
    "maximal": _cmd_maximal,
    "report": _cmd_report,
}


# CapacityError: a table past the sieve cap, raised before any allocation
_FAILURES = (UsageError, CapacityError, OSError)


def _failure(exc: Exception) -> int:
    """Report a usage or I/O failure on stderr; returns its exit code."""
    if isinstance(exc, OSError):
        print(f"ergolab: i/o failure: {exc}", file=sys.stderr)
        return 3
    print(f"ergolab: error: {exc}", file=sys.stderr)
    return USAGE_EXIT


def run(config: dict) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    started = time.monotonic()
    try:
        code = _COMMANDS[config["subcommand"]](config)
    except _FAILURES as exc:
        return _failure(exc)
    print(
        f"ergolab {config['subcommand']}: wall {time.monotonic() - started:.3f}s",
        file=sys.stderr,
    )
    return code


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except _FAILURES as exc:
        return _failure(exc)
    return run(config)


def console_main() -> None:
    """Run main on sys.argv and exit with its code: the process entry of
    python -m ergolab and of the ergolab script.

    The finished command's objects are collected once and then frozen, so
    the interpreter's shutdown collection skips numpy's and ergolab's
    objects (about 20 ms of each child).  The collection still finalizes
    the run's own garbage, so -X dev still reports a file left open.
    main, which callers run in process, never freezes.
    """
    code = main()
    gc.collect()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
