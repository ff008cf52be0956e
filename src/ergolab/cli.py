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
64 usage error (including a table past the sieve capacity, an
expsum --grid-den above expsums.MAX_GRID_DENOMINATOR, a spectral-check
--j above spectral.MAX_DENSE_PERIOD, a non-finite --rho and a report
input that is not valid JSON).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, dynamics, expsums, maximal, rng, spectral
from .expsums import RationalAngle, RationalGrid, grid_scan, max_over_grid, short_interval_sum
from .polynomials import IntPolynomial, parse_poly
from .spectral import TOLERANCES, PeriodicSignal
from .weights import CapacityError, WeightKind, sieve as run_sieve

USAGE_EXIT = 64

# Most worker threads a run may ask for; fixed so a config exits the same
# way on every machine.
MAX_THREADS = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 means invariant here
        raise UsageError(message)


_WEIGHTS = {"mobius": WeightKind.MOBIUS, "liouville": WeightKind.LIOUVILLE}

_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _to_bool(value) -> bool:
    return _BOOL_STRINGS[str(value).strip().lower()]


def _to_list(value) -> list:
    """Flag values arrive as a list, config-file values as "a,b"."""
    return value.split(",") if isinstance(value, str) else list(value)


def _default_threads():
    """ERGO_LAB_THREADS if set; checked like a --threads value."""
    return os.environ.get("ERGO_LAB_THREADS", 1)


@dataclass(frozen=True)
class _Option:
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

_WEIGHT = _Option("mobius", choices=tuple(sorted(_WEIGHTS)))
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
        "grid_den": _Option(4096, int, high=expsums.MAX_GRID_DENOMINATOR),
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
        "starts": _Option(1, int, "number of seeded start points"),
        "seed": _SEED,
        "out": _OUT,
        "threads": _THREADS,
    },
    "spectral-check": {
        "j": _Option(256, int, low=1, high=spectral.MAX_DENSE_PERIOD),
        "n": _Option(1000, int, low=1),
        "poly_p": _Option("0,0,1"),
        "poly_q": _Option("0,1"),
        "weight": _WEIGHT,
        "seed": _SEED,
        "trials": _Option(3, int, low=1),
        "inject_fault": _Option(
            False, _to_bool, "corrupt one coefficient (test fixture; forces exit 2)"
        ),
        "out": _OUT,
        "threads": _THREADS,
    },
    "maximal": {
        "mode": _Option("oscillation", choices=("band", "global", "weaktype", "oscillation")),
        "j": _Option(1024, int, low=1),
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


def _poly(config: dict, key: str) -> IntPolynomial:
    try:
        return parse_poly(config[key])
    except ValueError as exc:
        raise UsageError(f"{_flag(key)}: {exc}") from None


# ----------------------------------------------------------------- output --

def _float_repr(value: float) -> str:
    return repr(float(value))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _json_report(config: dict, results: dict, status: str = "ok") -> str:
    payload = {
        "tool": "ergolab",
        "version": __version__,
        "subcommand": config["subcommand"],
        "config": {k: v for k, v in config.items() if k != "subcommand"},
        "tolerances": dict(TOLERANCES),
        "status": status,
        "results": results,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(rows, header: str) -> str:
    lines = [header]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ subcommands --

def _cmd_sieve(config: dict) -> int:
    """write sieved weight values as CSV"""
    table = run_sieve(_WEIGHTS[config["weight"]], config["limit"])
    if config["sums"]:
        sums = table.cumulative()
        rows = ((n, int(table.values[n]), int(sums[n])) for n in range(1, table.limit + 1))
        text = _csv(rows, "n,value,partial_sum")
    else:
        rows = ((n, int(table.values[n])) for n in range(1, table.limit + 1))
        text = _csv(rows, "n,value")
    _write_text(config["out"], text)
    return 0


def _cmd_expsum(config: dict) -> int:
    """weighted polynomial exponential sums"""
    poly = _poly(config, "poly")
    mode = config["mode"]
    if mode == "profile":
        lengths = _lengths(config["n_list"])
        limit = max(lengths)
    elif mode == "scan":
        limit = config["n_max"]
    else:
        limit = config["start"] + config["span"]
    table = run_sieve(_WEIGHTS[config["weight"]], limit)
    if mode == "scan":
        grid = RationalGrid(config["grid_den"])
        values = grid_scan(table, poly, grid, config["n_max"])
        thetas = 2.0 * np.pi * np.arange(grid.denominator) / grid.denominator
        rows = (
            (_float_repr(t), _float_repr(v.real), _float_repr(v.imag), _float_repr(abs(v)))
            for t, v in zip(thetas, values)
        )
        _write_text(config["out"], _csv(rows, "theta,re,im,abs"))
        return 0
    if mode == "profile":
        grid = RationalGrid(config["grid_den"])
        rows = []
        for n_max in lengths:
            theta_star, value = max_over_grid(table, poly, grid, n_max)
            rows.append((n_max, _float_repr(value), _float_repr(theta_star)))
        _write_text(config["out"], _csv(rows, "n,max_abs,theta_star"))
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
    _write_text(config["out"], _json_report(config, results))
    return 0


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
                return PeriodicSignal.constant(period, complex(rest))
        else:
            if kind == "modes":
                modes, coeffs = [], []
                for part in rest.split(";"):
                    mode, _, coeff = part.partition("=")
                    modes.append(int(mode))
                    coeffs.append(complex(coeff))
                return dynamics.TrigPolynomial(tuple(modes), tuple(coeffs))
    except ValueError as exc:
        raise UsageError(f"observable {spec!r}: {exc}") from None
    raise UsageError(f"observable {spec!r} not valid for {type(system).__name__}")


def _cmd_average(config: dict) -> int:
    """bilinear averages along a lacunary ladder"""
    system = _parse_system(config["system"])
    f = _parse_observable(config["f"], system)
    g = _parse_observable(config["g"], system)
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    try:  # each trace builds this ladder again; check it once, before the sieve
        maximal.LacunaryLadder.build(config["rho"], config["limit"])
    except ValueError as exc:
        raise UsageError(f"--rho/--limit: {exc}") from None
    table = run_sieve(_WEIGHTS[config["weight"]], config["limit"])
    starts = [0]
    if config["starts"] > 1:
        count = dynamics.state_count(system)
        starts.extend(int(s) for s in rng.integers_mod(config["seed"], config["starts"] - 1, count))

    def trace_rows(x):
        trace = dynamics.convergence_trace(
            system, f, g, p_poly, q_poly, table, config["rho"], x
        )
        return [
            (x, n, _float_repr(v.real), _float_repr(v.imag), _float_repr(abs(v)))
            for n, v in zip(trace.lengths, trace.values)
        ]

    rows = []
    for block in _pooled_map(trace_rows, starts, config["threads"]):
        rows.extend(block)
    _write_text(config["out"], _csv(rows, "start,n,re,im,abs"))
    return 0


def _pooled_map(fn, items, threads: int):
    """Order-preserving map; the pool size never affects the output."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _cmd_spectral_check(config: dict) -> int:
    """dual-path Fourier identity check, JSON report"""
    period, n_max = config["j"], config["n"]
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    table = run_sieve(_WEIGHTS[config["weight"]], n_max)
    coeffs = spectral.d_coefficients(table, p_poly, q_poly, n_max, period)
    if config["inject_fault"]:
        coeffs.matrix[1 % period, 1 % period] += 1e-3

    def one_trial(index: int) -> dict:
        f = PeriodicSignal.seeded_complex(period, rng.derive_seed(config["seed"], 2 * index))
        g = PeriodicSignal.seeded_complex(period, rng.derive_seed(config["seed"], 2 * index + 1))
        f_spec, g_spec = spectral.dft(f), spectral.dft(g)
        back = spectral.idft(f_spec)
        roundtrip = float(np.max(np.abs(back.values - f.values)))
        parseval = abs(
            float(np.mean(np.abs(f.values) ** 2)) - float(np.sum(np.abs(f_spec.coeffs) ** 2))
        )
        a_spec = spectral.spectral_average_all(f_spec, g_spec, coeffs)
        a_dir = spectral.direct_average_all(table, p_poly, q_poly, f, g, n_max)
        scale = max(1.0, float(np.max(np.abs(a_dir.values))))
        conv = float(np.max(np.abs(a_spec.values - a_dir.values))) / scale
        sq_spec = spectral.l2_norm_of_average(f_spec, g_spec, coeffs)
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
    _write_text(config["out"], _json_report(config, results, status=status))
    return 2 if violated else 0


def _cmd_maximal(config: dict) -> int:
    """maximal / oscillation statistics, JSON report"""
    period = config["j"]
    phi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(config["seed"], 0))
    psi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(config["seed"], 1))
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    try:
        ladder = maximal.LacunaryLadder.build(config["rho"], 1 << 24, band_count=config["bands"])
    except ValueError as exc:
        raise UsageError(f"--rho/--bands: {exc}") from None
    n_top = config["n_max"] or ladder.bands[-1]
    table = run_sieve(_WEIGHTS[config["weight"]], max(n_top, ladder.bands[-1]))
    mode = config["mode"]
    if mode == "band":
        norms = []
        for k in range(1, ladder.band_count + 1):
            signal = maximal.band_maximal(phi, psi, p_poly, q_poly, table, ladder, k)
            norms.append(
                {
                    "band": k,
                    "endpoints": list(ladder.band(k)),
                    "l2_norm": signal.norm(2),
                    "max": signal.norm(np.inf),
                }
            )
        results = {"bands": norms}
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
    _write_text(config["out"], _json_report(config, results))
    return 0


def _cmd_report(config: dict) -> int:
    """aggregate prior outputs into one JSON summary"""
    entries = []
    for path in config["inputs"]:
        with open(path, "rb") as handle:
            blob = handle.read()
        entry = {
            "path": path,
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        text = blob.decode("utf-8", errors="replace")
        if path.endswith(".json"):
            entry["kind"] = "json"
            try:
                entry["content"] = json.loads(text)
            except json.JSONDecodeError as exc:
                raise UsageError(f"--inputs: {path} is not valid JSON: {exc}") from None
        else:
            entry["kind"] = "csv"
            lines = text.splitlines()
            entry["header"] = lines[0] if lines else ""
            entry["rows"] = max(len(lines) - 1, 0)
        entries.append(entry)
    _write_text(config["out"], _json_report(config, {"inputs": entries}))
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


if __name__ == "__main__":
    sys.exit(main())
