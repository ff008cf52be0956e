"""Command-line entry point.

Subcommands: sieve, expsum (scan | profile | short), average,
spectral-check, maximal, report.  Every run is fully determined by the
merged configuration and the seed; reports embed the configuration,
tool version, and the tolerance constants in force, and are written
byte-identically on repeated runs (wall-clock timing goes to stderr
only).  Precedence: built-in defaults < config file (key=value lines)
< explicit flags.  ERGO_LAB_THREADS overrides the default worker count;
an explicit --threads flag wins.  Worker count never changes output.

Exit codes: 0 success, 2 invariant violation detected mid-run,
3 I/O failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, dynamics, maximal, rng, spectral
from .expsums import RationalAngle, RationalGrid, grid_scan, max_over_grid, short_interval_sum
from .polynomials import IntPolynomial, parse_poly
from .spectral import TOLERANCES, PeriodicSignal
from .weights import WeightKind, sieve as run_sieve

USAGE_EXIT = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 means invariant here
        raise UsageError(message)


_WEIGHTS = {"mobius": WeightKind.MOBIUS, "liouville": WeightKind.LIOUVILLE}

_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _to_bool(text):
    if isinstance(text, bool):
        return text
    try:
        return _BOOL_STRINGS[str(text).strip().lower()]
    except KeyError:
        raise UsageError(f"cannot read boolean value {text!r}") from None


# Per-subcommand option schema: key -> (converter, default).  Defaults may
# be callables evaluated at parse time (threads honours ERGO_LAB_THREADS).
def _default_threads():
    env = os.environ.get("ERGO_LAB_THREADS")
    if env is None:
        return 1
    try:
        value = int(env)
    except ValueError:
        raise UsageError(f"ERGO_LAB_THREADS={env!r} is not an integer") from None
    if value < 1:
        raise UsageError("ERGO_LAB_THREADS must be at least 1")
    return value


_SCHEMAS: dict[str, dict[str, tuple]] = {
    "sieve": {
        "weight": (str, "mobius"),
        "limit": (int, 1000),
        "out": (str, None),
        "sums": (_to_bool, False),
        "threads": (int, _default_threads),
    },
    "expsum": {
        "mode": (str, "scan"),
        "weight": (str, "mobius"),
        "poly": (str, "0,1"),
        "n_max": (int, 10000),
        "grid_den": (int, 4096),
        "n_list": (str, "1024,4096,16384"),
        "start": (int, 10000),
        "span": (int, 1000),
        "theta": (str, "0/1"),
        "out": (str, None),
        "threads": (int, _default_threads),
    },
    "average": {
        "system": (str, "cyclic:128"),
        "f": (str, "pm1:1"),
        "g": (str, "pm1:2"),
        "poly_p": (str, "0,0,1"),
        "poly_q": (str, "0,1"),
        "weight": (str, "mobius"),
        "rho": (float, 2.0),
        "limit": (int, 65536),
        "starts": (int, 1),
        "seed": (int, 0),
        "out": (str, None),
        "threads": (int, _default_threads),
    },
    "spectral-check": {
        "j": (int, 256),
        "n": (int, 1000),
        "poly_p": (str, "0,0,1"),
        "poly_q": (str, "0,1"),
        "weight": (str, "mobius"),
        "seed": (int, 0),
        "trials": (int, 3),
        "inject_fault": (_to_bool, False),
        "out": (str, None),
        "threads": (int, _default_threads),
    },
    "maximal": {
        "mode": (str, "oscillation"),
        "j": (int, 1024),
        "rho": (float, 2.0),
        "bands": (int, 10),
        "n_max": (int, 0),  # 0: use the last band endpoint
        "weight": (str, "mobius"),
        "poly_p": (str, "0,1"),
        "poly_q": (str, "0,-1"),
        "seed": (int, 0),
        "out": (str, None),
        "threads": (int, _default_threads),
    },
    "report": {
        "inputs": (list, ()),
        "out": (str, None),
        "threads": (int, _default_threads),
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ergolab", description=__doc__, argument_default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)
        p.add_argument("--config", help="key=value file; flags take precedence")
        p.add_argument("--threads", type=int, help="worker count (never changes output)")
        p.add_argument("--out", help="output file path")
        return p

    p = add("sieve", help="write sieved weight values as CSV")
    p.add_argument("--weight", choices=sorted(_WEIGHTS))
    p.add_argument("--limit", type=int)
    p.add_argument("--sums", action="store_true", help="append running partial sums")

    p = add("expsum", help="weighted polynomial exponential sums")
    # the optional positional mode (scan | profile | short) is extracted in
    # parse_args; argparse positionals do not combine with SUPPRESS defaults
    p.add_argument("--weight", choices=sorted(_WEIGHTS))
    p.add_argument("--poly", help='phase polynomial "c0,c1,..."')
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--grid-den", type=int, dest="grid_den")
    p.add_argument("--n-list", dest="n_list", help="comma-separated lengths (profile mode)")
    p.add_argument("--start", type=int, help="window start (short mode)")
    p.add_argument("--span", type=int, help="window span (short mode)")
    p.add_argument("--theta", help="frequency a/q in turns (short mode)")

    p = add("average", help="bilinear averages along a lacunary ladder")
    p.add_argument("--system", help="cyclic:J or rotation:p/q")
    p.add_argument("--f", help="observable spec (pm1:SEED delta:K const:C complex:SEED modes:M=C;..)")
    p.add_argument("--g", help="observable spec")
    p.add_argument("--poly-p", dest="poly_p")
    p.add_argument("--poly-q", dest="poly_q")
    p.add_argument("--weight", choices=sorted(_WEIGHTS))
    p.add_argument("--rho", type=float)
    p.add_argument("--limit", type=int)
    p.add_argument("--starts", type=int, help="number of seeded start points")
    p.add_argument("--seed", type=int)

    p = add("spectral-check", help="dual-path Fourier identity check, JSON report")
    p.add_argument("--j", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--poly-p", dest="poly_p")
    p.add_argument("--poly-q", dest="poly_q")
    p.add_argument("--weight", choices=sorted(_WEIGHTS))
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                   help="corrupt one coefficient (test fixture; forces exit 2)")

    p = add("maximal", help="maximal / oscillation statistics, JSON report")
    p.add_argument("--mode", choices=["band", "global", "weaktype", "oscillation"])
    p.add_argument("--j", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--bands", type=int)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--weight", choices=sorted(_WEIGHTS))
    p.add_argument("--poly-p", dest="poly_p")
    p.add_argument("--poly-q", dest="poly_q")
    p.add_argument("--seed", type=int)

    p = add("report", help="aggregate prior outputs into one JSON summary")
    p.add_argument("--inputs", nargs="+")

    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def parse_args(argv) -> dict:
    """Merged, validated run configuration (defaults < config file < flags)."""
    argv = list(argv)
    mode = None
    if argv and argv[0] == "expsum" and len(argv) > 1 and not argv[1].startswith("-"):
        mode = argv.pop(1)
    namespace = _build_parser().parse_args(argv)
    explicit = vars(namespace)
    if mode is not None:
        explicit["mode"] = mode
    subcommand = explicit.pop("subcommand")
    schema = _SCHEMAS[subcommand]

    merged = {}
    for key, (_, default) in schema.items():
        merged[key] = default() if callable(default) and not isinstance(default, type) else default
    config_path = explicit.pop("config", None)
    if config_path:
        file_values = _read_config_file(config_path)
        unknown = set(file_values) - set(schema)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        merged.update(file_values)
    merged.update(explicit)

    for key, value in list(merged.items()):
        converter = schema[key][0]
        if converter is list:
            merged[key] = list(value) if not isinstance(value, str) else value.split(",")
            continue
        if isinstance(value, str) and converter is not str:
            try:
                merged[key] = converter(value)
            except (TypeError, ValueError):
                raise UsageError(f"--{key.replace('_', '-')}: cannot read {value!r}") from None
        elif converter is _to_bool:
            merged[key] = _to_bool(value)

    merged["subcommand"] = subcommand
    _validate(merged)
    return merged


def _validate(config: dict) -> None:
    sub = config["subcommand"]
    if config.get("threads", 1) < 1:
        raise UsageError("--threads must be at least 1")
    if "weight" in config and config["weight"] not in _WEIGHTS:
        raise UsageError(f"--weight must be one of {sorted(_WEIGHTS)}")
    if "rho" in config and config["rho"] <= 1.0:
        raise UsageError("--rho: rho must exceed 1")
    if "limit" in config and config["limit"] < 1:
        raise UsageError("--limit must be at least 1")
    if sub == "expsum":
        mode = config["mode"]
        if mode not in ("scan", "profile", "short"):
            raise UsageError("expsum mode must be scan, profile, or short")
        if mode == "scan":
            _at_least(config, "n_max", 1)
        if mode in ("scan", "profile"):
            _at_least(config, "grid_den", 1)
        if mode == "profile":
            _lengths(config["n_list"])
        if mode == "short":
            if "/" not in config["theta"]:
                raise UsageError("--theta must be a fraction a/q")
            _at_least(config, "start", 1)
            _at_least(config, "span", 1)
    if sub == "spectral-check":
        for key in ("j", "n", "trials"):
            _at_least(config, key, 1)
    if sub == "maximal":
        _at_least(config, "j", 1)
        _at_least(config, "bands", 1)
        _at_least(config, "n_max", 0)
    if sub == "report" and not config["inputs"]:
        raise UsageError("--inputs requires at least one file")


def _at_least(config: dict, key: str, low: int) -> None:
    if config[key] < low:
        raise UsageError(f"--{key.replace('_', '-')} must be at least {low}")


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
        raise UsageError(f"--{key.replace('_', '-')}: {exc}") from None


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
    system = _parse_system(config["system"])
    f = _parse_observable(config["f"], system)
    g = _parse_observable(config["g"], system)
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    table = run_sieve(_WEIGHTS[config["weight"]], config["limit"])
    state_count = system.period if isinstance(system, dynamics.CyclicShift) else system.denominator
    starts = [0]
    if config["starts"] > 1:
        starts.extend(
            int(s) for s in rng.integers_mod(config["seed"], config["starts"] - 1, state_count)
        )

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
            entry["content"] = json.loads(text)
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


def run(config: dict) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    started = time.monotonic()
    try:
        code = _COMMANDS[config["subcommand"]](config)
    except OSError as exc:
        print(f"ergolab: i/o failure: {exc}", file=sys.stderr)
        return 3
    print(
        f"ergolab {config['subcommand']}: wall {time.monotonic() - started:.3f}s",
        file=sys.stderr,
    )
    return code


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"ergolab: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return run(config)
    except UsageError as exc:
        print(f"ergolab: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
