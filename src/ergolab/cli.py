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
import math
import os
import sys
import time
from contextlib import contextmanager

# Each subcommand's handler is in its own module, ergolab.commands.<name>,
# imported when that subcommand runs, with the numerical layers it reads:
# report and a usage error load no numpy, and sieve loads weights only.
from . import __version__
from .limits import (
    MAX_CHECK_PERIOD,
    MAX_CYCLIC_PERIOD,
    MAX_GRID_DENOMINATOR,
    TOLERANCES,
    CapacityError,
)

USAGE_EXIT = 64

# Most worker threads, seeded starts and spectral-check trials a run may
# ask for; fixed so a config exits the same way on every machine.
MAX_THREADS = 64
MAX_STARTS = 1024
MAX_TRIALS = 1024


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


class _Option:
    """One option: flag --some-key, config key some-key or some_key.

    A callable default is evaluated at parse time.  low and high bound
    the converted value, inclusive.
    """

    __slots__ = ("default", "convert", "help", "choices", "low", "high")

    def __init__(self, default=None, convert=str, help=None, choices=(), low=None, high=None):
        self.default, self.convert, self.help = default, convert, help
        self.choices, self.low, self.high = choices, low, high


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

# Each subcommand's line in the top-level help.  Its handler is run() of
# the module ergolab.commands.<name, "-" read as "_">.
_SUMMARIES = {
    "sieve": "write sieved weight values as CSV",
    "expsum": "weighted polynomial exponential sums",
    "average": "bilinear averages along a lacunary ladder",
    "spectral-check": "dual-path Fourier identity check, JSON report",
    "maximal": "maximal / oscillation statistics, JSON report",
    "report": "aggregate prior outputs into one JSON summary",
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


def _build_parser(argv: list) -> _Parser:
    """The parser of argv: with the subparser of the subcommand argv names
    alone, or of every subcommand when argv names none (no argument, a
    flag such as --help, or an unknown word).  The parser of one
    subcommand reads argv as the full one does."""
    parser = _Parser(prog="ergolab", description=__doc__, argument_default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = argv[:1] if argv[:1] and argv[0] in _OPTIONS else _OPTIONS
    for name in names:
        p = sub.add_parser(name, help=_SUMMARIES[name], argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value file; flags take precedence")
        for key, option in _OPTIONS[name].items():
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
    argv = list(argv)
    explicit = vars(_build_parser(argv).parse_args(argv))
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
    import json  # only the commands that write JSON load it

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


def run_sieve(kind, limit: int):
    """weights.sieve, looked up when called; every command sieves here."""
    from . import weights

    return weights.sieve(kind, limit)


def _table(config: dict, limit: int):
    """The table of config's --weight for n <= limit."""
    from .weights import WeightKind

    return run_sieve(WeightKind(config["weight"]), limit)


# CapacityError: a table past the sieve cap, raised before any allocation
_FAILURES = (UsageError, CapacityError, OSError)


def _failure(exc: Exception) -> int:
    """Report a usage or I/O failure on stderr; returns its exit code."""
    if isinstance(exc, OSError):
        print(f"ergolab: i/o failure: {exc}", file=sys.stderr)
        return 3
    print(f"ergolab: error: {exc}", file=sys.stderr)
    return USAGE_EXIT


def _handler(subcommand: str):
    """run() of the subcommand's module, ergolab.commands.<name>.  Importing
    it loads the layers that command reads and no other command.  With a
    fromlist, __import__ returns the submodule itself, and -X importtime
    lists it with what it imports."""
    module = f"{__package__}.commands.{subcommand.replace('-', '_')}"
    return __import__(module, fromlist=["run"]).run


def run(config: dict) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    started = time.monotonic()
    try:
        code = _handler(config["subcommand"])(config)
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
    """Parse sys.argv, run the command and exit with its code: the process
    entry of python -m ergolab and of the ergolab script.

    The collector stays off while the command's modules are imported, and
    everything then alive is frozen before it is turned back on: numpy's
    and ergolab's import-time objects are never garbage, and neither a
    collection during numpy's import nor one after the run walks them.
    After the run one collection finalizes the run's own objects, so -X dev
    still reports a file left open, and a second freeze leaves the
    interpreter's shutdown collection nothing to walk.  main, which callers
    run in process, never touches the collector.
    """
    gc.disable()
    try:
        config = parse_args(sys.argv[1:])
    except _FAILURES as exc:
        sys.exit(_failure(exc))
    _handler(config["subcommand"])
    gc.freeze()
    gc.enable()
    code = run(config)
    gc.collect()
    gc.freeze()
    sys.exit(code)
