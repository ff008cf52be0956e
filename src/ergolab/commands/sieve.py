"""sieve: the sieved weight values as CSV, with their running sums on --sums."""

from __future__ import annotations

# _table sieves through weights; importing it here loads it, and numpy,
# with this module (see cli.console_main).
from .. import weights  # noqa: F401
from ..cli import _table
from ..csvrows import _write_csv


def run(config: dict) -> int:
    table = _table(config, config["limit"])
    header, columns = "n,value", [range(1, table.limit + 1), table.values[1:]]
    if config["sums"]:
        header, columns = header + ",partial_sum", [*columns, table.cumulative()[1:]]
    _write_csv(config["out"], header, columns)
    return 0
