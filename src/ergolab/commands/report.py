"""report: aggregate prior outputs into one JSON summary."""

from __future__ import annotations

import codecs
import hashlib  # maps OpenSSL's libcrypto; no other command loads it
import json
from collections.abc import Iterable, Iterator

from ..cli import UsageError, _write_report

# The line boundaries of str.splitlines; "\r\n" is one boundary.
_LINE_BREAKS = ("\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# Bytes per read of a report input.
_READ_CHUNK = 1 << 16


def _decoded_chunks(handle, digest) -> Iterator[str]:
    """The text of a binary file, _READ_CHUNK bytes at a time, as
    bytes.decode("utf-8", errors="replace") gives it whole; each chunk of
    bytes also goes to digest."""
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


def run(config: dict) -> int:
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
