"""Deterministic data export: CSV with provenance comments, or JSON records.

Identical inputs must produce byte-identical files.  CSV floats are printed
with 17 significant digits (enough to round-trip a double exactly), lines
end with '\\n', and '#'-prefixed comment lines before the column header
carry everything needed to re-run the scenario: tool version, command, and
the full config as one-line JSON.  JSON output mirrors the same rows as an
array of records under a "provenance" header object, laid out exactly as
``json.dumps(doc, indent=2, sort_keys=True)`` would lay it out.

Rows arrive as blocks of numpy columns.  ``render`` turns each block into
one text chunk with a single %-template over the block's ``.tolist()``
values; a column that is constant over the block arrives as a 0-d value
and is formatted into the template once.  ``write_text`` streams the
chunks into a temporary file that replaces the target only once it is
complete, so a file is never held in memory whole and an ``--out`` file
is still either complete or absent.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from typing import Any, Iterable, Iterator, Sequence

FLOAT_FORMAT = ".17g"


def format_value(value: Any) -> str:
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


def provenance(command: str, version: str, config_doc: dict, extra: dict | None = None) -> dict:
    prov = {
        "tool": "ccawalk",
        "version": version,
        "command": command,
        "config": config_doc,
    }
    if extra:
        prov.update(extra)
    return prov


def _comment_lines(prov: dict) -> list[str]:
    lines = []
    for key, value in prov.items():
        if isinstance(value, (dict, list)):
            rendered = json.dumps(value, sort_keys=True, separators=(",", ":"))
        else:
            rendered = format_value(value)
        lines.append(f"# {key} = {rendered}")
    return lines


def _row_major(values: Sequence[list]) -> tuple:
    """One block's values row by row: the arguments of its %-template."""
    width = len(values)
    flat = [None] * (len(values[0]) * width)
    for slot, column in enumerate(values):
        flat[slot::width] = column
    return tuple(flat)


def _fill(cells) -> tuple[list[str], int, tuple]:
    """A block's template slots, its row count and its template arguments.

    ``cells`` holds one (slot, values) pair per column.  A 0-d column comes
    as its own literal with values None, so it is formatted once per block
    instead of once per row.
    """
    slots = [slot for slot, _ in cells]
    values = [column for _, column in cells if column is not None]
    return slots, len(values[0]), _row_major(values)


def _literal(text: str) -> tuple[str, None]:
    return text.replace("%", "%%"), None


def _csv_column(column) -> tuple[str, list | None]:
    """Template slot and values of one column; a 0-d column is a literal."""
    if column.ndim == 0:
        return _literal(format_value(column.tolist()))
    return ("%d" if column.dtype.kind in "iu" else "%" + FLOAT_FORMAT), column.tolist()


def _csv_chunks(prov: dict, columns: list[str], blocks) -> Iterator[str]:
    yield "\n".join(_comment_lines(prov) + [",".join(columns)]) + "\n"
    for block in blocks:
        slots, rows, values = _fill([_csv_column(c) for c in block])
        yield (",".join(slots) + "\n") * rows % values


def _json_column(column) -> tuple[str, list | None]:
    """Template slot and values of one column, as ``json.dumps`` prints them.

    ``%r`` of a Python int or finite float is what the encoder writes; a
    float column holding NaN or an infinity takes the encoder's own names.
    A 0-d column is a literal.
    """
    values = column.tolist()
    if column.ndim == 0:
        return _literal(json.dumps(values))
    if column.dtype.kind == "f" and not (abs(column) < float("inf")).all():
        return "%s", [json.dumps(v) for v in values]
    return "%r", values


def _json_chunks(prov: dict, columns: list[str], blocks) -> Iterator[str]:
    head = json.dumps({"provenance": prov, "records": []}, indent=2, sort_keys=True)
    yield head[: -len("]\n}")]  # ends with '"records": ['
    order = sorted(range(len(columns)), key=columns.__getitem__)
    keys = [json.dumps(columns[i]).replace("%", "%%") for i in order]
    separator = "\n"
    for block in blocks:
        slots, rows, values = _fill([_json_column(block[i]) for i in order])
        if not rows:
            continue
        fields = ",\n".join(f"      {key}: {slot}" for key, slot in zip(keys, slots))
        record = "    {\n" + fields + "\n    }"
        yield separator + ",\n".join([record] * rows) % values
        separator = ",\n"
    yield "]\n}\n" if separator == "\n" else "\n  ]\n}\n"


def render(
    fmt: str, prov: dict, columns: list[str], blocks: Iterable[Sequence]
) -> Iterator[str]:
    """Text chunks of one artifact, rendered lazily block by block.

    ``blocks`` yields row blocks, each a sequence of numpy columns in
    ``columns`` order: equal-length 1-d arrays, at least one per block, and
    0-d values that repeat on every row of the block.  Integers print as
    integers, floats with 17 significant digits in CSV and as ``repr`` in
    JSON.
    """
    if fmt == "json":
        return _json_chunks(prov, columns, blocks)
    return _csv_chunks(prov, columns, blocks)


def write_text(text: str | Iterable[str], path: str | None) -> None:
    """Write to ``path``, or stdout when path is None or '-'. Single writer.

    ``text`` is one string or an iterable of string chunks, written in
    order as they are produced.  A file is written whole or not at all: the
    chunks go to a temporary file beside the target, which replaces it once
    the last chunk is written; if producing or writing a chunk fails, the
    temporary file is removed and the target is left as it was.  The
    permission bits are those a plain ``open()`` would leave: an existing
    file keeps its own, a new one gets 0o666 under the umask.  A target
    that exists but is not a regular file, such as a device or a pipe, is
    written to in place.
    """
    chunks = (text,) if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    target = os.path.realpath(path)
    try:
        existing = os.stat(target)
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        return
    head, tail = os.path.split(target)
    temporary = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(temporary, flags, 0o666)  # not mkstemp, which makes 0o600
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            if existing is not None:
                os.chmod(temporary, stat.S_IMODE(existing.st_mode))
            fh.writelines(chunks)
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
