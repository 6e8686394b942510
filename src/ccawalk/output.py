"""Deterministic data export: CSV with provenance comments, or JSON records.

Identical inputs must produce byte-identical files.  CSV floats are printed
with 17 significant digits (enough to round-trip a double exactly), lines
end with '\\n', and '#'-prefixed comment lines before the column header
carry everything needed to re-run the scenario: tool version, command, and
the full config as one-line JSON.  JSON output mirrors the same rows as an
array of records under a "provenance" header object, laid out exactly as
``json.dumps(doc, indent=2, sort_keys=True)`` would lay it out.

A table arrives whole, as K x T numpy arrays: ``render`` walks it in
row-major order, at most ``BLOCK_ROWS`` rows of one outer index k at a
time, and turns each block into one text chunk with a single %-template
over the block's ``.tolist()`` values; the outer columns' values at k are
formatted into the template once, not once per row.  ``write_text``
streams the chunks into a temporary file that replaces the target only
once it is complete, so a file is never held in memory whole and an
``--out`` file is still either complete or absent.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

FLOAT_FORMAT = ".17g"
BLOCK_ROWS = 4096  # rows rendered and written at a time


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


def _blocks(outer, inner, values, literal, column, order) -> Iterator[tuple]:
    """Template slots, row count and template arguments of each row block.

    Row k*T + j holds every ``outer`` column at k, every ``inner`` column
    at j, then ``values[k][j]``, and ``order`` lists the columns in
    template order.  A block holds at most ``BLOCK_ROWS`` rows of one k:
    each outer value at k is formatted once, as the literal text
    ``literal`` makes of it, and ``column`` gives the slot and the values
    of every other column's slice.
    """
    heads = [np.asarray(c).tolist() for c in outer]
    for k, row in enumerate(values):
        head = [(literal(c[k]), None) for c in heads]  # a number holds no '%'
        for start in range(0, len(row), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            cells = head + [column(c[block]) for c in inner] + [column(row[block])]
            cells = [cells[i] for i in order]
            args = [data for _, data in cells if data is not None]
            yield [slot for slot, _ in cells], len(args[0]), _row_major(args)


def _csv_column(column) -> tuple[str, list]:
    return ("%d" if column.dtype.kind in "iu" else "%" + FLOAT_FORMAT), column.tolist()


def _csv_chunks(prov: dict, columns: list[str], blocks) -> Iterator[str]:
    yield "\n".join(_comment_lines(prov) + [",".join(columns)]) + "\n"
    for slots, rows, values in blocks:
        yield (",".join(slots) + "\n") * rows % values


def _json_column(column) -> tuple[str, list]:
    """Template slot and values of one column, as ``json.dumps`` prints them.

    ``%r`` of a Python int or finite float is what the encoder writes; a
    float column holding NaN or an infinity takes the encoder's own names.
    """
    values = column.tolist()
    if column.dtype.kind == "f" and not (abs(column) < float("inf")).all():
        return "%s", [json.dumps(v) for v in values]
    return "%r", values


def _json_chunks(prov: dict, keys: list[str], blocks) -> Iterator[str]:
    head = json.dumps({"provenance": prov, "records": []}, indent=2, sort_keys=True)
    yield head[: -len("]\n}")]  # ends with '"records": ['
    keys = [json.dumps(key).replace("%", "%%") for key in keys]
    separator = "\n"
    for slots, rows, values in blocks:
        fields = ",\n".join(f"      {key}: {slot}" for key, slot in zip(keys, slots))
        record = "    {\n" + fields + "\n    }"
        yield separator + ",\n".join([record] * rows) % values
        separator = ",\n"
    yield "]\n}\n" if separator == "\n" else "\n  ]\n}\n"


def render(
    fmt: str, prov: dict, columns: list[str], outer, inner, values
) -> Iterator[str]:
    """Text chunks of one K x T table, rendered lazily block by block.

    ``outer`` holds the columns of length K, ``inner`` the numpy columns
    of length T, and ``values`` is K rows of T; ``columns`` names the outer
    columns, then the inner ones, then the values.  Row k*T + j of the
    table holds every outer column at k, every inner column at j, then
    ``values[k][j]``.  Integers print as integers, floats with 17
    significant digits in CSV and as ``repr`` in JSON, whose records list
    their keys sorted.
    """
    order = range(len(columns))
    if fmt == "json":
        order = sorted(order, key=columns.__getitem__)
        blocks = _blocks(outer, inner, values, json.dumps, _json_column, order)
        return _json_chunks(prov, [columns[i] for i in order], blocks)
    blocks = _blocks(outer, inner, values, format_value, _csv_column, order)
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
