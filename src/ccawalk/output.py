"""Deterministic data export: CSV with provenance comments, or JSON records.

Identical inputs must produce byte-identical files.  CSV floats are printed
with 17 significant digits (enough to round-trip a double exactly), lines
end with '\\n', and '#'-prefixed comment lines before the column header
carry everything needed to re-run the scenario: tool version, command, and
the full config as one-line JSON.  JSON output mirrors the same rows as an
array of records under a "provenance" header object.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from typing import Any, Iterable

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


def render_csv(prov: dict, columns: list[str], rows: Iterable[Iterable[Any]]) -> str:
    out = _comment_lines(prov)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(format_value(v) for v in row))
    return "\n".join(out) + "\n"


def render_json(prov: dict, columns: list[str], rows: Iterable[Iterable[Any]]) -> str:
    records = [dict(zip(columns, row)) for row in rows]
    doc = {"provenance": prov, "records": records}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render(
    fmt: str, prov: dict, columns: list[str], rows: Iterable[Iterable[Any]]
) -> str:
    if fmt == "json":
        return render_json(prov, columns, rows)
    return render_csv(prov, columns, rows)


def write_text(text: str, path: str | None) -> None:
    """Write to ``path``, or stdout when path is None or '-'. Single writer.

    A file is written whole or not at all: the text goes to a temporary file
    beside the target, which then replaces it.  The permission bits are
    those a plain ``open()`` would leave: an existing file keeps its own, a
    new one gets 0o666 under the umask.  A target that exists but is not a
    regular file, such as a device or a pipe, is written to in place.
    """
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = os.path.realpath(path)
    try:
        existing = os.stat(target)
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
            fh.write(text)
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
