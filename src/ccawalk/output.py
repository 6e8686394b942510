"""Deterministic data export: CSV with provenance comments, or JSON records.

Identical inputs must produce byte-identical files.  CSV floats are printed
with 17 significant digits (enough to round-trip a double exactly), lines
end with '\\n', and '#'-prefixed comment lines before the column header
carry everything needed to re-run the scenario: tool version, command, and
the full config as one-line JSON.  JSON output mirrors the same rows as an
array of records under a "provenance" header object.
"""

from __future__ import annotations

import json
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
    """Write to ``path``, or stdout when path is None or '-'. Single writer."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
