"""Serialization helpers: CSV rendering and atomic file writes."""

from __future__ import annotations

import json
import os

from .scenarios import Table


def format_value(value) -> str:
    """CSV cell formatting: 10 significant digits for derived floats."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9e}"
    return str(value)


def table_to_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def atomic_write_files(out_dir: str, files: dict) -> None:
    """Write {name: text} into out_dir, each file atomically.

    Content is fully materialized before the first write; individual
    files go through a temp name plus rename so no file is ever
    partially written.  On failure every file already placed by this
    call is removed again, with the failing file's temp file.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        for name, text in files.items():
            target = os.path.join(out_dir, name)
            tmp = f"{target}.tmp.{os.getpid()}"
            written.append(tmp)  # until the rename places it as target
            with open(tmp, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, target)
            written[-1] = target
    except OSError:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
