"""Atomic file writes and JSON Lines helpers shared across modules."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:  # owns the fd from here, closing it on any error
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            # mkstemp made it 0600; give what open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path, records) -> None:
    lines = [json.dumps(rec, sort_keys=True, ensure_ascii=False) for rec in records]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_jsonl(path):
    """Yield (line_number, parsed-or-None) for every non-blank line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError:
                yield lineno, None
