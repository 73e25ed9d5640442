"""Atomic output helpers: write to a temp file, then rename into place."""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def write_text(text: str, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(data: Any, path: str) -> None:
    write_text(json.dumps(data, indent=2) + "\n", path)
