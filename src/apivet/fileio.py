"""File helpers: the one JSON Lines decoder, and atomic output (write to a
temp file, then rename into place)."""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Iterable, Iterator


def json_lines(lines: Iterable[str]) -> Iterator[tuple[int, Any, str | None]]:
    """Decode JSON Lines: (line number, value, None) per line that is one
    JSON value, (line number, None, problem) per line that is not.

    Blank lines are skipped. A line nested too deeply to decode is invalid
    JSON.
    """
    for line_no, line in enumerate(lines, start=1):
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            if line.strip():  # a blank line is never valid JSON
                yield line_no, None, f"invalid JSON ({exc.msg})"
            continue
        except RecursionError:
            yield line_no, None, "invalid JSON (nested too deeply)"
            continue
        yield line_no, value, None


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
