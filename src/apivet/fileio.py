"""File helpers: the one JSON Lines decoder, and the one atomic writer
(write chunks to a temp file, then rename into place)."""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Iterator

from .errors import ConfigError

# json.loads' own decoder, entered below its Python frames: a value that
# starts at position 0 and runs to the line end decodes as json.loads would
_scan_once = json.JSONDecoder().scan_once
# the line ends json.loads skips as trailing whitespace; any other remainder
# (spaces, a lone "\r", extra data, or "\x0b", which str.isspace() accepts
# and json.loads rejects) is json.loads' to judge
_LINE_ENDS = ("", "\n", "\r\n")


def json_lines(lines: Iterable[str]) -> Iterator[tuple[int, Any, str | None]]:
    """Decode JSON Lines: (line number, value, None) per line that is one
    JSON value, (line number, None, problem) per line that is not.

    Blank lines are skipped. A line nested too deeply to decode is invalid
    JSON. A line the C scanner does not consume whole, up to its line end,
    goes to `json.loads`, so every value and problem text is json.loads'.
    """
    for line_no, line in enumerate(lines, start=1):
        try:
            value, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            pass  # no whole value at 0: json.loads says what
        else:
            if line[end:] in _LINE_ENDS:
                yield line_no, value, None
                continue
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


def write_chunks(chunks: Iterable[str], path: str) -> None:
    """Write the chunks, in order, to `path` atomically: a temp file beside
    it is renamed into place, and removed if anything fails. The file gets
    the mode open(path, "w") would give a new file, 0o666 less the umask.
    An OS error (a missing directory, a directory at `path`, a full disk)
    is a ConfigError naming `path`."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    name = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    tmp = None
    try:
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_json(data: Any, path: str) -> None:
    write_chunks((json.dumps(data, indent=2), "\n"), path)
