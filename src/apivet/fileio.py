"""File helpers: the one reader of input files, the one JSON Lines decoder
and the one rule that keeps or refuses its lines, the one encoder, the one
atomic writer (write chunks to a temp file, then rename into place).

`json_lines` decodes a batch of up to BATCH_LINES lines in one call into
json's C scanner, which keeps one string per distinct key for the length of
a call, so equal keys in a batch share one `str`, where a line decoded
alone gets key strings of its own. On a 3000-session corpus that took
`detect`'s peak RSS from 54.4 to 48.8 MiB (Python 3.11.7, x86_64). A batch
the whole-batch rule does not vouch for is decoded line by line, by the
rule that alone reports problems, so values, line numbers and problem texts
are the same.

`json_text` is json.dumps with its defaults, run through one C encoder made
at import rather than one made per call, and `json_string` is json's C
string escaper: writers build each line from a template around them.

A JSON Lines file is read with each byte that is not UTF-8 decoded as a
lone surrogate, so such a line is one malformed line, "invalid UTF-8",
and not a refused file. A batch that is all ASCII, as every line benchgen
writes is, holds no surrogate, which str.isascii() answers without a scan.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import islice
from json.encoder import JSONEncoder, c_make_encoder
from json.encoder import encode_basestring_ascii as json_string
from logging import Logger
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigError, IngestError

# lines decoded in one C call. It bounds the batch text and its values, and
# keeps those values in cache until the caller reads them: with 4096 lines,
# log ingest ran slower than line by line; at 256 it ran no slower
BATCH_LINES = 256
# between two lines of a batch: a raw newline, which strict JSON refuses
# inside a string, then a NaN token the batch decoder counts
_SEPARATOR = ",\nNaN,"
# json.loads' own decoder, entered below its Python frames: a value that
# starts at position 0 and runs to the line end decodes as json.loads would
_scan_once = json.JSONDecoder().scan_once
# the line ends json.loads skips as trailing whitespace; any other remainder
# (spaces, a lone "\r", extra data, or "\x0b", which str.isspace() accepts
# and json.loads rejects) is json.loads' to judge
_LINE_ENDS = ("", "\n", "\r\n")


class _Constants:
    """parse_constant for one batch: counts the NaN and Infinity tokens
    and stands for each with itself."""

    def __init__(self) -> None:
        self.seen = 0

    def __call__(self, name: str) -> "_Constants":
        self.seen += 1
        return self


def _decode_batch(batch: list[str]) -> list | None:
    """The values of `batch`, one per line, or None when the batch must be
    decoded line by line.

    The batch is decoded as one array with a NaN between lines. Its values
    are the lines' own when the decode succeeds, the only constants are the
    separators' and each of them sits at an odd index: no separator falls
    inside a string (it holds a raw newline), a NaN or Infinity in a line
    changes the count, and a line that runs into its neighbour or holds two
    values moves a separator off the odd indices. A blank line, a BOM, a
    "\x0b" or a line nested as deep as the decoder goes fails the decode.
    """
    constants = _Constants()
    text = "[" + _SEPARATOR.join(batch) + "]"
    if not (text.isascii() or _is_utf8(text)):
        return None
    try:
        values = json.JSONDecoder(parse_constant=constants).decode(text)
    except (ValueError, RecursionError):
        return None
    if (
        constants.seen != len(batch) - 1
        or len(values) != 2 * len(batch) - 1
        or not all(item is constants for item in values[1::2])
    ):
        return None
    return values[::2]


def _is_utf8(text: str) -> bool:
    """Whether `text` has no surrogate, so that it encodes as UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _decode_lines(
    batch: list[str], first_line_no: int
) -> Iterator[tuple[int, Any, str | None]]:
    """The batch decoded line by line: the rule that reports problems."""
    for line_no, line in enumerate(batch, start=first_line_no):
        if not (line.isascii() or _is_utf8(line)):
            yield line_no, None, "invalid UTF-8"
            continue
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
        except ValueError:  # int() refused an integer literal
            limit = sys.get_int_max_str_digits()
            yield line_no, None, f"invalid JSON (integer of more than {limit} digits)"
            continue
        except RecursionError:
            yield line_no, None, "invalid JSON (nested too deeply)"
            continue
        yield line_no, value, None


def json_lines(lines: Iterable[str]) -> Iterator[tuple[int, Any, str | None]]:
    """Decode JSON Lines: (line number, value, None) per line that is one
    JSON value, (line number, None, problem) per line that is not.

    Blank lines are skipped. A line with a surrogate, which is how
    read_json_lines passes a byte that is not UTF-8, is invalid UTF-8. A
    line nested too deeply to decode, or holding an integer longer than
    int() takes, is invalid JSON. Every other value and problem text is
    json.loads' for that line alone. Lines are read a batch ahead of what
    is yielded.
    """
    lines = iter(lines)
    line_no = 1
    while batch := list(islice(lines, BATCH_LINES)):
        values = _decode_batch(batch)
        if values is None:
            yield from _decode_lines(batch, line_no)
        else:
            for value_line_no, value in enumerate(values, start=line_no):
                yield value_line_no, value, None
        line_no += len(batch)


def keep_records(
    lines: Iterable[str], keep: Callable[[Any], str | None], mode: str, kind: str, log: Logger
) -> int:
    """The one line rule: `keep` keeps a line's value and returns None, or
    says what is wrong with it. A line that is not one JSON value or that
    `keep` refuses is an IngestError in strict mode; in lenient mode it is
    skipped, counted in one warning to `log`, and the count returned."""
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown ingest mode {mode!r}")
    skipped = 0
    for line_no, value, problem in json_lines(lines):
        if problem is None and (problem := keep(value)) is None:
            continue
        if mode == "strict":
            raise IngestError(problem, line_no)
        skipped += 1
        log.debug("skipping %s line %d: %s", kind, line_no, problem)
    if skipped:
        log.warning("skipped %d malformed %s line(s)", skipped, kind)
    return skipped


def read_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_json(path: str) -> Any:
    return json.loads(read_file(path))


def read_json_lines(path: str, parse: Callable[[Iterable[str]], Any]) -> Any:
    """`parse` of the file's lines, a byte that is not UTF-8 a lone surrogate."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse(fh)


# json.dumps(value) with its defaults, encoded by one encoder made here, not
# one per call. The arguments are those json.dumps' default encoder passes,
# except markers: a reused markers dict can keep a stale id after a failed
# encode, so a circular value runs into the recursion limit instead
if c_make_encoder is None:  # json's C accelerator is absent
    json_text = json.dumps
else:
    _encode = c_make_encoder(
        None, JSONEncoder().default, json_string, None, ": ", ", ", False, False, True
    )

    def json_text(value: Any) -> str:
        """json.dumps(value)."""
        return "".join(_encode(value, 0))


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
