"""The one tokenizer and token cursor behind both input grammars.

The invariant language (`dsl`) and the CREATE TABLE subset (`sources`) each
give a compiled pattern whose named groups are the token kinds, and an
error class taking (message, line, column). Everything else, scanning,
position tracking and where an error points, is decided here.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError


class Token(NamedTuple):
    kind: str  # the name of the pattern group that matched
    text: str
    line: int
    column: int


def tokenize(pattern: re.Pattern, text: str, error_class: type[ParseError]) -> list[Token]:
    """Split `text` into tokens, dropping `ws` and `comment` matches.

    A character no group matches raises `error_class` at its position.
    """
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = pattern.match(text, pos)
        if match is None:
            raise error_class(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        raw = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, raw, line, pos - line_start + 1))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            line_start = pos + raw.rfind("\n") + 1
        pos = match.end()
    return tokens


class Cursor:
    """A position in the token list of one text.

    A grammar's parser subclasses this and sets `pattern` and `error_class`.
    """

    pattern: re.Pattern
    error_class: type[ParseError]

    def __init__(self, text: str):
        self.tokens = tokenize(self.pattern, text, self.error_class)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        """Consume and return the next token if `at(kind, text)`."""
        if self.at(kind, text):
            self.pos += 1
            return self.tokens[self.pos - 1]
        return None

    def take(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        """Consume the next token, which must be `at(kind, text)`.

        The error says "expected <what>"; `what` defaults to the quoted text.
        """
        tok = self.accept(kind, text)
        if tok is None:
            raise self.error(f"expected {what or repr(text)}")
        return tok

    def error(self, message: str, got: bool = True) -> ParseError:
        """An error at the next token, naming it when `got`.

        At the end of input it points just past the last token, and at
        (1, 1) when there are no tokens.
        """
        tok = self.peek()
        if tok is not None:
            if got:
                message = f"{message}, got {tok.text!r}"
            return self.error_class(message, tok.line, tok.column)
        if self.tokens:
            last = self.tokens[-1]
            return self.error_class(message, last.line, last.column + len(last.text))
        return self.error_class(message, 1, 1)
