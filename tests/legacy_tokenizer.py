"""Frozen copy of the character-at-a-time Prolog tokenizer (the oracle).

``repro.prolog.reader`` tokenizes with one compiled regular expression.
This module keeps the loop it replaced, unchanged apart from a
:class:`LegacyToken` named for what it is, so the differential in
``test_tokenizer_differential.py`` can hold the new token stream —
kinds, texts, lines, columns and error messages — to the old one.  Not
imported by ``src/``; do not edit it to make a differential pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import PrologSyntaxError

_SYMBOLIC = {
    ":-", "?-", "-->",
    ",", ";", "!", "|",
    "(", ")", "[", "]",
    "=..", "==", "\\==", "=:=", "=\\=",
    "=<", ">=", "<", ">", "=", "\\=",
    "\\+", "+", "-", "*", "/", ".",
}

# Longest-match-first ordering for symbolic tokens.
_SYMBOLIC_SORTED = sorted(_SYMBOLIC, key=len, reverse=True)


@dataclass(frozen=True, slots=True)
class LegacyToken:
    """A lexical token with source position for error reporting."""

    kind: str  # 'atom' | 'var' | 'number' | 'string' | 'punct' | 'end'
    text: str
    line: int
    column: int


class LegacyTokenizer:
    """Converts Prolog source text into a token stream."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokens(self) -> Iterator[LegacyToken]:
        """Yield all tokens, ending with a single ``end`` token."""
        while True:
            self._skip_layout()
            if self._pos >= len(self._text):
                yield LegacyToken("end", "", self._line, self._column)
                return
            yield self._next_token()

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._text):
            return self._text[index]
        return ""

    def _advance(self, count: int = 1) -> str:
        chunk = self._text[self._pos : self._pos + count]
        for char in chunk:
            if char == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return chunk

    def _skip_layout(self) -> None:
        while self._pos < len(self._text):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "%":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._text) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self._pos >= len(self._text):
                    raise PrologSyntaxError(
                        "unterminated block comment", self._line, self._column
                    )
                self._advance(2)
            else:
                return

    def _next_token(self) -> LegacyToken:
        line, column = self._line, self._column
        char = self._peek()

        if char.isdigit():
            return self._read_number(line, column)
        if char == "_" or char.isalpha():
            return self._read_name(line, column)
        if char == "'":
            return self._read_quoted_atom(line, column)
        if char == '"':
            return self._read_string(line, column)

        # End-of-clause dot: a '.' followed by layout or EOF.
        if char == "." and (self._peek(1) in "" or self._peek(1) in " \t\r\n%" or self._peek(1) == ""):
            self._advance()
            return LegacyToken("punct", ".", line, column)

        for symbol in _SYMBOLIC_SORTED:
            if self._text.startswith(symbol, self._pos):
                self._advance(len(symbol))
                return LegacyToken("punct", symbol, line, column)

        raise PrologSyntaxError(f"unexpected character {char!r}", line, column)

    def _read_number(self, line: int, column: int) -> LegacyToken:
        start = self._pos
        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            self._advance()
            while self._peek().isdigit():
                self._advance()
        return LegacyToken("number", self._text[start : self._pos], line, column)

    def _read_name(self, line: int, column: int) -> LegacyToken:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._text[start : self._pos]
        first = text[0]
        if first == "_" or first.isupper():
            return LegacyToken("var", text, line, column)
        return LegacyToken("atom", text, line, column)

    def _read_quoted_atom(self, line: int, column: int) -> LegacyToken:
        return LegacyToken("atom", self._read_quoted("'"), line, column)

    def _read_string(self, line: int, column: int) -> LegacyToken:
        return LegacyToken("string", self._read_quoted('"'), line, column)

    def _read_quoted(self, quote: str) -> str:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self._pos >= len(self._text):
                raise PrologSyntaxError(
                    "unterminated quoted token", self._line, self._column
                )
            char = self._peek()
            if char == quote:
                if self._peek(1) == quote:  # doubled quote escapes itself
                    chars.append(quote)
                    self._advance(2)
                    continue
                self._advance()
                return "".join(chars)
            if char == "\\":
                self._advance()
                escape = self._advance()
                chars.append({"n": "\n", "t": "\t", "\\": "\\", quote: quote}.get(escape, escape))
                continue
            chars.append(self._advance())
