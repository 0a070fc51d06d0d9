"""Tokenizer and parser for the Prolog subset used by the front-end.

The reader accepts the syntax appearing in the paper: facts, rules with
``:-``, conjunction ``,``, disjunction ``;``, negation ``not/1`` and ``\\+``,
cut ``!``, lists, anonymous variables ``_``, quoted atoms, numbers, and the
comparison operators (``<``, ``>``, ``=<``, ``>=``, ``=``, ``\\=``) which are
normalised to the named predicates of
:data:`repro.prolog.terms.COMPARISON_PREDICATES` (``less/2`` etc.) so that
later pipeline stages only ever see one spelling.

This is a classical recursive-descent parser over a tokenizer that is one
compiled regular expression; full operator-precedence parsing
(user-defined ops) is not needed for the paper's programs and is
deliberately left out.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from ..errors import PrologSyntaxError
from .terms import (
    CUT,
    EMPTY_LIST,
    OPERATOR_TO_PREDICATE,
    Atom,
    Clause,
    Number,
    PString,
    Struct,
    Term,
    Variable,
    make_list,
)

_SYMBOLIC = {
    ":-", "?-", "-->",
    ",", ";", "!", "|",
    "(", ")", "[", "]",
    "=..", "==", "\\==", "=:=", "=\\=",
    "=<", ">=", "<", ">", "=", "\\=",
    "\\+", "+", "-", "*", "/", ".",
}


class Token(NamedTuple):
    """A lexical token with source position for error reporting."""

    kind: str  # 'atom' | 'var' | 'number' | 'string' | 'punct' | 'end'
    text: str
    line: int
    column: int


# Blanks, ``%`` line comments and ``/* block comments */``.  Possessive, so
# a token that fails after layout never re-reads the layout as tokens.
_LAYOUT = r"(?:[ \t\r\n]+|%[^\n]*|/\*.*?\*/)*+"

# One match = optional layout + exactly one token.  Alternatives are tried
# in order: ASCII names get their kind from the group; ``name`` catches a
# non-ASCII start, which Python classifies; symbolic tokens come
# longest-first, and a '/' opening a block comment is never one.  Number
# digits are ``\d`` (decimal: what ``int`` accepts), names are ``\w``
# (exactly ``str.isalnum()`` or '_').
_TOKEN = re.compile(
    _LAYOUT
    + r"""(?:
        (?P<number>\d+(?:\.\d+)?)
      | (?P<var>[A-Z_]\w*)
      | (?P<atom>[a-z]\w*)
      | (?P<name>[^\W\d]\w*)
      | (?P<quoted>'(?:[^'\\]+|''|\\.)*+')
      | (?P<string>"(?:[^"\\]+|""|\\.)*+")
      | (?P<punct>"""
    + "|".join(
        "/(?!\\*)" if symbol == "/" else re.escape(symbol)
        for symbol in sorted(_SYMBOLIC, key=len, reverse=True)
    )
    + r""")
      | (?P<end>\Z)
    )""",
    re.DOTALL | re.VERBOSE,
)
_LAYOUT_ONLY = re.compile(_LAYOUT, re.DOTALL)
#: One argument-position constant: an unquoted atom, a number or a quoted
#: atom without escapes, after ``(`` or ``,`` and before ``,`` or ``)``,
#: blanks allowed around it.  Its one group makes ``split`` return the
#: skeleton pieces and the constant tokens, alternating, in one call.
_SLOT = re.compile(r"(?<=[(,])[ \t]*([a-z]\w*|-?\d+(?:\.\d+)?|'[^'\\]*')[ \t]*(?=[,)])")
#: Per quote character: a backslash escape, or the quote doubled.
_ESCAPES = {
    quote: re.compile(r"\\(.)|" + quote * 2, re.DOTALL) for quote in "'\""
}
_ESCAPED = {"n": "\n", "t": "\t"}
#: Groups whose name is the token's kind and whose text is the token's.
_PLAIN = frozenset(("atom", "var", "punct", "number"))


def _unescape(match: re.Match) -> str:
    escaped = match.group(1)
    if escaped is None:
        return match.group()[0]  # a doubled quote stands for itself
    return _ESCAPED.get(escaped, escaped)


def _no_token(text: str, pos: int) -> PrologSyntaxError:
    """The error for text at ``pos`` that starts no token."""
    offset = _LAYOUT_ONLY.match(text, pos).end()
    if text.startswith("/*", offset):
        message, offset = "unterminated block comment", len(text)
    elif text[offset] in "'\"":
        message, offset = "unterminated quoted token", len(text)
    else:
        message = f"unexpected character {text[offset]!r}"
    line = text.count("\n", 0, offset) + 1
    return PrologSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


class Tokenizer:
    """Converts Prolog source text into a token stream."""

    def __init__(self, text: str):
        self._text = text

    def tokens(self) -> list[Token]:
        """All tokens, ending with a single ``end`` token."""
        text = self._text
        match = _TOKEN.match
        new = tuple.__new__
        tokens: list[Token] = []
        append = tokens.append
        pos = 0
        line = 1
        line_start = 0  # offset of the current line's first character
        while True:
            found = match(text, pos)
            if found is None:
                raise _no_token(text, pos)
            kind = found.lastgroup
            start, end = found.span(kind)
            if start != pos:  # layout: only it and quoted tokens span lines
                breaks = text.count("\n", pos, start)
                if breaks:
                    line += breaks
                    line_start = text.rindex("\n", pos, start) + 1
            column = start - line_start + 1
            if kind in _PLAIN:
                append(new(Token, (kind, text[start:end], line, column)))
            elif kind == "end":
                append(new(Token, ("end", "", line, column)))
                return tokens
            elif kind == "name":
                first = text[start]
                if not first.isalpha():  # '²', 'Ⅻ': numeric, not a letter
                    raise PrologSyntaxError(
                        f"unexpected character {first!r}", line, column
                    )
                kind = "var" if first.isupper() else "atom"
                append(new(Token, (kind, text[start:end], line, column)))
            else:
                quote = text[start]
                body = text[start + 1 : end - 1]
                if "\\" in body or quote in body:
                    body = _ESCAPES[quote].sub(_unescape, body)
                kind = "atom" if kind == "quoted" else "string"
                append(new(Token, (kind, body, line, column)))
                breaks = text.count("\n", start, end)
                if breaks:
                    line += breaks
                    line_start = text.rindex("\n", start, end) + 1
            pos = end


class Parser:
    """Recursive-descent parser producing :class:`Clause` and :class:`Term`."""

    def __init__(self, text: str):
        self._tokens = Tokenizer(text).tokens()
        self._index = 0
        self._anonymous = 0  # each bare '_' of this text: _Anon1, _Anon2, …

    # -- token helpers ----------------------------------------------------

    def _current(self) -> Token:
        return self._tokens[self._index]

    def _consume(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "end":
            self._index += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._current()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise PrologSyntaxError(
                f"expected {wanted!r}, found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self._consume()

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._current()
        return token.kind == kind and (text is None or token.text == text)

    # -- public entry points ----------------------------------------------

    def parse_program(self) -> list[Clause]:
        """Parse a whole program: a sequence of ``.``-terminated clauses."""
        clauses = []
        while not self._at("end"):
            clauses.append(self.parse_clause())
        return clauses

    def parse_clause(self) -> Clause:
        """Parse one clause (fact, rule, or directive body after ``?-``)."""
        if self._at("punct", ":-") or self._at("punct", "?-"):
            self._consume()
            body = self._parse_term(1200)
            self._expect("punct", ".")
            return Clause(Atom("?-"), body)
        head = self._parse_term(999)
        if self._at("punct", ":-"):
            self._consume()
            body = self._parse_term(1200)
            self._expect("punct", ".")
            return Clause(head, body)
        self._expect("punct", ".")
        return Clause(head)

    def parse_goal(self) -> Term:
        """Parse a single goal term (no trailing dot required)."""
        goal = self._parse_term(1200)
        if self._at("punct", "."):
            self._consume()
        if not self._at("end"):
            token = self._current()
            raise PrologSyntaxError(
                f"trailing input after goal: {token.text!r}", token.line, token.column
            )
        return goal

    # -- grammar ----------------------------------------------------------

    # A tiny operator-precedence core: binary operators with their
    # priorities, all right-associative except comparisons (non-assoc).
    _BINARY = {
        ":-": 1200,
        ";": 1100,
        ",": 1000,
        "=": 700, "\\=": 700, "==": 700, "\\==": 700,
        "=:=": 700, "=\\=": 700, "<": 700, ">": 700, "=<": 700, ">=": 700,
        "=..": 700, "is": 700,
        "+": 500, "-": 500,
        "*": 400, "/": 400, "mod": 400,
    }
    _NON_ASSOC = {
        ":-",
        "=", "\\=", "==", "\\==", "=:=", "=\\=", "<", ">", "=<", ">=", "=..", "is",
    }
    # Operators spelled as alphabetic atoms rather than symbolic punctuation.
    _ATOM_OPERATORS = {"is", "mod"}

    def _parse_term(self, max_priority: int) -> Term:
        left = self._parse_primary()
        while True:
            token = self._current()
            is_atom_operator = token.kind == "atom" and token.text in self._ATOM_OPERATORS
            if token.kind != "punct" and not is_atom_operator:
                return left
            priority = self._BINARY.get(token.text)
            if priority is None or priority > max_priority:
                return left
            self._consume()
            if token.text in self._NON_ASSOC:
                right = self._parse_term(priority - 1)
            else:
                right = self._parse_term(priority)
            left = self._combine(token.text, left, right)

    def _combine(self, operator: str, left: Term, right: Term) -> Term:
        # Comparison operators normalise to named predicates so the rest of
        # the pipeline sees a single canonical spelling.
        if operator in OPERATOR_TO_PREDICATE:
            return Struct(OPERATOR_TO_PREDICATE[operator], (left, right))
        return Struct(operator, (left, right))

    def _parse_primary(self) -> Term:
        token = self._current()

        if token.kind == "number":
            self._consume()
            text = token.text
            return Number(float(text) if "." in text else int(text))

        if token.kind == "string":
            self._consume()
            return PString(token.text)

        if token.kind == "var":
            self._consume()
            if token.text == "_":
                # Each bare underscore is a distinct variable; numbering
                # restarts per text, so one goal text has one shape.
                self._anonymous += 1
                return Variable(f"_Anon{self._anonymous}")
            return Variable(token.text)

        if token.kind == "atom":
            self._consume()
            # Layout is discarded, so `foo (X)` is a call too.
            if self._at("punct", "("):
                return self._parse_compound(token.text)
            return Atom(token.text)

        if token.kind == "punct":
            if token.text == "(":
                self._consume()
                inner = self._parse_term(1200)
                self._expect("punct", ")")
                return inner
            if token.text == "[":
                return self._parse_list()
            if token.text == "!":
                self._consume()
                return CUT
            if token.text == "\\+":
                self._consume()
                argument = self._parse_term(900)
                return Struct("not", (argument,))
            if token.text == "-":
                self._consume()
                operand = self._parse_primary()
                if isinstance(operand, Number):
                    return Number(-operand.value)
                return Struct("-", (operand,))
            if token.text == "*":
                # DBCL writes '*' for non-applicable tableau cells; in a
                # primary position it is the atom '*', never multiplication.
                self._consume()
                return Atom("*")

        raise PrologSyntaxError(
            f"unexpected token {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )

    def _parse_compound(self, functor: str) -> Term:
        self._expect("punct", "(")
        args = [self._parse_term(999)]
        while self._at("punct", ","):
            self._consume()
            args.append(self._parse_term(999))
        self._expect("punct", ")")
        return Struct(functor, tuple(args))

    def _parse_list(self) -> Term:
        self._expect("punct", "[")
        if self._at("punct", "]"):
            self._consume()
            return EMPTY_LIST
        items = [self._parse_term(999)]
        while self._at("punct", ","):
            self._consume()
            items.append(self._parse_term(999))
        tail: Term = EMPTY_LIST
        if self._at("punct", "|"):
            self._consume()
            tail = self._parse_term(999)
        self._expect("punct", "]")
        return make_list(items, tail)


def parse_program(text: str) -> list[Clause]:
    """Parse Prolog source text into a list of clauses."""
    return Parser(text).parse_program()


def parse_clause(text: str) -> Clause:
    """Parse a single clause."""
    parser = Parser(text)
    clause = parser.parse_clause()
    if not parser._at("end"):
        token = parser._current()
        raise PrologSyntaxError(
            f"trailing input after clause: {token.text!r}", token.line, token.column
        )
    return clause


def parse_goal(text: str) -> Term:
    """Parse a goal (query body) such as ``works_dir_for(X, smiley), less(S, 40000)``."""
    return Parser(text).parse_goal()


def parse_term(text: str) -> Term:
    """Parse a single term."""
    return Parser(text).parse_goal()


def split_slots(text: str) -> list[str]:
    """``text`` cut at its argument-position constants (``_SLOT``): the
    skeleton pieces at even positions, the constant tokens at odd ones."""
    return _SLOT.split(text)


def slot_value(token: str) -> Union[int, float, str]:
    """The constant the parser reads from one :func:`split_slots` token."""
    first = token[0]
    if first == "'":
        return token[1:-1]  # no escapes: the body is the name
    if "a" <= first <= "z":
        return token
    return float(token) if "." in token else int(token)
