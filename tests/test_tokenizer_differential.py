"""The one-regex tokenizer against the frozen character loop it replaced.

Every string literal in ``src/``, ``tests/`` and ``examples/`` (which
includes every consulted program and goal literal) and 60k seeded random
strings must produce the same token stream — kind, text, line and column
of every token — or the same error message at the same position.  The
one intended difference: a non-decimal digit such as ``²`` no longer
starts a number token (which ``int()`` then refused with a bare
``ValueError``); it is a syntax error at its own position.
"""

import ast
import random
from pathlib import Path

import pytest

from legacy_tokenizer import LegacyTokenizer
from repro.errors import PrologSyntaxError
from repro.prolog.reader import Tokenizer, parse_goal
from repro.prolog.terms import Number, struct
from repro.schema.empdep import SAME_MANAGER_SOURCE, WORKS_DIR_FOR_SOURCE

ROOT = Path(__file__).resolve().parent.parent

#: Single characters: ASCII punctuation, layout, quotes, and letters and
#: digits outside ASCII (upper, lower, no case, decimal, numeric-only).
ALPHABET = list("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~ \t\r\n") + list(
    "éßÉ中٣Ⅻ²ǅ́\xa0"
)
#: Multi-character fragments, so random text also forms real tokens.
FRAGMENTS = [
    "/*", "*/", "%", "''", '""', "\\'", "\\n", "\\t", "\\\\", "\\q", "\\\n",
    ":-", "=..", "\\==",
    "-->", "foo", "X", "_", "_a", "aB9", "12", "3.5", "0.", "\r\n",
    "% line\n", "/* a\nb */", "'it''s'", '"s\na"',
]


def stream(tokenizer, text: str):
    """(tokens read, error or None); an error is (message, line, column)."""
    tokens = []
    try:
        for token in tokenizer(text).tokens():
            tokens.append((token.kind, token.text, token.line, token.column))
    except PrologSyntaxError as error:
        return tokens, (error.args[0], error.line, error.column)
    return tokens, None


def superscript_error(tokens):
    """The error the new tokenizer owes a legacy non-decimal number token."""
    for kind, text, line, column in tokens:
        if kind == "number" and not text.replace(".", "").isdecimal():
            index = next(
                i for i, char in enumerate(text) if char != "." and not char.isdecimal()
            )
            return (f"unexpected character {text[index]!r}", line, column + index)
    return None


def mismatches(texts) -> tuple[list, int]:
    """(texts whose streams differ, texts in the '²' class)."""
    different, superscripts = [], 0
    for text in texts:
        old_tokens, old_error = stream(LegacyTokenizer, text)
        new_tokens, new_error = stream(Tokenizer, text)
        owed = superscript_error(old_tokens)
        if owed is not None:
            superscripts += 1
            if new_error != owed:
                different.append(text)
        elif old_error is not None:
            if new_error != old_error:
                different.append(text)
        elif (new_tokens, new_error) != (old_tokens, None):
            different.append(text)
    return different, superscripts


def repository_strings() -> set[str]:
    texts = set()
    for folder in ("src", "tests", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    texts.add(node.value)
    return texts


def test_every_repository_string_tokenizes_identically():
    texts = repository_strings()
    clean = [text for text in texts if stream(LegacyTokenizer, text)[1] is None]
    assert len(texts) >= 2000 and len(clean) >= 1500
    # the paper's consulted view programs are among them
    assert {WORKS_DIR_FOR_SOURCE, SAME_MANAGER_SOURCE} <= set(clean)
    different, _ = mismatches(texts)
    assert different == []


def test_random_strings_tokenize_identically():
    rng = random.Random(26)
    pieces = ALPHABET + FRAGMENTS
    texts = [
        "".join(rng.choice(pieces) for _ in range(rng.randrange(16)))
        for _ in range(60_000)
    ]
    different, superscripts = mismatches(texts)
    assert different[:5] == []
    assert superscripts > 0  # the '²' class was exercised, and held apart
    clean = sum(1 for text in texts[:5000] if stream(Tokenizer, text)[1] is None)
    assert clean > 500  # well-formed streams, not only early errors


def test_a_number_is_decimal_digits():
    assert parse_goal("p(٣)") == struct("p", Number(3))
    assert parse_goal("p(1٣.5)") == struct("p", Number(13.5))
    for text, line, column in (("p(²)", 1, 3), ("p(1,\n  12²)", 2, 5)):
        with pytest.raises(PrologSyntaxError) as caught:
            parse_goal(text)
        assert caught.value.args[0] == "unexpected character '²'"
        assert (caught.value.line, caught.value.column) == (line, column)


def test_tokens_are_a_list_of_named_tuples():
    tokens = Tokenizer("p(X,\n 'a b').").tokens()
    assert tokens == [
        ("atom", "p", 1, 1),
        ("punct", "(", 1, 2),
        ("var", "X", 1, 3),
        ("punct", ",", 1, 4),
        ("atom", "a b", 2, 2),
        ("punct", ")", 2, 7),
        ("punct", ".", 2, 8),
        ("end", "", 2, 9),
    ]
    assert tokens[4].kind == "atom" and tokens[4].column == 2
