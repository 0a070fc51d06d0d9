"""The goal-text scan against the parser it stands in for.

``text_shape`` cuts a goal text's argument-position constants out and,
once the skeleton that remains has been seen twice, answers the goal's
shape without parsing it.  For every goal string in the repository and
20k seeded random texts, a scanned shape must equal ``goal_shape(
parse_goal(text))`` and the goal it builds must equal the parse, term for
term and type for type; a text that does not parse gets no shape.  The
parse counts hold the warm ask path to its promise: a warm goal text is
scanned, not parsed.
"""

import ast
import random
import sys
from pathlib import Path

import pytest

from repro.coupling import PrologDbSession
from repro.coupling.global_opt import goal_shape, text_shape
from repro.dbms import generate_org
from repro.errors import PrologSyntaxError
from repro.prolog.reader import Parser, parse_goal, split_slots
from repro.prolog.writer import term_to_string
from repro.schema import ALL_VIEWS_SOURCE

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench_e2e.workloads import FAMILIES  # noqa: E402


def check(text: str) -> bool:
    """Scan ``text`` three times (first sight, learning, learned) and hold
    each answer to the parse.  True when some scan answered."""
    shapes = [text_shape(text) for _ in range(3)]
    try:
        parsed = parse_goal(text)
    except PrologSyntaxError:
        assert shapes == [None, None, None], text
        return False
    expected = goal_shape(parsed)
    answered = False
    for shape in shapes:
        if shape is None:
            continue
        answered = True
        assert shape == expected, text
        assert list(map(type, shape.constants)) == list(
            map(type, expected.constants)
        ), text
        built = shape.goal()
        assert built == parsed and repr(built) == repr(parsed), text
    return answered


# -- every goal string of the repository -------------------------------------


def repository_texts() -> set:
    texts = set()
    for folder in ("tests", "examples", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    texts.add(node.value)
    for template, _columns, _method in FAMILIES.values():
        for constants in (
            ("emp00001", "emp00002"), ("'emp 7'", "-3"), ("40000", "2.5"),
        ):
            texts.add(template.format(*constants))
    return texts


def test_every_repository_goal_string_scans_as_it_parses():
    texts = sorted(repository_texts())
    answered = sum(check(text) for text in texts)
    assert len(texts) >= 1000
    assert answered >= 200  # the goal strings, not only prose


# -- seeded random texts -------------------------------------------------------

#: What a constant hole may hold: slot tokens (plain, non-ASCII, operator
#: names, numbers, quoted without escapes) and everything a slot is not.
CONSTANTS = [
    "a", "emp00001", "is", "mod", "ñu", "x_1", "éa",
    "0", "42", "-5", "3.25", "-0.5", "007", "1.0", "-0", "٣",
    "'Hello World'", "''", "'a,b)'", "'x('",
    "'it''s'", "'a\\'b'", "'tab\\t'", '"str"', '"a""b"',
    "X", "_", "Ñame", "[]", "/* c */ a", "a /* c */", "b % c\n",
    " a ", "\ta", "\na", "a\t ", "- 5", "1.5e3", "f(a)",
]
LAYOUT = ["", "", " ", "  ", "\t", "\n", " /* x */ ", "% c\n"]
VARIABLES = ["X", "Y", "S", "_", "_A", "Ü"]
FUNCTORS = ["p", "works_dir_for", "empl", "ñame", "'q r'", "less"]


def structure(rng: random.Random) -> str:
    """A goal text with ``{}`` holes where constants go."""

    def lay() -> str:
        return rng.choice(LAYOUT)

    def argument(depth: int) -> str:
        roll = rng.random()
        if roll < 0.45:
            return "{}"
        if roll < 0.65:
            return rng.choice(VARIABLES)
        if roll < 0.75 and depth < 2:
            return f"g({argument(depth + 1)},{lay()}{argument(depth + 1)})"
        if roll < 0.85:
            return f"[{argument(depth + 1)}, {{}}, {argument(depth + 1)}]"
        if roll < 0.9:
            return '"s"'
        return "[]"

    def conjunct(depth: int) -> str:
        roll = rng.random()
        if roll < 0.6:
            args = [lay() + argument(0) + lay() for _ in range(rng.randrange(1, 5))]
            return f"{rng.choice(FUNCTORS)}({','.join(args)})"
        if roll < 0.75:
            operator = rng.choice([">", "<", "=", "=<", ">=", "\\=", "is"])
            return f"{rng.choice(VARIABLES)} {operator} {{}}"
        if roll < 0.85:
            return rng.choice(["c", "true", "{}"])
        if roll < 0.93 and depth < 2:
            return f"({conjunct(depth + 1)},{lay()}{conjunct(depth + 1)})"
        return "\\+ p({})"

    body = ("," + lay()).join(conjunct(0) for _ in range(rng.randrange(1, 4)))
    return body + rng.choice(["", ".", " .", "  "])


def corrupt(rng: random.Random, text: str) -> str:
    position = rng.randrange(len(text) + 1)
    if rng.random() < 0.5 and position < len(text):
        return text[:position] + text[position + 1 :]
    return text[:position] + rng.choice(")(,'\"") + text[position:]


def test_random_texts_scan_as_they_parse():
    rng = random.Random(31)
    structures = [structure(random.Random(seed)) for seed in range(300)]
    answered = failed = 0
    for _ in range(20_000):
        chosen = rng.choice(structures)
        text = chosen.format(
            *(rng.choice(CONSTANTS) for _ in range(chosen.count("{}")))
        )
        if rng.random() < 0.05:
            text = corrupt(rng, text)
        try:
            parse_goal(text)
        except PrologSyntaxError:
            failed += 1
        answered += check(text)
    assert answered >= 1000  # skeletons repeat: the scan answers often
    assert failed >= 200  # and the grammar reaches the error paths


def test_a_bare_constant_conjunct_is_not_a_slot():
    first = "empl(E, N, S, D), c, S > c"
    second = "empl(E, N, S, D), d, S > c"
    # A learner checking only the text is fooled: one slot (the conjunct
    # c) and one constant (greater's c).  The probe puts '$slot0$' in a
    # key part, not among the constants.
    assert len(split_slots(first)) == 3
    assert len(goal_shape(parse_goal(first)).constants) == 1
    assert goal_shape(parse_goal(first)) != goal_shape(parse_goal(second))
    for text in (first, first, first, second, second):
        assert text_shape(text) is None


def test_the_second_sight_learns():
    text = "p(X, aa, 3), q(X, 'b b')"
    other = "p(X, cc, -4.5), q(X, 'd')"
    assert text_shape(text) is None
    learned = text_shape(other)
    assert learned == goal_shape(parse_goal(other))
    assert learned.goal() == parse_goal(other)
    assert text_shape(text).constants == ("aa", 3, "b b")


# -- the ask path --------------------------------------------------------------


@pytest.fixture(scope="module")
def org():
    return generate_org(depth=3, branching=2, staff_per_dept=4, seed=5)


@pytest.fixture()
def session(org):
    session = PrologDbSession()
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    yield session
    session.close()


def count_parses(monkeypatch) -> list:
    counts = [0]
    original = Parser.parse_goal

    def counting(self):
        counts[0] += 1
        return original(self)

    monkeypatch.setattr(Parser, "parse_goal", counting)
    return counts


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


def test_a_warm_batch_parses_at_most_once(session, org, monkeypatch):
    names = [e.nam for e in org.employees]
    texts = [f"works_dir_for(X, {names[i % len(names)]})" for i in range(64)]
    session.ask_many(texts)  # learns the skeleton, compiles the shape
    counts = count_parses(monkeypatch)
    batched = session.ask_many(texts)
    assert counts[0] <= 1
    assert session.stats()["plan_cache"]["batched_asks"] >= 63
    monkeypatch.undo()
    assert [answer_set(a) for a in batched] == [
        answer_set(session.ask(parse_goal(text))) for text in texts
    ]


def test_warm_asks_parse_nothing(session, org, monkeypatch):
    names = [e.nam for e in org.employees]
    texts = [f"same_manager(X, {names[i % len(names)]})" for i in range(100)]
    session.ask(texts[0])
    session.ask(texts[1])  # the skeleton's second sight: learned
    counts = count_parses(monkeypatch)
    answers = [session.ask(text) for text in texts]
    assert counts[0] == 0
    monkeypatch.undo()
    assert answers == [session.ask(parse_goal(text)) for text in texts]


def test_trace_records_keep_the_goal_text(session, org):
    names = [e.nam for e in org.employees]
    texts = [f"works_dir_for(X,  '{names[i]}' )" for i in range(8)]
    session.ask_many(texts)
    session.ask_many(texts)
    session.ask(texts[0])
    records = session.traces()[-9:]
    expected = [term_to_string(parse_goal(text)) for text in texts + texts[:1]]
    assert [record["goal"] for record in records] == expected
    assert records[0]["batched"] and not records[-1]["batched"]


def test_a_text_that_does_not_parse_raises_as_before(session):
    session.ask("works_dir_for(X, emp00001)")
    session.ask("works_dir_for(X, emp00002)")
    for bad in ("works_dir_for(X, emp00001", "works_dir_for(X, emp00001))"):
        with pytest.raises(PrologSyntaxError) as expected:
            parse_goal(bad)
        for _ in range(3):  # first sight, the failed learning, unlearnable
            with pytest.raises(PrologSyntaxError) as raised:
                session.ask(bad)
            assert raised.value.args == expected.value.args
