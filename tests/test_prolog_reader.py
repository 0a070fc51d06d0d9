"""Unit tests for the Prolog tokenizer and parser."""

import pytest

from repro.errors import PrologSyntaxError
from repro.prolog.reader import parse_clause, parse_goal, parse_program, parse_term
from repro.prolog.terms import (
    EMPTY_LIST,
    Atom,
    Number,
    PString,
    Struct,
    Variable,
    atom,
    conjuncts,
    list_items,
    struct,
    var,
)
from repro.prolog.writer import clause_to_string, term_to_string


pytestmark = pytest.mark.smoke


class TestTokens:
    def test_fact(self):
        clause = parse_clause("specialist(jones, guns).")
        assert clause.is_fact
        assert clause.head == struct("specialist", atom("jones"), atom("guns"))

    def test_numbers(self):
        term = parse_term("f(40000, 3.5, -2)")
        assert term.args == (Number(40000), Number(3.5), Number(-2))

    def test_quoted_atom(self):
        term = parse_term("f('Hello World')")
        assert term.args[0] == Atom("Hello World")

    def test_quoted_atom_with_escape(self):
        term = parse_term(r"f('it\'s')")
        assert term.args[0] == Atom("it's")

    def test_doubled_quote_escape(self):
        term = parse_term("f('it''s')")
        assert term.args[0] == Atom("it's")

    def test_string(self):
        term = parse_term('f("text")')
        assert term.args[0] == PString("text")

    def test_line_comment(self):
        program = parse_program("a. % comment\nb.")
        assert len(program) == 2

    def test_block_comment(self):
        program = parse_program("a. /* multi\nline */ b.")
        assert len(program) == 2

    def test_unterminated_block_comment(self):
        with pytest.raises(PrologSyntaxError):
            parse_program("a. /* oops")

    def test_unterminated_quote(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("f('oops)")

    def test_error_position_reported(self):
        try:
            parse_program("a.\n  @@@")
        except PrologSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected syntax error")


class TestClauses:
    def test_rule(self):
        clause = parse_clause("p(X) :- q(X), r(X).")
        assert clause.head == struct("p", var("X"))
        assert len(clause.body_goals()) == 2

    def test_works_dir_for_view(self):
        clause = parse_clause(
            "works_dir_for(X, Y) :- empl(_, X, _, D), dept(D, _, M), empl(M, Y, _, _)."
        )
        goals = clause.body_goals()
        assert [g.functor for g in goals] == ["empl", "dept", "empl"]
        # Underscores are distinct variables.
        first = goals[0]
        assert isinstance(first.args[0], Variable)
        assert first.args[0] != first.args[2]

    def test_multiple_clauses(self):
        program = parse_program(
            """
            works_for(L, H) :- works_dir_for(L, H).
            works_for(L, H) :- works_dir_for(L, M), works_for(M, H).
            """
        )
        assert len(program) == 2
        assert all(c.indicator == ("works_for", 2) for c in program)

    def test_directive(self):
        clause = parse_clause(":- p(X).")
        assert clause.head == Atom("?-")

    def test_missing_dot(self):
        with pytest.raises(PrologSyntaxError):
            parse_clause("p(X) :- q(X)")


class TestOperators:
    def test_comparison_normalisation(self):
        goal = parse_goal("S < 40000")
        assert goal == struct("less", var("S"), Number(40000))

    def test_all_comparisons(self):
        cases = {
            "X < Y": "less",
            "X > Y": "greater",
            "X =< Y": "leq",
            "X >= Y": "geq",
            "X \\= Y": "neq",
            "X == Y": "eq",
        }
        for text, functor in cases.items():
            goal = parse_goal(text)
            assert goal.functor == functor, text

    def test_unification_operator(self):
        goal = parse_goal("X = f(Y)")
        assert goal.functor == "eq"

    def test_conjunction_parses_flat(self):
        goal = parse_goal("a, b, c")
        assert [g.name for g in conjuncts(goal)] == ["a", "b", "c"]

    def test_disjunction(self):
        goal = parse_goal("a ; b")
        assert goal.functor == ";"

    def test_conjunction_binds_tighter_than_disjunction(self):
        goal = parse_goal("a, b ; c")
        assert goal.functor == ";"
        assert goal.args[0].functor == ","

    def test_negation_prefix(self):
        goal = parse_goal("\\+ p(X)")
        assert goal == struct("not", struct("p", var("X")))

    def test_not_functor(self):
        goal = parse_goal("not(p(X))")
        assert goal == struct("not", struct("p", var("X")))

    def test_cut(self):
        goal = parse_goal("p(X), !, q(X)")
        goals = conjuncts(goal)
        assert goals[1] == Atom("!")

    def test_arithmetic_priority(self):
        goal = parse_goal("X is 1 + 2 * 3")
        assert goal.functor == "is"
        expr = goal.args[1]
        assert expr.functor == "+"
        assert expr.args[1].functor == "*"

    def test_parenthesised_expression(self):
        goal = parse_goal("X is (1 + 2) * 3")
        expr = goal.args[1]
        assert expr.functor == "*"


class TestLists:
    def test_empty(self):
        assert parse_term("[]") == EMPTY_LIST

    def test_items(self):
        lst = parse_term("[a, B, 3]")
        assert list_items(lst) == [atom("a"), var("B"), Number(3)]

    def test_head_tail(self):
        lst = parse_term("[H | T]")
        assert isinstance(lst, Struct)
        assert lst.args == (var("H"), var("T"))

    def test_nested(self):
        lst = parse_term("[[a], [b]]")
        inner = list_items(lst)
        assert list_items(inner[0]) == [atom("a")]


class TestAnonymousVariables:
    def test_each_underscore_distinct(self):
        term = parse_term("empl(_, X, _, D)")
        first, _, third, _ = term.args[0], term.args[1], term.args[2], term.args[3]
        assert first != third
        assert first.is_anonymous

    def test_numbering_restarts_per_text(self):
        text = "empl(_, X, _, D)"
        assert parse_term(text) == parse_term(text)
        assert parse_term(text).args[2] == Variable("_Anon2")

    def test_named_underscore_variables_shared(self):
        goal = parse_goal("p(_X), q(_X)")
        goals = conjuncts(goal)
        assert goals[0].args[0] == goals[1].args[0]


class TestRoundTrip:
    CASES = [
        "specialist(jones, guns).",
        "p(X) :- q(X), r(X, Y).",
        "works_for(L, H) :- works_dir_for(L, M), works_for(M, H).",
        "f([a, b, c]).",
        "g('quoted atom').",
        "h(1, 2.5).",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_write_parse_write_fixpoint(self, text):
        clause = parse_clause(text)
        rendered = clause_to_string(clause)
        reparsed = parse_clause(rendered)
        assert clause_to_string(reparsed) == rendered

    def test_term_to_string_quotes(self):
        assert term_to_string(Atom("Hello")) == "'Hello'"
        assert term_to_string(Atom("hello")) == "hello"
