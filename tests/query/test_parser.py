"""Unit tests for the first-order query parser."""

import pytest

from repro.exceptions import QuerySyntaxError
from repro.query.ast import (
    And,
    Atom,
    Comparison,
    Const,
    Exists,
    FalseFormula,
    Forall,
    Implies,
    Not,
    Or,
    TrueFormula,
    Var,
)
from repro.query.parser import MAX_NESTING_DEPTH, parse_query


class TestTerms:
    def test_lowercase_identifier_is_variable(self):
        assert parse_query("R(x)") == Atom("R", [Var("x")])

    def test_uppercase_identifier_is_constant(self):
        assert parse_query("R(Mary)") == Atom("R", [Const("Mary")])

    def test_quoted_string_is_constant(self):
        assert parse_query("R('r&d dept')") == Atom("R", [Const("r&d dept")])

    def test_number_is_constant(self):
        assert parse_query("R(42)") == Atom("R", [Const(42)])

    def test_escaped_quote(self):
        assert parse_query(r"R('it\'s')") == Atom("R", [Const("it's")])


class TestConnectives:
    def test_and_binds_tighter_than_or(self):
        formula = parse_query("R(1) OR R(2) AND R(3)")
        assert isinstance(formula, Or)
        assert isinstance(formula.parts[1], And)

    def test_not(self):
        assert parse_query("NOT R(1)") == Not(Atom("R", [Const(1)]))

    def test_double_negation(self):
        assert parse_query("NOT NOT R(1)") == Not(Not(Atom("R", [Const(1)])))

    def test_implies(self):
        formula = parse_query("R(1) IMPLIES R(2)")
        assert isinstance(formula, Implies)

    def test_parentheses_override(self):
        formula = parse_query("(R(1) OR R(2)) AND R(3)")
        assert isinstance(formula, And)

    def test_true_false_literals(self):
        assert parse_query("TRUE") == TrueFormula()
        assert parse_query("false") == FalseFormula()

    def test_keywords_case_insensitive(self):
        assert parse_query("r(1) and r(2)") == And(
            [Atom("r", [Const(1)]), Atom("r", [Const(2)])]
        )


class TestQuantifiers:
    def test_exists_block(self):
        formula = parse_query("EXISTS x, y . R(x, y)")
        assert formula == Exists(["x", "y"], Atom("R", [Var("x"), Var("y")]))

    def test_forall(self):
        formula = parse_query("FORALL x . R(x) IMPLIES R(x)")
        assert isinstance(formula, Forall)

    def test_nested_quantifiers(self):
        formula = parse_query("EXISTS x . FORALL y . R(x, y)")
        assert isinstance(formula, Exists)
        assert isinstance(formula.body, Forall)

    def test_quantifier_scopes_over_implication(self):
        formula = parse_query("FORALL x . R(x) IMPLIES S(x)")
        assert formula.free_variables() == frozenset()

    def test_uppercase_variable_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("EXISTS X . R(X)")


class TestComparisons:
    @pytest.mark.parametrize(
        "text,op",
        [("x = 1", "="), ("x != 1", "!="), ("x <> 1", "!="), ("x < 1", "<"),
         ("x > 1", ">"), ("x <= 1", "<="), ("x >= 1", ">=")],
    )
    def test_operators(self, text, op):
        formula = parse_query(text)
        assert isinstance(formula, Comparison)
        assert formula.op == op

    def test_comparison_of_constants(self):
        assert parse_query("Mary = Mary") == Comparison(
            "=", Const("Mary"), Const("Mary")
        )


class TestUnicodeAliases:
    def test_unicode_query(self):
        formula = parse_query("∃ x . R(x) ∧ ¬ S(x) ∨ x ≠ 3")
        assert isinstance(formula, Exists)

    def test_unicode_forall(self):
        assert isinstance(parse_query("∀ x . x ≥ 0"), Forall)


class TestPaperQueries:
    def test_q1_parses(self):
        from repro.datagen.paper_instances import Q1_TEXT

        formula = parse_query(Q1_TEXT)
        assert formula.is_closed
        assert isinstance(formula, Exists)
        assert len(formula.variables) == 6

    def test_q2_parses(self):
        from repro.datagen.paper_instances import Q2_TEXT

        assert parse_query(Q2_TEXT).is_closed


class TestErrors:
    def test_trailing_input(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("R(1) R(2)")

    def test_unbalanced_parens(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("(R(1)")

    def test_missing_dot_after_quantifier(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("EXISTS x R(x)")

    def test_garbage_character(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("R(1) @ R(2)")

    def test_empty_input(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("")

    def test_nesting_is_bounded(self):
        """Deep nesting is a syntax error, not a RecursionError; the
        limit itself still parses."""
        with pytest.raises(QuerySyntaxError, match="nested deeper"):
            parse_query("NOT " * 3000 + "R(a, b, c, d)")
        with pytest.raises(QuerySyntaxError, match="nested deeper"):
            parse_query("(" * 3000 + "R(1)" + ")" * 3000)
        formula = parse_query("NOT " * MAX_NESTING_DEPTH + "R(1)")
        for _ in range(MAX_NESTING_DEPTH):
            formula = formula.body
        assert formula == Atom("R", [Const(1)])

    def test_comments_are_skipped(self):
        formula = parse_query("R(1) # the fact\n AND R(2)")
        assert isinstance(formula, And)
