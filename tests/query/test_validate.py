"""Unit tests for schema validation of formulas."""

import pytest

from repro.exceptions import QueryError
from repro.query.parser import parse_query
from repro.query.validate import check_against_schema
from repro.relational.schema import schema_from_mapping

SCHEMA = schema_from_mapping({"Mgr": ["Name", "Dept", "Salary:number"]})


class TestCheckAgainstSchema:
    def test_valid_formula_passes_through(self):
        formula = parse_query("EXISTS d, s . Mgr(Mary, d, s)")
        assert check_against_schema(formula, SCHEMA) is formula

    def test_unknown_relation_rejected(self):
        with pytest.raises(QueryError, match="unknown relation"):
            check_against_schema(parse_query("Emp(Mary, 'IT', 3)"), SCHEMA)

    def test_wrong_arity_rejected(self):
        with pytest.raises(QueryError, match="arity"):
            check_against_schema(parse_query("Mgr(Mary, 'IT')"), SCHEMA)

    def test_nested_atoms_are_checked(self):
        bad = parse_query(
            "FORALL n . (Mgr(n, 'IT', 3) IMPLIES NOT (Mgr(n) OR 1 < 2))"
        )
        with pytest.raises(QueryError):
            check_against_schema(bad, SCHEMA)

    def test_comparisons_and_constants_are_fine(self):
        formula = parse_query("1 < 2 AND TRUE OR FALSE")
        assert check_against_schema(formula, SCHEMA) is formula

    def test_engine_raises_on_misspelled_relation(self):
        from repro.cqa.engine import CqaEngine
        from repro.datagen.paper_instances import mgr_scenario

        scenario = mgr_scenario()
        engine = CqaEngine(scenario.instance, scenario.dependencies)
        with pytest.raises(QueryError):
            engine.answer("Mgrr(Mary, 'IT', 3, 4)")

    def test_engine_raises_on_wrong_arity(self):
        from repro.cqa.engine import CqaEngine
        from repro.datagen.paper_instances import mgr_scenario

        scenario = mgr_scenario()
        engine = CqaEngine(scenario.instance, scenario.dependencies)
        with pytest.raises(QueryError):
            engine.answer("EXISTS d, s . Mgr(Mary, d, s)")

    @pytest.mark.parametrize("as_rows", [False, True])
    def test_denial_engine_raises_on_unknown_relation_and_arity(self, as_rows):
        from repro.cqa.hypergraph_cqa import DenialCqaEngine
        from tests.cqa.test_hypergraph_cqa import overpaid_engine

        engine = overpaid_engine()
        if as_rows:
            # Built from bare rows, the schema comes from the rows.
            rows = [row for repair in engine.repairs() for row in repair]
            engine = DenialCqaEngine(rows, engine.constraints)
        for query in ("Nope('x')", "Emp('a', 'b')"):
            with pytest.raises(QueryError):
                engine.answer(query)
        with pytest.raises(QueryError):
            engine.certain_answers("Nope(x)")
        assert engine.answer("EXISTS d, s . Emp(Zoe, d, s)").is_consistent_answer_true
