"""Unit tests for the related-work baselines."""

import pytest

from repro.baselines.cleaning import UnresolvedPolicy, clean_database
from repro.baselines.ranking import resolve_by_rank, resolve_with_fusion
from repro.baselines.stratified import preferred_subtheories, stratified_priority
from repro.constraints.conflicts import is_consistent
from repro.core.cleaning import all_cleaning_results
from repro.datagen.paper_instances import mgr_scenario, mgr_source_of
from repro.exceptions import PriorityError


class TestCleaningBaseline:
    def test_example3_cleaning_leaves_inconsistency(self):
        """Example 3: cleaning with partial reliability information
        yields r' = {(Mary,R&D,40,3), (John,R&D,10,2)} — inconsistent."""
        scenario = mgr_scenario()
        outcome = clean_database(scenario.priority, UnresolvedPolicy.KEEP)
        assert outcome.kept == scenario.row_set("mary_rd", "john_rd")
        assert outcome.removed == scenario.row_set("mary_it", "john_pr")
        assert not outcome.is_consistent
        assert not is_consistent(outcome.kept, scenario.dependencies)
        assert len(outcome.unresolved_conflicts) == 1

    def test_contingency_policy_restores_consistency(self):
        scenario = mgr_scenario()
        outcome = clean_database(scenario.priority, UnresolvedPolicy.CONTINGENCY)
        assert outcome.is_consistent
        assert outcome.kept == frozenset()  # both survivors were conflicting
        assert outcome.contingency == scenario.row_set("mary_rd", "john_rd")

    def test_total_priority_cleaning_consistent(self):
        from repro.datagen.paper_instances import example8_scenario

        scenario = example8_scenario()
        outcome = clean_database(scenario.priority)
        assert outcome.is_consistent
        assert outcome.kept == scenario.row_set("tc")


class TestRankingBaseline:
    def test_unique_repair_from_ranks(self):
        scenario = mgr_scenario()
        ranks = {
            scenario.rows["mary_rd"]: 4.0,
            scenario.rows["john_rd"]: 3.0,
            scenario.rows["mary_it"]: 2.0,
            scenario.rows["john_pr"]: 1.0,
        }
        repair = resolve_by_rank(scenario.graph, ranks.__getitem__)
        assert repair == scenario.row_set("mary_rd", "john_pr")
        assert scenario.graph.is_maximal_independent(repair)

    def test_ties_on_conflicts_rejected(self):
        scenario = mgr_scenario()
        with pytest.raises(PriorityError):
            resolve_by_rank(scenario.graph, lambda row: 1.0)

    def test_fusion_on_ties(self):
        scenario = mgr_scenario()
        result = resolve_with_fusion(scenario.graph, lambda row: 1.0)
        # The single conflict component fuses into one invented tuple.
        assert len(result.fused) == 1
        fused = result.fused[0]
        # Numeric attributes are averaged over the component's tuples.
        assert fused["Salary"] == (40 + 10 + 20 + 30) // 4
        assert result.invented == result.fused

    def test_fusion_keeps_unique_top(self):
        scenario = mgr_scenario()
        ranks = {
            scenario.rows["mary_rd"]: 4.0,
            scenario.rows["john_rd"]: 3.0,
            scenario.rows["mary_it"]: 2.0,
            scenario.rows["john_pr"]: 1.0,
        }
        result = resolve_with_fusion(scenario.graph, ranks.__getitem__)
        assert result.fused == ()
        assert scenario.rows["mary_rd"] in result.kept

    def test_isolated_tuples_always_kept(self):
        from repro.constraints.conflict_graph import build_conflict_graph
        from repro.datagen.generators import GRID_FDS
        from repro.relational.instance import RelationInstance
        from repro.datagen.generators import GRID_SCHEMA

        instance = RelationInstance.from_values(GRID_SCHEMA, [(1, 1), (2, 2)])
        graph = build_conflict_graph(instance, GRID_FDS)
        result = resolve_with_fusion(graph, lambda row: 0.0)
        assert result.kept == instance.rows


class TestStratifiedBaseline:
    def test_strata_induce_priority(self):
        scenario = mgr_scenario()
        sources = mgr_source_of()
        stratum = {"s1": 0, "s2": 0, "s3": 1}
        priority = stratified_priority(
            scenario.graph, lambda row: stratum[sources[row]]
        )
        assert priority.edges == scenario.priority.edges

    def test_subtheories_match_crep_on_stratified_priority(self):
        """[4]'s construction is 'analogous to C-repairs' (paper §5)."""
        scenario = mgr_scenario()
        sources = mgr_source_of()
        stratum = {"s1": 0, "s2": 0, "s3": 1}

        def stratum_of(row):
            return stratum[sources[row]]

        subtheories = set(preferred_subtheories(scenario.graph, stratum_of))
        priority = stratified_priority(scenario.graph, stratum_of)
        assert subtheories == set(all_cleaning_results(priority))

    def test_subtheories_are_repairs(self):
        scenario = mgr_scenario()
        sources = mgr_source_of()
        stratum = {"s1": 0, "s2": 1, "s3": 2}
        for subtheory in preferred_subtheories(
            scenario.graph, lambda row: stratum[sources[row]]
        ):
            assert scenario.graph.is_maximal_independent(subtheory)

    def test_single_stratum_gives_all_repairs(self):
        from repro.repairs.enumerate import enumerate_repairs

        scenario = mgr_scenario()
        subtheories = set(preferred_subtheories(scenario.graph, lambda row: 0))
        assert subtheories == set(enumerate_repairs(scenario.graph))


class TestBaselineAnswers:
    """Baseline resolutions answered on the shared indexed machinery."""

    QUERY = "EXISTS d, r . Mgr(n, d, s, r)"

    def test_cleaned_answers_match_kept_rows(self):
        from repro.baselines.answers import cleaned_answers
        from repro.query.evaluator import answers as evaluate_answers
        from repro.query.parser import parse_query

        scenario = mgr_scenario()
        outcome = clean_database(scenario.priority, UnresolvedPolicy.KEEP)
        result = cleaned_answers(outcome, self.QUERY)
        expected = evaluate_answers(
            parse_query(self.QUERY), outcome.kept, ("n", "s")
        )
        assert result.certain == expected
        assert result.possible == expected  # one alternative: no dispute
        assert result.repairs_considered == 1
        assert result.route == "indexed"

    def test_cleaning_overconfidence_versus_cqa(self):
        """Example 3's point: the cleaned table treats answers that rest
        on an unresolved conflict as certain; Definition 3 does not."""
        from repro.baselines.answers import cleaned_answers
        from repro.cqa.engine import CqaEngine

        scenario = mgr_scenario()
        outcome = clean_database(scenario.priority, UnresolvedPolicy.KEEP)
        cleaned = cleaned_answers(outcome, self.QUERY)
        engine = CqaEngine(
            scenario.instance, scenario.dependencies, scenario.priority.edges
        )
        cqa = engine.certain_answers(self.QUERY)
        assert not outcome.is_consistent
        assert cleaned.certain - cqa.certain  # over-confident claims exist

    def test_subtheory_answers_agree_with_per_alternative_evaluation(self):
        from repro.baselines.answers import baseline_answers
        from repro.query.evaluator import answers as evaluate_answers
        from repro.query.parser import parse_query

        scenario = mgr_scenario()
        stratum = {row: 0 for row in scenario.graph.vertices}
        for name in ("mary_it", "john_rd"):
            stratum[scenario.rows[name]] = 1
        subtheories = preferred_subtheories(scenario.graph, stratum.__getitem__)
        result = baseline_answers(subtheories, self.QUERY)
        formula = parse_query(self.QUERY)
        per_alternative = [
            evaluate_answers(formula, alternative, ("n", "s"))
            for alternative in subtheories
        ]
        assert result.certain == frozenset.intersection(*per_alternative)
        assert result.possible == frozenset.union(*per_alternative)
        assert result.repairs_considered == len(subtheories)

    def test_naive_route_agrees_and_is_recorded(self):
        from repro.baselines.answers import baseline_answers

        scenario = mgr_scenario()
        stratum = {row: 0 for row in scenario.graph.vertices}
        subtheories = preferred_subtheories(scenario.graph, stratum.__getitem__)
        indexed = baseline_answers(subtheories, self.QUERY)
        naive = baseline_answers(subtheories, self.QUERY, naive=True)
        assert naive.certain == indexed.certain
        assert naive.possible == indexed.possible
        assert (naive.route, indexed.route) == ("naive", "indexed")

    @pytest.mark.parametrize("naive", [False, True])
    def test_sharded_path_matches_serial(self, naive):
        from repro.baselines.answers import baseline_answers

        scenario = mgr_scenario()
        stratum = {row: 0 for row in scenario.graph.vertices}
        subtheories = preferred_subtheories(scenario.graph, stratum.__getitem__)
        serial = baseline_answers(subtheories, self.QUERY, naive=naive)
        sharded = baseline_answers(
            subtheories, self.QUERY, naive=naive, parallel=1
        )
        assert sharded == serial
        assert sharded.route == serial.route
        assert serial.disputed  # the alternatives disagree somewhere

    def test_no_alternatives_is_an_error(self):
        from repro.baselines.answers import baseline_answers
        from repro.exceptions import QueryError

        for parallel in (None, 1):
            with pytest.raises(QueryError):
                baseline_answers([], self.QUERY, parallel=parallel)
