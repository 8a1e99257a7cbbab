"""Unit and property tests for repair enumeration."""

import pytest
from hypothesis import given, settings

from repro.constraints.conflict_graph import build_conflict_graph
from repro.datagen.generators import GRID_FDS, chain_instance, CHAIN_FDS, grid_instance
from repro.datagen.paper_instances import example4_scenario, mgr_scenario
from repro.repairs.checking import is_repair_on_graph
from repro.repairs.enumerate import (
    all_repairs,
    count_repairs,
    enumerate_repairs,
    repairs_capped,
)
from tests.conftest import key_instances, two_fd_instances


class TestPaperExamples:
    def test_example4_repair_count_is_2_to_n(self):
        for n in range(1, 7):
            graph = build_conflict_graph(
                example4_scenario(n).instance, GRID_FDS
            )
            repairs = list(enumerate_repairs(graph))
            assert len(repairs) == 2**n
            assert count_repairs(graph) == 2**n

    def test_example4_repairs_are_choice_functions(self):
        graph = build_conflict_graph(example4_scenario(3).instance, GRID_FDS)
        for repair in enumerate_repairs(graph):
            keys = sorted(row["A"] for row in repair)
            assert keys == [0, 1, 2]  # exactly one tuple per key value

    def test_mgr_has_three_repairs(self):
        scenario = mgr_scenario()
        repairs = set(enumerate_repairs(scenario.graph))
        assert repairs == {
            scenario.row_set("mary_rd", "john_pr"),
            scenario.row_set("john_rd", "mary_it"),
            scenario.row_set("mary_it", "john_pr"),
        }

    def test_chain_repairs_follow_fibonacci(self):
        # Maximal independent sets of the path P_n: 1,2,2,3,4,5,7,...
        expected = {1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 5, 7: 7}
        for n, count in expected.items():
            graph = build_conflict_graph(chain_instance(n), CHAIN_FDS)
            assert count_repairs(graph) == count, f"n={n}"


class TestProperties:
    def test_empty_graph_single_empty_repair(self):
        graph = build_conflict_graph(grid_instance(0), GRID_FDS)
        assert list(enumerate_repairs(graph)) == [frozenset()]

    def test_consistent_instance_repairs_to_itself(self):
        instance = grid_instance(3, per_group=1)
        graph = build_conflict_graph(instance, GRID_FDS)
        assert list(enumerate_repairs(graph)) == [instance.rows]

    @given(key_instances())
    @settings(max_examples=60, deadline=None)
    def test_every_enumerated_set_is_a_repair(self, instance):
        graph = build_conflict_graph(instance, GRID_FDS)
        repairs = list(enumerate_repairs(graph))
        assert repairs, "P1 for Rep: at least one repair"
        for repair in repairs:
            assert is_repair_on_graph(repair, graph)

    @given(key_instances())
    @settings(max_examples=60, deadline=None)
    def test_no_duplicates_and_count_matches(self, instance):
        graph = build_conflict_graph(instance, GRID_FDS)
        repairs = list(enumerate_repairs(graph))
        assert len(set(repairs)) == len(repairs)
        assert count_repairs(graph) == len(repairs)

    @pytest.mark.parametrize(
        "instance, fds",
        [
            (chain_instance(1), CHAIN_FDS),
            (chain_instance(9), CHAIN_FDS),
            (grid_instance(0), GRID_FDS),
            (grid_instance(2, 1), GRID_FDS),
            (grid_instance(4, 3), GRID_FDS),
        ],
    )
    def test_count_matches_enumeration_on_generated_instances(
        self, instance, fds
    ):
        graph = build_conflict_graph(instance, fds)
        assert count_repairs(graph) == len(list(enumerate_repairs(graph)))

    @given(two_fd_instances())
    @settings(max_examples=60, deadline=None)
    def test_variants_agree(self, instance):
        from repro.constraints.fd import FunctionalDependency

        fds = (
            FunctionalDependency.parse("A -> B", "R"),
            FunctionalDependency.parse("C -> D", "R"),
        )
        graph = build_conflict_graph(instance, fds)
        baseline = set(enumerate_repairs(graph))
        assert set(enumerate_repairs(graph, factor_components=False)) == baseline
        assert set(enumerate_repairs(graph, pivoting=False)) == baseline
        assert (
            set(enumerate_repairs(graph, factor_components=False, pivoting=False))
            == baseline
        )

    def test_all_repairs_convenience(self):
        scenario = mgr_scenario()
        assert len(all_repairs(scenario.instance, scenario.dependencies)) == 3

    def test_repairs_capped(self):
        graph = build_conflict_graph(example4_scenario(10).instance, GRID_FDS)
        assert len(repairs_capped(graph, 16)) == 16


class TestCappedAndCounted:
    """Example-4 style coverage for repairs_capped and count_repairs."""

    def test_capped_below_total_stops_early(self):
        graph = build_conflict_graph(example4_scenario(6).instance, GRID_FDS)
        capped = repairs_capped(graph, 5)
        assert len(capped) == 5
        assert len(set(capped)) == 5
        for repair in capped:
            assert is_repair_on_graph(repair, graph)

    def test_capped_above_total_returns_everything(self):
        graph = build_conflict_graph(example4_scenario(3).instance, GRID_FDS)
        capped = repairs_capped(graph, 1000)
        assert sorted(capped, key=repr) == sorted(
            enumerate_repairs(graph), key=repr
        )

    def test_capped_at_exact_total(self):
        graph = build_conflict_graph(example4_scenario(4).instance, GRID_FDS)
        assert len(repairs_capped(graph, 16)) == 16

    def test_count_scales_without_enumeration_blowup(self):
        # 2^60 repairs: countable through component factoring although
        # enumeration could never finish.
        graph = build_conflict_graph(example4_scenario(60).instance, GRID_FDS)
        assert count_repairs(graph) == 2**60

    def test_count_with_isolated_tuples(self):
        instance = grid_instance(3, per_group=1).union(
            example4_scenario(2).instance
        )
        graph = build_conflict_graph(instance, GRID_FDS)
        assert count_repairs(graph) == 4

    def test_count_empty_graph_is_one(self):
        graph = build_conflict_graph(grid_instance(0), GRID_FDS)
        assert count_repairs(graph) == 1
