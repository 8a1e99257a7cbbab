"""Unit tests for the answer types (verdicts, open answers) and the
folds that produce them."""

import pytest

from repro.core.families import Family
from repro.cqa.answers import ClosedAnswer, OpenAnswers, Verdict


class TestVerdict:
    def test_as_bool(self):
        assert Verdict.TRUE.as_bool is True
        assert Verdict.FALSE.as_bool is False
        assert Verdict.UNDETERMINED.as_bool is None

    def test_values_for_cli(self):
        assert {v.value for v in Verdict} == {"true", "false", "undetermined"}


class TestClosedAnswer:
    def test_is_consistent_answer_true(self):
        answer = ClosedAnswer(Family.REP, Verdict.TRUE, 3, 3)
        assert answer.is_consistent_answer_true
        assert not ClosedAnswer(
            Family.REP, Verdict.UNDETERMINED, 3, 1
        ).is_consistent_answer_true


class TestVerdictFromCounts:
    @pytest.mark.parametrize(
        "considered, satisfying, verdict",
        [
            (0, 0, Verdict.UNDETERMINED),
            (1, 1, Verdict.TRUE),
            (1, 0, Verdict.FALSE),
            (4, 4, Verdict.TRUE),
            (4, 0, Verdict.FALSE),
            (4, 1, Verdict.UNDETERMINED),
            (4, 3, Verdict.UNDETERMINED),
        ],
    )
    def test_verdict_table(self, considered, satisfying, verdict):
        answer = ClosedAnswer.from_counts(
            Family.LOCAL, considered, satisfying, None, "indexed"
        )
        assert answer == ClosedAnswer(
            Family.LOCAL, verdict, considered, satisfying, None
        )
        assert answer.route == "indexed"


class TestIncrementalEnumerationFallback:
    """The incremental engine's closed-query fallback (a query with no
    witness plan), sharded in-process versus serial."""

    @pytest.mark.parametrize("family", list(Family))
    def test_parallel_one_matches_serial(self, family):
        from repro.datagen.generators import GRID_FDS, grid_instance
        from repro.incremental.engine import IncrementalCqaEngine

        instance = grid_instance(3, 3)
        rows = {tuple(row.values): row for row in instance.rows}
        priority = [(rows[(g, 0)], rows[(g, 1)]) for g in range(3)]
        query = "R(0, 0) OR R(1, 2)"
        serial = IncrementalCqaEngine(instance, GRID_FDS, priority, family)
        sharded = IncrementalCqaEngine(instance, GRID_FDS, priority, family)
        expected = serial.answer(query)
        got = sharded.answer(query, parallel=1)
        assert expected.route == got.route == "indexed"
        assert expected.verdict is Verdict.UNDETERMINED
        assert got.verdict == expected.verdict
        assert got.repairs_considered == expected.repairs_considered
        assert got.satisfying == expected.satisfying
        if family in (Family.REP, Family.LOCAL, Family.SEMI_GLOBAL):
            assert got.counterexample == expected.counterexample


class TestOpenAnswers:
    def test_disputed(self):
        answers = OpenAnswers(
            Family.REP,
            ("n",),
            certain=frozenset({("a",)}),
            possible=frozenset({("a",), ("b",)}),
            repairs_considered=2,
        )
        assert answers.disputed == {("b",)}

    def test_no_dispute_when_equal(self):
        answers = OpenAnswers(
            Family.GLOBAL,
            ("n",),
            certain=frozenset({("a",)}),
            possible=frozenset({("a",)}),
            repairs_considered=1,
        )
        assert answers.disputed == frozenset()
