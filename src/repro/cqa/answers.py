"""Answer types for (preferred) consistent query answering.

For a closed query ``Q`` and a family of preferred repairs, the paper
defines ``true`` to be the X-consistent answer when every preferred
repair satisfies ``Q`` (Definition 3).  Symmetrically ``false`` is the
X-consistent answer when no preferred repair satisfies ``Q``; otherwise
the answer is undetermined — the inconsistency leaves both outcomes
possible.  :class:`Verdict` captures this three-valued outcome.

For open queries, :class:`OpenAnswers` carries the *certain* answers
(tuples in the answer of every preferred repair) and the *possible*
answers (tuples in the answer of at least one).

Both are folds over a stream of repairs: :func:`fold_closed` counts
considered and satisfying repairs and keeps the first falsifier,
:func:`fold_open` intersects and unions per-repair answer sets.  Their
partial results (:class:`ClosedMerge`, :class:`OpenMerge`) add, so
folding shards of one stream and adding the partials in stream order
gives exactly the serial fold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, FrozenSet, Iterable, Optional, Tuple

from repro.core.families import Family
from repro.query.ast import Formula, constants_of
from repro.query.evaluator import ContextCache
from repro.query.evaluator import answers as evaluate_answers
from repro.query.evaluator import evaluate
from repro.relational.domain import Value
from repro.relational.rows import Row

Repair = FrozenSet[Row]


def sorted_answers(
    tuples: Iterable[Tuple[Value, ...]],
) -> Tuple[Tuple[Value, ...], ...]:
    """Deterministic listing order for answer tuples.

    Answer columns can mix names and naturals (e.g. active-domain
    variables), so plain ``sorted`` would raise on ``int < str``;
    this mirrors the mixed-domain ordering rows use.
    """

    def key(answer):
        return tuple(
            (0, f"{value:020d}") if isinstance(value, int) else (1, str(value))
            for value in answer
        )

    return tuple(sorted(tuples, key=key))


class Verdict(enum.Enum):
    """Three-valued outcome of a closed query over preferred repairs."""

    TRUE = "true"
    FALSE = "false"
    UNDETERMINED = "undetermined"

    @property
    def as_bool(self) -> Optional[bool]:
        """The classical truth value, or ``None`` when undetermined."""
        if self is Verdict.TRUE:
            return True
        if self is Verdict.FALSE:
            return False
        return None


@dataclass(frozen=True)
class ClosedAnswer:
    """Result of closed-query CQA under one family."""

    family: Family
    verdict: Verdict
    repairs_considered: int
    satisfying: int
    #: A preferred repair falsifying the query, when one exists and the
    #: engine kept it (drives the "why not certain?" diagnostics).
    counterexample: Optional[FrozenSet[Row]] = None
    #: Which evaluation route produced the verdict: ``"indexed"`` /
    #: ``"naive"`` (per-repair evaluation), ``"witness-index"`` (the
    #: incremental engine's covering check), or ``"sqlite"`` (pushdown).
    #: Provenance only — excluded from equality so answers from
    #: different routes compare by content.
    route: Optional[str] = field(default=None, compare=False)

    @classmethod
    def from_counts(
        cls,
        family: Family,
        considered: int,
        satisfying: int,
        counterexample: Optional[Repair],
        route: Optional[str],
    ) -> "ClosedAnswer":
        """Definition 3's verdict from repair counts.

        TRUE when every considered repair satisfies the query, FALSE
        when none does, UNDETERMINED otherwise — including when no
        repair was considered (impossible for P1-respecting families;
        defensive only).
        """
        if considered and satisfying == considered:
            verdict = Verdict.TRUE
        elif considered and satisfying == 0:
            verdict = Verdict.FALSE
        else:
            verdict = Verdict.UNDETERMINED
        return cls(
            family, verdict, considered, satisfying, counterexample, route=route
        )

    @property
    def is_consistent_answer_true(self) -> bool:
        """Definition 3: true holds in *every* preferred repair."""
        return self.verdict is Verdict.TRUE


@dataclass(frozen=True)
class OpenAnswers:
    """Certain and possible answers of an open query under one family."""

    family: Family
    variables: Tuple[str, ...]
    certain: FrozenSet[Tuple[Value, ...]]
    possible: FrozenSet[Tuple[Value, ...]]
    repairs_considered: int
    #: Which evaluation route produced the answer sets (see
    #: :attr:`ClosedAnswer.route`); excluded from equality.
    route: Optional[str] = field(default=None, compare=False)

    @property
    def disputed(self) -> FrozenSet[Tuple[Value, ...]]:
        """Answers true in some but not all preferred repairs."""
        return self.possible - self.certain

    # Listings are memoized on the (immutable) answer object: a cached
    # answer served many times is sorted once, not once per response.

    @cached_property
    def sorted_certain(self) -> Tuple[Tuple[Value, ...], ...]:
        """The certain answers in :func:`sorted_answers` order."""
        return sorted_answers(self.certain)

    @cached_property
    def sorted_possible(self) -> Tuple[Tuple[Value, ...], ...]:
        """The possible answers in :func:`sorted_answers` order."""
        return sorted_answers(self.possible)


# ---------------------------------------------------------------------------
# Folding a query over a stream of repairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedMerge:
    """A closed query folded over a run of repairs.

    Runs add: counts sum and the earlier run's counterexample wins, so
    adding shard partials in stream order keeps the serial stream's
    first falsifier.  ``ClosedMerge()`` is the empty run.
    """

    considered: int = 0
    satisfying: int = 0
    counterexample: Optional[Repair] = None

    def __add__(self, other: "ClosedMerge") -> "ClosedMerge":
        return ClosedMerge(
            self.considered + other.considered,
            self.satisfying + other.satisfying,
            self.counterexample
            if self.counterexample is not None
            else other.counterexample,
        )

    def answer(self, family: Family, route: Optional[str]) -> ClosedAnswer:
        """The verdict these counts give (:meth:`ClosedAnswer.from_counts`)."""
        return ClosedAnswer.from_counts(
            family, self.considered, self.satisfying, self.counterexample, route
        )


@dataclass(frozen=True)
class OpenMerge:
    """An open query folded over a run of repairs.

    Runs add: certain answers intersect, possible answers union, and an
    empty run (``considered == 0``, e.g. ``OpenMerge()``) is the
    identity.
    """

    considered: int = 0
    certain: FrozenSet[Tuple[Value, ...]] = frozenset()
    possible: FrozenSet[Tuple[Value, ...]] = frozenset()

    def __add__(self, other: "OpenMerge") -> "OpenMerge":
        if not self.considered:
            return other
        if not other.considered:
            return self
        return OpenMerge(
            self.considered + other.considered,
            self.certain & other.certain,
            self.possible | other.possible,
        )

    def answers(
        self,
        family: Family,
        variables: Tuple[str, ...],
        route: Optional[str],
    ) -> OpenAnswers:
        """These answer sets as an :class:`OpenAnswers`."""
        return OpenAnswers(
            family,
            tuple(variables),
            self.certain,
            self.possible,
            self.considered,
            route=route,
        )


_SATISFIED = ClosedMerge(1, 1, None)


def _per_repair(
    evaluator: Callable,
    formula: Formula,
    contexts: Optional[ContextCache],
    naive: bool,
    *args,
) -> Callable[[Repair], object]:
    """``evaluator(formula, repair, *args)`` over shared contexts when a
    cache is given (its own ``naive`` flag applies), else fresh ones."""
    if contexts is None:
        return lambda repair: evaluator(formula, repair, *args, naive=naive)
    constants = constants_of(formula)
    return lambda repair: evaluator(
        formula, repair, *args, context=contexts.context_for(repair, constants)
    )


def fold_closed(
    repairs: Iterable[Repair],
    formula: Formula,
    contexts: Optional[ContextCache] = None,
    naive: bool = False,
    stop_on_false: bool = False,
) -> ClosedMerge:
    """Evaluate a closed query on each repair and count the outcomes.

    ``stop_on_false`` abandons the stream at the first falsifier (the
    counts are then lower bounds — enough for a certainty check).
    """
    holds = _per_repair(evaluate, formula, contexts, naive)
    merged = ClosedMerge()
    for repair in repairs:
        if holds(repair):
            merged += _SATISFIED
        else:
            merged += ClosedMerge(1, 0, repair)
            if stop_on_false:
                break
    return merged


def fold_open(
    repairs: Iterable[Repair],
    formula: Formula,
    variables: Tuple[str, ...],
    contexts: Optional[ContextCache] = None,
    naive: bool = False,
) -> OpenMerge:
    """Intersect and union an open query's answer sets over repairs."""
    answers_in = _per_repair(evaluate_answers, formula, contexts, naive, variables)
    merged = OpenMerge()
    for repair in repairs:
        result = answers_in(repair)
        merged += OpenMerge(1, result, result)
    return merged
