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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.core.families import Family
from repro.relational.domain import Value
from repro.relational.rows import Row


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
