"""The four preferred-repair families: L-Rep, S-Rep, G-Rep, C-Rep.

Each family maps ``(instance, FDs, priority)`` — equivalently a
:class:`Priority` over a conflict graph — to a subset of the repairs:

===========  ===============================================  ==========
family       selection rule                                    checking
===========  ===============================================  ==========
``REP``      all repairs (no preference; classic CQA [1])      PTIME
``L``        locally optimal repairs                           PTIME
``S``        semi-globally optimal repairs                     PTIME
``G``        globally optimal (≪-maximal) repairs              co-NP-c
``C``        common repairs = outcomes of Algorithm 1          PTIME
===========  ===============================================  ==========

Containments (Propositions 3, 4, 6): C ⊆ G ⊆ S ⊆ L ⊆ Rep.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.constraints.conflict_graph import ConflictGraph, build_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.core.cleaning import all_cleaning_results, is_common_repair
from repro.core.optimality import (
    globally_optimal_repairs,
    is_globally_optimal,
    is_locally_optimal,
    is_semi_globally_optimal,
)
from repro.priorities.priority import Priority, empty_priority
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.repairs.enumerate import enumerate_repairs, repair_sort_key

Repair = FrozenSet[Row]


class Family(enum.Enum):
    """Identifier of a preferred-repair family."""

    REP = "Rep"
    LOCAL = "L-Rep"
    SEMI_GLOBAL = "S-Rep"
    GLOBAL = "G-Rep"
    COMMON = "C-Rep"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def preferred_among(
    family: Family, priority: Priority, repairs: Sequence[Repair]
) -> List[Repair]:
    """The members of ``repairs`` in ``X-Rep≻``, in input order.

    ``repairs`` must be all repairs of ``priority.graph`` — a whole
    conflict graph or one of its components, since every family
    decomposes across components.  ``COMMON`` ignores it: Algorithm 1's
    outcomes are generated directly (in :func:`repair_sort_key` order).
    """
    if family is Family.REP:
        return list(repairs)
    if family is Family.LOCAL:
        return [r for r in repairs if is_locally_optimal(r, priority)]
    if family is Family.SEMI_GLOBAL:
        return [r for r in repairs if is_semi_globally_optimal(r, priority)]
    if family is Family.GLOBAL:
        return globally_optimal_repairs(priority, repairs)
    if family is Family.COMMON:
        return all_cleaning_results(priority)
    raise ValueError(f"unknown family {family!r}")  # pragma: no cover


def preferred_repairs(
    family: Family,
    priority: Priority,
    repairs: Optional[Sequence[Repair]] = None,
) -> List[Repair]:
    """``X-Rep≻`` for the given family, in deterministic order.

    ``repairs`` may carry a precomputed list of all repairs to share
    enumeration work across families (ignored by ``COMMON``, which
    never needs the full repair set).
    """
    if family is Family.COMMON:
        return all_cleaning_results(priority)
    pool = list(
        repairs if repairs is not None else enumerate_repairs(priority.graph)
    )
    return sorted(preferred_among(family, priority, pool), key=repair_sort_key)


def is_preferred_repair(
    family: Family,
    candidate: AbstractSet[Row],
    priority: Priority,
    repairs: Optional[Sequence[Repair]] = None,
) -> bool:
    """X-repair checking (problem ``B`` of Section 4.1).

    L-, S- and C-checking run in polynomial time (Theorem 4,
    Corollaries 1 and 2); G-checking performs the co-NP witness search.
    """
    graph = priority.graph
    if family is Family.COMMON:
        return graph.is_maximal_independent(candidate) and is_common_repair(
            candidate, priority
        )
    if not graph.is_maximal_independent(candidate):
        return False
    if family is Family.REP:
        return True
    if family is Family.LOCAL:
        return is_locally_optimal(candidate, priority)
    if family is Family.SEMI_GLOBAL:
        return is_semi_globally_optimal(candidate, priority)
    if family is Family.GLOBAL:
        return is_globally_optimal(candidate, priority, repairs)
    raise ValueError(f"unknown family {family!r}")  # pragma: no cover


def family_chain(
    priority: Priority, repairs: Optional[Sequence[Repair]] = None
) -> Dict[Family, List[Repair]]:
    """All five families at once, sharing one repair enumeration."""
    pool = (
        list(repairs)
        if repairs is not None
        else list(enumerate_repairs(priority.graph))
    )
    return {
        family: preferred_repairs(family, priority, pool) for family in Family
    }


def preferred_repairs_of_instance(
    family: Family,
    instance: RelationInstance,
    dependencies: Sequence[FunctionalDependency],
    priority_edges: Sequence = (),
) -> List[Repair]:
    """Convenience entry point from raw instance + FDs + priority pairs."""
    graph = build_conflict_graph(instance, dependencies)
    priority = Priority(graph, priority_edges)
    return preferred_repairs(family, priority)
