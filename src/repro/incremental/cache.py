"""Component-scoped repair caches with content fingerprints.

Repairs are maximal independent sets of the conflict graph, and maximal
independent sets of a disconnected graph factor through its connected
components — so all repair-level work can be cached *per component*.

The cache key is the component's **fingerprint**: its vertex frozenset
(conflict edges are a function of the vertices and the fixed dependency
set, so the vertex set determines the subgraph), extended with the
active priority edges for family-filtered entries.  Fingerprinting by
content makes invalidation implicit: when an update merges or splits
components, the new components have new vertex sets and simply miss the
cache, while every untouched component keeps hitting its old entry.

Entries are evicted FIFO past ``max_entries`` so a long-running engine
that churns through many instance versions stays bounded.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.constraints.conflict_graph import ConflictGraph
from repro.core.families import Family, preferred_among
from repro.obs import observe_cache
from repro.priorities.priority import Priority, PriorityEdge
from repro.relational.rows import Row
from repro.repairs.enumerate import enumerate_repairs, repair_sort_key

from repro.incremental.dynamic_graph import DynamicConflictGraph

Repair = FrozenSet[Row]

#: Fingerprint of a component for family-filtered entries: the vertex
#: set plus the priority edges active inside the component.
FamilyKey = Tuple[Family, FrozenSet[Row], FrozenSet[PriorityEdge]]


def _deterministic(repairs: Iterable[Repair]) -> Tuple[Repair, ...]:
    """The listing order used by :func:`repro.core.families.preferred_repairs`."""
    return tuple(sorted(repairs, key=repair_sort_key))


class ComponentRepairCache:
    """Per-component repair sets, preferred fragments and subgraphs."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._graphs: Dict[FrozenSet[Row], ConflictGraph] = {}
        self._fragments: Dict[FrozenSet[Row], Tuple[Repair, ...]] = {}
        self._preferred: Dict[FamilyKey, Tuple[Repair, ...]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _hit(self) -> None:
        self.hits += 1
        observe_cache("component_repair", "hit")

    def _miss(self) -> None:
        self.misses += 1
        observe_cache("component_repair", "miss")

    # Entry points -------------------------------------------------------------

    def component_graph(
        self, graph: DynamicConflictGraph, component: FrozenSet[Row]
    ) -> ConflictGraph:
        """The immutable induced subgraph of one component (cached)."""
        cached = self._graphs.get(component)
        if cached is None:
            cached = graph.induced_component(component)
            self._remember(self._graphs, component, cached)
        return cached

    def repair_fragments(
        self, graph: DynamicConflictGraph, component: FrozenSet[Row]
    ) -> Tuple[Repair, ...]:
        """All maximal independent sets of the component."""
        cached = self._fragments.get(component)
        if cached is not None:
            self._hit()
            return cached
        self._miss()
        subgraph = self.component_graph(graph, component)
        # The component is connected by construction; skip re-factoring.
        fragments = _deterministic(
            enumerate_repairs(subgraph, factor_components=False)
        )
        self._remember(self._fragments, component, fragments)
        return fragments

    def preferred_fragments(
        self,
        graph: DynamicConflictGraph,
        component: FrozenSet[Row],
        family: Family,
        active_edges: FrozenSet[PriorityEdge],
    ) -> Tuple[Repair, ...]:
        """The family's preferred repairs *of the component* alone.

        Every preferred-repair family of the paper decomposes across
        connected components: local/semi-global failure witnesses are
        confined to one component, the ≪-lifting compares repairs
        difference-by-difference inside components (priority edges only
        relate conflicting, hence co-component, tuples), and Algorithm 1
        steps in distinct components commute.  Full preferred repairs
        are therefore exactly the unions of one preferred fragment per
        component, which is what the incremental engine assembles.
        """
        key: FamilyKey = (family, component, active_edges)
        cached = self._preferred.get(key)
        if cached is not None:
            self._hit()
            return cached
        self._miss()
        selected = self.repair_fragments(graph, component)
        if family is not Family.REP:
            priority = Priority(
                self.component_graph(graph, component), active_edges
            )
            selected = _deterministic(preferred_among(family, priority, selected))
        self._remember(self._preferred, key, selected)
        return selected

    # Bookkeeping --------------------------------------------------------------

    def _remember(self, store: Dict, key, value) -> None:
        if len(store) >= self.max_entries:
            store.pop(next(iter(store)))
            self.evictions += 1
            observe_cache("component_repair", "eviction")
        store[key] = value

    def clear(self) -> None:
        self._graphs.clear()
        self._fragments.clear()
        self._preferred.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "graphs": len(self._graphs),
            "fragment_sets": len(self._fragments),
            "preferred_sets": len(self._preferred),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComponentRepairCache({len(self._fragments)} fragment sets, "
            f"{self.hits} hits / {self.misses} misses)"
        )
