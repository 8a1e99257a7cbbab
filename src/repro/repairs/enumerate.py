"""Repair enumeration and the factored repair space.

Repairs (Definition 1) are the maximal independent sets of the conflict
graph.  There may be exponentially many (Example 4 exhibits ``2^n``
repairs for ``2n`` tuples), so everything here is generator-based, with
two structural optimizations:

* **component factoring** — maximal independent sets of a disconnected
  graph are exactly the unions of one maximal independent set per
  connected component.  :class:`RepairSpace` is that product: the rows
  of the singleton components plus one fragment list per conflicted
  component.  It enumerates, counts (a product of small numbers, never
  materializing the cross product) and addresses repairs by index, and
  every preferred family factors the same way, so the engines and the
  sharded executor all stream repairs through it;
* **Bron–Kerbosch with pivoting** on the *complement* graph, expressed
  directly in terms of conflict-graph vicinities so the (dense)
  complement is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import (
    Callable,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.constraints.conflict_graph import ConflictGraph, build_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row, sorted_rows

Repair = FrozenSet[Row]


def repair_sort_key(repair: Repair) -> str:
    """The canonical listing order for repair collections.

    Every API that materializes repairs (``preferred_repairs``, the
    engines' ``repairs()``, the component caches) sorts by this one key
    so cached and freshly-computed lists always interleave identically.
    """
    return sorted_rows(repair).__repr__()


def _bron_kerbosch_independent(
    graph: ConflictGraph,
    chosen: Set[Row],
    candidates: Set[Row],
    excluded: Set[Row],
    pivoting: bool,
) -> Iterator[Repair]:
    """Enumerate maximal independent sets extending ``chosen``.

    This is Bron–Kerbosch for cliques of the complement graph: two
    vertices may share an independent set iff they are *not* adjacent in
    the conflict graph, so "non-neighbourhood" plays the role the clique
    algorithm gives to the neighbourhood, and the branching set
    ``P - N̄(pivot)`` becomes ``P ∩ vicinity(pivot)``.
    """
    if not candidates and not excluded:
        yield frozenset(chosen)
        return
    if pivoting:
        # Pick the pivot whose complement-neighbourhood covers most of P,
        # i.e. whose conflict-vicinity intersects P least.
        pivot = min(
            candidates | excluded,
            key=lambda vertex: len(candidates & graph.vicinity(vertex)),
        )
        branch_vertices = candidates & graph.vicinity(pivot)
    else:
        branch_vertices = set(candidates)
    for vertex in sorted_rows(branch_vertices):
        non_conflicting = lambda pool: {
            other for other in pool if other not in graph.vicinity(vertex)
        }
        chosen.add(vertex)
        yield from _bron_kerbosch_independent(
            graph,
            chosen,
            non_conflicting(candidates),
            non_conflicting(excluded),
            pivoting,
        )
        chosen.remove(vertex)
        candidates.remove(vertex)
        excluded.add(vertex)


def _component_repairs(
    graph: ConflictGraph, component: FrozenSet[Row], pivoting: bool
) -> List[Repair]:
    return list(
        _bron_kerbosch_independent(
            graph.induced(component), set(), set(component), set(), pivoting
        )
    )


@dataclass(frozen=True)
class RepairSpace:
    """A repair space as a product of per-component fragments.

    ``base`` holds the rows present in every repair; ``fragments`` is
    one sequence of alternative fragments per component.  A repair is
    ``base`` plus one fragment per component, and the repair at product
    index ``i`` is the ``i``-th one iteration yields: the mixed-radix
    encoding of :func:`itertools.product`, last component varying
    fastest.  Shards of an index range therefore see the serial stream
    in order.
    """

    base: FrozenSet[Row]
    fragments: Tuple[Sequence[Repair], ...]

    @property
    def total(self) -> int:
        """Number of repairs in the space."""
        return prod(len(options) for options in self.fragments)

    def __iter__(self) -> Iterator[Repair]:
        for combination in product(*self.fragments):
            yield self.base.union(*combination)

    def repair_at(self, index: int) -> Repair:
        """The repair at one product index (mixed-radix decode)."""
        parts: List[Repair] = []
        for options in reversed(self.fragments):
            index, position = divmod(index, len(options))
            parts.append(options[position])
        return self.base.union(*parts)

    def assemble(self, choices: Mapping[int, int]) -> Repair:
        """The repair taking fragment ``choices[c]`` of component ``c``
        (fragment 0 where ``choices`` is silent)."""
        return self.base.union(
            *(
                options[choices.get(position, 0)]
                for position, options in enumerate(self.fragments)
            )
        )


#: Per-component fragment filter: ``(component, fragments) -> kept``.
FragmentFilter = Callable[[FrozenSet[Row], List[Repair]], Sequence[Repair]]


def repair_space(
    graph: ConflictGraph,
    pivoting: bool = True,
    select: Optional[FragmentFilter] = None,
) -> RepairSpace:
    """Factor the repairs of ``graph`` into a :class:`RepairSpace`.

    Singleton components contribute the same vertex to every repair, so
    they go to the base and the product runs over the conflicted
    components only.  Each conflicted component's repair list is
    computed exactly once, in Bron–Kerbosch order; ``select`` may then
    keep a subset of it (the preferred families decompose per
    component).  Filtering coordinate-wise keeps the product's
    lexicographic order.
    """
    fixed: List[Row] = []
    fragments: List[Tuple[Repair, ...]] = []
    for component in graph.connected_components():
        if len(component) == 1:
            fixed.extend(component)
            continue
        options = _component_repairs(graph, component, pivoting)
        if select is not None:
            options = select(component, options)
        fragments.append(tuple(options))
    return RepairSpace(frozenset(fixed), tuple(fragments))


def enumerate_repairs(
    graph: ConflictGraph,
    factor_components: bool = True,
    pivoting: bool = True,
) -> Iterator[Repair]:
    """Yield every repair (maximal independent set) of the conflict graph.

    ``factor_components=False`` and ``pivoting=False`` select the naive
    variants (kept for the enumeration ablation benchmark).
    """
    if factor_components:
        yield from repair_space(graph, pivoting)
    else:
        yield from _bron_kerbosch_independent(
            graph, set(), set(graph.vertices), set(), pivoting
        )


def all_repairs(
    instance: RelationInstance,
    dependencies: Sequence[FunctionalDependency],
) -> List[Repair]:
    """The full repair set ``Rep_F(r)`` as a list of row frozensets."""
    graph = build_conflict_graph(instance, dependencies)
    return list(enumerate_repairs(graph))


def count_repairs(graph: ConflictGraph) -> int:
    """Number of repairs, computed component-wise.

    Counting maximal independent sets is #P-hard in general; within each
    connected component we count by enumeration, but the product across
    components makes structured instances (such as Example 4, with
    ``n`` independent 4-cycles) countable without materializing the
    exponential repair set.
    """
    return repair_space(graph).total


def repairs_capped(graph: ConflictGraph, limit: int) -> List[Repair]:
    """At most ``limit`` repairs (guard for accidentally huge spaces)."""
    collected: List[Repair] = []
    for repair in enumerate_repairs(graph):
        collected.append(repair)
        if len(collected) >= limit:
            break
    return collected
