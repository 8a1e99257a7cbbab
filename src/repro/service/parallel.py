"""Sharded parallel execution of repair-space query evaluation.

Repairs factor through the connected components of the conflict graph,
and so does every preferred family: a family's repairs are the base
rows plus one preferred *fragment* per conflicted component.  A shard
plan is that :class:`~repro.repairs.enumerate.RepairSpace`, with each
component's fragments filtered by
:func:`~repro.core.families.preferred_among` in Bron–Kerbosch order, so
the space is an addressable integer range ``[0, total)`` whose order is
:func:`~repro.repairs.enumerate.enumerate_repairs` order (the serial
stream order of the Rep, L and S families).

Parallel evaluation shards that range into contiguous chunks executed
by a :mod:`multiprocessing` pool.  Task payloads are pickle-safe by
construction: the plan is a frozen dataclass of row sets, and
:class:`~repro.relational.rows.Row` itself reconstructs through its
schema on unpickle.  Workers rebuild each repair from its index, fold
the query over their chunk with the same
:func:`~repro.cqa.answers.fold_closed` / :func:`~repro.cqa.answers.
fold_open` the serial engines use, and return the partial
:class:`~repro.cqa.answers.ClosedMerge` / :class:`~repro.cqa.answers.
OpenMerge`.

The merge adds the partials in chunk order: counts add, answer sets
intersect/union, and the counterexample is the first chunk's
falsifier — the first one the serial stream would have seen.
``workers=1`` executes the same shard code in-process, so the parallel
path is exercised (and differentially testable) without a pool.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.constraints.conflict_graph import ConflictGraph
from repro.core.families import Family, preferred_among
from repro.cqa.answers import ClosedMerge, OpenMerge, fold_closed, fold_open
from repro.obs import REGISTRY, Span, current_tracer, trace
from repro.priorities.priority import Priority
from repro.query.ast import Formula
from repro.relational.rows import Row
from repro.repairs.enumerate import RepairSpace, repair_space

Repair = FrozenSet[Row]

#: The preferred-repair space factored for sharding (the public name
#: of :class:`~repro.repairs.enumerate.RepairSpace` in this layer).
ShardPlan = RepairSpace

#: Contiguous chunks handed to each worker; more than one per worker
#: smooths imbalance between cheap and expensive repairs.
_CHUNKS_PER_WORKER = 4


def default_workers() -> int:
    """Worker count used when ``parallel=True``-style callers ask for
    "as many as the hardware allows"."""
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Shard plans: the repair space as a product of per-component fragments
# ---------------------------------------------------------------------------


def shard_plan(
    graph: ConflictGraph, priority: Priority, family: Family
) -> ShardPlan:
    """Factor a family's preferred repairs into a :class:`ShardPlan`.

    Every preferred family decomposes across connected components:
    witnesses of local/semi-global failure are confined to one
    component, ≪-lifting compares inside components, and Algorithm 1
    steps in distinct components commute.  Each component's fragments
    are filtered under the priority restricted to it, in
    :func:`~repro.repairs.enumerate.enumerate_repairs` order.
    """
    if family is Family.REP:
        return repair_space(graph)
    return repair_space(
        graph,
        select=lambda component, options: preferred_among(
            family, priority.restricted_to(component), options
        ),
    )


def plan_from_fragments(
    fragments: Sequence[Sequence[Repair]],
    base: FrozenSet[Row] = frozenset(),
) -> ShardPlan:
    """A :class:`ShardPlan` over explicit fragment lists.

    Used by callers sharding a flat repair list (pass it as a single
    pseudo-component)."""
    return RepairSpace(base, tuple(tuple(options) for options in fragments))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _Task(NamedTuple):
    """One shard's payload.  Everything in it pickles: rows reconstruct
    through their schema, plans and formulas are frozen dataclasses."""

    plan: ShardPlan
    formula: Formula
    #: Answer columns of an open query; ``None`` for a closed one.
    variables: Optional[Tuple[str, ...]]
    start: int
    stop: int
    naive: bool
    stop_on_false: bool
    traced: bool


Partial = Union[ClosedMerge, OpenMerge]


def _run_shard(task: _Task) -> Tuple[Partial, float, Optional[dict]]:
    """Fold the query over one contiguous index range of the space.

    Module-level so it imports under ``spawn`` start methods; returns
    ``(partial, elapsed, span)``.  ``elapsed`` is the shard's own wall
    time: workers run in separate processes and cannot write the
    parent's metrics registry, so durations travel home with the
    partials and the merge records them.  When the parent was tracing
    (``traced``), the shard runs its own tracer and ``span`` is the
    finished tree in :meth:`~repro.obs.tracing.Span.to_dict` form — a
    pickle-safe dict the parent grafts under its fan-out span;
    otherwise ``span`` is None.
    """
    if not task.traced:
        return _fold_shard(task) + (None,)
    with trace("shard") as tracer:
        tracer.annotate(start=task.start, stop=task.stop, pid=os.getpid())
        partial, elapsed = _fold_shard(task)
        tracer.annotate(considered=partial.considered)
    return partial, elapsed, tracer.root.to_dict()


def _fold_shard(task: _Task) -> Tuple[Partial, float]:
    started = time.perf_counter()
    repairs = map(task.plan.repair_at, range(task.start, task.stop))
    partial: Partial = (
        fold_closed(
            repairs, task.formula, naive=task.naive,
            stop_on_false=task.stop_on_false,
        )
        if task.variables is None
        else fold_open(repairs, task.formula, task.variables, naive=task.naive)
    )
    return partial, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Pool management
# ---------------------------------------------------------------------------

_POOLS: Dict[int, "multiprocessing.pool.Pool"] = {}


def _pool(workers: int) -> "multiprocessing.pool.Pool":
    """A lazily created, process-wide pool per worker count.

    Pools are reused across calls (fork/spawn cost is paid once per
    engine lifetime, not per query) and torn down at interpreter exit.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        # Never plain fork: the first pool is often created lazily from
        # a broker/HTTP request thread, and forking a multi-threaded
        # process can inherit locks mid-acquisition.  forkserver forks
        # from a clean helper process; spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "forkserver" if "forkserver" in methods else "spawn"
        )
        pool = context.Pool(processes=workers)
        if not _POOLS:
            atexit.register(shutdown_pools)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Terminate every cached worker pool (idempotent)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.terminate()
        pool.join()


def _chunks(total: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``[0, total)``."""
    if not total:
        return []
    count = min(total, max(1, workers) * _CHUNKS_PER_WORKER)
    size, leftover = divmod(total, count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for position in range(count):
        stop = start + size + (1 if position < leftover else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _map_tasks(tasks: List[_Task], workers: int) -> List:
    if workers <= 1 or len(tasks) <= 1:
        return [_run_shard(task) for task in tasks]
    return _pool(workers).map(_run_shard, tasks)


# ---------------------------------------------------------------------------
# Public execution surface
# ---------------------------------------------------------------------------


def _record_shards(durations: List[float]) -> None:
    """Record per-shard wall times and the fan-out's merge skew.

    Skew is ``max - min`` shard duration within one fan-out: the time
    the merge spends waiting on the slowest shard after the fastest
    finished — the load-imbalance signal for the future
    Synchrobench-style sweep.
    """
    if not REGISTRY.enabled or not durations:
        return
    shard_seconds = REGISTRY.histogram(
        "repro_shard_seconds", "Per-shard evaluation wall time"
    )
    for duration in durations:
        shard_seconds.observe(duration)
    REGISTRY.histogram(
        "repro_merge_skew_seconds",
        "Slowest minus fastest shard duration per fan-out",
    ).observe(max(durations) - min(durations))
    REGISTRY.counter(
        "repro_fanouts_total", "Sharded parallel fan-outs executed"
    ).inc()


def _graft_shards(results: List) -> None:
    """Attach shipped shard span trees under the caller's open span.

    Each traced shard returns its finished span tree as a dict (the
    pickle-safe wire format); rebuilt here and grafted in shard order,
    the parent's ``shard-fan-out`` span gains one ``shard`` child per
    chunk — making merge skew attributable to a specific index range
    and worker pid.
    """
    tracer = current_tracer()
    if tracer is None:
        return
    for _, _, payload in results:
        if payload is not None:
            tracer.graft(Span.from_dict(payload))


def _fan_out(
    plan: ShardPlan,
    formula: Formula,
    variables: Optional[Tuple[str, ...]],
    workers: int,
    naive: bool,
    stop_on_false: bool,
    empty: Partial,
) -> Partial:
    """Fold every chunk of the plan and add the partials in chunk order."""
    traced = current_tracer() is not None
    tasks = [
        _Task(
            plan, formula, variables, start, stop, naive, stop_on_false, traced
        )
        for start, stop in _chunks(plan.total, workers)
    ]
    results = _map_tasks(tasks, workers)
    _graft_shards(results)
    _record_shards([elapsed for _, elapsed, _ in results])
    return sum((partial for partial, _, _ in results), empty)


def run_closed(
    plan: ShardPlan,
    formula: Formula,
    workers: int = 1,
    naive: bool = False,
    stop_on_false: bool = False,
) -> ClosedMerge:
    """Closed-query verdict counts over the sharded repair space.

    With ``stop_on_false`` each shard abandons its range at the first
    falsifying repair (counts are then lower bounds — enough for the
    boolean certainty check); otherwise counts are exact and the
    counterexample is the serial stream's first falsifier.
    """
    return _fan_out(
        plan, formula, None, workers, naive, stop_on_false, ClosedMerge()
    )


def run_open(
    plan: ShardPlan,
    formula: Formula,
    variables: Tuple[str, ...],
    workers: int = 1,
    naive: bool = False,
) -> OpenMerge:
    """Certain/possible answer sets over the sharded repair space."""
    return _fan_out(
        plan, formula, tuple(variables), workers, naive, False, OpenMerge()
    )


def resolve_workers(parallel: Optional[int]) -> Optional[int]:
    """Normalize an engine's ``parallel`` argument.

    ``None`` keeps the serial code path; ``0`` means "hardware width";
    positive values are taken literally.  Negative values are invalid.
    """
    if parallel is None:
        return None
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel}")
    return parallel or default_workers()
