"""The SQLite-pushed certain-answer engine, preference-aware.

:class:`PrefSqlCqaEngine` mirrors :class:`~repro.cqa.engine.CqaEngine`'s
``answer()`` / ``certain_answers()`` / ``sql_certain_answers()`` surface
but evaluates rewritable queries *inside* SQLite: no conflict-graph
construction, no repair streaming, one SQL statement per answer set.
It does not fall back just because a priority is declared.  Instead it
materializes the oriented dominance edges into side tables
(:mod:`repro.prefsql.edges`), derives the per-family survivor tables of
the winnow selection (:mod:`repro.prefsql.winnow`), and composes them
with the backend's NOT-EXISTS rewriting (:mod:`repro.backend.rewrite`):
an answer is certain iff some preferred witness row's group is
certified by *every preferred class*, and possible iff some preferred
class holds a witness.  Both conditions are single SQL statements.

With an empty priority winnow keeps every repair, so every family
coincides with ``Rep`` and the engine is the classic pushdown;
:class:`~repro.backend.engine.SqlCqaEngine` is this class with declared
priorities routed to the in-memory fallback.

Routing of the last call, via :attr:`last_route`:

``"prefsql"``
    The query mentioned a prioritized relation and was pushed with the
    preference-aware plan (for ``Family.REP`` the preferences are
    ignored by definition — winnow over the repair family keeps
    everything — and the plain plan runs under the same label).
``"sqlite"``
    The query was pushed but mentioned no prioritized relation, so the
    preference-blind plan sufficed (clean relations, or dirty
    relations whose conflicts carry no orientation).
``"fallback: <reason>"``
    Outside the pushdown fragment.  The shapes that still stream
    repairs in memory: non-conjunctive bodies (disjunction, negation,
    universal quantification), unsafe variables, self-joins of or
    joins between dirty relations, relations whose FDs have differing
    left-hand sides (no per-group class structure — this includes any
    priority declared over such a relation), and prioritized relations
    stored with duplicate physical rows.

Cyclic declared priorities and edges over non-conflicting or absent
tuples raise at construction, exactly like the in-memory engine.

Pushed answers report ``repairs_considered`` as 0 — no repair is ever
materialized, which is the point.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple, Union

from repro.analysis.model import make_diagnostic
from repro.backend.rewrite import (
    DirtyProfile,
    NotRewritable,
    RewriteDecision,
    analyze_query,
    dirty_profile,
)
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.answers import ClosedAnswer, OpenAnswers, Verdict
from repro.cqa.engine import CqaEngine
from repro.exceptions import CyclicPriorityError, QueryError
from repro.obs import annotate, observe_query
from repro.obs import span as obs_span
from repro.prefsql.edges import materialize_conflicts, materialize_edges
from repro.prefsql.winnow import (
    build_survivor_table,
    has_unresolved_group,
    iterate_winnow,
)
from repro.priorities.priority import (
    Priority,
    PriorityEdge,
    digraph_has_cycle,
)
from repro.query.ast import Formula, relations_of
from repro.query.parser import parse_query
from repro.query.sql import sql_to_formula
from repro.query.validate import check_against_schema
from repro.relational.sqlite_io import load_database, load_schema


class PrefSqlCqaEngine:
    """Certain-answer engine over a prioritized SQLite database.

    ``source`` is a database file path or an open connection;
    ``priority`` accepts ``(winner, loser)`` row pairs or a
    :class:`~repro.priorities.priority.Priority` (whose dominator index
    is exported through ``dominance_rows()``).  ``relation_names``
    widens the visible schema to tables created outside repro.
    """

    #: ``engine`` label of the query metrics and recorder entries.
    _ENGINE_LABEL = "prefsql"
    #: Span wrapping the pushed SQL statement.
    _EXECUTE_SPAN = "winnow-execute"

    def __init__(
        self,
        source: Union[str, Path, sqlite3.Connection],
        dependencies: Sequence[FunctionalDependency],
        priority: Union[Priority, Iterable[PriorityEdge], None] = (),
        family: Family = Family.REP,
        relation_names: Optional[Iterable[str]] = None,
    ) -> None:
        self._own = not isinstance(source, sqlite3.Connection)
        self._connection = sqlite3.connect(source) if self._own else source
        self.dependencies = tuple(dependencies)
        self.family = family
        if isinstance(priority, Priority):
            self.priority_edges: Tuple[PriorityEdge, ...] = (
                priority.dominance_rows()
            )
        else:
            self.priority_edges = tuple(priority or ())
        self._relation_names = tuple(relation_names) if relation_names else None
        self.schema = load_schema(self._connection, self._relation_names)
        self._profiles: Dict[str, DirtyProfile] = {}
        for relation in self.schema:
            try:
                profile = dirty_profile(relation, self.dependencies)
            except NotRewritable:
                continue  # differing FD LHSs: analyze_query rejects uses
            if profile is not None:
                self._profiles[relation.name] = profile
        # Validation happens eagerly (like CqaEngine's Priority
        # construction); only edges over profiled relations are
        # materialized — the rest cannot be pushed anyway.
        if self.priority_edges:
            self._edge_counts = materialize_edges(
                self._connection,
                self.schema,
                self.dependencies,
                self._profiles,
                self.priority_edges,
            )
        else:
            self._edge_counts = {}
        self._blocked: Dict[str, str] = {}
        for name in self._edge_counts:
            reason = self._duplicate_rows_reason(name)
            if reason is not None:
                self._blocked[name] = reason
        #: (relation, family) -> (survivor table, fully resolved).
        self._survivors: Dict[Tuple[str, Family], Tuple[str, bool]] = {}  # guarded-by: _lock
        self._conflicts_materialized: Set[str] = set()
        # Bounded LRU: the broker keeps one engine alive per database
        # for the process lifetime, so an unbounded per-query decision
        # memo would grow with client traffic.
        self._decisions: "OrderedDict[Tuple[Formula, Optional[Tuple[str, ...]], Family], RewriteDecision]" = (  # guarded-by: _lock
            OrderedDict()
        )
        self._max_decisions = 1024
        self._fallback_engine: Optional[CqaEngine] = None
        # The broker serves read-only queries concurrently; survivor
        # and decision construction is the only mutating stage.
        self._lock = threading.RLock()
        #: Routing of the most recent call: ``"prefsql"``, ``"sqlite"``
        #: or ``"fallback: <reason>"``.
        self.last_route: Optional[str] = None

    # Lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close the connection (no-op when one was passed in)."""
        if self._own:
            self._connection.close()

    def __enter__(self) -> "PrefSqlCqaEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Priority maintenance ----------------------------------------------------

    def extend_priority(
        self, additional: Iterable[PriorityEdge]
    ) -> None:
        """Incrementally orient further conflict edges (``Φ ⊆ Ψ``).

        The incremental-maintenance path for a long-lived mirror: newly
        declared edges are validated against the *combined* digraph
        (acyclicity) and appended to the ``_repro_edges`` side table
        row by row — no re-derivation of the existing orientation.
        Survivor tables and cached decisions are preference-dependent,
        so they are dropped; conflict materializations depend on the
        data only and survive.
        """
        extra = tuple(additional)
        if not extra:
            return
        with self._lock:
            combined = self.priority_edges + extra
            if digraph_has_cycle(combined):
                raise CyclicPriorityError(
                    "extending the priority creates a cycle"
                )
            # An engine built without edges never cleared the side
            # table, which may still hold a previous engine's rows.
            counts = materialize_edges(
                self._connection,
                self.schema,
                self.dependencies,
                self._profiles,
                extra,
                append=bool(self.priority_edges),
            )
            self.priority_edges = combined
            for name, count in counts.items():
                self._edge_counts[name] = (
                    self._edge_counts.get(name, 0) + count
                )
                if name not in self._blocked:
                    reason = self._duplicate_rows_reason(name)
                    if reason is not None:
                        self._blocked[name] = reason
            self._survivors.clear()
            self._decisions.clear()
            self._fallback_engine = None

    # Survivor management -----------------------------------------------------

    def _duplicate_rows_reason(self, relation: str) -> Optional[str]:
        """Priority edges bind to rowids; duplicate physical rows would
        leave one copy unaccounted for, so such relations fall back."""
        from repro.relational.sqlite_io import quote_identifier

        table = quote_identifier(relation)
        total = self._connection.execute(
            f"SELECT COUNT(*) FROM {table}"
        ).fetchone()[0]
        distinct = self._connection.execute(
            f"SELECT COUNT(*) FROM (SELECT DISTINCT * FROM {table})"
        ).fetchone()[0]
        if total != distinct:
            # Rendered through the diagnostic catalog so the reason
            # string (a metric label) has exactly one definition.
            return make_diagnostic("RA303", relation=relation).message
        return None

    def _survivors_for(self, relation: str, family: Family) -> Tuple[str, bool]:
        key = (relation, family)
        cached = self._survivors.get(key)  # lint: unguarded-ok (caller holds _lock)
        if cached is not None:
            return cached
        profile = self._profiles[relation]
        if family is Family.COMMON:
            # The staged Algorithm 1 fixpoint doubles as the survivor
            # computation when it fully resolves the relation: the
            # committed clean fragment *is* the unique common repair.
            if relation not in self._conflicts_materialized:
                materialize_conflicts(self._connection, profile)
                self._conflicts_materialized.add(relation)
            fixpoint = iterate_winnow(self._connection, profile)
            if fixpoint.remaining == 0:
                result = (fixpoint.committed_table, True)
            else:
                table = build_survivor_table(self._connection, profile, family)
                result = (table, False)
        else:
            table = build_survivor_table(self._connection, profile, family)
            result = (
                table,
                not has_unresolved_group(self._connection, profile, table),
            )
        self._survivors[key] = result  # lint: unguarded-ok (caller holds _lock)
        return result

    # Routing -----------------------------------------------------------------

    def _to_formula(self, query: Union[str, Formula]) -> Formula:
        with obs_span("parse"):
            formula = parse_query(query) if isinstance(query, str) else query
            return check_against_schema(formula, self.schema)

    def explain(
        self,
        query: Union[str, Formula],
        variables: Optional[Sequence[str]] = None,
        family: Optional[Family] = None,
    ) -> RewriteDecision:
        """The routing decision for ``query``, without executing it."""
        formula = self._to_formula(query)
        return self._decide(formula, variables, family or self.family)

    def _decide(
        self,
        formula: Formula,
        variables: Optional[Sequence[str]],
        family: Family,
    ) -> RewriteDecision:
        key = (
            formula,
            tuple(variables) if variables is not None else None,
            family,
        )
        with self._lock:
            decision = self._decisions.get(key)
            if decision is None:
                decision = self._analyze(formula, variables, family)
                if len(self._decisions) >= self._max_decisions:
                    self._decisions.popitem(last=False)
                self._decisions[key] = decision
            else:
                self._decisions.move_to_end(key)
            return decision

    def _analyze(
        self,
        formula: Formula,
        variables: Optional[Sequence[str]],
        family: Family,
    ) -> RewriteDecision:
        mentioned = relations_of(formula)
        blocked = min(mentioned & self._blocked.keys(), default=None)
        if blocked is not None:
            return RewriteDecision(
                None,
                self._blocked[blocked],
                diagnostics=(
                    make_diagnostic("RA303", subject=blocked, relation=blocked),
                ),
            )
        prioritized = sorted(mentioned & self._edge_counts.keys())
        survivors: Optional[Dict[str, str]] = None
        resolved: Set[str] = set()
        if prioritized and family is not Family.REP:
            survivors = {}
            for name in prioritized:
                table, is_resolved = self._survivors_for(name, family)
                survivors[name] = table
                if is_resolved:
                    resolved.add(name)
        decision = analyze_query(
            formula,
            self.schema,
            self.dependencies,
            variables,
            survivors=survivors,
            resolved=resolved,
        )
        if decision.pushed:
            route = "prefsql" if prioritized else "sqlite"
            decision = replace(decision, route=route)
        return decision

    def _fallback(self) -> CqaEngine:
        if self._fallback_engine is None:
            database = load_database(self._connection, self._relation_names)
            self._fallback_engine = CqaEngine(
                database, self.dependencies, self.priority_edges, self.family
            )
        return self._fallback_engine

    # Closed queries ----------------------------------------------------------

    def answer(
        self, query: Union[str, Formula], family: Optional[Family] = None
    ) -> ClosedAnswer:
        """Three-valued verdict of a closed query (Definition 3)."""
        started = time.perf_counter()
        family = family or self.family
        formula = self._to_formula(query)
        if not formula.is_closed:
            raise QueryError("answer() requires a closed formula")
        with obs_span("route-decision"):
            decision = self._decide(formula, (), family)
        if decision.plan is None:
            self.last_route = decision.fallback_route
            annotate(route="fallback", reason=decision.reason)
            answer = self._fallback().answer(formula, family)
            observe_query(
                self._ENGINE_LABEL, self.last_route, str(family),
                time.perf_counter() - started,
            )
            return answer
        self.last_route = decision.route
        annotate(route=decision.route)
        with obs_span(self._EXECUTE_SPAN, route=decision.route):
            result = decision.plan.run(self._connection)
        if result.certain:
            verdict = Verdict.TRUE  # true in every preferred repair
        elif result.possible:
            verdict = Verdict.UNDETERMINED  # true in some, false in some
        else:
            verdict = Verdict.FALSE  # true in no preferred repair
        observe_query(
            self._ENGINE_LABEL, decision.route, str(family),
            time.perf_counter() - started,
        )
        return ClosedAnswer(family, verdict, 0, 0, None, route=decision.route)

    def is_consistently_true(
        self, query: Union[str, Formula], family: Optional[Family] = None
    ) -> bool:
        """Whether the closed query holds in every preferred repair."""
        return self.answer(query, family).verdict is Verdict.TRUE

    # Open queries ------------------------------------------------------------

    def certain_answers(
        self,
        query: Union[str, Formula],
        variables: Optional[Tuple[str, ...]] = None,
        family: Optional[Family] = None,
    ) -> OpenAnswers:
        """Certain/possible answer sets of an open query."""
        started = time.perf_counter()
        family = family or self.family
        formula = self._to_formula(query)
        if variables is None:
            variables = tuple(sorted(formula.free_variables()))
        with obs_span("route-decision"):
            decision = self._decide(formula, variables, family)
        if decision.plan is None:
            self.last_route = decision.fallback_route
            annotate(route="fallback", reason=decision.reason)
            answers = self._fallback().certain_answers(
                formula, variables, family
            )
            observe_query(
                self._ENGINE_LABEL, self.last_route, str(family),
                time.perf_counter() - started,
            )
            return answers
        self.last_route = decision.route
        annotate(route=decision.route)
        with obs_span(self._EXECUTE_SPAN, route=decision.route):
            result = decision.plan.run(self._connection)
        observe_query(
            self._ENGINE_LABEL, decision.route, str(family),
            time.perf_counter() - started,
        )
        return OpenAnswers(
            family,
            tuple(variables),
            result.certain,
            result.possible,
            0,
            route=decision.route,
        )

    def sql_certain_answers(
        self, sql: str, family: Optional[Family] = None
    ) -> OpenAnswers:
        """Certain answers for a conjunctive SQL query."""
        formula, variables = sql_to_formula(sql, self.schema)
        return self.certain_answers(formula, variables, family)

    # Diagnostics -------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Snapshot of the engine's configuration and last routing."""
        return {
            "backend": "prefsql",
            "relations": len(self.schema),
            "dependencies": len(self.dependencies),
            "priority_edges": len(self.priority_edges),
            "prioritized_relations": sorted(self._edge_counts),
            "survivor_tables": len(self._survivors),  # lint: unguarded-ok (snapshot)
            "family": str(self.family),
            "last_route": self.last_route,
        }
