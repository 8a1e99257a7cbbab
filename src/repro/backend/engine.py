"""The preference-blind SQLite-pushed certain-answer engine.

:class:`SqlCqaEngine` is :class:`~repro.prefsql.engine.PrefSqlCqaEngine`
with declared priorities left unpushed: rewritable queries run *inside*
SQLite (see :mod:`repro.backend.rewrite`) — no conflict-graph
construction, no repair streaming, one SQL statement per answer set —
and everything else, including every query once priority edges are
declared (``RA302``), is answered by a lazily constructed in-memory
:class:`~repro.cqa.engine.CqaEngine` over the loaded database.  The
routing outcome of the last call is recorded in :attr:`last_route` and
:meth:`explain` exposes the decision without running anything.

Because the rewriting quantifies over *all* repairs, its answers are
exactly the classic (``Rep``) certain answers — and with no declared
priority every preferred family coincides with ``Rep`` (winnow keeps
everything, no repair dominates another), so any ``family`` argument is
honoured.

Result-count caveat: pushed answers report ``repairs_considered`` (and
``satisfying``) as 0 — the whole point is that no repair was ever
materialized.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.analysis.model import make_diagnostic
from repro.backend.rewrite import RewriteDecision
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.prefsql.engine import PrefSqlCqaEngine
from repro.query.ast import Formula

# The catalogued diagnostic renders the reason string verbatim (metric
# labels and tests pin it).
_PRIORITY_DIAGNOSTIC = make_diagnostic("RA302")


class SqlCqaEngine(PrefSqlCqaEngine):
    """Certain-answer engine over a SQLite-persisted database.

    ``source`` is a database file path or an open connection;
    ``relation_names`` widens the visible schema to tables created
    outside repro.  ``priority`` accepts the same ``(winner, loser)``
    row-pair edges as :class:`CqaEngine` — any non-empty priority forces
    the in-memory fallback path.
    """

    _ENGINE_LABEL = "sql"
    _EXECUTE_SPAN = "sql-execute"

    def __init__(
        self,
        source: Union[str, Path, sqlite3.Connection],
        dependencies: Sequence[FunctionalDependency],
        priority: Iterable = (),
        family: Family = Family.REP,
        relation_names: Optional[Iterable[str]] = None,
    ) -> None:
        super().__init__(source, dependencies, (), family, relation_names)
        # Kept for the fallback engine only; nothing is materialized.
        self.priority_edges = tuple(priority or ())

    def _analyze(
        self,
        formula: Formula,
        variables: Optional[Sequence[str]],
        family: Family,
    ) -> RewriteDecision:
        if self.priority_edges:
            return RewriteDecision(
                None,
                _PRIORITY_DIAGNOSTIC.message,
                diagnostics=(_PRIORITY_DIAGNOSTIC,),
            )
        return super()._analyze(formula, variables, family)

    def summary(self) -> Dict[str, object]:
        """Snapshot of the engine's configuration and last routing."""
        return {
            "backend": "sqlite",
            "relations": len(self.schema),
            "dependencies": len(self.dependencies),
            "priority_edges": len(self.priority_edges),
            "family": str(self.family),
            "last_route": self.last_route,
        }
