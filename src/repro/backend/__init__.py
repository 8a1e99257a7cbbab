"""SQL pushdown backend: certain answers computed inside SQLite.

The layer below (:mod:`repro.cqa`) answers by streaming repairs; this
layer compiles the safe conjunctive fragment to a single self-join SQL
rewriting (:mod:`repro.backend.rewrite`) that runs directly on the
SQLite store the relational layer persists to.  One engine executes it,
the preference-aware :class:`~repro.prefsql.engine.PrefSqlCqaEngine`;
:class:`SqlCqaEngine` (:mod:`repro.backend.engine`) is that engine with
declared priorities left unpushed, and :class:`SqliteMirror` keeps one
of it over a mutating instance.  Non-rewritable queries transparently
fall back to the in-memory engine.
"""

from repro.backend.engine import SqlCqaEngine
from repro.backend.mirror import SqliteMirror
from repro.backend.rewrite import (
    DirtyProfile,
    PlanResult,
    RewriteDecision,
    RewritePlan,
    analyze_query,
    dirty_profile,
)

__all__ = [
    "DirtyProfile",
    "PlanResult",
    "RewriteDecision",
    "RewritePlan",
    "SqlCqaEngine",
    "SqliteMirror",
    "analyze_query",
    "dirty_profile",
]
