"""Preference-aware SQL pushdown: winnow-in-SQLite over oriented edges.

The backend layer (:mod:`repro.backend`) compiles *classical* certain
answers to SQL; on its own that rewriting is preference-blind.  This
layer extends it to the paper's actual subject, prioritized repair
families, and hosts the one pushed engine (with no priority it is the
classic pushdown):

* :mod:`repro.prefsql.edges` materializes the conflict graph and the
  oriented dominance edges of a priority into side tables
  (``_repro_conflicts``, ``_repro_edges``) next to the mirrored data;
* :mod:`repro.prefsql.winnow` compiles the winnow operator ω≻ as SQL
  anti-joins over the edge table, iterates Algorithm 1 to a fixpoint
  with staged ``CREATE TEMP TABLE`` passes (the clean fragment), and
  derives per-family survivor tables — the rows whose conflict class
  belongs to ``L``/``S``/``G``/``C``-Rep — entirely server-side;
* :mod:`repro.prefsql.engine` exposes :class:`PrefSqlCqaEngine`, which
  composes those survivor tables with the backend's NOT-EXISTS
  rewriting so safe conjunctive queries over prioritized databases are
  answered bit-identically to :class:`~repro.cqa.engine.CqaEngine`
  without materializing a single repair.
  :class:`~repro.backend.engine.SqlCqaEngine` is this engine with
  declared priorities routed to the fallback (``RA302``).
"""

from repro.prefsql.edges import (
    SIDE_CONFLICTS,
    SIDE_EDGES,
    ensure_side_tables,
    materialize_conflicts,
    materialize_edges,
)
from repro.prefsql.engine import PrefSqlCqaEngine
from repro.prefsql.winnow import (
    WinnowFixpoint,
    build_survivor_table,
    has_unresolved_group,
    iterate_winnow,
    winnow_pass,
)

__all__ = [
    "PrefSqlCqaEngine",
    "SIDE_CONFLICTS",
    "SIDE_EDGES",
    "WinnowFixpoint",
    "build_survivor_table",
    "ensure_side_tables",
    "has_unresolved_group",
    "iterate_winnow",
    "materialize_conflicts",
    "materialize_edges",
    "winnow_pass",
]
