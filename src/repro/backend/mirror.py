"""A lazily refreshed SQLite mirror of a mutating instance.

``repro session`` keeps one :class:`~repro.incremental.engine.
IncrementalCqaEngine` alive while a script inserts and deletes tuples.
With ``--backend sqlite`` the session additionally maintains this
mirror: an (in-memory by default) SQLite database that is re-saved from
the engine's current state the first time a query arrives after an
update, so rewritable queries run pushed down while updates stay
incremental.  Refreshes are O(instance), queries are index-backed; a
burst of updates between two queries costs one refresh.

The mirror holds one pushed engine, a
:class:`~repro.prefsql.engine.PrefSqlCqaEngine` built for the priority
edges of the last request (none for :meth:`engine_for`), whose
conflict/edge side tables live on the mirror connection.  A growing
priority extends the engine in place; a shrinking one rebuilds it.
Because a re-save reassigns rowids, every refresh drops the engine.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, FrozenSet, Iterable, Optional, Sequence, Union

from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.prefsql.engine import PrefSqlCqaEngine
from repro.priorities.priority import PriorityEdge
from repro.relational.database import Database
from repro.relational.sqlite_io import save_database


class SqliteMirror:
    """Owns a SQLite connection kept in sync with a changing database."""

    def __init__(
        self,
        dependencies: Sequence[FunctionalDependency],
        family: Family = Family.REP,
        target: str = ":memory:",
    ) -> None:
        # The service broker refreshes and queries the mirror from
        # whichever front-end thread holds the per-database refresh
        # lock, so access is serialized per refresh but not
        # thread-affine (and read-only queries may overlap).
        self._connection = sqlite3.connect(target, check_same_thread=False)
        self.dependencies = tuple(dependencies)
        self.family = family
        self._dirty = True
        self._engine: Optional[PrefSqlCqaEngine] = None
        self._edges: FrozenSet[PriorityEdge] = frozenset()

    def mark_dirty(self) -> None:
        """Record that the source instance changed since the last refresh."""
        self._dirty = True

    @property
    def dirty(self) -> bool:
        """Whether the next :meth:`engine_for` will re-save the source."""
        return self._dirty

    def _refresh(
        self, database: Union[Database, Callable[[], Database]]
    ) -> None:
        if callable(database):
            database = database()
        save_database(database, self._connection, self.dependencies)
        # The engine's side tables reference rowids, which a re-save
        # reassigns.
        self._engine = None
        self._dirty = False

    def engine_for(
        self, database: Union[Database, Callable[[], Database]]
    ) -> PrefSqlCqaEngine:
        """The pushed engine over an up-to-date mirror of ``database``,
        with no priority declared.

        ``database`` may be a zero-argument callable, invoked only when
        a refresh is actually due — callers whose source snapshot is
        itself O(instance) to assemble (the broker's
        ``current_database()``) skip that cost on clean mirrors.
        """
        return self.pref_engine_for(database, ())

    def pref_engine_for(
        self,
        database: Union[Database, Callable[[], Database]],
        priority_edges: Iterable[PriorityEdge],
        family: Optional[Family] = None,
    ) -> PrefSqlCqaEngine:
        """The pushed engine over an up-to-date mirror, rebuilt when the
        data changed or the declared priority shrank since the last
        call (see :meth:`engine_for` for ``database``)."""
        edges = frozenset(priority_edges)
        effective_family = family or self.family
        if self._dirty:
            self._refresh(database)
        if self._engine is not None and edges >= self._edges:
            # Priority grew but the data did not change: maintain the
            # side tables incrementally instead of rebuilding.
            extra = edges - self._edges
            if extra:
                self._engine.extend_priority(sorted(extra))
                self._edges = edges
            if self._engine.family is not effective_family:
                # The default family is per-call state on the engine
                # (answers are keyed per family internally); omitting
                # ``family`` always means the mirror's own default.
                self._engine.family = effective_family
        else:
            self._engine = PrefSqlCqaEngine(
                self._connection,
                self.dependencies,
                sorted(edges),
                effective_family,
            )
            self._edges = edges
        return self._engine

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SqliteMirror":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
