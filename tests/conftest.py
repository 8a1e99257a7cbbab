"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
import threading
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.constraints.conflict_graph import ConflictGraph, build_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.datagen.generators import GRID_FDS, GRID_SCHEMA
from repro.priorities.priority import Priority
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row, sorted_rows
from repro.relational.schema import RelationSchema

# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def kv_schema() -> RelationSchema:
    """R(A, B) with numeric attributes and key A → B."""
    return GRID_SCHEMA


@pytest.fixture
def kv_fds() -> Tuple[FunctionalDependency, ...]:
    return GRID_FDS


@pytest.fixture
def serve_http():
    """Start HTTP front ends on free ports; stop them at teardown.

    ``serve_http(front)`` returns the running server.  The short poll
    interval keeps ``shutdown()`` from waiting out the 0.5 s default.
    """
    from repro.service.server import make_http_server

    running = []

    def start(front):
        server = make_http_server(front, port=0)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        running.append((server, thread))
        return server

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Hypothesis strategies: random inconsistent instances + priorities
# ---------------------------------------------------------------------------

#: Schema used by the random two-FD strategy (Example 9's shape).
TWO_FD_SCHEMA = RelationSchema(
    "R", ["A:number", "B:number", "C:number", "D:number"]
)
TWO_FDS = (
    FunctionalDependency.parse("A -> B", "R"),
    FunctionalDependency.parse("C -> D", "R"),
)


@st.composite
def key_instances(draw, max_tuples: int = 8, key_domain: int = 3, val_domain: int = 3):
    """Random R(A,B) instances under the key A → B."""
    n = draw(st.integers(min_value=0, max_value=max_tuples))
    values = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=key_domain - 1),
                st.integers(min_value=0, max_value=val_domain - 1),
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return RelationInstance.from_values(GRID_SCHEMA, values)


@st.composite
def two_fd_instances(draw, max_tuples: int = 7, domain: int = 3):
    """Random R(A,B,C,D) instances under {A → B, C → D}.

    Small domains force overlapping conflicts from both dependencies,
    the regime where L/S/G/C genuinely differ.
    """
    n = draw(st.integers(min_value=0, max_value=max_tuples))
    small = st.integers(min_value=0, max_value=domain - 1)
    values = draw(
        st.lists(
            st.tuples(small, small, small, small),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return RelationInstance.from_values(TWO_FD_SCHEMA, values)


@st.composite
def priorities_for(draw, instance_strategy, dependencies):
    """A random instance plus a random (possibly partial) priority.

    The priority orients a random subset of conflict edges consistently
    with a random linear order on tuples, which guarantees acyclicity.
    """
    instance = draw(instance_strategy)
    graph = build_conflict_graph(instance, dependencies)
    order = sorted_rows(graph.vertices)
    draw(st.randoms(use_true_random=False)).shuffle(order)
    position = {row: index for index, row in enumerate(order)}
    edges = []
    for pair in graph.edges():
        if not draw(st.booleans()):
            continue
        first, second = tuple(sorted_rows(pair))
        if position[first] < position[second]:
            edges.append((first, second))
        else:
            edges.append((second, first))
    return instance, Priority(graph, edges)


def key_priorities(**kwargs):
    """Instance+priority pairs over the key schema."""
    return priorities_for(key_instances(**kwargs), GRID_FDS)


def two_fd_priorities(**kwargs):
    """Instance+priority pairs over the two-FD schema."""
    return priorities_for(two_fd_instances(**kwargs), TWO_FDS)
