"""Broker route-report caching and the ``analyze`` front-end op.

The broker consults a cached :class:`RouteReport` before building any
pushed engine: these tests pin (a) the cache (hits on repeats, eviction
keyed by priority state), (b) that ``broker.analyze`` returns the very
report ``submit`` will follow, and (c) the ``POST /analyze`` surface.
"""

from __future__ import annotations

import pytest

from repro.analysis import RouteReport
from repro.datagen.generators import GRID_FDS, grid_instance
from repro.service.broker import RequestBroker
from repro.service.server import ServiceFrontEnd


@pytest.fixture
def broker():
    built = RequestBroker()
    built.register("grid", grid_instance(3, 2), GRID_FDS)
    yield built
    built.close()


@pytest.fixture
def front(broker):
    return ServiceFrontEnd(broker)


class TestBrokerAnalyze:
    def test_returns_route_report(self, broker):
        report = broker.analyze("EXISTS y . R(x, y)")
        assert isinstance(report, RouteReport)
        assert report.routes["sqlite"] == "sqlite"
        assert not report.blocked("sqlite")

    def test_report_predicts_served_route(self, broker):
        report = broker.analyze("EXISTS y . R(x, y)")
        result = broker.query("EXISTS y . R(x, y)")
        assert result.engine == "sqlite"
        assert report.expected_last_route("sqlite") == result.route

    def test_blocked_shape_predicts_incremental(self, broker):
        query = "EXISTS x . (R(x, 0) OR R(x, 1))"
        report = broker.analyze(query)
        assert report.blocked("sqlite")
        assert report.blocking("sqlite")[0].code == "RA102"
        result = broker.query(query)
        assert result.engine == "incremental"

    def test_repeat_analysis_hits_cache(self, broker):
        broker.analyze("EXISTS y . R(x, y)")
        before = broker.route_report_hits
        broker.analyze("EXISTS y . R(x, y)")
        assert broker.route_report_hits == before + 1

    def test_serving_reuses_analyze_cache_entry(self, broker):
        broker.analyze("EXISTS y . R(x, y)")
        misses = broker.route_report_misses
        broker.query("EXISTS y . R(x, y)")
        assert broker.route_report_misses == misses  # no recompute

    def test_stats_exposes_route_report_counters(self, broker):
        broker.analyze("EXISTS y . R(x, y)")
        stats = broker.stats()["route_reports"]
        assert stats["entries"] == 1
        assert stats["misses"] == 1

    def test_distinct_queries_get_distinct_entries(self, broker):
        first = broker.analyze("EXISTS y . R(x, y)")
        second = broker.analyze("EXISTS x, y . R(x, y)")
        assert first.fingerprint != second.fingerprint
        assert broker.stats()["route_reports"]["entries"] == 2

    def test_unknown_database_raises(self, broker):
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            broker.analyze("EXISTS y . R(x, y)", database="nope")


class TestAnalyzeOp:
    def test_analyze_op_returns_report_body(self, front):
        body = front.handle({"op": "analyze", "query": "EXISTS y . R(x, y)"})
        assert body["routes"]["sqlite"] == "sqlite"
        assert body["plan"] in ("clean", "dirty")
        assert body["relations"] == ["R"]
        assert isinstance(body["diagnostics"], list)

    def test_analyze_op_reports_blockers(self, front):
        body = front.handle(
            {"op": "analyze", "query": "EXISTS x . (R(x, 0) OR R(x, 1))"}
        )
        codes = [d["code"] for d in body["diagnostics"]]
        assert "RA102-non-conjunctive" in codes
        blocked = [d for d in body["diagnostics"] if "sqlite" in d["blocks"]]
        assert blocked, codes

    def test_analyze_op_echoes_tag(self, front):
        body = front.handle(
            {"op": "analyze", "query": "EXISTS y . R(x, y)", "tag": "t1"}
        )
        assert body["tag"] == "t1"

    def test_analyze_op_bad_query_is_error_object(self, front):
        body = front.handle({"op": "analyze", "query": ""})
        assert "error" in body


class TestRouteReportFreshnessHttp:
    """The RouteReport LRU must never serve a stale analysis: the cache
    key pins the active priority edges, so a ``POST /update`` that
    (de)activates a declared edge flips the next ``POST /analyze`` to a
    recomputed report — while restoring the state revives the original
    entry (keyed eviction, not blanket invalidation)."""

    QUERY = "EXISTS y . R(x, y)"

    def test_update_changing_priority_state_misses_cache(
        self, broker, front, serve_http
    ):
        import json
        import urllib.request

        rows = sorted(grid_instance(3, 2).rows)
        winner, loser = rows[0], rows[1]  # (0, 0) beats (0, 1): one clique
        broker.prefer(winner, loser, "grid")

        host, port = serve_http(front).server_address[:2]

        def post(path, payload):
            request = urllib.request.Request(
                f"http://{host}:{port}{path}",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read())

        def counters():
            with urllib.request.urlopen(
                f"http://{host}:{port}/stats"
            ) as response:
                return json.loads(response.read())["route_reports"]

        # Priority active: the report blocks sqlite (RA302) and a
        # repeat is served from the cache.
        first = post("/analyze", {"query": self.QUERY})
        repeat = post("/analyze", {"query": self.QUERY})
        assert repeat["fingerprint"] == first["fingerprint"]
        codes = [d["code"] for d in first["diagnostics"]]
        assert any(code.startswith("RA302") for code in codes)
        stats = counters()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

        # Deleting the loser deactivates the declared edge: the next
        # analyze MUST miss the cache and see an unblocked pushdown.
        deletion = post(
            "/update",
            {"op": "delete", "relation": "R", "values": list(loser.values)},
        )
        assert deletion["op"] == "delete"
        fresh = post("/analyze", {"query": self.QUERY})
        assert counters()["misses"] == 2
        assert fresh["fingerprint"] != first["fingerprint"]
        fresh_codes = [d["code"] for d in fresh["diagnostics"]]
        assert not any(code.startswith("RA302") for code in fresh_codes)
        assert fresh["routes"]["sqlite"] == "sqlite"

        # Re-inserting restores the active-priority state: the key
        # matches the original entry again (a hit, not a recompute).
        post("/update", {"relation": "R", "values": list(loser.values)})
        revived = post("/analyze", {"query": self.QUERY})
        assert revived["fingerprint"] == first["fingerprint"]
        stats = counters()
        assert stats["misses"] == 2
        assert stats["hits"] == 2


class TestAnalyzeHttp:
    def test_post_analyze_path(self, front, serve_http):
        import json
        import urllib.request

        host, port = serve_http(front).server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/analyze",
            data=json.dumps({"query": "EXISTS y . R(x, y)"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            body = json.loads(response.read())
        assert body["routes"]["sqlite"] == "sqlite"
        assert body["fingerprint"]
