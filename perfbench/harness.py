"""Driving ``repro serve`` from outside: process control, closed-loop HTTP
clients, the program's own counters, and the reference answers.

The server is a subprocess; everything the benchmark learns about it comes
over HTTP (``/query``, ``/update``, ``/stats``, ``/metrics``) or from
``/proc/<pid>``.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import FD, RELATION, SOURCE_ORDER, Op, Plan

READY_TIMEOUT_S = 120
HTTP_TIMEOUT_S = 120
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark could not run (server did not start, and so on)."""


# Server process --------------------------------------------------------------


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                if "http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            elif self.process.poll() is not None:
                break
        self.stop()
        raise BenchError("repro serve did not report a listening port")

    @property
    def pid(self) -> int:
        return self.process.pid

    def connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S
        )
        connection.connect()
        return connection

    def get(self, path: str) -> bytes:
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise BenchError(f"GET {path} answered {response.status}")
            return body
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM, wait, then SIGKILL if the process has not ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


# Clients ----------------------------------------------------------------------


@dataclass
class Record:
    """One client operation as the client saw it."""

    tag: str
    op: Op
    start: float
    end: float
    status: int
    body: bytes

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def send(connection: http.client.HTTPConnection, op: Op, tag: str) -> Record:
    payload = json.dumps(op.body(tag)).encode("utf-8")
    start = time.perf_counter()
    connection.request(
        "POST", op.path, payload, {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    body = response.read()
    end = time.perf_counter()
    return Record(tag, op, start, end, response.status, body)


def run_warmup(server: Server, ops: Sequence[Op]) -> List[Record]:
    """Send the warm-up reads as one batch, then the warm-up writes one by
    one; returns the write records (their answers are checked later)."""
    reads = [dict(op.payload) for op in ops if op.kind == "read"]
    connection = server.connect()
    try:
        batch = Op("read", (("requests", tuple(reads)),), "warmup")
        record = send(connection, batch, "warmup")
        results = json.loads(record.body).get("results", [])
        if record.status != 200 or len(results) != len(reads) or any(
            "error" in result for result in results
        ):
            raise BenchError(f"warm-up batch failed: {record.body[:200]!r}")
        return [
            send(connection, op, f"w{i}")
            for i, op in enumerate(ops)
            if op.kind != "read"
        ]
    finally:
        connection.close()


@dataclass
class TimedRun:
    records: List[Record]
    errors: int
    started: float
    ended: float
    client_cpu_s: float

    @property
    def seconds(self) -> float:
        return self.ended - self.started


def run_timed(server: Server, plan: Plan, seconds: float) -> TimedRun:
    """Closed loop: each client thread sends its next operation only after
    the previous answer arrived, over one persistent connection, until
    ``seconds`` have passed."""
    connections = [server.connect() for _ in plan.sequences]
    results: List[List[Record]] = [[] for _ in plan.sequences]
    errors = [0] * len(plan.sequences)
    barrier = threading.Barrier(len(plan.sequences) + 1)
    deadline = [0.0]

    def client(index: int) -> None:
        sequence = plan.sequences[index]
        connection = connections[index]
        barrier.wait()
        position = 0
        while time.perf_counter() < deadline[0]:
            op = sequence[position % len(sequence)]
            tag = f"c{index}-{position}"
            position += 1
            try:
                results[index].append(send(connection, op, tag))
            except (OSError, http.client.HTTPException):
                errors[index] += 1
                connection.close()
                connection = connections[index] = server.connect()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(plan.sequences))
    ]
    for thread in threads:
        thread.start()
    cpu_before = _own_cpu()
    started = time.perf_counter()
    deadline[0] = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join(seconds + HTTP_TIMEOUT_S)
        if thread.is_alive():
            raise BenchError("a client thread did not finish")
    ended = max(
        (r.end for records in results for r in records), default=started
    )
    cpu = _own_cpu() - cpu_before
    for connection in connections:
        connection.close()
    records = sorted(
        (r for records in results for r in records), key=lambda r: r.start
    )
    return TimedRun(records, sum(errors), started, ended, cpu)


def _own_cpu() -> float:
    times = os.times()
    return times.user + times.system


# Program counters --------------------------------------------------------------


@dataclass
class Counters:
    """The server's own counters at one instant."""

    caches: Dict[str, Dict[str, int]]
    route_reports: Dict[str, int]
    lock_wait_s: float
    cpu_s: float
    engine: Dict[str, object]

    @classmethod
    def read(cls, server: Server) -> "Counters":
        stats = json.loads(server.get("/stats"))
        metrics = server.get("/metrics").decode("utf-8")
        lock_wait = sum(
            float(line.rsplit(" ", 1)[1])
            for line in metrics.splitlines()
            if line.startswith("repro_lock_wait_seconds_sum")
        )
        engine = next(iter(stats["databases"].values()))["engine"]
        return cls(
            stats["caches"],
            stats["route_reports"],
            lock_wait,
            server.cpu_seconds(),
            engine,
        )


def cache_deltas(
    before: Counters, after: Counters
) -> Dict[str, Dict[str, float]]:
    """Hit ratios with their lookup base, per cache family, over a run."""
    families = dict(after.caches)
    families["route_report"] = after.route_reports
    previous = dict(before.caches)
    previous["route_report"] = before.route_reports
    out = {}
    for name, counts in families.items():
        hits = counts["hits"] - previous[name]["hits"]
        misses = counts["misses"] - previous[name]["misses"]
        lookups = hits + misses
        out[name] = {
            "lookups": lookups,
            "hit_ratio": hits / lookups if lookups else 0.0,
            "evictions": counts.get("evictions", 0)
            - previous[name].get("evictions", 0),
        }
    return out


# Reference answers ---------------------------------------------------------------


def answer_fields(body: dict) -> Optional[tuple]:
    """The parts of an answer the reference must agree with.  Route,
    cache flags, trace ids and repair counts legitimately differ between
    engines (the SQL routes report no repair counts)."""
    kind = body.get("kind")
    if kind == "closed":
        return ("closed", body.get("family"), body.get("verdict"))
    if kind == "open":
        return (
            "open",
            body.get("family"),
            tuple(body.get("variables", ())),
            tuple(map(tuple, body.get("certain", ()))),
            tuple(map(tuple, body.get("possible", ()))),
        )
    return None


class Reference:
    """An independent in-process broker without SQL pushdown, so every
    reference answer comes from the in-memory engine.

    Answers are memoized per (instance state, operation): the state is the
    set of rows the benchmark inserted and has not deleted yet, so a memo
    entry is only reused on the identical instance.
    """

    def __init__(self, csv_path: str) -> None:
        from repro import FunctionalDependency
        from repro.constraints.conflict_graph import build_conflict_graph
        from repro.core.families import Family
        from repro.priorities.builders import priority_from_source_reliability
        from repro.relational.csv_io import read_instance_csv
        from repro.service.broker import RequestBroker

        instance = read_instance_csv(csv_path, RELATION)
        dependencies = [FunctionalDependency.parse(FD, RELATION)]
        graph = build_conflict_graph(instance, dependencies)
        order = [
            tuple(part.strip() for part in chunk.split(">"))
            for chunk in SOURCE_ORDER.split(",")
        ]
        priority = priority_from_source_reliability(
            graph, {row: row["Src"] for row in graph.vertices}, order
        )
        self.broker = RequestBroker()
        self.broker.register(
            "default",
            instance,
            dependencies,
            priority.edges,
            Family.REP,
            sqlite_pushdown=False,
        )
        self.schema = instance.schema
        self.inserted: frozenset = frozenset()
        self.memo: Dict[Tuple, Optional[tuple]] = {}
        self.computed = 0

    def answer(self, op: Op) -> Optional[tuple]:
        key = (self.inserted, op.payload)
        if key not in self.memo:
            from repro.service.broker import Request
            from repro.service.server import FAMILY_CODES, encode_result

            payload = dict(op.payload)
            variables = payload.get("variables")
            result = self.broker.submit(
                [
                    Request(
                        payload["query"],
                        FAMILY_CODES[payload["family"]],
                        tuple(variables) if variables else None,
                    )
                ]
            )[0]
            self.memo[key] = answer_fields(encode_result(result))
            self.computed += 1
        return self.memo[key]

    def rewind(self) -> None:
        """Delete the rows a replay left inserted, back to the CSV instance."""
        from repro.relational.rows import Row

        for values in self.inserted:
            self.broker.delete(Row(self.schema, list(values)))
        self.inserted = frozenset()

    def apply(self, op: Op) -> Tuple[bool, int, int]:
        """Apply a write; returns (applied, tuples, conflicts)."""
        from repro.relational.rows import Row

        values = dict(op.payload)["values"]
        row = Row(self.schema, list(values))
        if op.kind == "insert":
            applied = not self.broker.insert(row).is_noop
            self.inserted = self.inserted | {tuple(values)}
        else:
            self.broker.delete(row)
            applied = True
            self.inserted = self.inserted - {tuple(values)}
        graph = self.broker.engine().graph
        return applied, graph.vertex_count, graph.edge_count


def check(record: Record, reference: Reference) -> bool:
    """Whether one served operation is correct.  Writes are applied to the
    reference, so records must be checked in the order they were served."""
    if record.status != 200:
        return False
    try:
        body = json.loads(record.body)
    except ValueError:
        return False
    if record.op.kind == "read":
        if body.get("tag") != record.tag:
            return False
        return answer_fields(body) == reference.answer(record.op)
    applied, tuples, conflicts = reference.apply(record.op)
    return (
        body.get("applied") == applied
        and body.get("tuples") == tuples
        and body.get("conflicts") == conflicts
    )


def percentile(values: Sequence[float], q: int) -> Optional[float]:
    """The q-th percentile, interpolated between closest ranks."""
    if not values:
        return None
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def python_env(src: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def serve_argv(flags: Sequence[str], launcher: Optional[Sequence[str]] = None):
    prefix = list(launcher) if launcher else [sys.executable, "-m", "repro.cli"]
    return prefix + ["serve", *flags, "--port", "0"]

