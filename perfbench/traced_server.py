"""Run ``repro serve`` with span recording around the public functions of
each layer.

Usage: ``python traced_server.py SPANS_PATH serve ARGS...`` (``src`` on
``PYTHONPATH``).  Each wrapper records a span (name, start, end, parent,
request id) in memory; the request id is the ``tag`` the client put in
the request payload.  On SIGTERM the server shuts down and the spans are
written to ``SPANS_PATH`` as JSON lines.  Nothing under ``src`` changes:
the wrappers are installed on the classes and module globals before the
CLI starts.
"""

from __future__ import annotations

import functools
import json
import signal
import sys
import threading
import time

#: (module, attribute path, span name).  Module-level functions are
#: patched in the module that *calls* them, where the lookup happens.
TRACED = (
    ("repro.service.server", "_Handler.do_POST", "server.post"),
    ("repro.service.server", "encode_result", "codec.encode"),
    ("repro.service.broker", "RequestBroker.submit", "broker.submit"),
    ("repro.service.broker", "RequestBroker.insert", "broker.update"),
    ("repro.service.broker", "RequestBroker.delete", "broker.update"),
    ("repro.service.broker", "AnswerCache.get", "cache.get"),
    ("repro.service.broker", "AnswerCache.put", "cache.put"),
    (
        "repro.service.broker",
        "AnswerCache.invalidate_components",
        "cache.invalidate",
    ),
    ("repro.service.broker", "analyze_routes", "analysis.analyze"),
    ("repro.incremental.engine", "parse_query", "query.parse"),
    ("repro.backend.mirror", "SqliteMirror.engine_for", "mirror.engine_for"),
    (
        "repro.backend.mirror",
        "SqliteMirror.pref_engine_for",
        "mirror.pref_engine_for",
    ),
    ("repro.prefsql.engine", "PrefSqlCqaEngine.__init__", "prefsql.build"),
    ("repro.prefsql.engine", "PrefSqlCqaEngine.explain", "prefsql.explain"),
    ("repro.prefsql.engine", "PrefSqlCqaEngine.answer", "prefsql.answer"),
    (
        "repro.prefsql.engine",
        "PrefSqlCqaEngine.certain_answers",
        "prefsql.certain_answers",
    ),
    (
        "repro.incremental.engine",
        "IncrementalCqaEngine.answer",
        "incremental.answer",
    ),
    (
        "repro.incremental.engine",
        "IncrementalCqaEngine.certain_answers",
        "incremental.certain_answers",
    ),
    (
        "repro.incremental.engine",
        "IncrementalCqaEngine.insert",
        "incremental.insert",
    ),
    (
        "repro.incremental.engine",
        "IncrementalCqaEngine.delete",
        "incremental.delete",
    ),
)

#: The root span of each request; its request id comes from the payload.
ROOT = "server.post"


class SpanRecorder:
    """In-memory spans, nested per thread."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent, request, note]
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function, note=None):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            request = parent[4] if parent is not None else {"id": None}
            span = [name, 0.0, 0.0, parent, request, None]
            if note is not None:
                span[5] = note(*args, **kwargs)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return wrapper

    def tag_request(self, payload) -> None:
        """Name the current request after the client's ``tag``."""
        stack = self._stack()
        if stack and isinstance(payload, dict):
            stack[0][4]["id"] = payload.get("tag")

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, request, note) in enumerate(
                self.spans
            ):
                record = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": index.get(id(parent)) if parent else None,
                    "request": request["id"],
                }
                if note is not None:
                    record["note"] = note
                handle.write(json.dumps(record) + "\n")


def _mirror_dirty(mirror, *args, **kwargs):
    return "refresh" if mirror.dirty else None


def install(recorder: SpanRecorder) -> None:
    import importlib

    notes = {
        "mirror.engine_for": _mirror_dirty,
        "mirror.pref_engine_for": _mirror_dirty,
    }
    for module_name, path, name in TRACED:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(
            owner,
            attribute,
            recorder.wrap(name, getattr(owner, attribute), notes.get(name)),
        )
    from repro.service.server import ServiceFrontEnd

    handle = ServiceFrontEnd.handle

    @functools.wraps(handle)
    def tagged_handle(self, payload):
        recorder.tag_request(payload)
        return handle(self, payload)

    ServiceFrontEnd.handle = tagged_handle


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro import cli

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.main(cli_args)
    except KeyboardInterrupt:
        return 0
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
