"""Serving subsystem: sharded parallel execution plus request brokering.

The repair semantics of the paper decompose over conflict-graph
components, which makes certain/possible-answer computation
embarrassingly parallel.  This package is the layer between the fast
single-process engines and a production deployment:

* :mod:`repro.service.parallel` — shard the repair space (the product
  of per-component repair fragments) into index ranges executed by a
  process pool, with a deterministic merge that is bit-identical to
  serial evaluation;
* :mod:`repro.service.broker` — batch, deduplicate, route and memoize
  query requests over registered (mutable) databases, choosing the
  cheapest capable engine per query;
* :mod:`repro.service.memo` — the bounded, locked memo behind the
  broker's parse and route-report caches;
* :mod:`repro.service.server` — a stdlib-only JSON-over-HTTP and
  JSON-lines front end (``repro serve``) with health/stats endpoints.
"""

from repro.service.broker import AnswerCache, BrokerResult, Request, RequestBroker
from repro.service.parallel import ShardPlan, shard_plan

__all__ = [
    "AnswerCache",
    "BrokerResult",
    "Request",
    "RequestBroker",
    "ShardPlan",
    "shard_plan",
]
