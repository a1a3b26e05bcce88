"""Low-latency rumor-blocking query service over a dynamic graph.

Batch selection (:mod:`repro.algorithms`) answers one LCRB instance per
process; this package keeps the expensive state **warm** between
questions instead. A :class:`RumorBlockingService` holds one
:class:`~repro.graph.compact.IndexedDiGraph`, one
:class:`~repro.sketch.store.SketchStore` per rumor seed set, and one
persistent :class:`~repro.exec.pool.ParallelExecutor`, and answers

``query(rumor_seeds, budget, epsilon, delta)``

by *incrementally extending* the RR-set index — doubling only when the
(ε, δ) stopping rule demands it — rather than resampling from scratch.
Edge updates (:meth:`RumorBlockingService.apply_updates`) mutate the
graph in place; the next query repairs the index one RR set at a time,
resampling only the sets whose stored slacks the mutation broke
(:meth:`~repro.sketch.store.SketchStore.refresh`), so a warm query after
an update resamples a fraction of the index.

Layers:

* :mod:`repro.serve.service` — :class:`RumorBlockingService`: the state
  holder, with a synchronous core and asyncio wrappers serialised by
  one FIFO lock (concurrent queries are bit-identical to serial ones).
* :mod:`repro.serve.protocol` — newline-JSON request handling over
  stdin/stdout (``repro serve``) or a unix socket.
* :mod:`repro.serve.loadgen` — a deterministic query/update mix that
  reports qps, latency percentiles, and warm/cold sampling ratios (the
  ``BENCH_serve.json`` producer).

See ``docs/serving.md`` for the request schema and operational notes.
"""

from repro.serve.loadgen import run_loadgen
from repro.serve.protocol import (
    handle_connection,
    process_request,
    serve_stdio,
    serve_unix_socket,
)
from repro.serve.service import RumorBlockingService

__all__ = [
    "RumorBlockingService",
    "process_request",
    "handle_connection",
    "serve_stdio",
    "serve_unix_socket",
    "run_loadgen",
]
