"""Serve-layer benchmark: warm-index loadgen under the regression gate.

Measures the ISSUE-8 tentpole: a :class:`repro.serve.RumorBlockingService`
answering a deterministic query/update mix through
:func:`repro.serve.run_loadgen`. Two legs:

* **enron-small** (gated) — fixed seeds and a fixed update cadence make
  every ``serve.*`` counter deterministic, so ``BENCH_serve.json`` sits
  under ``benchmarks/check_regression.py`` like the other benches. The
  leg also asserts its acceptance gates inline: warm-index p50 < 50 ms,
  a ≥ 10x cold/warm RR-set sampling ratio, and update repairs that
  invalidate under half of the RR sets held when they run.
* **1M-node synthetic** (full runs only) — the same workload over
  :func:`repro.datasets.synthetic.large_indexed_network`, emitted as
  ``BENCH_serve_large.json``. No baseline is checked in, so the gate
  reports it as informational rather than failing.

Latency percentiles and qps land in the document's ``context`` for
humans; the gate itself only diffs counters (wall clock is runner
noise).
"""

from repro.datasets import load_dataset
from repro.datasets.synthetic import large_indexed_network
from repro.serve import RumorBlockingService, run_loadgen
from repro.sketch.store import SketchStore

from benchmarks.conftest import FAST

import pytest

#: The tuned enron-small configuration. steps=8 keeps worlds cheap to
#: sample; update_every=20 models a read-heavy serving mix (2 update
#: batches over 40 queries). An update batch touches nearly every world
#: (a world's rumor pass and RR sets reach most nodes), but the repair
#: resamples only the RR sets whose slacks the batch breaks.
SERVE_CONFIG = dict(steps=8, seed=13, initial_worlds=64, max_worlds=128)
LOADGEN_CONFIG = dict(
    queries=40,
    update_every=20,
    update_size=1,
    seed_sets=2,
    budget=4,
    epsilon=0.3,
    delta=0.1,
    seed=13,
)

#: Acceptance gates.
WARM_P50_MS_LIMIT = 50.0
COLD_TO_WARM_RATIO_FLOOR = 10.0
#: Repairs must invalidate under this share of the RR sets they inspect.
INVALIDATED_SHARE_LIMIT = 0.5


def loadgen_context(report: dict) -> dict:
    """The human-facing slice of a loadgen report (no raw trace)."""
    return {
        "qps": report["qps"],
        "latency_ms": report["latency_ms"],
        "cold_queries": report["cold_queries"],
        "warm_queries": report["warm_queries"],
        "cold_rrsets_mean": report["cold_rrsets_mean"],
        "warm_rrsets_mean": report["warm_rrsets_mean"],
        "cold_to_warm_ratio": report["cold_to_warm_ratio"],
        "rrsets_invalidated_total": report["rrsets_invalidated_total"],
        "graph_version": report["graph_version"],
    }


def test_serve_enron_small(bench_metrics, monkeypatch):
    dataset = load_dataset("enron-small", scale=0.05, seed=13)
    indexed = dataset.graph.to_indexed()
    community = sorted(indexed.indices(dataset.rumor_community_nodes))
    held_at_update = []
    refresh = SketchStore.refresh

    def counting_refresh(store, touched, rule="footprint"):
        held_at_update.append(store.set_count)
        return refresh(store, touched, rule)

    monkeypatch.setattr(SketchStore, "refresh", counting_refresh)
    with bench_metrics.collect():
        service = RumorBlockingService(indexed, community, **SERVE_CONFIG)
        report = run_loadgen(service, **LOADGEN_CONFIG)

    # The issue's acceptance gates: a warm index answers repeat queries
    # fast and almost sampling-free.
    assert report["latency_ms"]["warm_p50"] < WARM_P50_MS_LIMIT
    assert report["cold_to_warm_ratio"] >= COLD_TO_WARM_RATIO_FLOOR
    # Sampling counts are seed-deterministic; the gated counters must
    # reconcile with the report the loadgen returned.
    counters = bench_metrics.registry.counter_values()
    assert counters["serve.queries"] == LOADGEN_CONFIG["queries"]
    assert counters["serve.rrsets.sampled"] == report["rrsets_sampled_total"]
    assert (
        counters["serve.rrsets.invalidated"]
        == report["rrsets_invalidated_total"]
    )
    # Slack-checked repair: an update batch resamples only the RR sets it
    # changed, well under half of those held when the repair ran.
    assert held_at_update, "expected the loadgen's updates to reach refresh"
    invalidated = counters.get("sketch.rrsets_invalidated", 0)
    assert invalidated < INVALIDATED_SHARE_LIMIT * sum(held_at_update), (
        f"{invalidated} RR sets invalidated of {sum(held_at_update)} held"
    )
    bench_metrics.emit("serve", context=loadgen_context(report))


@pytest.mark.skipif(FAST, reason="1M-node leg runs in full benchmarks only")
def test_serve_large_synthetic(bench_metrics):
    graph, community_of = large_indexed_network(
        1_000_000, avg_degree=6.0, communities=100, mixing=0.05
    )
    community = [
        node for node in range(graph.node_count) if community_of[node] == 0
    ]
    with bench_metrics.collect():
        service = RumorBlockingService(
            graph,
            community,
            steps=4,
            seed=13,
            initial_worlds=16,
            max_worlds=16,
        )
        report = run_loadgen(
            service,
            queries=6,
            update_every=3,
            update_size=1,
            seed_sets=2,
            budget=2,
            epsilon=0.45,
            delta=0.2,
            seed=13,
        )
    assert report["warm_queries"] == 4
    bench_metrics.emit("serve_large", context=loadgen_context(report))
