"""The benchmark's workloads and metrics: names, units, direction, bounds.

``BENCHMARK.json`` at the repository root must list exactly these; the
self-test in ``tests/test_benchlib.py`` checks that it does.
"""

from __future__ import annotations

#: name -> why the workload is in the benchmark.
WORKLOADS = {
    "serve_mixed": (
        "repro serve on enron-small with a warm 2-set panel; cycles of 1 edge "
        "update then 40 queries, so warm CELF coverage reads share the sketch "
        "store with sampling-heavy reconciles"
    ),
    "select_simulate": (
        "in-process batch path on hep: SCBG, CELF on the numpy sigma kernel, "
        "pooled OPOAO Monte-Carlo evaluation; the only user of kernels and exec"
    ),
}

#: end-to-end metrics of an untraced run: name -> (unit, better, bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    "ok_frac": ("ratio", "higher", 0.05),
    "protected_frac": ("ratio", "higher", 0.2),
    "rss_peak_mb": ("MB", "lower", 0.1),
}

#: per-layer metrics of a traced run: name -> (unit, better). A layer a
#: workload does not run reports 0.
PER_LAYER = {
    "graph.load_s": ("s", "lower"),
    "graph.apply_updates_ms": ("ms", "lower"),
    "bridge.find_ends_ms": ("ms", "lower"),
    "bridge.calls": ("count", "lower"),
    "sketch.sample_ms": ("ms", "lower"),
    "sketch.worlds_sampled": ("count", "lower"),
    "sketch.ms_per_world": ("ms", "lower"),
    "sketch.rrsets_sampled": ("count", "lower"),
    "sketch.members_stored": ("count", "lower"),
    "sketch.store_ms": ("ms", "lower"),
    "sketch.refresh_ms": ("ms", "lower"),
    "sketch.worlds_invalidated": ("count", "lower"),
    "sketch.stale_world_frac": ("ratio", "lower"),
    "sketch.coverage_ms": ("ms", "lower"),
    "sketch.warm_coverage_frac": ("ratio", "higher"),
    "sketch.precision_ms": ("ms", "lower"),
    "sketch.doublings": ("count", "lower"),
    "serve.service_ms": ("ms", "lower"),
    "serve.protocol_ms": ("ms", "lower"),
    "loadgen.op_ms_p90": ("ms", "lower"),
    "loadgen.control_ms_p50": ("ms", "lower"),
    "loadgen.late_ms_p99": ("ms", "lower"),
    "kernels.sigma_ms": ("ms", "lower"),
    "kernels.worlds_ms": ("ms", "lower"),
    "kernel.worlds": ("count", "lower"),
    "selector.sigma_evaluations": ("count", "lower"),
    "selector.celf_reevaluations": ("count", "lower"),
    "algorithms.context_ms": ("ms", "lower"),
    "algorithms.celf_s": ("s", "lower"),
    "algorithms.scbg_ms": ("ms", "lower"),
    "lcrb.evaluate_s": ("s", "lower"),
    "sim.runs": ("count", "lower"),
    "exec.pool_start_s": ("s", "lower"),
    "exec.map_ms": ("ms", "lower"),
    "exec.map_items": ("count", "lower"),
    "exec.chunks_retried": ("count", "lower"),
    "exec.degraded": ("count", "lower"),
    "exec.speedup": ("ratio", "higher"),
    "exec.speedup_base_ms": ("ms", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "host.calib_ms": ("ms", "lower"),
}
