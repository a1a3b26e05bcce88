"""The ``select_simulate`` workload: the in-process batch path on hep.

Each instance draws a rumor seed set from the run's seed, selects with
SCBG (checked under DOAM), selects with CELF greedy on the numpy batched
sigma kernel, and evaluates the CELF picks with a per-replica OPOAO
Monte-Carlo run on a warm pool of ``min(2, nproc)`` workers.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, List

from benchlib import Checks, child_pids, cmdline, peak_rss_mb, percentile
from tracer import Tracer

DATASET = {"name": "hep", "scale": 0.1, "seed": 13}
RUMOR_FRACTION = 0.05
BUDGET = 4
CELF = {"runs": 8, "max_candidates": 150, "backend": "numpy"}
EVAL_RUNS = 200
HOPS = 31
EVAL_SEED = 2013

#: every run completes this many instances; protected_frac and
#: rss_peak_mb are taken over them.
PREFIX = 3
#: a traced run does exactly this many instances.
TRACED = 3


def _pool_setup(_graph, _payload):
    return None


def _pool_task(_state, chunk):
    return [os.getpid() for _ in chunk]


class Batch:
    """The loaded dataset, the warm pool, and one instance's pipeline."""

    def __init__(self, seed: int, span) -> None:
        from repro.datasets.registry import load_dataset
        from repro.exec.pool import ParallelExecutor
        from repro.rng import RngStream

        self.span = span
        with span("graph.load"):
            self.dataset = load_dataset(
                DATASET["name"], scale=DATASET["scale"], seed=DATASET["seed"]
            )
        size = self.dataset.communities.size(self.dataset.rumor_community)
        self.count = min(max(1, round(RUMOR_FRACTION * size)), size - 1) or 1
        self.workers = min(2, os.cpu_count() or 1)
        self.executor = ParallelExecutor(self.workers)
        self.rng = RngStream(seed, name="select_simulate")
        begin = time.perf_counter()
        self.executor.map_items(_pool_setup, _pool_task, None, list(range(self.workers)))
        self.pool_start_s = time.perf_counter() - begin

    def evaluate(self, context, picks, workers):
        from repro.diffusion.opoao import OPOAOModel
        from repro.lcrb.evaluation import evaluate_protectors
        from repro.rng import RngStream

        with self.span("lcrb.evaluate"):
            return evaluate_protectors(
                context, picks, OPOAOModel(), runs=EVAL_RUNS, max_hops=HOPS,
                rng=RngStream(EVAL_SEED, name="bench-eval"),
                workers=workers,
                executor=self.executor if workers else None,
            )

    def instance(self, index: int) -> dict:
        """One LCRB instance end to end; returns its answers and problems."""
        from repro.algorithms import SCBGSelector
        from repro.algorithms.base import SelectionContext
        from repro.algorithms.celf import CELFGreedySelector
        from repro.diffusion.doam import DOAMModel
        from repro.lcrb.evaluation import evaluate_protectors
        from repro.lcrb.pipeline import draw_rumor_seeds

        rng = self.rng.fork("instance", index)
        dataset = self.dataset
        seeds = draw_rumor_seeds(
            dataset.communities, dataset.rumor_community, self.count, rng.fork("seeds")
        )
        context = SelectionContext(dataset.graph, dataset.rumor_community_nodes, seeds)
        problems = []
        scbg = SCBGSelector().select(context)
        with self.span("lcrb.evaluate"):
            doam = evaluate_protectors(context, scbg, DOAMModel(), runs=1, max_hops=HOPS)
        if doam.bridge_infected.mean != 0:
            problems.append(
                f"SCBG leaves {doam.bridge_infected.mean} bridge ends infected under DOAM"
            )
        picks = CELFGreedySelector(rng=rng.fork("greedy"), **CELF).select(context, budget=BUDGET)
        problems.extend(pick_problems(picks, context))
        begin = time.perf_counter()
        evaluation = self.evaluate(context, picks, self.workers)
        pooled_s = time.perf_counter() - begin
        fraction = evaluation.protected_bridge_fraction
        if not 0.0 <= fraction <= 1.0:
            problems.append(f"protected fraction {fraction} outside [0, 1]")
        return {
            "context": context,
            "picks": picks,
            "evaluation": evaluation,
            "pooled_s": pooled_s,
            "protected": fraction,
            "problems": problems,
        }

    def rss_mb(self) -> float:
        """Peak RSS of this process plus its pool workers."""
        own = cmdline(os.getpid())
        workers = [pid for pid in child_pids() if cmdline(pid) == own]
        return peak_rss_mb(os.getpid()) + sum(peak_rss_mb(pid) for pid in workers)

    def close(self) -> None:
        self.executor.close()


def pick_problems(picks, context) -> List[str]:
    problems = []
    if not 1 <= len(picks) <= BUDGET:
        problems.append(f"CELF picked {len(picks)} protectors for budget {BUDGET}")
    if len(set(picks)) != len(picks):
        problems.append("CELF repeated a protector")
    if any(not context.graph.has_node(node) for node in picks):
        problems.append("CELF picked a node outside the graph")
    if set(picks) & set(context.rumor_seeds):
        problems.append("CELF picked a rumor seed")
    return problems


def same_evaluation(left, right) -> bool:
    return (
        left.final_infected_samples == right.final_infected_samples
        and left.infected_per_hop == right.infected_per_hop
        and left.protected_bridge_fraction == right.protected_bridge_fraction
    )


def instrument(tracer: Tracer, totals: Dict[str, int]) -> None:
    """Spans around the batch path's calls into each module."""
    import repro.algorithms.base as base_module
    from repro.algorithms import SCBGSelector
    from repro.algorithms.base import SelectionContext
    from repro.algorithms.celf import CELFGreedySelector
    from repro.exec.pool import ParallelExecutor
    from repro.graph.digraph import DiGraph
    from repro.kernels.base import KernelBackend
    from repro.kernels.numpy_backend import NumpyKernelBackend
    from repro.kernels.sigma import BatchedSigmaEvaluator

    def on_map(args, kwargs, _result) -> None:
        totals["map_items"] += len(kwargs["items"] if "items" in kwargs else args[4])

    tracer.wrap(SelectionContext, "__init__", "algorithms.context")
    tracer.wrap(base_module, "find_bridge_ends", "bridge.find_ends")
    tracer.wrap(DiGraph, "to_indexed", "graph.load")
    tracer.wrap(SCBGSelector, "select", "algorithms.scbg")
    tracer.wrap(CELFGreedySelector, "select", "algorithms.celf")
    for method in ("sigma", "sigma_many", "protected_fraction"):
        tracer.wrap(BatchedSigmaEvaluator, method, "kernels.sigma")
    tracer.wrap(KernelBackend, "run_worlds", "kernels.sigma")
    tracer.wrap(NumpyKernelBackend, "sample_worlds", "kernels.worlds")
    tracer.wrap(ParallelExecutor, "map_items", "exec.map", hook=on_map)


def run(seed: int, seconds: float, traced: bool, checks: Checks, started: float):
    """Run ``select_simulate``; return ``(metrics, info, spans)``.

    A traced run's per-layer totals cover the whole run, set-up included.
    """
    from repro.obs.registry import MetricsRegistry, use_registry

    tracer = Tracer()
    totals = {"map_items": 0}
    registry = MetricsRegistry()
    if traced:
        instrument(tracer, totals)
    span = tracer.span if traced else (lambda _name: contextlib.nullcontext())
    batch = None
    try:
        with use_registry(registry) if traced else contextlib.nullcontext():
            batch = Batch(seed, span)
            warm = batch.instance(-1)
            if warm["problems"]:
                checks.run(f"warm-up instance: {warm['problems']}")
            first = time.perf_counter()
            setup_s = first - started
            results, durations = [], []
            while (len(results) < TRACED) if traced else (
                len(results) < PREFIX or time.perf_counter() - first < seconds
            ):
                tracer.op = len(results) + 1
                begin = time.perf_counter()
                result = batch.instance(len(results))
                durations.append(time.perf_counter() - begin)
                results.append(result)
                checks.op(result["problems"], f"instance {len(results) - 1}")
                if len(results) == PREFIX:
                    rss = batch.rss_mb()
        traced_wall = time.perf_counter() - started
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(results) / sum(durations),
            "op_ms_p50": percentile([d * 1000.0 for d in durations], 50).value,
            "ok_frac": checks.ok_frac,
            "protected_frac": sum(r["protected"] for r in results[:PREFIX]) / PREFIX,
            "rss_peak_mb": rss,
        }
        info = {
            "instances": len(results),
            "op_ms": [round(d * 1000.0, 1) for d in durations],
            "pool_start_s": batch.pool_start_s,
        }
        if not traced:
            return values, info, None
        tracer.restore()
        batch.span = lambda _name: contextlib.nullcontext()
        self_s = tracer.self_times()
        speedup, base_ms = _speedup(batch, results[0], checks)
        overhead = _overhead(batch, durations[0])
    finally:
        tracer.restore()
        if batch is not None:
            batch.close()
    counter = registry.counter_value
    layers = {
        "graph.load_s": self_s.get("graph.load", 0.0),
        "bridge.find_ends_ms": self_s.get("bridge.find_ends", 0.0) * 1000.0,
        "bridge.calls": tracer.calls("bridge.find_ends"),
        "kernels.sigma_ms": self_s.get("kernels.sigma", 0.0) * 1000.0,
        "kernels.worlds_ms": self_s.get("kernels.worlds", 0.0) * 1000.0,
        "kernel.worlds": counter("kernel.worlds"),
        "selector.sigma_evaluations": counter("selector.sigma_evaluations"),
        "selector.celf_reevaluations": counter("selector.celf_reevaluations"),
        "algorithms.context_ms": self_s.get("algorithms.context", 0.0) * 1000.0,
        "algorithms.celf_s": self_s.get("algorithms.celf", 0.0),
        "algorithms.scbg_ms": self_s.get("algorithms.scbg", 0.0) * 1000.0,
        "lcrb.evaluate_s": self_s.get("lcrb.evaluate", 0.0),
        "sim.runs": counter("sim.runs"),
        "exec.pool_start_s": batch.pool_start_s,
        "exec.map_ms": self_s.get("exec.map", 0.0) * 1000.0,
        "exec.map_items": totals["map_items"],
        "exec.chunks_retried": counter("exec.chunks.retried"),
        "exec.degraded": counter("exec.degraded"),
        "exec.speedup": speedup,
        "exec.speedup_base_ms": base_ms,
        "trace.coverage_frac": sum(self_s.values()) / traced_wall,
        "trace.overhead_frac": overhead,
    }
    return layers, info, tracer.spans


def _speedup(batch: Batch, result: dict, checks: Checks):
    """Warm serial over warm pooled time of one evaluation; they must agree."""
    begin = time.perf_counter()
    serial = batch.evaluate(result["context"], result["picks"], None)
    serial_s = time.perf_counter() - begin
    if not same_evaluation(serial, result["evaluation"]):
        checks.run("serial and pooled evaluations differ")
    return serial_s / result["pooled_s"], serial_s * 1000.0


def _overhead(batch: Batch, traced_s: float) -> float:
    """Traced over untraced time of the run's first instance, minus 1."""
    begin = time.perf_counter()
    batch.instance(0)
    return traced_s / (time.perf_counter() - begin) - 1.0
