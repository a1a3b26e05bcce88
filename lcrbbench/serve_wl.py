"""The ``serve_mixed`` workload: ``repro serve --socket`` driven from one client.

A panel of 2 rumor seed sets is warmed during set-up. One connection
then runs a closed loop that repeats a cycle: one edge-update batch,
then 40 queries alternating over the panel. A second connection sends
``stats`` probes open-loop at :data:`PROBE_HZ`, each timed from when it
was due.

The panel is the same for every seed, so runs compare the same warm
instances; the seed draws the update stream. Which two seed sets form
the panel moves warm-read latency by up to 40%, more than the bounds
could absorb.

A traced run drives the server the same way for a fixed number of
operations, then replays the identical request stream against an
in-process :class:`~repro.serve.RumorBlockingService` with spans around
the program's module calls. Replay answers must equal the socket answers.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace
from typing import Dict, List

from benchlib import Checks, peak_rss_mb, percentile
from tracer import Tracer

DATASET = {"name": "enron-small", "scale": 0.05, "seed": 13}
STEPS = 8
SERVICE = {
    "semantics": "opoao",
    "steps": STEPS,
    "seed": DATASET["seed"],
    "initial_worlds": 64,
    "max_worlds": 128,
    "invalidation": "footprint",
    "workers": 1,
    "backend": "numpy",
}
QUERY = {"budget": 4, "eps": 0.3, "delta": 0.1}
SEEDS_PER_QUERY = 2
PANEL_SIZE = 2
CYCLE_QUERIES = 40
UPDATE_SIZE = 1
PROBE_HZ = 60.0

#: every run completes this many cycles; protected_frac and rss_peak_mb
#: are taken over them, so they do not depend on how far a run got.
PREFIX_CYCLES = 1
#: a traced run does exactly this many cycles.
TRACED_CYCLES = 3

EVAL_RUNS = 200
EVAL_SEED = 2013
CONNECT_TIMEOUT_S = 120.0


def load_graph():
    """The served graph and rumor-community ids, as ``repro serve`` builds them."""
    from repro.datasets.registry import load_dataset

    dataset = load_dataset(
        DATASET["name"], scale=DATASET["scale"], seed=DATASET["seed"]
    )
    indexed = dataset.graph.to_indexed()
    community = sorted(indexed.indices(dataset.rumor_community_nodes))
    return indexed, community


def server_command(socket_path: str) -> List[str]:
    return [
        sys.executable, "-m", "repro.cli", "serve",
        "--dataset", DATASET["name"],
        "--scale", str(DATASET["scale"]),
        "--seed", str(SERVICE["seed"]),
        "--semantics", SERVICE["semantics"],
        "--steps", str(STEPS),
        "--initial-worlds", str(SERVICE["initial_worlds"]),
        "--max-worlds", str(SERVICE["max_worlds"]),
        "--invalidation", SERVICE["invalidation"],
        "--backend", SERVICE["backend"],
        "--workers", str(SERVICE["workers"]),
        "--socket", socket_path,
    ]


# -- the request stream ----------------------------------------------------------


class RequestPlan:
    """The seed's request stream, generated lazily and identically each run.

    Update batches are drawn against a mirror of the served graph, the
    way ``repro.serve.loadgen`` draws them against the service's graph.
    """

    def __init__(self, seed: int, mirror, community: List[int]) -> None:
        from repro.rng import RngStream

        self._ids = itertools.count(1)
        pairs = list(itertools.combinations(community, SEEDS_PER_QUERY))
        self.panel = [list(pair) for pair in random.Random("panel").sample(pairs, PANEL_SIZE)]
        self._update_rng = RngStream(seed, name="serve_mixed-updates")
        self.mirror = mirror
        self.updates: List[dict] = []

    def query(self, seeds) -> dict:
        return {"op": "query", "id": next(self._ids), "seeds": list(seeds), **QUERY}

    def warmup(self) -> List[dict]:
        return [self.query(seeds) for seeds in self.panel]

    def cycle(self) -> List[dict]:
        """One update batch, then the cycle's queries over the panel."""
        from repro.serve.loadgen import _draw_update_batch

        insert, delete = _draw_update_batch(
            SimpleNamespace(graph=self.mirror), self._update_rng, UPDATE_SIZE
        )
        self.mirror.apply_updates(insert, delete)
        update = {
            "op": "update",
            "id": next(self._ids),
            "insert": [list(edge) for edge in insert],
            "delete": [list(edge) for edge in delete],
        }
        self.updates.append(update)
        queries = [
            self.query(self.panel[index % PANEL_SIZE])
            for index in range(CYCLE_QUERIES)
        ]
        return [update] + queries


# -- the socket client -------------------------------------------------------------


class Record:
    """One request with its answer and client-side send/receive times."""

    __slots__ = ("request", "response", "sent", "received", "timed")

    def __init__(self, request, response, sent, received, timed) -> None:
        self.request = request
        self.response = response
        self.sent = sent
        self.received = received
        self.timed = timed

    @property
    def ms(self) -> float:
        return (self.received - self.sent) * 1000.0


async def _connect(path: str, server: subprocess.Popen):
    deadline = time.monotonic() + CONNECT_TIMEOUT_S
    while True:
        try:
            return await asyncio.open_unix_connection(path, limit=1 << 24)
        except (FileNotFoundError, ConnectionRefusedError):
            if server.poll() is not None:
                raise RuntimeError(f"server exited with code {server.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not open its socket in time")
            await asyncio.sleep(0.02)


async def _call(reader, writer, request: dict):
    writer.write((json.dumps(request) + "\n").encode())
    sent = time.perf_counter()
    await writer.drain()
    line = await reader.readline()
    received = time.perf_counter()
    if not line:
        raise RuntimeError("server closed the connection")
    return json.loads(line), sent, received


class Probes:
    """Open-loop ``stats`` probes on their own connection."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.due: Dict[int, float] = {}
        self.late_ms: List[float] = []
        self.latency_ms: List[float] = []
        self.bad = 0
        self.stop = asyncio.Event()

    async def _read(self) -> None:
        """Time each response as it arrives."""
        while True:
            line = await self.reader.readline()
            if not line:
                return
            received = time.perf_counter()
            response = json.loads(line)
            due = self.due.get(response.get("id"))
            if due is None or not response.get("ok"):
                self.bad += 1
                continue
            self.latency_ms.append((received - due) * 1000.0)

    async def run(self, start: float) -> None:
        """Send on schedule until stopped, then wait for the last answers."""
        reader = asyncio.create_task(self._read())
        index = 0
        while not self.stop.is_set():
            due = start + index / PROBE_HZ
            delay = due - time.perf_counter()
            if delay > 0:
                try:
                    await asyncio.wait_for(self.stop.wait(), delay)
                    break
                except asyncio.TimeoutError:
                    pass
            self.due[index] = due
            self.writer.write((json.dumps({"op": "stats", "id": index}) + "\n").encode())
            self.late_ms.append((time.perf_counter() - due) * 1000.0)
            index += 1
        await self.writer.drain()
        deadline = time.monotonic() + 60.0
        while (
            len(self.latency_ms) + self.bad < index
            and not reader.done()
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.005)
        reader.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await reader
        self.bad = index - len(self.latency_ms)


async def _drive(plan, path, server, seconds, traced, launched, out):
    query_reader, query_writer = await _connect(path, server)
    probe_reader, probe_writer = await _connect(path, server)
    records: List[Record] = []
    out["records"] = records
    for request in plan.warmup():
        response, sent, received = await _call(query_reader, query_writer, request)
        records.append(Record(request, response, sent, received, False))
    started = time.perf_counter()
    out["setup_s"] = started - launched
    probes = Probes(probe_reader, probe_writer)
    probe_task = asyncio.create_task(probes.run(started))

    def more(done: int) -> bool:
        if traced:
            return done < TRACED_CYCLES
        return done < PREFIX_CYCLES or time.perf_counter() - started < seconds

    done = 0
    cycle_spans = []
    while more(done):
        done += 1
        batch = plan.cycle()
        for request in batch:
            response, sent, received = await _call(query_reader, query_writer, request)
            records.append(Record(request, response, sent, received, True))
        cycle_spans.append((records[-len(batch)].sent, records[-1].received))
        if done == PREFIX_CYCLES:
            out["rss_peak_mb"] = peak_rss_mb(server.pid)
    probes.stop.set()
    await probe_task
    out["cycle_spans"] = cycle_spans
    out["probes"] = probes
    await _call(query_reader, query_writer, {"op": "shutdown", "id": 0})
    for writer in (query_writer, probe_writer):
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


# -- output checks ------------------------------------------------------------------

#: the fields that make up an answer; bookkeeping fields such as
#: ``rrsets_sampled`` legitimately differ between a reconcile and a warm read.
ANSWER_FIELDS = ("blockers", "blocker_labels", "sigma", "worlds", "bridge_ends", "graph_version")


def answer_problems(record: Record, node_count: int) -> List[str]:
    request, response = record.request, record.response
    if not response.get("ok"):
        return [f"not ok: {response.get('error')}"]
    if request["op"] == "update":
        return [] if response.get("touched") is not None else ["update without touched ids"]
    problems = []
    blockers = response["blockers"]
    seeds = set(request["seeds"])
    if len(blockers) > request["budget"]:
        problems.append(f"{len(blockers)} blockers over budget {request['budget']}")
    if len(set(blockers)) != len(blockers):
        problems.append("repeated blocker")
    if any(not (isinstance(b, int) and 0 <= b < node_count) for b in blockers):
        problems.append("blocker outside the graph")
    if seeds & set(blockers):
        problems.append("blocker is a rumor seed")
    if not 0.0 <= response["sigma"] <= response["bridge_ends"]:
        problems.append(f"sigma {response['sigma']} outside [0, |B|={response['bridge_ends']}]")
    return problems


def check_records(records: List[Record], node_count: int, checks: Checks) -> None:
    """Count every timed request; a warm answer must not change without an update."""
    last: Dict[tuple, dict] = {}
    for record in records:
        problems = answer_problems(record, node_count)
        if record.request["op"] == "update":
            last.clear()
        elif not problems:
            key = tuple(sorted(record.request["seeds"]))
            answer = {field: record.response[field] for field in ANSWER_FIELDS}
            previous = last.get(key)
            if previous is not None and previous != answer:
                problems.append("warm answer changed without an update")
            last[key] = answer
        if record.timed:
            checks.op(problems, f"request {record.request['id']}")
        elif problems:
            checks.run(f"warm-up request {record.request['id']}: {problems}")


# -- quality -------------------------------------------------------------------------


def protected_fraction(graph, community, seeds, blockers) -> float:
    """Monte-Carlo protected bridge-end fraction of one answer (fixed seed)."""
    from repro.bridge.rfst import find_bridge_end_ids
    from repro.diffusion.base import INFECTED, SeedSets
    from repro.diffusion.opoao import OPOAOModel
    from repro.diffusion.simulation import MonteCarloSimulator
    from repro.rng import RngStream

    ends = sorted(find_bridge_end_ids(graph, community, seeds))
    if not ends:
        return 1.0
    infected = [0]

    def collect(outcome) -> None:
        infected[0] += sum(1 for end in ends if outcome.states[end] == INFECTED)

    simulator = MonteCarloSimulator(
        OPOAOModel(), runs=EVAL_RUNS, max_hops=STEPS, backend="numpy"
    )
    simulator.simulate(
        graph,
        SeedSets(rumors=seeds, protectors=blockers),
        rng=RngStream(EVAL_SEED, name="bench-eval"),
        on_outcome=collect,
    )
    return 1.0 - infected[0] / (EVAL_RUNS * len(ends))


def prefix_quality(records: List[Record], updates: List[dict]) -> float:
    """Mean protected fraction of the first cycle's reconciled answers,
    on the graph they saw."""
    graph, community = load_graph()
    first = updates[0]
    graph.apply_updates(first["insert"], first["delete"])
    answers = [r for r in records if r.timed and r.request["op"] == "query"][:PANEL_SIZE]
    values = [
        protected_fraction(graph, community, r.request["seeds"], r.response["blockers"])
        for r in answers
    ]
    return sum(values) / len(values)


# -- the traced replay ---------------------------------------------------------------


def instrument(tracer: Tracer, totals: Dict[str, float]) -> None:
    """Spans around the serve path's calls into each module."""
    import repro.serve.service as service_module
    import repro.sketch.kernels as sketch_kernels
    from repro.graph.compact import IndexedDiGraph
    from repro.serve.service import RumorBlockingService
    from repro.sketch.store import SketchStore

    def on_refresh(args, _kwargs, result) -> None:
        totals["worlds_held"] += args[0].worlds
        totals["worlds_stale"] += result[0]

    tracer.wrap(RumorBlockingService, "query", "serve.service")
    tracer.wrap(RumorBlockingService, "apply_updates", "serve.service")
    tracer.wrap(IndexedDiGraph, "apply_updates", "graph.apply_updates")
    tracer.wrap(service_module, "find_bridge_end_ids", "bridge.find_ends")
    tracer.wrap(service_module, "max_coverage", "sketch.coverage")
    tracer.wrap(SketchStore, "sigma", "sketch.coverage")
    tracer.wrap(SketchStore, "precision_ok", "sketch.precision")
    tracer.wrap(SketchStore, "ensure_worlds", "sketch.store")
    tracer.wrap(SketchStore, "refresh", "sketch.refresh", hook=on_refresh)
    tracer.wrap(sketch_kernels, "sample_worlds", "sketch.sample")


def _service(graph, community):
    from repro.serve import RumorBlockingService

    return RumorBlockingService(graph, community, **SERVICE)


def replay(records: List[Record], checks: Checks, out: dict) -> Dict[str, float]:
    """Replay the socket run in-process, traced; return per-layer metrics."""
    from repro.obs.registry import MetricsRegistry, use_registry
    from repro.serve import process_request

    tracer = Tracer()
    totals = {"worlds_held": 0, "worlds_stale": 0}
    registry = MetricsRegistry()
    loop = asyncio.new_event_loop()
    inproc_ms: List[float] = []
    instrument(tracer, totals)
    started = time.perf_counter()
    try:
        with use_registry(registry):
            with tracer.span("graph.load"):
                graph, community = load_graph()
            service = _service(graph, community)
            for op, record in enumerate(records, start=1):
                tracer.op = op
                begin = time.perf_counter()
                response = loop.run_until_complete(
                    process_request(service, record.request)
                )
                inproc_ms.append((time.perf_counter() - begin) * 1000.0)
                response = json.loads(json.dumps(response, sort_keys=True))
                if response != record.response:
                    checks.run(f"request {record.request['id']}: in-process answer differs from the socket answer")
        wall = time.perf_counter() - started
        tracer.restore()
        self_s = tracer.self_times()
        warm_ops = {
            op for op, record in enumerate(records, start=1)
            if record.timed and record.response.get("rrsets_sampled") == 0
        }
        warm_s = tracer.self_times(ops=warm_ops)
        overhead = _overhead(records, graph, community, loop)
    finally:
        tracer.restore()
        loop.close()
    out["spans"] = tracer.spans
    counter = registry.counter_value
    sample_ms = self_s.get("sketch.sample", 0.0) * 1000.0
    worlds = counter("sketch.worlds_sampled")
    protocol = [
        record.ms - ms for record, ms in zip(records, inproc_ms)
        if record.timed and record.request["op"] == "query"
    ]
    return {
        "graph.load_s": self_s.get("graph.load", 0.0),
        "graph.apply_updates_ms": self_s.get("graph.apply_updates", 0.0) * 1000.0,
        "bridge.find_ends_ms": self_s.get("bridge.find_ends", 0.0) * 1000.0,
        "bridge.calls": tracer.calls("bridge.find_ends"),
        "sketch.sample_ms": sample_ms,
        "sketch.worlds_sampled": worlds,
        "sketch.ms_per_world": sample_ms / worlds if worlds else 0.0,
        "sketch.rrsets_sampled": counter("sketch.rrsets_sampled"),
        "sketch.members_stored": counter("sketch.rrset_members_stored"),
        "sketch.store_ms": self_s.get("sketch.store", 0.0) * 1000.0,
        "sketch.refresh_ms": self_s.get("sketch.refresh", 0.0) * 1000.0,
        "sketch.worlds_invalidated": counter("sketch.worlds_invalidated"),
        "sketch.stale_world_frac": (
            totals["worlds_stale"] / totals["worlds_held"] if totals["worlds_held"] else 0.0
        ),
        "sketch.coverage_ms": self_s.get("sketch.coverage", 0.0) * 1000.0,
        "sketch.warm_coverage_frac": (
            warm_s.get("sketch.coverage", 0.0) * 1000.0
            / sum(inproc_ms[op - 1] for op in warm_ops)
        ),
        "sketch.precision_ms": self_s.get("sketch.precision", 0.0) * 1000.0,
        "sketch.doublings": counter("sketch.store_doublings"),
        "selector.sigma_evaluations": counter("selector.sigma_evaluations"),
        "selector.celf_reevaluations": counter("selector.celf_reevaluations"),
        "serve.service_ms": self_s.get("serve.service", 0.0) * 1000.0,
        "serve.protocol_ms": percentile(protocol, 50).value,
        "trace.coverage_frac": sum(self_s.values()) / wall,
        "trace.overhead_frac": overhead,
    }


def _overhead(records, graph, community, loop) -> float:
    """Traced over untraced time of one cold query on fresh services, minus 1.

    The query is the run's first timed query; both services see the same
    graph, so both do the same (sampling-heavy) work.
    """
    from repro.obs.registry import MetricsRegistry, use_registry
    from repro.serve import process_request

    first = next(r for r in records if r.timed and r.request["op"] == "query")
    request = dict(first.request)
    tracer = Tracer()
    begin = time.perf_counter()
    loop.run_until_complete(process_request(_service(graph, community), request))
    untraced = time.perf_counter() - begin
    instrument(tracer, {"worlds_held": 0, "worlds_stale": 0})
    try:
        with use_registry(MetricsRegistry()):
            begin = time.perf_counter()
            loop.run_until_complete(process_request(_service(graph, community), request))
            traced = time.perf_counter() - begin
    finally:
        tracer.restore()
    return traced / untraced - 1.0


# -- the workload ----------------------------------------------------------------------


def run(seed: int, seconds: float, traced: bool, root: str, checks: Checks):
    """Run ``serve_mixed``; return ``(metrics, info, spans)``."""
    run_dir = os.path.join(root, ".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    socket_path = os.path.join(".bench_run", f"serve-{os.getpid()}.sock")
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    graph, community = load_graph()
    plan = RequestPlan(seed, graph, community)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out: dict = {}
    launched = time.perf_counter()
    server = subprocess.Popen(
        server_command(socket_path), cwd=root, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        asyncio.run(_drive(plan, socket_path, server, seconds, traced, launched, out))
        try:
            _, stderr = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            checks.run("server did not exit after shutdown")
            server.kill()
            server.communicate()
        else:
            if server.returncode != 0:
                checks.run(f"server exited with {server.returncode}: {stderr.decode()[-500:]}")
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
        if os.path.exists(socket_path):
            os.unlink(socket_path)

    records: List[Record] = out["records"]
    check_records(records, graph.node_count, checks)
    queries = [r for r in records if r.timed and r.request["op"] == "query"]
    latencies = [r.ms for r in queries]
    busy = sum(end - begin for begin, end in out["cycle_spans"])
    probes: Probes = out["probes"]
    if probes.bad:
        checks.run(f"{probes.bad} stats probes failed")
    values = {
        "setup_s": out["setup_s"],
        "ops_per_s": len(queries) / busy,
        "op_ms_p50": percentile(latencies, 50).value,
        "ok_frac": checks.ok_frac,
        "protected_frac": prefix_quality(records, plan.updates),
        "rss_peak_mb": out["rss_peak_mb"],
    }
    p90 = percentile(latencies, 90)
    control = percentile(probes.latency_ms, 50)
    late = percentile(probes.late_ms, 99)
    loadgen = {
        "loadgen.op_ms_p90": p90.value if p90 else 0.0,
        "loadgen.control_ms_p50": control.value if control else 0.0,
        "loadgen.late_ms_p99": late.value if late else 0.0,
    }
    info = {
        "queries": len(queries),
        "cycles": len(out["cycle_spans"]),
        "cycle_ms": [round((end - begin) * 1000.0, 1) for begin, end in out["cycle_spans"]],
        "probes": len(probes.latency_ms),
        **loadgen,
    }
    spans = None
    if traced:
        values = dict(loadgen)
        values.update(replay(records, checks, out))
        spans = out["spans"]
    return values, info, spans
