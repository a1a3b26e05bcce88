"""Monte-Carlo simulation harness.

The paper's OPOAO figures report "the average results obtained by repeated
Monte Carlo simulation" (Section VI.B.2). :class:`MonteCarloSimulator`
is the one runner of that loop. Replica ``i`` always runs on
``rng.replica(i)``, whichever worker of the
:class:`~repro.exec.pool.ParallelExecutor` executes it, and comes home
as a compact :class:`ReplicaRecord`. The parent folds the records into a
:class:`SimulationAggregate` in replica order, so the aggregate is
bit-identical (means and Welford state alike) for every worker count,
for a run resumed from a checkpoint, and between the per-replica and
kernel paths' record folds. Deterministic models (DOAM) short-circuit to
a single run.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.diffusion.base import (
    DEFAULT_MAX_HOPS,
    INFECTED,
    PROTECTED,
    DiffusionModel,
    DiffusionOutcome,
    SeedSets,
)
from repro.exec.checkpoint import run_checkpointed, run_key
from repro.exec.pool import ParallelExecutor
from repro.graph.compact import IndexedDiGraph
from repro.obs.registry import metrics
from repro.rng import RngStream
from repro.utils.stats import RunningStats
from repro.utils.validation import check_positive

__all__ = [
    "MonteCarloSimulator",
    "ReplicaRecord",
    "SimulationAggregate",
    "WorldOutcomeView",
    "record_outcome",
]


class SimulationAggregate:
    """Replica-averaged diffusion statistics.

    Attributes:
        hops: the horizon all series are padded to.
        runs: number of replicas aggregated.
        infected_per_hop: mean cumulative infected nodes at each hop
            (length ``hops + 1``; hop 0 = seeds).
        protected_per_hop: mean cumulative protected nodes at each hop.
        final_infected: :class:`RunningStats` of the final infected count.
        final_protected: :class:`RunningStats` of the final protected count.
    """

    __slots__ = (
        "hops",
        "runs",
        "_infected_stats",
        "_protected_stats",
        "final_infected",
        "final_protected",
    )

    def __init__(self, hops: int) -> None:
        self.hops = hops
        self.runs = 0
        self._infected_stats = [RunningStats() for _ in range(hops + 1)]
        self._protected_stats = [RunningStats() for _ in range(hops + 1)]
        self.final_infected = RunningStats()
        self.final_protected = RunningStats()

    def add(self, outcome: DiffusionOutcome) -> None:
        """Fold one run's trace into the aggregate."""
        self.runs += 1
        for hop in range(self.hops + 1):
            self._infected_stats[hop].add(outcome.trace.infected_at(hop))
            self._protected_stats[hop].add(outcome.trace.protected_at(hop))
        self.final_infected.add(outcome.infected_count)
        self.final_protected.add(outcome.protected_count)

    def add_series(
        self,
        infected_series: Sequence[int],
        protected_series: Sequence[int],
        final_infected: int,
        final_protected: int,
    ) -> None:
        """Fold one replica's pre-extracted series in.

        The simulator ships each replica as plain integer series
        (already clamped to ``hops + 1`` entries); folding them here in
        replica order feeds the same values to the same
        :class:`RunningStats` sequence as :meth:`add` would on the
        original outcomes.
        """
        if len(infected_series) != self.hops + 1:
            raise ValueError(
                f"series must have {self.hops + 1} entries, "
                f"got {len(infected_series)}"
            )
        self.runs += 1
        for hop in range(self.hops + 1):
            self._infected_stats[hop].add(infected_series[hop])
            self._protected_stats[hop].add(protected_series[hop])
        self.final_infected.add(final_infected)
        self.final_protected.add(final_protected)

    @property
    def infected_per_hop(self) -> List[float]:
        """Mean cumulative infected count per hop."""
        return [stats.mean for stats in self._infected_stats]

    @property
    def protected_per_hop(self) -> List[float]:
        """Mean cumulative protected count per hop."""
        return [stats.mean for stats in self._protected_stats]

    def infected_stats_at(self, hop: int) -> RunningStats:
        """Full stats (mean/sd/min/max) of the infected count at a hop."""
        return self._infected_stats[min(hop, self.hops)]

    def merge(self, other: "SimulationAggregate") -> "SimulationAggregate":
        """Combine two aggregates over the same horizon."""
        if other.hops != self.hops:
            raise ValueError(
                f"cannot merge aggregates with hops {self.hops} != {other.hops}"
            )
        merged = SimulationAggregate(self.hops)
        merged.runs = self.runs + other.runs
        merged._infected_stats = [
            mine.merge(theirs)
            for mine, theirs in zip(self._infected_stats, other._infected_stats)
        ]
        merged._protected_stats = [
            mine.merge(theirs)
            for mine, theirs in zip(self._protected_stats, other._protected_stats)
        ]
        merged.final_infected = self.final_infected.merge(other.final_infected)
        merged.final_protected = self.final_protected.merge(other.final_protected)
        return merged

    def __repr__(self) -> str:
        return (
            f"SimulationAggregate(runs={self.runs}, hops={self.hops}, "
            f"final_infected={self.final_infected.mean:.1f})"
        )


class ReplicaRecord(NamedTuple):
    """One replica's outcome, reduced to the integers aggregation needs.

    Workers ship these instead of full outcome objects: the pickled
    payload stays small, and the parent rebuilds the aggregate and the
    bridge-end statistics without touching the states again.
    """

    #: cumulative infected count at hop 0..max_hops (clamped like the trace).
    infected_series: Tuple[int, ...]
    #: cumulative protected count at hop 0..max_hops.
    protected_series: Tuple[int, ...]
    final_infected: int
    final_protected: int
    #: (infected, protected, untouched) counts over the requested bridge ends.
    end_counts: Tuple[int, int, int]


def _end_counts(states: Sequence[int], end_ids: Sequence[int]) -> Tuple[int, int, int]:
    infected = protected = untouched = 0
    for end in end_ids:
        state = states[end]
        if state == INFECTED:
            infected += 1
        elif state >= PROTECTED:  # any positive campaign
            protected += 1
        else:
            untouched += 1
    return infected, protected, untouched


def record_outcome(outcome, max_hops: int, end_ids: Sequence[int]) -> ReplicaRecord:
    """Reduce one diffusion outcome to its :class:`ReplicaRecord`."""
    trace = outcome.trace
    return ReplicaRecord(
        tuple(trace.infected_at(hop) for hop in range(max_hops + 1)),
        tuple(trace.protected_at(hop) for hop in range(max_hops + 1)),
        outcome.infected_count,
        outcome.protected_count,
        _end_counts(outcome.states, end_ids),
    )


def _record_world(batch, world: int, max_hops: int, end_ids) -> ReplicaRecord:
    """One world of a kernel batch as its :class:`ReplicaRecord`."""
    return ReplicaRecord(
        tuple(batch.infected_at(world, hop) for hop in range(max_hops + 1)),
        tuple(batch.protected_at(world, hop) for hop in range(max_hops + 1)),
        batch.final_infected(world),
        batch.final_protected(world),
        _end_counts(batch.states[world], end_ids),
    )


def _records_to_state(records: List[ReplicaRecord]) -> dict:
    """JSON-serialisable checkpoint state for a replica-record prefix."""
    return {
        "records": [
            [
                list(record.infected_series),
                list(record.protected_series),
                record.final_infected,
                record.final_protected,
                list(record.end_counts),
            ]
            for record in records
        ]
    }


def _records_from_state(state: dict) -> List[ReplicaRecord]:
    return [
        ReplicaRecord(
            tuple(int(value) for value in row[0]),
            tuple(int(value) for value in row[1]),
            int(row[2]),
            int(row[3]),
            tuple(int(value) for value in row[4]),
        )
        for row in state["records"]
    ]


def _replica_setup(graph, payload):
    """Executor set-up: the shared run state, keyed off the shipped seed."""
    seed = payload["seed"]
    return {
        **payload,
        "graph": graph,
        "base": None if seed is None else RngStream(seed, name="replicas"),
    }


def _replica_chunk(state, replica_indices) -> List[ReplicaRecord]:
    """Executor task: run a chunk of replicas on their index streams."""
    model: DiffusionModel = state["model"]
    base = state["base"]
    records = []
    for replica_index in replica_indices:
        outcome = model.run(
            state["graph"],
            state["seeds"],
            rng=None if base is None else base.replica(replica_index),
            max_hops=state["max_hops"],
        )
        records.append(record_outcome(outcome, state["max_hops"], state["end_ids"]))
    registry = metrics()
    if registry.enabled:
        registry.counter("sim.worlds").add(len(replica_indices))
    return records


class WorldOutcomeView:
    """One world of a kernel batch, shaped like a ``DiffusionOutcome``.

    Exposes exactly the surface ``on_outcome`` callbacks consume
    (``states`` plus the final counts).
    """

    __slots__ = ("states", "infected_count", "protected_count")

    def __init__(self, batch, world: int) -> None:
        self.states = batch.states_row(world)
        self.infected_count = batch.final_infected(world)
        self.protected_count = batch.final_protected(world)


class MonteCarloSimulator:
    """Run a model over many replicas and aggregate in replica order.

    Args:
        model: any :class:`~repro.diffusion.base.DiffusionModel`.
        runs: replica count for stochastic models; deterministic models
            always run once.
        max_hops: horizon for every run (paper default: 31).
        backend: ``None`` runs the model per replica (the reference
            path); a kernel backend name (``"python"``/``"numpy"``/
            ``"auto"``) races all replicas in one batched kernel call
            instead. The model must be reducible to a kernel spec.
        executor: the :class:`~repro.exec.pool.ParallelExecutor` the
            per-replica path fans replica chunks out over (e.g. a pool
            the CLI already warmed during selection); ``None`` uses a
            private ``ParallelExecutor(1)``, which runs inline. Results
            are bit-identical whatever the worker count.
        checkpoint: a path or :class:`~repro.exec.checkpoint.\
            CheckpointStore` for the per-replica path; completed replica
            batches are saved under kind ``"mc"`` and a matching
            checkpoint resumes after its prefix bit-identically.
        checkpoint_every: replicas per checkpointed batch.

    Example:
        >>> # doctest setup omitted; see tests/diffusion/test_simulation.py
    """

    def __init__(
        self,
        model: DiffusionModel,
        runs: int = 200,
        max_hops: int = DEFAULT_MAX_HOPS,
        backend: Optional[str] = None,
        executor: Optional[ParallelExecutor] = None,
        checkpoint=None,
        checkpoint_every: int = 64,
    ) -> None:
        self.model = model
        self.runs = int(check_positive(runs, "runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.backend = backend
        self.executor = executor if executor is not None else ParallelExecutor(1)
        self.checkpoint = checkpoint
        self.checkpoint_every = int(
            check_positive(checkpoint_every, "checkpoint_every")
        )

    def simulate(
        self,
        graph: IndexedDiGraph,
        seeds: SeedSets,
        rng: Optional[RngStream] = None,
        on_outcome: Optional[Callable[[WorldOutcomeView], None]] = None,
    ) -> SimulationAggregate:
        """Run the configured replicas and return the aggregate.

        ``on_outcome`` is offered on the kernel path only, where it
        receives a :class:`WorldOutcomeView` per world in world order;
        per-replica callers read :meth:`simulate_detailed`'s records.
        """
        if on_outcome is not None and self.backend is None:
            raise ValueError(
                "on_outcome needs a kernel backend; per-replica callers "
                "read the records of simulate_detailed"
            )
        aggregate, _records = self._simulate(graph, seeds, rng, (), on_outcome)
        return aggregate

    def simulate_detailed(
        self,
        graph: IndexedDiGraph,
        seeds: SeedSets,
        rng: Optional[RngStream] = None,
        end_ids: Sequence[int] = (),
    ) -> Tuple[SimulationAggregate, List[ReplicaRecord]]:
        """Run the replicas; return the aggregate and every record.

        Args:
            graph: indexed graph.
            seeds: seed sets (node ids).
            rng: base stream; replica ``i`` runs on ``rng.replica(i)``.
                Required for stochastic models.
            end_ids: bridge ends whose final states each record
                classifies (``end_counts``).
        """
        return self._simulate(graph, seeds, rng, tuple(end_ids), None)

    def _simulate(self, graph, seeds, rng, end_ids, on_outcome):
        if self.model.stochastic and rng is None:
            raise ValueError(f"{self.model.name} is stochastic and needs an RngStream")
        with metrics().timer("time.simulate"):
            if self.backend is None:
                records = self._replica_records(graph, seeds, rng, end_ids)
            else:
                records = self._kernel_records(graph, seeds, rng, end_ids, on_outcome)
        aggregate = SimulationAggregate(self.max_hops)
        for record in records:  # replica order -> bit-identical on every path
            aggregate.add_series(
                record.infected_series,
                record.protected_series,
                record.final_infected,
                record.final_protected,
            )
        return aggregate, records

    def _replica_records(self, graph, seeds, rng, end_ids) -> List[ReplicaRecord]:
        stochastic = self.model.stochastic
        payload = {
            "model": self.model,
            "seeds": seeds,
            "seed": rng.seed if stochastic else None,
            "max_hops": self.max_hops,
            "end_ids": end_ids,
        }

        def run(start: int, stop: int) -> List[ReplicaRecord]:
            return self.executor.map_items(
                _replica_setup, _replica_chunk, payload, range(start, stop),
                graph=graph,
            )

        return run_checkpointed(
            self.checkpoint if stochastic else None,
            "mc",
            lambda: self._checkpoint_key(graph, seeds, rng, end_ids),
            self.runs if stochastic else 1,
            self.checkpoint_every,
            run,
            _records_to_state,
            _records_from_state,
        )

    def _kernel_records(self, graph, seeds, rng, end_ids, on_outcome):
        # Imported here (and from the leaf modules) so the zero-dependency
        # per-replica path never touches the kernels package.
        from repro.kernels.registry import resolve_backend
        from repro.kernels.spec import spec_for_model
        from repro.rng import derive_seed

        spec = spec_for_model(self.model)
        backend = resolve_backend(self.backend)
        batch = self.runs if spec.stochastic else 1
        seed = derive_seed(rng.seed, "mc-worlds") if rng is not None else 0
        worlds = backend.sample_worlds(
            graph, spec, batch, max_hops=self.max_hops, seed=seed
        )
        outcome = backend.run_worlds(graph, spec, worlds, seeds, self.max_hops)
        registry = metrics()
        if registry.enabled:
            registry.counter("sim.worlds").add(batch)
        records = []
        for world in range(batch):
            records.append(_record_world(outcome, world, self.max_hops, end_ids))
            if on_outcome is not None:
                on_outcome(WorldOutcomeView(outcome, world))
        return records

    def _checkpoint_key(self, graph, seeds, rng, end_ids) -> str:
        """Run-key fingerprint for Monte-Carlo checkpoints (sans runs).

        Every cascade seed set and the priority order are part of the key:
        a checkpoint written for a different cascade configuration (or by
        the pre-K-cascade engine, which keyed only rumors/protectors) must
        raise rather than silently seed a foreign resume.
        """
        return run_key(
            kind="mc",
            model=self.model.name,
            seed=rng.seed,
            max_hops=self.max_hops,
            nodes=graph.node_count,
            edges=graph.edge_count,
            cascades=[sorted(cascade) for cascade in seeds.cascades],
            priority=list(seeds.priority),
            ends=list(end_ids),
        )

    def __repr__(self) -> str:
        backend = f", backend={self.backend!r}" if self.backend else ""
        return (
            f"MonteCarloSimulator(model={self.model.name}, runs={self.runs}, "
            f"max_hops={self.max_hops}{backend})"
        )
