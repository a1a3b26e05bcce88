"""Monte-Carlo conformance: every simulator path against the exact expectation.

On the 7-edge graph of ``tests/kernels/test_exact_oracle.py`` the whole
randomness space is enumerable, so the expected final infected count is
known exactly (OPOAO: the product of uniform picks per hop and node; IC
with ``p = 0.5``: all ``2^|E|`` equiprobable live-edge worlds). Each
path of :class:`~repro.diffusion.simulation.MonteCarloSimulator` must
land within an explicit Hoeffding bound of it: with ``n`` replicas of a
count in a range of width ``R``, ``P(|mean - E| >= t) <= δ`` for
``t = R * sqrt(ln(2 / δ) / (2 n))``. Seeds are fixed, so a failure is a
bias, not bad luck at ``δ = 1e-6``.
"""

import math

import pytest

from repro.diffusion.ic import CompetitiveICModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import MonteCarloSimulator
from repro.exec.pool import ParallelExecutor
from repro.kernels.registry import available_backends
from repro.rng import RngStream
from tests.kernels.test_exact_oracle import (
    MAX_HOPS,
    SEED_CONFIGS,
    enumerate_ic_worlds,
    enumerate_opoao_worlds,
    mean_infected,
    oracle_opoao,
    oracle_race,
    tiny_graph,
)

DELTA = 1e-6
RUNS = 800
OPOAO_HOPS = 3


def hoeffding_bound(runs: int, width: float) -> float:
    return width * math.sqrt(math.log(2.0 / DELTA) / (2.0 * runs))


def exact_opoao(seeds) -> float:
    graph = tiny_graph()
    _, worlds = enumerate_opoao_worlds(graph, OPOAO_HOPS)
    return mean_infected(
        [oracle_opoao(graph, seeds, picks, OPOAO_HOPS) for picks in worlds]
    )


def exact_ic(seeds) -> float:
    graph = tiny_graph()
    _, _, live_lists = enumerate_ic_worlds(graph)
    return mean_infected(
        [oracle_race(graph, seeds, live, MAX_HOPS) for live in live_lists]
    )


CASES = {
    "opoao": (OPOAOModel, OPOAO_HOPS, exact_opoao),
    "ic": (lambda: CompetitiveICModel(probability=0.5), MAX_HOPS, exact_ic),
}


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(2) as executor:
        yield executor


def simulators(model_factory, hops, pool, checkpoint):
    """Every path under test, by name (the resume path pre-runs half)."""
    yield "inline", MonteCarloSimulator(model_factory(), runs=RUNS, max_hops=hops)
    yield "pool", MonteCarloSimulator(
        model_factory(), runs=RUNS, max_hops=hops, executor=pool
    )
    yield "resumed", MonteCarloSimulator(
        model_factory(), runs=RUNS, max_hops=hops, checkpoint=checkpoint,
        checkpoint_every=100,
    )
    for backend in available_backends():
        yield backend, MonteCarloSimulator(
            model_factory(), runs=RUNS, max_hops=hops, backend=backend
        )


@pytest.mark.parametrize("seeds", SEED_CONFIGS, ids=["with-P", "no-P"])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_mean_final_infected_within_hoeffding_bound(kind, seeds, pool, tmp_path):
    model_factory, hops, exact_fn = CASES[kind]
    exact = exact_fn(seeds)
    indexed = tiny_graph().to_indexed()
    checkpoint = tmp_path / "mc.ckpt"
    MonteCarloSimulator(
        model_factory(), runs=RUNS // 2, max_hops=hops, checkpoint=checkpoint,
        checkpoint_every=100,
    ).simulate(indexed, seeds, rng=RngStream(2013))
    # Counts live in [1, node_count]: the rumor seed is always infected.
    bound = hoeffding_bound(RUNS, indexed.node_count - 1)
    finals = {}
    for name, simulator in simulators(model_factory, hops, pool, checkpoint):
        aggregate = simulator.simulate(indexed, seeds, rng=RngStream(2013))
        assert aggregate.runs == RUNS, name
        estimate = aggregate.final_infected.mean
        assert abs(estimate - exact) <= bound, (name, estimate, exact, bound)
        finals[name] = aggregate.final_infected
    # The per-replica paths share replica streams: one identical sample.
    for name in ("pool", "resumed"):
        assert finals[name].mean == finals["inline"].mean, name
        assert finals[name].variance == finals["inline"].variance, name
