"""Differential + oracle suite for the batched sketch kernels.

The contract under test (see :mod:`repro.sketch.kernels`): for every
replica index, the ``numpy`` backend returns the same
:class:`~repro.sketch.rrset.WorldSample` — same ``rr_sets`` (roots and
sorted members) and the same per-member ``slacks`` — as the per-world
python samplers, for both OPOAO and DOAM semantics, and resampling a
subset of a world's ends returns exactly those ends' sets. Plus an
exact small-graph oracle for the batched DOAM depth-bounded reverse
BFS, the counter-keyed pick units, and registry degradation (this module
runs in the no-NumPy CI job; vectorized cases skip themselves).
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendUnavailableError, KernelError
from repro.graph.compact import IndexedDiGraph
from repro.graph.generators import erdos_renyi
from repro.rng import RngStream, counter_pick
from repro.sketch import kernels
from repro.sketch.kernels import (
    _RowTable,
    NumpySketchKernel,
    PythonSketchKernel,
    available_sketch_backends,
    at_risk_ends,
    counter_picks,
    register_sketch_backend,
    resolve_sketch_backend,
    sample_ends,
    sample_worlds,
)
from repro.sketch.rrset import DOAMRRSampler, OPOAORRSampler
from repro.sketch.store import SketchStore

try:
    import numpy

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-NumPy CI job
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

NODES = 30
RUMOR = [0, 1]
ENDS = [8, 9, 10, 11]


def build_graph(seed: int, p: float = 0.1) -> IndexedDiGraph:
    digraph = erdos_renyi(NODES, p, rng=RngStream(seed), directed=True)
    return IndexedDiGraph.from_digraph(digraph)


def assert_worlds_identical(expected, actual):
    assert len(expected) == len(actual)
    for reference, candidate in zip(expected, actual):
        assert candidate.index == reference.index
        assert candidate.rr_sets == reference.rr_sets
        assert candidate.slacks == reference.slacks


@needs_numpy
class TestOPOAODifferential:
    @settings(max_examples=15, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=50),
        rng_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_bit_identical_per_replica(self, graph_seed, rng_seed):
        graph = build_graph(graph_seed)

        def sampler():
            return OPOAORRSampler(
                graph, RUMOR, ENDS, steps=9, rng=RngStream(rng_seed)
            )

        reference = resolve_sketch_backend("python").sample(sampler(), range(6))
        vectorized = resolve_sketch_backend("numpy").sample(sampler(), range(6))
        assert_worlds_identical(reference, vectorized)

    def test_out_of_order_and_repeated_indices(self):
        graph = build_graph(3)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(21))
        shuffled = [5, 0, 3, 3, 1]
        vectorized = resolve_sketch_backend("numpy").sample(sampler, shuffled)
        reference = [sampler.sample_world(index) for index in shuffled]
        assert_worlds_identical(reference, vectorized)

    def test_horizon_past_frexp_range_defers_to_python(self):
        graph = build_graph(7)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=60, rng=RngStream(9))
        vectorized = resolve_sketch_backend("numpy").sample(sampler, range(3))
        reference = [sampler.sample_world(index) for index in range(3)]
        assert_worlds_identical(reference, vectorized)


def _bfs_distances(adjacency, sources):
    """Exact hop distances from ``sources`` over an adjacency list."""
    distance = {node: 0 for node in sources}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in distance:
                distance[neighbor] = distance[node] + 1
                queue.append(neighbor)
    return distance


@needs_numpy
class TestDOAMDifferentialAndOracle:
    @settings(max_examples=15, deadline=None)
    @given(graph_seed=st.integers(min_value=0, max_value=50))
    def test_bit_identical(self, graph_seed):
        graph = build_graph(graph_seed)
        reference = resolve_sketch_backend("python").sample(
            DOAMRRSampler(graph, RUMOR, ENDS), [0]
        )
        vectorized = resolve_sketch_backend("numpy").sample(
            DOAMRRSampler(graph, RUMOR, ENDS), [0]
        )
        assert_worlds_identical(reference, vectorized)

    @settings(max_examples=15, deadline=None)
    @given(graph_seed=st.integers(min_value=0, max_value=50))
    def test_exact_reverse_ball_oracle(self, graph_seed):
        """Batched DOAM == the brute-force membership criterion.

        ``u in RR(v)`` iff ``d(u -> v) <= t_R(v)`` (Theorem 2), checked
        against plain BFS distances with no shared code.
        """
        graph = build_graph(graph_seed)
        out = [list(graph.out[node]) for node in range(graph.node_count)]
        inn = [list(graph.inn[node]) for node in range(graph.node_count)]
        arrival = _bfs_distances(out, RUMOR)
        world = resolve_sketch_backend("numpy").sample(
            DOAMRRSampler(graph, RUMOR, ENDS), [0]
        )[0]
        rr_by_root = dict(world.rr_sets)
        assert sorted(rr_by_root) == sorted(
            end for end in ENDS if end in arrival
        )
        for (end, members), slacks in zip(world.rr_sets, world.slacks):
            reverse = _bfs_distances(inn, [end])
            oracle = tuple(
                sorted(
                    node
                    for node, depth in reverse.items()
                    if depth <= arrival[end]
                )
            )
            assert members == oracle
            # A member d reverse hops away may arrive d steps late.
            assert slacks == tuple(arrival[end] - reverse[node] for node in members)

    def test_cache_priming_preserves_forget_semantics(self):
        graph = build_graph(4)
        sampler = DOAMRRSampler(graph, RUMOR, ENDS)
        resolve_sketch_backend("numpy").sample(sampler, [0])
        assert sampler._cached is not None
        sampler.forget()
        assert sampler._cached is None


def _slack_oracle(sampler, index, end, deadline):
    """Max slacks by value iteration of the OPOAO slack equations.

    Starting from the root alone, every node's slack is raised to
    ``max{t - 1 : S(row[t]) >= t}`` until nothing moves — the unique
    solution, computed without any search order.
    """
    key = sampler.world_keys(index)[1]
    graph = sampler.graph
    slack = {end: deadline}
    changed = True
    while changed:
        changed = False
        for node in range(graph.node_count):
            if node == end:
                continue
            row = sampler._choice_row(key, node)
            best = max(
                (step - 1 for step, head in enumerate(row, 1) if slack.get(head, -1) >= step),
                default=-1,
            )
            if best > slack.get(node, -1):
                slack[node] = best
                changed = True
    members = tuple(sorted(slack))
    return members, tuple(slack[node] for node in members)


class TestSlacks:
    """Per-member slacks: python == numpy == the equations' solution."""

    @needs_numpy
    @settings(max_examples=15, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=50),
        rng_seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=1, max_value=12),
    )
    def test_python_and_numpy_slacks_identical(self, graph_seed, rng_seed, steps):
        graph = build_graph(graph_seed, p=0.12)
        for make in (
            lambda: OPOAORRSampler(graph, RUMOR, ENDS, steps=steps, rng=RngStream(rng_seed)),
            lambda: DOAMRRSampler(graph, RUMOR, ENDS, max_hops=steps),
        ):
            reference = resolve_sketch_backend("python").sample(make(), range(4))
            vectorized = resolve_sketch_backend("numpy").sample(make(), range(4))
            for python_world, numpy_world in zip(reference, vectorized):
                assert numpy_world.slacks == python_world.slacks
                assert numpy_world.packed() == python_world.packed()

    def test_slacks_solve_the_slack_equations(self):
        graph = build_graph(11, p=0.15)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=6, rng=RngStream(3))
        for index in range(4):
            world = sampler.sample_world(index)
            deadlines = dict(sampler.at_risk(index))
            assert [root for root, _ in world.rr_sets] == sorted(deadlines)
            for (end, members), slacks in zip(world.rr_sets, world.slacks):
                assert (members, slacks) == _slack_oracle(
                    sampler, index, end, deadlines[end]
                )


class TestSampleEnds:
    """Resampling some of a world's ends == those ends' sets in a full sample."""

    @pytest.mark.parametrize("backend", available_sketch_backends())
    @pytest.mark.parametrize("semantics", ["opoao", "doam"])
    def test_subset_equals_full_sample(self, backend, semantics):
        graph = build_graph(9, p=0.12)
        if semantics == "opoao":
            sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(5))
        else:
            sampler = DOAMRRSampler(graph, RUMOR, ENDS)
        indices = [3, 0, 7, 7]
        full = sample_worlds(sampler, indices, backend=backend)
        at_risk = at_risk_ends(sampler, indices, backend=backend)
        assert at_risk == [sampler.at_risk(index) for index in indices]
        requests = [(index, ends[::2]) for index, ends in zip(indices, at_risk)]
        partial = sample_ends(sampler, requests, backend=backend)
        for world, (index, ends), subset in zip(full, requests, partial):
            assert subset.index == index
            by_root = dict(zip(dict(world.rr_sets), world.slacks))
            members = dict(world.rr_sets)
            assert [root for root, _ in subset.rr_sets] == [end for end, _ in ends]
            for (root, subset_members), subset_slacks in zip(
                subset.rr_sets, subset.slacks
            ):
                assert subset_members == members[root]
                assert subset_slacks == by_root[root]

    def test_empty_request_yields_empty_world(self):
        graph = build_graph(9)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(5))
        for backend in available_sketch_backends():
            (world,) = sample_ends(sampler, [(4, [])], backend=backend)
            assert world.index == 4 and world.rr_sets == [] and world.slacks == []


class TestCounterPicks:
    DEGREES = (1, 2, 7, 1000, 1 << 31, (1 << 32) - 1)

    @needs_numpy
    def test_scalar_helper_equals_vector_form(self):
        chooser = random.Random(2024)
        keys = [0, (1 << 63) - 1] + [chooser.randrange(1 << 63) for _ in range(30)]
        for key in keys:
            steps = chooser.randint(1, 53)
            nodes = [chooser.randrange(1 << 20) for _ in range(6)]
            for degree in self.DEGREES:
                vector = counter_picks(
                    numpy,
                    key,
                    numpy.array(nodes)[:, None],
                    numpy.arange(1, steps + 1)[None, :],
                    steps,
                    degree,
                )
                scalar = [
                    [
                        counter_pick(key, node, step, steps, degree)
                        for step in range(1, steps + 1)
                    ]
                    for node in nodes
                ]
                assert vector.tolist() == scalar

    @needs_numpy
    def test_per_lane_keys_equal_scalar_keys(self):
        chooser = random.Random(99)
        keys = [chooser.randrange(1 << 63) for _ in range(5)] + [(1 << 63) - 1]
        nodes = numpy.array([chooser.randrange(1 << 20) for _ in keys])
        lanes = counter_picks(numpy, numpy.array(keys), nodes, 3, 8, 13)
        assert lanes.tolist() == [
            counter_pick(key, int(node), 3, 8, 13) for key, node in zip(keys, nodes)
        ]

    @needs_numpy
    def test_row_drawn_alone_equals_row_drawn_in_batch(self):
        graph = build_graph(5, p=0.3)
        data = NumpySketchKernel()._graph_data(graph)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=9)
        key = 1 << 62
        batch = numpy.array(
            [node for node in range(NODES) if graph.out[node]], dtype=numpy.int64
        )
        together = _RowTable(numpy, data, 9, [key])
        together.ensure(batch)
        for node in batch.tolist():
            alone = _RowTable(numpy, data, 9, [key])
            alone.ensure(numpy.array([node], dtype=numpy.int64))
            row = alone.rows_for(numpy.array([node]))[0].tolist()
            assert row == together.rows_for(numpy.array([node]))[0].tolist()
            assert tuple(row) == sampler._choice_row(key, node)

    def test_picks_fall_in_range(self):
        chooser = random.Random(7)
        for degree in self.DEGREES:
            for _ in range(300):
                pick = counter_pick(
                    chooser.randrange(1 << 63),
                    chooser.randrange(1 << 20),
                    chooser.randint(1, 53),
                    53,
                    degree,
                )
                assert 0 <= pick < degree

    def test_uniform_at_degree_seven(self):
        """Chi-square over 70k fixed-key picks stays under the 99.9% bound."""
        counts = [0] * 7
        for node in range(10_000):
            for step in range(1, 8):
                counts[counter_pick(0x5EED, node, step, 7, 7)] += 1
        expected = 70_000 / 7
        chi_square = sum((count - expected) ** 2 / expected for count in counts)
        assert chi_square < 22.46  # 6 degrees of freedom, p = 0.001


class TestRegistry:
    def test_python_backend_always_available(self):
        assert "python" in available_sketch_backends()
        assert resolve_sketch_backend("python").name == "python"

    def test_auto_degrades_to_fastest_available(self):
        backend = resolve_sketch_backend(None)
        assert backend.name == ("numpy" if HAVE_NUMPY else "python")
        assert resolve_sketch_backend("auto").name == backend.name

    def test_unknown_backend_raises(self):
        with pytest.raises(KernelError):
            resolve_sketch_backend("fortran")

    def test_missing_dependency_maps_to_backend_unavailable(self):
        def broken():
            raise ImportError("no such module")

        register_sketch_backend("broken-dep", broken)
        try:
            with pytest.raises(BackendUnavailableError):
                resolve_sketch_backend("broken-dep")
        finally:
            kernels._FACTORIES.pop("broken-dep", None)
            kernels._INSTANCES.pop("broken-dep", None)

    def test_python_kernel_delegates_to_sampler(self):
        graph = build_graph(2)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=6, rng=RngStream(8))
        worlds = PythonSketchKernel().sample(sampler, range(3))
        assert_worlds_identical(
            [sampler.sample_world(index) for index in range(3)], worlds
        )

    def test_sample_worlds_entry_point(self):
        graph = build_graph(2)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=6, rng=RngStream(8))
        worlds = sample_worlds(sampler, range(3), backend="python")
        assert [world.index for world in worlds] == [0, 1, 2]


class TestStoreBackends:
    def store(self, backend):
        graph = build_graph(6)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(77))
        return SketchStore(sampler, backend=backend).ensure_worlds(12)

    @needs_numpy
    def test_store_arrays_identical_across_backends(self):
        reference = self.store("python")
        vectorized = self.store("numpy")
        assert reference._members == vectorized._members
        assert reference._offsets == vectorized._offsets
        assert reference._roots == vectorized._roots
        assert reference._world_of == vectorized._world_of
        assert reference._sets_per_world == vectorized._sets_per_world
        assert reference._slacks == vectorized._slacks
        assert reference.nodes() == vectorized.nodes()
        for node in reference.nodes():
            assert list(reference.sets_containing(node)) == list(
                vectorized.sets_containing(node)
            )

    def test_auto_backend_store_matches_python(self):
        """backend=None (auto) must produce the python store's arrays."""
        assert self.store(None)._members == self.store("python")._members

    def test_postings_are_ascending_and_complete(self):
        store = self.store("python")
        seen = 0
        for node in store.nodes():
            postings = list(store.sets_containing(node))
            assert postings == sorted(postings)
            for set_id in postings:
                assert node in store.members(set_id)
            seen += len(postings)
        assert seen == len(store._members)
        assert list(store.sets_containing(10**6)) == []
