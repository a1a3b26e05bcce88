"""Incremental sketch repair: refresh == from-scratch resampling.

Property harness for the dynamic-graph path. The contract under test:

* **Bit-identity**: after any edge-mutation sequence,
  ``store.refresh(touched)`` leaves the store's flat arrays — members
  and their slacks — identical to a store sampled from scratch on the
  mutated graph with the same base seed, under OPOAO and DOAM, on both
  sketch backends and on both slack-check paths (NumPy and pure
  Python).
* **Exactness**: refresh replaces exactly the stored RR sets that
  differ from the from-scratch sets (the slack equations have one
  solution, so a set whose slacks still solve every touched node's
  equation is unchanged).
* **Statistical agreement** (different seeds): a refreshed store and an
  independently-seeded from-scratch store estimate the same σ̂ within
  the usual Monte-Carlo tolerance.
* Stores without slacks (checkpoints from before slacks were stored)
  fall back to resampling whole worlds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graph.compact import IndexedDiGraph
from repro.graph.generators import erdos_renyi
from repro.rng import RngStream
from repro.sketch import store as store_module
from repro.sketch.kernels import available_sketch_backends
from repro.sketch.rrset import DOAMRRSampler, OPOAORRSampler
from repro.sketch.store import SketchStore

NODES = 40
RUMOR = [0, 1]
ENDS = [10, 11, 12, 13]

#: Mutation batch kinds the properties draw from (see apply_mutation_step).
KINDS = ("toggle", "deadline", "unreach", "last_out", "end_row")


def build_graph(seed: int = 7) -> IndexedDiGraph:
    digraph = erdos_renyi(NODES, 0.08, rng=RngStream(seed), directed=True)
    return IndexedDiGraph.from_digraph(digraph)


def opoao_store(graph, worlds: int = 16, seed: int = 42, backend=None) -> SketchStore:
    sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(seed))
    return SketchStore(sampler, backend=backend).ensure_worlds(worlds)


def doam_store(graph, backend=None) -> SketchStore:
    return SketchStore(DOAMRRSampler(graph, RUMOR, ENDS), backend=backend).ensure_worlds(1)


def assert_stores_identical(actual: SketchStore, expected: SketchStore):
    assert actual._members == expected._members
    assert actual._slacks == expected._slacks
    assert actual._offsets == expected._offsets
    assert actual._roots == expected._roots
    assert actual._world_of == expected._world_of
    assert actual._sets_per_world == expected._sets_per_world
    assert actual.nodes() == expected.nodes()
    for node in expected.nodes():
        assert list(actual.sets_containing(node)) == list(
            expected.sets_containing(node)
        )


def stored_sets(store: SketchStore):
    """``{(world, root): (members, slacks)}`` for every stored RR set."""
    offsets = store._offsets
    return {
        (store._world_of[set_id], store._roots[set_id]): (
            tuple(store._members[offsets[set_id] : offsets[set_id + 1]]),
            tuple(store._slacks[offsets[set_id] : offsets[set_id + 1]]),
        )
        for set_id in range(store.set_count)
    }


def toggle(graph, tail, head, insertions, deletions, claimed):
    if tail == head or (tail, head) in claimed:
        return
    claimed.add((tail, head))
    if head in graph.out[tail]:
        deletions.append((tail, head))
    else:
        insertions.append((tail, head))


def apply_mutation_step(graph: IndexedDiGraph, step_rng: RngStream, kind="toggle"):
    """One random batch of the given kind; returns the touched ids.

    * ``toggle`` — flip up to 3 random (tail, head) pairs;
    * ``deadline`` — flip a rumor seed -> bridge end edge, which moves
      that end's deadline or at-risk status in many worlds;
    * ``unreach`` — delete every in-edge of one bridge end;
    * ``last_out`` — delete every out-edge of one node (its last one
      included);
    * ``end_row`` — flip an edge out of a bridge end and one into it.
    """
    insertions, deletions, claimed = [], [], set()
    if kind == "toggle":
        for _ in range(3):
            tail = step_rng.randrange(graph.node_count)
            head = step_rng.randrange(graph.node_count)
            toggle(graph, tail, head, insertions, deletions, claimed)
    elif kind == "deadline":
        toggle(
            graph,
            RUMOR[step_rng.randrange(len(RUMOR))],
            ENDS[step_rng.randrange(len(ENDS))],
            insertions,
            deletions,
            claimed,
        )
    elif kind == "unreach":
        end = ENDS[step_rng.randrange(len(ENDS))]
        deletions.extend((tail, end) for tail in graph.inn[end])
    elif kind == "last_out":
        tails = [node for node in range(graph.node_count) if graph.out[node]]
        tail = tails[step_rng.randrange(len(tails))]
        deletions.extend((tail, head) for head in graph.out[tail])
    elif kind == "end_row":
        end = ENDS[step_rng.randrange(len(ENDS))]
        other = step_rng.randrange(graph.node_count)
        toggle(graph, end, other, insertions, deletions, claimed)
        toggle(graph, step_rng.randrange(graph.node_count), end, insertions, deletions, claimed)
    else:  # pragma: no cover - test helper misuse
        raise ValueError(kind)
    return graph.apply_updates(insertions, deletions)


def check_refresh(graph, build, kinds, mutation_seed):
    """Refresh through ``kinds`` batches; each must equal a fresh build.

    Also checks exactness: the invalidated count is the number of stored
    sets a from-scratch store no longer holds unchanged, and the stale
    world count is the number of worlds whose sets differ.
    """
    store = build(graph)
    rng = RngStream(mutation_seed, name="mutations")
    for batch, kind in enumerate(kinds):
        before = stored_sets(store)
        touched = apply_mutation_step(graph, rng.fork("batch", batch), kind)
        worlds, invalidated = store.refresh(touched)
        scratch = build(graph)
        assert_stores_identical(store, scratch)
        after = stored_sets(scratch)
        changed = [key for key, value in before.items() if after.get(key) != value]
        added = [key for key in after if key not in before]
        assert invalidated == len(changed)
        assert worlds == len({world for world, _ in changed + added})


class TestRefreshBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=7),
        mutation_seed=st.integers(min_value=0, max_value=1000),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    )
    def test_refresh_equals_from_scratch(self, graph_seed, mutation_seed, kinds):
        check_refresh(build_graph(graph_seed), opoao_store, kinds, mutation_seed)

    @settings(max_examples=30, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=7),
        mutation_seed=st.integers(min_value=0, max_value=1000),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    )
    def test_doam_refresh_property(self, graph_seed, mutation_seed, kinds):
        check_refresh(build_graph(graph_seed), doam_store, kinds, mutation_seed)

    @pytest.mark.parametrize("backend", available_sketch_backends())
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_batch_kind_on_every_backend(self, backend, kind):
        def build(graph):
            return opoao_store(graph, backend=backend)

        for graph_seed in range(3):
            check_refresh(build_graph(graph_seed), build, [kind, kind], graph_seed)

    @pytest.mark.parametrize("semantics", ["opoao", "doam"])
    def test_python_slack_check_matches_numpy(self, monkeypatch, semantics):
        """The no-NumPy check path repairs to the same arrays."""
        build = opoao_store if semantics == "opoao" else doam_store
        monkeypatch.setattr(store_module, "_numpy", lambda: None)
        for graph_seed in range(3):
            check_refresh(build_graph(graph_seed), build, list(KINDS), graph_seed)

    def test_untouched_footprints_skip_resampling(self):
        """An edge between nodes no RR set or rumor pass can see changes nothing."""
        digraph = erdos_renyi(NODES, 0.02, rng=RngStream(3), directed=True)
        graph = IndexedDiGraph.from_digraph(digraph)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=3, rng=RngStream(42))
        store = SketchStore(sampler).ensure_worlds(4)
        members = set(store.nodes())
        # An isolated tail is never reached by the rumor, and its new row
        # picks only a non-member: every slack equation still holds.
        isolated = [
            node
            for node in range(NODES)
            if not graph.out[node] and not graph.inn[node] and node not in RUMOR
        ]
        outside = [node for node in range(NODES) if node not in members]
        assert isolated and len(outside) >= 2, "graph too dense for this fixture"
        head = next(node for node in outside if node != isolated[0])
        touched = graph.apply_updates([(isolated[0], head)], [])
        assert store.stale_worlds(touched) == []
        assert store.refresh(touched) == (0, 0)
        scratch = SketchStore(
            OPOAORRSampler(graph, RUMOR, ENDS, steps=3, rng=RngStream(42))
        ).ensure_worlds(4)
        assert_stores_identical(store, scratch)

    def test_refresh_counts(self):
        graph = build_graph()
        store = opoao_store(graph)
        before = stored_sets(store)
        tail = next(t for t in range(NODES) if graph.out[t])
        touched = graph.apply_updates([], [(tail, graph.out[tail][0])])
        stale = store.stale_worlds(touched)
        worlds, sets = store.refresh(touched)
        after = stored_sets(store)
        changed = [key for key, value in before.items() if after.get(key) != value]
        assert worlds == len(stale)
        assert sets == len(changed)

    def test_growth_after_refresh_stays_pure(self):
        """Doubling a refreshed store == sampling the larger size fresh."""
        graph = build_graph()
        store = opoao_store(graph, worlds=8)
        tail = next(t for t in range(NODES) if graph.out[t])
        touched = graph.apply_updates([], [(tail, graph.out[tail][0])])
        store.refresh(touched)
        store.ensure_worlds(16)
        assert_stores_identical(store, opoao_store(graph, worlds=16))

    def test_doam_refresh_equals_from_scratch(self):
        graph = build_graph(9)
        sampler = DOAMRRSampler(graph, RUMOR, ENDS)
        store = SketchStore(sampler).ensure_worlds(4)
        tail = next(t for t in range(NODES) if graph.out[t])
        touched = graph.apply_updates([], [(tail, graph.out[tail][0])])
        store.refresh(touched)
        scratch = SketchStore(
            DOAMRRSampler(graph, RUMOR, ENDS)
        ).ensure_worlds(4)
        assert_stores_identical(store, scratch)


class TestStatisticalAgreement:
    def test_refreshed_sigma_tracks_independent_seed(self):
        """A refreshed store and a fresh differently-seeded store agree
        statistically on σ̂ (they are independent estimators of the same
        quantity on the mutated graph)."""
        graph = build_graph()
        store = opoao_store(graph, worlds=64, seed=42)
        rng = RngStream(5, name="mutations")
        touched = apply_mutation_step(graph, rng)
        store.refresh(touched)
        other = opoao_store(graph, worlds=64, seed=1042)
        probe = [5, 20]
        mean_a, half_a = store.sigma_interval(probe, delta=0.05)
        mean_b, half_b = other.sigma_interval(probe, delta=0.05)
        assert abs(mean_a - mean_b) <= half_a + half_b + 1e-9


class TestInvalidationRules:
    def test_rejects_unknown_rule(self):
        store = opoao_store(build_graph())
        with pytest.raises(ValidationError):
            store.stale_worlds([0], rule="psychic")

    def test_members_rule_is_gone(self):
        store = opoao_store(build_graph())
        with pytest.raises(ValidationError):
            store.refresh([0], rule="members")


class TestSlackPersistence:
    def test_state_dict_roundtrips_slacks(self):
        graph = build_graph()
        store = opoao_store(graph)
        state = store.state_dict()
        restored = SketchStore(
            OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(42))
        ).load_state(state)
        assert restored._slacks == store._slacks
        assert_stores_identical(restored, store)

    def test_pre_slack_checkpoint_resamples_worlds(self):
        """Old checkpoints (footprints, no slacks) load; refresh resamples every world."""
        graph = build_graph()
        store = opoao_store(graph)
        state = store.state_dict()
        state.pop("slacks")
        state["footprints"] = [list(range(NODES))] * state["worlds"]
        restored = SketchStore(
            OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(42))
        ).load_state(state)
        assert restored._slacks is None
        assert restored.stale_worlds([0]) == list(range(restored.worlds))
        held = restored.set_count
        tail = next(t for t in range(NODES) if graph.out[t])
        touched = graph.apply_updates([], [(tail, graph.out[tail][0])])
        assert restored.refresh(touched) == (restored.worlds, held)
        assert_stores_identical(restored, opoao_store(graph))
