"""Flat-array storage for sampled RR sets, with adaptive sample control.

A :class:`SketchStore` owns the RR sets produced by a
:mod:`repro.sketch.rrset` sampler and answers the two queries selection
needs fast:

* **membership** — which RR sets contain node ``u`` (the inverted
  ``node -> set ids`` index; lazy-greedy max coverage is heap pops over
  these lists), and
* **coverage** — how many sets (per world) a candidate protector set
  intersects, which is the σ̂ estimate.

Sets are stored structure-of-arrays style: one flat int32 array of
member ids plus an offsets array, rather than a list of Python sets —
compact, cache-friendly, and cheap to extend. The inverted index is a
CSR-packed postings table (``node -> ascending set ids``) built lazily
from those arrays — with NumPy when available, via a counting sort
otherwise — and invalidated whenever a world is appended, so membership
queries return flat slices instead of per-node Python buckets and
coverage counts vectorise. Worlds are append-only and derived purely
from their replica index, so a store can **double** its sample size in
place (IMM-style sample-size control) without disturbing the sets
already drawn: growing a store from 32 to 64 worlds yields the same
arrays as sampling 64 worlds up front, which also makes stores safely
shareable across selector calls.

Sampling itself goes through :func:`repro.sketch.kernels.sample_worlds`
— the ``backend`` knob picks the batched kernel (``"numpy"``,
``"python"``, or auto) both for serial rounds and inside pool workers,
and every backend is bit-identical by contract.

The stopping rule is the classic relative-precision test: keep doubling
until the empirical (1 - δ)-confidence half-width of σ̂(A) is at most
ε · max(σ̂(A), 1). Deterministic samplers (DOAM) need exactly one world
and always report sufficient precision.

Dynamic graphs: every stored member carries its max slack (see
:mod:`repro.sketch.rrset`), in a flat int32 array aligned with the
members. When the sampler's graph mutates in place
(:meth:`repro.graph.compact.IndexedDiGraph.apply_updates` returns the
touched endpoint ids), :meth:`SketchStore.refresh` repairs the sketch
one RR set at a time: it reruns each world's rumor forward pass on the
mutated graph, then resamples **only** the sets whose end changed
at-risk status or deadline, or whose stored slacks violate some touched
node's slack equation. The slack equations have a unique solution and
an edge update changes only its tail's equation, so every other set is
exactly what a resample would return; it is kept as is. The refreshed
arrays are therefore bit-identical to a from-scratch store sampled on
the mutated graph with the same seed.

Because world ``i`` is a pure function of its index, a growth step is
embarrassingly parallel: with ``workers`` configured, each doubling
round fans contiguous index chunks out over a
:class:`repro.exec.pool.ParallelExecutor` (workers rebuild the sampler
from its graph-free payload) and appends the returned
:class:`~repro.sketch.rrset.WorldSample`\\ s **in index order** in the
parent — arrays, inverted index, and ``sketch.*`` metrics come out
bit-identical to a serial store.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.obs.registry import metrics
from repro.utils.validation import check_fraction, check_positive

__all__ = ["SketchStore"]


def _sampler_worker_setup(graph, payload):
    """Pool worker set-up: rebuild the RR sampler against the shared graph."""
    from repro.sketch.rrset import rebuild_sampler

    return rebuild_sampler(graph, payload["sampler"]), payload.get("backend")


def _sampler_worker_chunk(state, indices):
    """Pool worker task: sample a contiguous chunk of world indices."""
    from repro.sketch.kernels import sample_worlds

    sampler, backend = state
    return sample_worlds(sampler, indices, backend=backend)


def _repair_worker_chunk(state, requests):
    """Pool worker task: resample chosen ``(index, ends)`` requests."""
    from repro.sketch.kernels import sample_ends

    sampler, backend = state
    return sample_ends(sampler, requests, backend=backend)


def _numpy():
    """The numpy module, or ``None`` when it is not importable."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class SketchStore:
    """Append-only RR-set store with an inverted node index.

    Args:
        sampler: an object with ``sample_world(index) -> WorldSample``
            and a ``stochastic`` flag (see :mod:`repro.sketch.rrset`).
        workers: worker request for parallel world sampling (``None``/
            ``1`` serial, ``0`` one per CPU). Needs a sampler exposing
            ``worker_payload()``; contents are bit-identical either way.
        executor: a shared :class:`~repro.exec.pool.ParallelExecutor`
            to fan doubling rounds out over (its knobs then govern);
            ``None`` lazily builds a store-owned
            ``ParallelExecutor(workers)`` — either way the same warm
            pool serves every round.
        backend: sketch-kernel backend for world sampling (``"numpy"``,
            ``"python"``, or ``None``/``"auto"`` for the fastest
            available); applied serially and inside pool workers. All
            backends are bit-identical, so this is purely a speed knob.
    """

    __slots__ = (
        "sampler",
        "workers",
        "backend",
        "_executor",
        "worlds",
        "_members",
        "_offsets",
        "_roots",
        "_world_of",
        "_sets_per_world",
        "_node_ids",
        "_postings",
        "_world_np",
        "_slacks",
    )

    #: accepted ``rule=`` values of :meth:`stale_worlds` / :meth:`refresh`
    #: (one exact rule; the name is kept for existing callers).
    INVALIDATION_RULES = ("footprint",)

    def __init__(
        self,
        sampler,
        workers=None,
        executor=None,
        backend=None,
    ) -> None:
        self.sampler = sampler
        self.workers = workers
        self.backend = backend
        self._executor = executor
        #: number of worlds sampled so far.
        self.worlds = 0
        self._members = array("i")  # all RR-set members, concatenated
        self._offsets = array("q", [0])  # set i = members[offsets[i]:offsets[i+1]]
        self._roots = array("i")  # bridge end each set was grown from
        self._world_of = array("i")  # world index each set belongs to
        self._sets_per_world = array("i")
        self._node_ids: set = set()  # node ids appearing in any RR set
        # Lazily built CSR postings table: (indptr, set_ids, np module or
        # None). Invalidated whenever the set arrays grow or reset.
        self._postings = None
        self._world_np = None  # numpy copy of _world_of, same lifetime
        # Max slack of every member, aligned with _members; None once any
        # world arrives without slacks (a duck-typed sampler, or a
        # checkpoint from before slacks were stored).
        self._slacks: Optional[array] = array("i")

    # -- growth -----------------------------------------------------------------

    def ensure_worlds(self, count: int) -> "SketchStore":
        """Sample worlds up to ``count`` (no-op when already there)."""
        check_positive(count, "count")
        if not self.sampler.stochastic:
            count = min(count, 1)  # a deterministic sampler has one world
        if count > self.worlds > 0:
            metrics().inc("sketch.store_doublings")
        for world in self._sample_range(range(self.worlds, count)):
            self._append_world(world)
        return self

    def _sample_range(self, indices) -> List:
        """Worlds for ``indices`` in order, via the pool when configured.

        Serial rounds and pool workers both sample through
        :func:`repro.sketch.kernels.sample_worlds` with the store's
        ``backend``, so the batched kernels serve every path.
        """
        from repro.sketch.kernels import sample_worlds

        indices = list(indices)
        if not self._fans_out(len(indices)):
            return sample_worlds(self.sampler, indices, backend=self.backend)
        return self._pool_map(_sampler_worker_chunk, indices)

    def _sample_requests(self, requests) -> List:
        """Partial worlds for ``(index, ends)`` requests, via the pool when configured."""
        from repro.sketch.kernels import sample_ends

        if not self._fans_out(len(requests)):
            return sample_ends(self.sampler, requests, backend=self.backend)
        return self._pool_map(_repair_worker_chunk, requests)

    def _fans_out(self, item_count: int) -> bool:
        """Whether a round of ``item_count`` items goes to the pool.

        Not when the round is trivial, the sampler is deterministic (one
        cached world — nothing to fan out), or it cannot describe itself
        for worker-side rebuilding.
        """
        from repro.exec.pool import resolve_workers

        workers = (
            self._executor.workers if self._executor is not None
            else self.workers
        )
        return (
            resolve_workers(workers, item_count) > 1
            and item_count >= 2
            and getattr(self.sampler, "worker_payload", None) is not None
            and self.sampler.stochastic
        )

    def _pool_map(self, task, items) -> List:
        from repro.exec.pool import ParallelExecutor

        if self._executor is None:
            self._executor = ParallelExecutor(self.workers)
        return self._executor.map_items(
            _sampler_worker_setup,
            task,
            {"sampler": self.sampler.worker_payload(), "backend": self.backend},
            list(items),
            graph=self.sampler.graph,
        )

    def double(self, minimum: int = 32) -> "SketchStore":
        """IMM-style growth step: at least ``minimum``, else twice the worlds."""
        self.ensure_worlds(max(minimum, 2 * self.worlds))
        return self

    # -- incremental invalidation ------------------------------------------------

    def _check_rule(self, rule: str) -> None:
        if rule not in self.INVALIDATION_RULES:
            raise ValidationError(
                f"rule must be one of {self.INVALIDATION_RULES}, got {rule!r}"
            )

    def _repairable(self) -> bool:
        """Whether sets can be repaired one at a time (else whole worlds resample)."""
        return self._slacks is not None and all(
            hasattr(self.sampler, name)
            for name in ("at_risk", "sample_ends", "relays", "timed_relays")
        )

    def stale_worlds(
        self, touched: Iterable[int], rule: str = "footprint"
    ) -> List[int]:
        """World indices an edge-update batch changes (what :meth:`refresh` touches).

        Args:
            touched: endpoint ids of the mutated edges (what
                :meth:`~repro.graph.compact.IndexedDiGraph.apply_updates`
                returns), already applied to the sampler's graph.
            rule: ``"footprint"``, the one (exact) rule.
        """
        self._check_rule(rule)
        touched_ids = sorted(set(touched))
        if not touched_ids or self.worlds == 0:
            return []
        if not self._repairable():
            return list(range(self.worlds))
        replaced, requests = self._repair_plan(touched_ids)
        return sorted({self._world_of[set_id] for set_id in replaced} | set(requests))

    def refresh(
        self, touched: Iterable[int], rule: str = "footprint"
    ) -> Tuple[int, int]:
        """Repair the sketch after an edge-update batch.

        Reruns every world's rumor forward pass on the mutated graph,
        then resamples only the RR sets that change (see
        :meth:`_repair_plan`) and drops those whose end is no longer at
        risk; ends newly at risk get a fresh set. Sets keep their
        (world, end) order, so the arrays end up bit-identical to a
        from-scratch store on the mutated graph. Resampling fans out
        over the configured pool like any growth round. Stores without
        slacks (a duck-typed sampler, or a checkpoint from before slacks
        were stored) resample every world whole instead.

        Only freshly sampled sets count toward the ``sketch.*`` sampling
        metrics.

        Returns:
            ``(stale_world_count, invalidated_set_count)`` — the number
            of worlds whose sets changed and the number of previously
            stored RR sets replaced or dropped (what
            ``serve.rrsets.invalidated`` reports).
        """
        self._check_rule(rule)
        touched_ids = sorted(set(touched))
        forget = getattr(self.sampler, "forget", None)
        if forget is not None:
            forget()  # a cached deterministic world is stale wholesale
        if not touched_ids or self.worlds == 0:
            return 0, 0
        if not self._repairable():
            stale = self.worlds
            invalidated = self.set_count
            worlds = self._sample_range(range(self.worlds))
            self._reset()
            for world in worlds:
                self._append_world(world)
        else:
            replaced, requests = self._repair_plan(touched_ids)
            changed = {self._world_of[set_id] for set_id in replaced}
            stale = len(changed | set(requests))
            invalidated = len(replaced)
            if not stale:
                return 0, 0
            order = sorted(requests)
            fresh = self._sample_requests(
                [(world, requests[world]) for world in order]
            )
            self._splice(set(replaced), dict(zip(order, fresh)))
        registry = metrics()
        if registry.enabled:
            registry.counter("sketch.worlds_invalidated").add(stale)
            registry.counter("sketch.rrsets_invalidated").add(invalidated)
        return stale, invalidated

    def _repair_plan(
        self, touched: Sequence[int]
    ) -> Tuple[List[int], Dict[int, List[Tuple[int, int]]]]:
        """Which stored sets an update changes, and what to sample instead.

        A stored set changes exactly when its end left the at-risk set
        or moved its deadline, or its slacks fail some touched node's
        slack equation (the equations have one solution, and only the
        touched tails' equations differ on the mutated graph).

        Returns:
            ``(replaced, requests)``: ascending ids of the stored sets
            that change, and per world the ``(end, deadline)`` pairs to
            sample — replaced sets whose end is still at risk, plus ends
            newly at risk — in end order.
        """
        from repro.sketch.kernels import at_risk_ends

        at_risk = at_risk_ends(
            self.sampler, range(self.worlds), backend=self.backend
        )
        np_mod = _numpy()
        if np_mod is None:
            replaced = self._failing_sets_python(touched, at_risk)
        else:
            replaced = self._failing_sets_numpy(np_mod, touched, at_risk)
        replaced_roots: Dict[int, set] = {}
        for set_id in replaced:
            replaced_roots.setdefault(self._world_of[set_id], set()).add(
                self._roots[set_id]
            )
        requests: Dict[int, List[Tuple[int, int]]] = {}
        start = 0
        for world, pairs in enumerate(at_risk):
            stop = start + self._sets_per_world[world]
            held = set(self._roots[start:stop])
            start = stop
            gone = replaced_roots.get(world, ())
            wanted = [
                (end, deadline)
                for end, deadline in pairs
                if end not in held or end in gone
            ]
            if wanted:
                requests[world] = wanted
        return replaced, requests

    def _failing_sets_python(self, touched, at_risk) -> List[int]:
        """:meth:`_repair_plan`'s set test, one set at a time (no NumPy)."""
        members, slacks, offsets = self._members, self._slacks, self._offsets
        assert slacks is not None  # only repairable stores get here
        roots, world_of = self._roots, self._world_of

        def slack_in(set_id: int, node: int) -> int:
            lo, hi = offsets[set_id], offsets[set_id + 1]
            position = bisect_left(members, node, lo, hi)
            if position < hi and members[position] == node:
                return slacks[position]
            return -1

        deadline_of = [dict(pairs) for pairs in at_risk]
        failing = {
            set_id
            for set_id, root in enumerate(roots)
            if deadline_of[world_of[set_id]].get(root, -1)
            != slack_in(set_id, root)
        }
        sampler = self.sampler
        for node in touched:
            candidates = set(self.sets_containing(node))
            for head in set(sampler.graph.out[node]):
                candidates.update(self.sets_containing(head))
            rows: Dict[int, Tuple[int, ...]] = {}
            for set_id in sorted(candidates - failing):
                if roots[set_id] == node:
                    continue  # the root's slack is its deadline
                world = world_of[set_id]
                if world not in rows:
                    rows[world] = sampler.relays(world, node)
                expected = -1
                for step, head in enumerate(rows[world], start=1):
                    value = slack_in(set_id, head)
                    if sampler.timed_relays:
                        if value >= step:
                            expected = max(expected, step - 1)
                    else:
                        expected = max(expected, value - 1)
                if expected != slack_in(set_id, node):
                    failing.add(set_id)
        return sorted(failing)

    def _failing_sets_numpy(self, np_mod, touched, at_risk) -> List[int]:
        """:meth:`_repair_plan`'s set test, vectorised over all candidate sets.

        Members are ascending within each set and sets are in id order,
        so ``set_id * n + member`` is one sorted key array: any
        ``(set, node)`` slack is a ``searchsorted`` away. Candidates for
        a touched node are the postings of the node and of its
        out-neighbors — a set holding none of them has the node's
        equation satisfied at -1 on both sides.
        """
        int64 = np_mod.int64
        node_count = self.sampler.graph.node_count
        offsets = np_mod.array(self._offsets, dtype=int64)
        roots = np_mod.array(self._roots, dtype=int64)
        world_of = np_mod.array(self._world_of, dtype=int64)
        set_ids = np_mod.arange(len(roots), dtype=int64)
        keys = (
            np_mod.repeat(set_ids, np_mod.diff(offsets)) * node_count
            + np_mod.array(self._members, dtype=int64)
        )
        values = np_mod.array(self._slacks, dtype=int64)

        def lookup(table, table_values, wanted):
            if not len(table):
                return np_mod.full(wanted.shape, -1, dtype=int64)
            position = np_mod.minimum(
                np_mod.searchsorted(table, wanted), len(table) - 1
            )
            return np_mod.where(
                table[position] == wanted, table_values[position], -1
            )

        pair_keys = np_mod.array(
            [
                world * node_count + end
                for world, pairs in enumerate(at_risk)
                for end, _ in pairs
            ],
            dtype=int64,
        )
        pair_deadlines = np_mod.array(
            [deadline for pairs in at_risk for _, deadline in pairs],
            dtype=int64,
        )
        failing = lookup(
            pair_keys, pair_deadlines, world_of * node_count + roots
        ) != lookup(keys, values, set_ids * node_count + roots)
        sampler = self.sampler
        for node in touched:
            heads = sampler.graph.out[node]
            postings = [self.sets_containing(node)]
            postings.extend(self.sets_containing(head) for head in set(heads))
            candidates = np_mod.unique(
                np_mod.concatenate(
                    [np_mod.asarray(ids, dtype=int64) for ids in postings]
                )
            )
            candidates = candidates[
                (roots[candidates] != node) & ~failing[candidates]
            ]
            if not candidates.size:
                continue
            stored = lookup(keys, values, candidates * node_count + node)
            if heads:
                row_worlds, inverse = np_mod.unique(
                    world_of[candidates], return_inverse=True
                )
                table = np_mod.array(
                    [sampler.relays(int(world), node) for world in row_worlds],
                    dtype=int64,
                )
                relay_slacks = lookup(
                    keys,
                    values,
                    candidates[:, None] * node_count + table[inverse.ravel()],
                )
                if sampler.timed_relays:
                    steps = np_mod.arange(1, table.shape[1] + 1, dtype=int64)
                    expected = np_mod.where(
                        relay_slacks >= steps, steps - 1, -1
                    ).max(axis=1)
                else:
                    expected = np_mod.maximum(relay_slacks.max(axis=1) - 1, -1)
            else:
                expected = -1
            failing[candidates[stored != expected]] = True
        return np_mod.nonzero(failing)[0].tolist()

    def _splice(self, replaced: set, fresh: Dict[int, Any]) -> None:
        """Rebuild the arrays: drop ``replaced`` sets, merge in ``fresh`` ones.

        ``fresh`` maps a world index to a partial
        :class:`~repro.sketch.rrset.WorldSample`; within a world, kept and
        fresh sets interleave in end order.
        """
        registry = metrics()
        track = registry.enabled
        old_slacks = self._slacks
        assert old_slacks is not None  # only repairable stores get here
        members = array("i")
        slacks = array("i")
        offsets = array("q", [0])
        roots = array("i")
        world_of = array("i")
        sets_per_world = array("i")
        sampled_sets = sampled_members = 0
        start = 0
        for world in range(self.worlds):
            stop = start + self._sets_per_world[world]
            # (root, members, slacks, lo, hi, fresh) per set of this world.
            pieces = [
                (
                    self._roots[set_id],
                    self._members,
                    old_slacks,
                    self._offsets[set_id],
                    self._offsets[set_id + 1],
                    False,
                )
                for set_id in range(start, stop)
                if set_id not in replaced
            ]
            sample = fresh.get(world)
            if sample is not None:
                new_roots, new_offsets, new_members, new_slacks = sample.packed()
                pieces.extend(
                    (root, new_members, new_slacks, new_offsets[i], new_offsets[i + 1], True)
                    for i, root in enumerate(new_roots)
                )
            pieces.sort(key=lambda piece: piece[0])
            for root, source_members, source_slacks, lo, hi, is_fresh in pieces:
                members.extend(source_members[lo:hi])
                slacks.extend(source_slacks[lo:hi])
                offsets.append(len(members))
                roots.append(root)
                if is_fresh:
                    sampled_sets += 1
                    sampled_members += hi - lo
                    if track:
                        registry.histogram("sketch.rrset_size").observe(hi - lo)
            world_of.extend([world] * len(pieces))
            sets_per_world.append(len(pieces))
            start = stop
        self._members, self._slacks, self._offsets = members, slacks, offsets
        self._roots, self._world_of = roots, world_of
        self._sets_per_world = sets_per_world
        self._node_ids = set(members)
        self._postings = None
        self._world_np = None
        if track:
            registry.counter("sketch.rrsets_sampled").add(sampled_sets)
            registry.counter("sketch.rrset_members_stored").add(sampled_members)
            registry.set_gauge("sketch.index_nodes", len(self._node_ids))
            registry.set_gauge("sketch.set_count", len(self._roots))

    def _reset(self) -> None:
        """Empty every array (the sampler and knobs stay)."""
        self.worlds = 0
        self._members = array("i")
        self._slacks = array("i")
        self._offsets = array("q", [0])
        self._roots = array("i")
        self._world_of = array("i")
        self._sets_per_world = array("i")
        self._node_ids = set()
        self._postings = None
        self._world_np = None

    def _append_world(self, world) -> None:
        """Append one freshly sampled world's sets and count its sampling."""
        registry = metrics()
        track = registry.enabled
        packed = getattr(world, "packed", None)
        if packed is not None:
            roots, offsets, members, slacks = packed()
            set_count = len(roots)
            base = len(self._members)
            self._roots.extend(roots)
            self._world_of.extend([self.worlds] * set_count)
            self._members.extend(members)
            for position in range(set_count):
                self._offsets.append(base + offsets[position + 1])
                if track:
                    registry.histogram("sketch.rrset_size").observe(
                        offsets[position + 1] - offsets[position]
                    )
            self._node_ids.update(members)
        else:  # duck-typed world: fall back to the tuple view
            slacks = None
            set_count = len(world.rr_sets)
            for root, members in world.rr_sets:
                self._roots.append(root)
                self._world_of.append(self.worlds)
                self._members.extend(members)
                self._offsets.append(len(self._members))
                self._node_ids.update(members)
                if track:
                    registry.histogram("sketch.rrset_size").observe(len(members))
        if slacks is None:
            self._slacks = None  # unknown from here on: refresh resamples whole worlds
        elif self._slacks is not None:
            self._slacks.extend(slacks)
        self._postings = None
        self._world_np = None
        self.worlds += 1
        self._sets_per_world.append(set_count)
        if track:
            registry.counter("sketch.worlds_sampled").add(1)
            registry.counter("sketch.rrsets_sampled").add(set_count)
            registry.counter("sketch.rrset_members_stored").add(
                self._offsets[-1] - self._offsets[-1 - set_count]
            )
            registry.set_gauge("sketch.index_nodes", len(self._node_ids))
            registry.set_gauge("sketch.set_count", len(self._roots))

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the sampled worlds.

        Captures the flat arrays only — the sampler itself is rebuilt by
        the resuming run from its own configuration, and the inverted
        index is re-derived in :meth:`load_state`. Because worlds are
        pure functions of their index, a restored store is bit-identical
        to one that sampled the same rounds itself.
        """
        return {
            "worlds": self.worlds,
            "members": list(self._members),
            "slacks": None if self._slacks is None else list(self._slacks),
            "offsets": list(self._offsets),
            "roots": list(self._roots),
            "world_of": list(self._world_of),
            "sets_per_world": list(self._sets_per_world),
        }

    def load_state(self, state: Dict[str, object]) -> "SketchStore":
        """Restore a :meth:`state_dict` snapshot into this (empty) store.

        Restoration deliberately does **not** replay the ``sketch.*``
        metrics — the interrupted run already counted that sampling
        work; the resumed run only counts what it samples itself.
        Snapshots from before slacks were stored (they carry per-world
        ``footprints`` instead) restore without slacks, so a later
        :meth:`refresh` resamples whole worlds.
        """
        if self.worlds or self._roots:
            raise ValidationError(
                "load_state requires an empty store; build a fresh one"
            )
        self.worlds = int(state["worlds"])
        self._members = array("i", (int(v) for v in state["members"]))
        slacks = state.get("slacks")
        self._slacks = (
            None if slacks is None else array("i", (int(v) for v in slacks))
        )
        self._offsets = array("q", (int(v) for v in state["offsets"]))
        self._roots = array("i", (int(v) for v in state["roots"]))
        self._world_of = array("i", (int(v) for v in state["world_of"]))
        self._sets_per_world = array(
            "i", (int(v) for v in state["sets_per_world"])
        )
        self._node_ids = set(self._members)
        self._postings = None
        self._world_np = None
        return self

    # -- inspection -------------------------------------------------------------

    @property
    def set_count(self) -> int:
        """Total RR sets across all worlds."""
        return len(self._roots)

    @property
    def at_risk_total(self) -> int:
        """Sum over worlds of the number of at-risk bridge ends."""
        return len(self._roots)

    def members(self, set_id: int) -> Tuple[int, ...]:
        """Sorted member ids of one RR set."""
        lo, hi = self._offsets[set_id], self._offsets[set_id + 1]
        return tuple(self._members[lo:hi])

    def root(self, set_id: int) -> int:
        """The bridge end RR set ``set_id`` was grown from."""
        return self._roots[set_id]

    def world_of(self, set_id: int) -> int:
        """The world index RR set ``set_id`` belongs to."""
        return self._world_of[set_id]

    def _node_postings(self):
        """The CSR postings table ``(indptr, set_ids, np_module_or_None)``.

        ``set_ids[indptr[node]:indptr[node + 1]]`` are the ids of the RR
        sets containing ``node``, ascending. Built lazily — vectorized
        with NumPy when importable, by counting sort otherwise — and
        rebuilt from scratch after any append (appends batch, queries
        dominate). The arrays are *copies* of the member storage, so the
        store's own arrays stay free to grow.
        """
        cached = self._postings
        if cached is not None:
            return cached
        np_mod = _numpy()
        top = (max(self._node_ids) + 1) if self._node_ids else 0
        if np_mod is not None:
            members = np_mod.array(self._members, dtype=np_mod.int32)
            counts = np_mod.diff(np_mod.array(self._offsets, dtype=np_mod.int64))
            set_ids = np_mod.repeat(
                np_mod.arange(len(self._roots), dtype=np_mod.int32), counts
            )
            # Stable sort by node: within one node the original order —
            # and therefore the set ids — stay ascending.
            order = np_mod.argsort(members, kind="stable")
            postings = set_ids[order]
            indptr = np_mod.zeros(top + 1, dtype=np_mod.int64)
            if members.size:
                np_mod.cumsum(
                    np_mod.bincount(members, minlength=top), out=indptr[1:]
                )
            self._postings = (indptr, postings, np_mod)
            return self._postings
        counts_list = [0] * top
        for node in self._members:
            counts_list[node] += 1
        indptr_arr = array("q", [0] * (top + 1))
        for node in range(top):
            indptr_arr[node + 1] = indptr_arr[node] + counts_list[node]
        cursor = list(indptr_arr[:top])
        postings_arr = array("i", bytes(4 * len(self._members)))
        for set_id in range(len(self._roots)):
            for position in range(self._offsets[set_id], self._offsets[set_id + 1]):
                node = self._members[position]
                postings_arr[cursor[node]] = set_id
                cursor[node] += 1
        self._postings = (indptr_arr, postings_arr, None)
        return self._postings

    def sets_containing(self, node: int) -> Sequence[int]:
        """Ids of the RR sets containing ``node``, ascending (empty if none).

        Returns a flat slice of the CSR postings table (a NumPy array or
        machine array depending on availability), suitable for direct
        ``covered[ids]`` masking.
        """
        indptr, postings, _np_mod = self._node_postings()
        if 0 <= node < len(indptr) - 1:
            return postings[indptr[node] : indptr[node + 1]]
        return postings[:0]

    def nodes(self) -> List[int]:
        """All node ids appearing in at least one RR set, ascending."""
        return sorted(self._node_ids)

    # -- estimation -------------------------------------------------------------

    def _covered_set_ids(self, node_ids: Iterable[int]):
        """Distinct covered set ids: NumPy array, or a Python set."""
        indptr, postings, np_mod = self._node_postings()
        if np_mod is None:
            covered = set()
            for node in node_ids:
                if 0 <= node < len(indptr) - 1:
                    covered.update(postings[indptr[node] : indptr[node + 1]])
            return covered
        slices = [
            postings[indptr[node] : indptr[node + 1]]
            for node in node_ids
            if 0 <= node < len(indptr) - 1
        ]
        if not slices:
            return postings[:0]
        return np_mod.unique(np_mod.concatenate(slices))

    def coverage_count(self, node_ids: Iterable[int]) -> int:
        """Number of distinct RR sets intersecting ``node_ids``."""
        return len(self._covered_set_ids(node_ids))

    def per_world_covered(self, node_ids: Iterable[int]) -> List[int]:
        """Per-world count of RR sets intersecting ``node_ids``."""
        covered = self._covered_set_ids(node_ids)
        if isinstance(covered, set):
            counts = [0] * self.worlds
            for set_id in covered:
                counts[self._world_of[set_id]] += 1
            return counts
        np_mod = self._node_postings()[2]
        if self._world_np is None:
            self._world_np = np_mod.array(self._world_of, dtype=np_mod.int32)
        return np_mod.bincount(
            self._world_np[covered], minlength=self.worlds
        ).tolist()

    def sigma(self, node_ids: Iterable[int]) -> float:
        """σ̂: mean covered (= saved) bridge ends per world."""
        if self.worlds == 0:
            raise ValidationError("store holds no worlds; call ensure_worlds first")
        return self.coverage_count(node_ids) / self.worlds

    def sigma_interval(
        self, node_ids: Iterable[int], delta: float = 0.05
    ) -> Tuple[float, float]:
        """``(σ̂, half_width)`` of a (1 - δ)-confidence interval.

        Uses the per-world covered counts' empirical variance with the
        sub-Gaussian critical value ``sqrt(2 ln(1/δ))``. Deterministic
        samplers have zero variance and return half-width 0.
        """
        check_fraction(delta, "delta", exclusive=True)
        samples = self.per_world_covered(node_ids)
        count = len(samples)
        if count == 0:
            raise ValidationError("store holds no worlds; call ensure_worlds first")
        mean = sum(samples) / count
        if count == 1:
            return mean, (0.0 if not self.sampler.stochastic else math.inf)
        variance = sum((value - mean) ** 2 for value in samples) / (count - 1)
        critical = math.sqrt(2.0 * math.log(1.0 / delta))
        return mean, critical * math.sqrt(variance / count)

    def precision_ok(
        self, node_ids: Iterable[int], epsilon: float = 0.1, delta: float = 0.05
    ) -> bool:
        """True when σ̂(node_ids) meets the (ε, δ) relative-precision target.

        The target half-width is ``ε · max(σ̂, 1)`` — relative for sets
        with real influence, with an absolute floor of ε so zero-gain
        sets terminate too.
        """
        check_fraction(epsilon, "epsilon", exclusive=True)
        if not self.sampler.stochastic:
            return self.worlds >= 1
        mean, half_width = self.sigma_interval(node_ids, delta)
        return half_width <= epsilon * max(mean, 1.0)

    def __repr__(self) -> str:
        return (
            f"SketchStore(sampler={self.sampler.name}, worlds={self.worlds}, "
            f"sets={self.set_count}, nodes={len(self._node_ids)})"
        )
