"""Batched RR-set sampling kernels: python / numpy backends, bit-identical.

The per-world samplers in :mod:`repro.sketch.rrset` are pure functions of
their replica index, so a batched kernel that races many worlds over the
graph's CSR arrays can replace them wholesale — provided it reproduces
every draw bit for bit. This module provides that kernel layer, mirroring
the :mod:`repro.kernels` registry the forward simulators use:

* ``python`` — the reference backend: a per-world loop over
  ``sampler.sample_world`` (always available, trivially identical);
* ``numpy`` — vectorized batched sampling on CSR arrays;
* ``auto`` — the fastest backend that loads, degrading silently.

**Bit-identity contract.** For every replica index, backends return the
same :class:`~repro.sketch.rrset.WorldSample` — same ``rr_sets`` (roots,
sorted members), same per-member ``slacks`` — as the per-world python
samplers, and the same ``(end, deadline)`` lists from :func:`at_risk_ends`.
:class:`repro.sketch.store.SketchStore` therefore produces the same
arrays whichever backend samples, serially or across pool workers, and
:meth:`~repro.sketch.store.SketchStore.refresh` stays exact. The
differential suite (``tests/sketch/test_sketch_kernels.py``) enforces
the contract property-style.

**Repair entry points.** A refresh needs two slices of a world rather
than the whole: :func:`at_risk_ends` runs only the rumor forward pass
(which ends are at risk, by which deadline), and :func:`sample_ends`
runs only the reverse searches of chosen ``(world, end)`` pairs. A
full world is exactly the second applied to the first.

**Counter-keyed draws.** Every OPOAO draw is
:func:`repro.rng.counter_pick`: node ``u``'s pick at step ``t`` is
``((splitmix64(key + u * steps + t) >> 32) * deg(u)) >> 32``, with one
key per world and purpose — ``derive_seed(world, "rumor")`` for the
rumor record, ``derive_seed(world, "choices")`` for the shared choice
table. A pick depends only on those coordinates: there is no stream to
replay and no draw order to match, so the python loop and the uint64
lanes of :func:`counter_picks` draw identical numbers on every backend.
Multiply-shift scaling biases each pick by at most ``deg(u) / 2**32``.

How the numpy backend evaluates a batch of worlds (every op runs over
``(world, node)`` lanes, each lane drawing under its world's key):

* **Rumor cascade.** One vector pick per step over the whole active set
  (reached nodes with out-neighbors that arrived before the step),
  recording first arrivals and the first event step into every node
  (which is exactly ``min_in_timestamp`` at the bridge ends).
* **Choice rows** are drawn on first touch, every row a reverse level
  needs in one vector op.
* **Reverse max-slack search** runs as a level-order integer Dijkstra
  over a ``(world, end) x nodes`` slack matrix: levels descend from the
  deadlines, and since relays only lower slack, the pairs sitting at a
  level are final when it is reached; each level relaxes them in one
  vectorized sweep (pick bitmasks built bit by bit; the highest
  permitted set bit recovered through ``frexp``). The fixpoint —
  membership and every member's slack — equals the per-end heap
  Dijkstra's, because the slack equations have one solution.

Deterministic DOAM needs no randomness: the backend vectorizes the
forward BFS and the depth-bounded reverse balls (a member ``d`` hops
from its end has slack ``depth - d``), priming the sampler's
single-world cache so serve/refresh cache semantics are unchanged.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendUnavailableError, KernelError
from repro.rng import (
    SPLITMIX_GAMMA,
    SPLITMIX_MUL1,
    SPLITMIX_MUL2,
)
from repro.sketch.rrset import DOAMRRSampler, OPOAORRSampler, WorldSample

__all__ = [
    "SKETCH_BACKEND_AUTO",
    "at_risk_ends",
    "available_sketch_backends",
    "counter_picks",
    "register_sketch_backend",
    "resolve_sketch_backend",
    "sample_ends",
    "sample_worlds",
    "PythonSketchKernel",
    "NumpySketchKernel",
]

#: Resolve to the fastest sketch backend that loads.
SKETCH_BACKEND_AUTO = "auto"

#: Preference order for ``auto`` resolution (fastest first).
_AUTO_ORDER = ("numpy", "python")

#: Pick bitmasks must stay exactly representable in float64 for the
#: ``frexp`` highest-bit trick; beyond this the kernel defers to python.
_MAX_FREXP_STEPS = 53

#: Slack-matrix budget (rows-per-block x node_count cells). It also
#: bounds the per-level temporaries, which grow with the block's rows.
_BLOCK_CELLS = 1 << 15

#: Budget of one batch's pick-bitmask cache (worlds-per-batch x edges).
_MASK_CELLS = 1 << 20


def counter_picks(np_mod, key, nodes, step, steps: int, degrees):
    """:func:`repro.rng.counter_pick` over broadcast uint64 lanes.

    ``key`` is one int, or an integer array of per-lane keys; it,
    ``nodes``, ``step`` and ``degrees`` broadcast against each other
    (degrees below ``2**32``). Returns the int64 picks, each in
    ``[0, degree)``. Unsigned array arithmetic wraps mod ``2**64``
    exactly like the scalar form's masking.
    """
    uint64 = np_mod.uint64
    counters = np_mod.asarray(nodes * steps + step, dtype=np_mod.int64)
    if isinstance(key, int):
        offset = uint64((key + SPLITMIX_GAMMA) % (1 << 64))
    else:
        offset = np_mod.asarray(key).astype(uint64) + uint64(SPLITMIX_GAMMA)
    z = counters.astype(uint64) + offset
    z = (z ^ (z >> uint64(30))) * uint64(SPLITMIX_MUL1)
    z = (z ^ (z >> uint64(27))) * uint64(SPLITMIX_MUL2)
    z ^= z >> uint64(31)
    scaled = (z >> uint64(32)) * np_mod.asarray(degrees).astype(uint64)
    return (scaled >> uint64(32)).astype(np_mod.int64)


class PythonSketchKernel:
    """Reference backend: the per-world samplers, one index at a time."""

    name = "python"

    def sample(self, sampler, indices: Sequence[int]) -> List[WorldSample]:
        """Worlds for ``indices`` in order (definitionally bit-identical)."""
        return [sampler.sample_world(int(index)) for index in indices]

    def at_risk(self, sampler, indices: Sequence[int]) -> List[List[Tuple[int, int]]]:
        """Each world's ``(end, deadline)`` pairs, in ``indices`` order."""
        return [sampler.at_risk(int(index)) for index in indices]

    def sample_ends(self, sampler, requests) -> List[WorldSample]:
        """One partial world per ``(index, [(end, deadline), ...])`` request."""
        return [sampler.sample_ends(int(index), ends) for index, ends in requests]


class _GraphData:
    """CSR + reverse-CSR arrays for one graph snapshot."""

    __slots__ = (
        "csr_ref",
        "node_count",
        "indptr",
        "indices",
        "out_deg",
        "in_indptr",
        "in_indices",
        "in_deg",
        "in_heads",
    )


class _RowTable:
    """Choice rows drawn on first touch, for a batch of worlds.

    Slot ``s`` draws under ``keys[s]``; the row of ``node`` in slot ``s``
    has id ``s * n + node``.
    """

    __slots__ = ("_np", "_data", "_keys", "_step_range", "table", "position", "count")

    def __init__(self, np_mod, data: _GraphData, steps: int, keys) -> None:
        self._np = np_mod
        self._data = data
        self._keys = np_mod.array(keys, dtype=np_mod.uint64)
        self._step_range = np_mod.arange(1, steps + 1, dtype=np_mod.int64)
        self.table = np_mod.empty((0, steps), dtype=np_mod.int32)
        self.position = np_mod.full(
            len(keys) * data.node_count, -1, dtype=np_mod.int64
        )
        self.count = 0

    def ensure(self, row_ids) -> None:
        """Draw, in one vector op, every row in ``row_ids`` not drawn yet.

        Duplicates in ``row_ids`` are drawn once.
        """
        np_mod = self._np
        missing = _distinct(np_mod, row_ids[self.position[row_ids] < 0], self.position)
        if missing.size == 0:
            return
        start = self.count
        needed = start + int(missing.size)
        if needed > len(self.table):
            capacity = max(256, 2 * len(self.table))
            while capacity < needed:
                capacity *= 2
            grown = np_mod.empty(
                (capacity, self.table.shape[1]), dtype=np_mod.int32
            )
            grown[:start] = self.table[:start]
            self.table = grown
        data = self._data
        slots, nodes = np_mod.divmod(missing, data.node_count)
        column = nodes[:, None]
        picks = counter_picks(
            np_mod,
            self._keys[slots][:, None],
            column,
            self._step_range[None, :],
            len(self._step_range),
            data.out_deg[column],
        )
        self.table[start:needed] = data.indices[data.indptr[column] + picks]
        self.position[missing] = np_mod.arange(start, needed)
        self.count = needed

    def rows_for(self, row_ids):
        return self.table[self.position[row_ids]]


class NumpySketchKernel:
    """Vectorized batched RR sampling on CSR arrays (bit-identical)."""

    name = "numpy"

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        # Keyed by id() of the graph's memoized CSR export; the strong
        # reference inside each entry keeps that id stable, and a mutated
        # graph re-exports a fresh CSR object so stale hits are impossible.
        self._graphs: Dict[int, _GraphData] = {}

    # -- graph arrays ------------------------------------------------------------

    def _graph_data(self, graph) -> _GraphData:
        np_mod = self._np
        csr = graph.csr()
        cached = self._graphs.get(id(csr))
        if cached is not None and cached.csr_ref is csr:
            return cached
        data = _GraphData()
        data.csr_ref = csr
        data.indptr = np_mod.asarray(csr.indptr, dtype=np_mod.int64)
        data.indices = np_mod.asarray(csr.indices, dtype=np_mod.int64)
        node_count = len(data.indptr) - 1
        data.node_count = node_count
        data.out_deg = np_mod.diff(data.indptr)
        edge_tails = np_mod.repeat(
            np_mod.arange(node_count, dtype=np_mod.int64), data.out_deg
        )
        order = np_mod.argsort(data.indices, kind="stable")
        data.in_indices = edge_tails[order]
        in_counts = np_mod.bincount(data.indices, minlength=node_count)
        data.in_indptr = np_mod.concatenate(
            (np_mod.zeros(1, dtype=np_mod.int64), np_mod.cumsum(in_counts))
        )
        data.in_deg = np_mod.diff(data.in_indptr)
        # Head node of every reverse-CSR edge position (for mask filling).
        data.in_heads = np_mod.repeat(
            np_mod.arange(node_count, dtype=np_mod.int64), data.in_deg
        )
        if len(self._graphs) >= 4:  # tiny LRU: serve holds few live graphs
            self._graphs.pop(next(iter(self._graphs)))
        self._graphs[id(csr)] = data
        return data

    @staticmethod
    def _ragged_positions(np_mod, starts, counts, total: int):
        """Flat edge positions of the ragged rows ``[starts, starts+counts)``."""
        offsets = np_mod.cumsum(counts) - counts
        return np_mod.repeat(starts - offsets, counts) + np_mod.arange(total)

    # -- OPOAO -------------------------------------------------------------------

    def _opoao_at_risk(
        self, sampler, data: _GraphData, keys: Sequence[int]
    ) -> List[List[Tuple[int, int]]]:
        """Vectorized :meth:`OPOAORRSampler.at_risk` for a batch of rumor keys.

        Runs :func:`repro.diffusion.timestamps.record_cascade` once per
        key, all worlds in the same vector ops, keeping only per-node
        minima: the first arrival step (which fixes who draws at each
        step) and the first event step into a node (the min preserved
        in-timestamp there — an end's deadline). Every reached node with
        out-neighbors that arrived before ``step`` picks at ``step``;
        entries are ``slot * n + node``, slot ``s`` drawing under
        ``keys[s]``.
        """
        np_mod = self._np
        node_count = data.node_count
        cells = len(keys) * node_count
        arrival = np_mod.full(cells, -1, dtype=np_mod.int64)
        first_event = np_mod.full(cells, -1, dtype=np_mod.int64)
        key_array = np_mod.array(keys, dtype=np_mod.uint64)
        seeds = (
            np_mod.arange(len(keys), dtype=np_mod.int64)[:, None] * node_count
            + np_mod.array(sampler.rumor_ids, dtype=np_mod.int64)[None, :]
        ).ravel()
        arrival[seeds] = 0
        indptr, indices, out_deg = data.indptr, data.indices, data.out_deg
        active = seeds[out_deg[seeds % node_count] > 0]
        steps = sampler.steps
        for step in range(1, steps + 1):
            if active.size == 0:
                break  # no node can ever draw again
            slots, nodes = np_mod.divmod(active, node_count)
            picks = counter_picks(
                np_mod, key_array[slots], nodes, step, steps, out_deg[nodes]
            )
            heads = indices[indptr[nodes] + picks] + slots * node_count
            first_event[heads[first_event[heads] < 0]] = step
            fresh = _distinct(np_mod, heads[arrival[heads] < 0], arrival)
            if fresh.size:
                arrival[fresh] = step
                active = np_mod.concatenate(
                    (active, fresh[out_deg[fresh % node_count] > 0])
                )
        end_ids = sampler.end_ids
        deadlines = first_event.reshape(len(keys), node_count)[:, end_ids]
        return [
            [(end, deadline) for end, deadline in zip(end_ids, row) if deadline >= 0]
            for row in deadlines.tolist()
        ]

    def _relax_block(
        self,
        data: _GraphData,
        steps: int,
        block: List[Tuple[int, int, int]],
        row_table: _RowTable,
        edge_masks,
        edge_done,
    ):
        """Level-order integer Dijkstra over the block's slack matrix.

        ``block`` holds ``(slot, end, deadline)`` rows, possibly from
        several worlds of one batch. ``S[r, x]`` is the latest arrival
        step at ``x`` that still relays to row ``r``'s end by its
        deadline. Levels descend, so each (row, node) pair is expanded
        exactly once, at its final slack — matching the per-end heap
        Dijkstra's pop set.

        ``edge_masks``/``edge_done`` cache the pick bitmask per (slot,
        reverse-CSR edge position) across rows and blocks of the batch
        (the mask depends only on the tail's row and the head), so each
        edge's row comparison runs once per world, not once per end.
        """
        np_mod = self._np
        node_count = data.node_count
        edge_count = len(data.in_indices)
        # Slacks never exceed the horizon (<= _MAX_FREXP_STEPS), so int8 holds them.
        slack = np_mod.full((len(block), node_count), -1, dtype=np_mod.int8)
        flat = slack.ravel()
        slot_of_row = np_mod.array(
            [slot for slot, _end, _deadline in block], dtype=np_mod.int64
        )
        for position, (_slot, end, deadline) in enumerate(block):
            slack[position, end] = deadline
        top = max(deadline for _slot, _end, deadline in block)
        in_indptr, in_indices, in_deg = (
            data.in_indptr,
            data.in_indices,
            data.in_deg,
        )
        for level in range(top, 0, -1):
            # Relays only lower slack, so every pair at this level is final.
            keys = np_mod.flatnonzero(flat == level)
            if keys.size == 0:
                continue
            key_rows, nodes = np_mod.divmod(keys, node_count)
            counts = in_deg[nodes]
            total = int(counts.sum())
            if total == 0:
                continue
            positions = self._ragged_positions(
                np_mod, in_indptr[nodes], counts, total
            )
            tails = in_indices[positions]
            edge_rows = np_mod.repeat(key_rows, counts)
            cached = slot_of_row[edge_rows] * edge_count + positions
            fresh = cached[~edge_done[cached]]
            if fresh.size:
                fresh_slots, fresh_positions = np_mod.divmod(fresh, edge_count)
                row_ids = fresh_slots * node_count + in_indices[fresh_positions]
                row_table.ensure(row_ids)
                picked = (
                    row_table.rows_for(row_ids)
                    == data.in_heads[fresh_positions][:, None]
                )
                # Bit t-1 set <=> the tail picks this head at step t.
                masks = np_mod.zeros(fresh.size, dtype=edge_masks.dtype)
                for bit in range(steps):
                    masks[picked[:, bit]] |= 1 << bit
                edge_masks[fresh] = masks
                edge_done[fresh] = True
            # The highest set bit at or below min(level, steps) is the
            # latest usable pick; its index is the candidate slack.
            allowed = edge_masks[cached] & ((1 << min(level, steps)) - 1)
            _mant, exponents = np_mod.frexp(allowed.astype(np_mod.float64))
            candidates = exponents.astype(np_mod.int8) - 1
            targets = edge_rows * node_count + tails
            improved = candidates > flat[targets]
            np_mod.maximum.at(flat, targets[improved], candidates[improved])
        return slack

    def _opoao_sets(
        self, sampler, data: _GraphData, requests
    ) -> List[WorldSample]:
        """One batch of ``(index, ends)`` requests, all worlds relaxed together."""
        np_mod = self._np
        node_count = data.node_count
        row_table = _RowTable(
            np_mod,
            data,
            sampler.steps,
            [sampler.world_keys(index)[1] for index, _ends in requests],
        )
        pairs = [
            (slot, end, deadline)
            for slot, (_index, ends) in enumerate(requests)
            for end, deadline in ends
        ]
        pieces: List[List[Tuple[int, Any, Any]]] = [[] for _ in requests]
        if pairs:
            cells = len(requests) * len(data.in_indices)
            edge_masks = np_mod.zeros(cells, dtype=_mask_dtype(np_mod, sampler.steps))
            edge_done = np_mod.zeros(cells, dtype=bool)
            block_size = max(1, _BLOCK_CELLS // max(node_count, 1))
            for start in range(0, len(pairs), block_size):
                block = pairs[start : start + block_size]
                slack = self._relax_block(
                    data,
                    sampler.steps,
                    block,
                    row_table,
                    edge_masks,
                    edge_done,
                )
                rows, members = np_mod.nonzero(slack >= 0)
                values = slack[rows, members].astype(np_mod.int32)
                members = members.astype(np_mod.int32)
                bounds = np_mod.searchsorted(
                    rows, np_mod.arange(len(block) + 1)
                ).tolist()
                for position, (slot, end, _deadline) in enumerate(block):
                    lo, hi = bounds[position], bounds[position + 1]
                    pieces[slot].append((end, members[lo:hi], values[lo:hi]))
        return [
            _packed_world(np_mod, index, pieces[slot])
            for slot, (index, _ends) in enumerate(requests)
        ]

    # -- DOAM --------------------------------------------------------------------

    def _doam_at_risk(self, sampler) -> List[Tuple[int, int]]:
        """Vectorized :meth:`DOAMRRSampler.at_risk`: a frontier BFS."""
        np_mod = self._np
        data = self._graph_data(sampler.graph)
        distance = np_mod.full(data.node_count, -1, dtype=np_mod.int64)
        frontier = np_mod.array(sampler.rumor_ids, dtype=np_mod.int64)
        distance[frontier] = 0
        for hop in range(sampler.max_hops):
            counts = data.out_deg[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            positions = self._ragged_positions(
                np_mod, data.indptr[frontier], counts, total
            )
            heads = np_mod.unique(data.indices[positions])
            heads = heads[distance[heads] < 0]
            if heads.size == 0:
                break
            distance[heads] = hop + 1
            frontier = heads
        return [
            (end, int(distance[end]))
            for end in sampler.end_ids
            if distance[end] >= 0
        ]

    def _doam_sets(
        self, sampler, index: int, ends: Sequence[Tuple[int, int]]
    ) -> WorldSample:
        """The reverse balls (with slacks) of ``ends``."""
        data = self._graph_data(sampler.graph)
        stamp = self._np.full(data.node_count, -1, dtype=self._np.int64)
        rr_sets: List[Tuple[int, List[int]]] = []
        slacks: List[List[int]] = []
        for mark, (end, depth) in enumerate(ends):
            members, member_slacks = self._reverse_ball(
                data, stamp, mark, end, depth
            )
            rr_sets.append((end, members))
            slacks.append(member_slacks)
        return WorldSample(index, rr_sets, slacks=slacks)

    def _reverse_ball(
        self, data: _GraphData, stamp, mark: int, end: int, depth: int
    ) -> Tuple[List[int], List[int]]:
        """Sorted node ids within ``depth`` reverse hops of ``end``, with slacks."""
        np_mod = self._np
        stamp[end] = mark
        layers = [np_mod.array([end], dtype=np_mod.int64)]
        frontier = layers[0]
        for _hop in range(depth):
            counts = data.in_deg[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            positions = self._ragged_positions(
                np_mod, data.in_indptr[frontier], counts, total
            )
            tails = np_mod.unique(data.in_indices[positions])
            tails = tails[stamp[tails] != mark]
            if tails.size == 0:
                break
            stamp[tails] = mark
            layers.append(tails)
            frontier = tails
        members = np_mod.concatenate(layers)
        hops = np_mod.repeat(
            np_mod.arange(len(layers), dtype=np_mod.int64),
            [len(layer) for layer in layers],
        )
        order = np_mod.argsort(members)
        return members[order].tolist(), (depth - hops[order]).tolist()

    # -- dispatch ----------------------------------------------------------------

    def _vectorizes(self, sampler) -> bool:
        """OPOAO horizons past the float64-exact bitmask range defer to python."""
        return (
            isinstance(sampler, OPOAORRSampler)
            and sampler.steps <= _MAX_FREXP_STEPS
        )

    def _batches(self, data: _GraphData, items: List) -> List[List]:
        """``items`` cut into runs whose pick-mask caches fit :data:`_MASK_CELLS`."""
        size = max(1, _MASK_CELLS // max(len(data.in_indices), 1))
        return [items[start : start + size] for start in range(0, len(items), size)]

    def sample(self, sampler, indices: Sequence[int]) -> List[WorldSample]:
        """Worlds for ``indices`` in order, bit-identical to python.

        Unknown sampler types — and OPOAO horizons past the float64-exact
        bitmask range — defer to the per-world reference path.
        """
        index_list = [int(index) for index in indices]
        if isinstance(sampler, DOAMRRSampler):
            if sampler._cached is None:
                world = self._doam_sets(sampler, 0, self._doam_at_risk(sampler))
                sampler._cached = (world.rr_sets, world.slacks)
            return [sampler.sample_world(index) for index in index_list]
        if not self._vectorizes(sampler):
            return [sampler.sample_world(index) for index in index_list]
        return self.sample_ends(
            sampler, list(zip(index_list, self.at_risk(sampler, index_list)))
        )

    def at_risk(self, sampler, indices: Sequence[int]) -> List[List[Tuple[int, int]]]:
        """Each world's ``(end, deadline)`` pairs, bit-identical to python."""
        index_list = [int(index) for index in indices]
        if isinstance(sampler, DOAMRRSampler):
            ends = self._doam_at_risk(sampler)
            return [list(ends) for _ in index_list]
        if not self._vectorizes(sampler):
            return [sampler.at_risk(index) for index in index_list]
        data = self._graph_data(sampler.graph)
        found: List[List[Tuple[int, int]]] = []
        for batch in self._batches(data, index_list):
            found.extend(
                self._opoao_at_risk(
                    sampler,
                    data,
                    [sampler.world_keys(index)[0] for index in batch],
                )
            )
        return found

    def sample_ends(self, sampler, requests) -> List[WorldSample]:
        """One partial world per ``(index, ends)`` request, bit-identical to python."""
        requests = [(int(index), list(ends)) for index, ends in requests]
        if isinstance(sampler, DOAMRRSampler):
            return [self._doam_sets(sampler, index, ends) for index, ends in requests]
        if not self._vectorizes(sampler):
            return [sampler.sample_ends(index, ends) for index, ends in requests]
        data = self._graph_data(sampler.graph)
        worlds: List[WorldSample] = []
        for batch in self._batches(data, requests):
            worlds.extend(self._opoao_sets(sampler, data, batch))
        return worlds


def _packed_world(np_mod, index: int, sets) -> WorldSample:
    """A :class:`WorldSample` of ``(root, members, slacks)`` int32 numpy sets."""
    members = array("i")
    slacks = array("i")
    offsets = array("q", [0])
    if sets:
        members.frombytes(np_mod.concatenate([m for _, m, _ in sets]).tobytes())
        slacks.frombytes(np_mod.concatenate([v for _, _, v in sets]).tobytes())
        offsets.extend(np_mod.cumsum([len(m) for _, m, _ in sets]).tolist())
    return WorldSample.from_packed(
        index, array("i", [root for root, _, _ in sets]), offsets, members, slacks
    )


def _distinct(np_mod, ids, scratch):
    """``ids`` without repeats, in first-seen order, in linear time.

    ``scratch`` is an int64 array indexable by every id whose entries
    at ``ids`` may be overwritten (the caller sets them next anyway).
    """
    if ids.size < 2:
        return ids
    order = np_mod.arange(ids.size, dtype=np_mod.int64)
    scratch[ids[::-1]] = order[::-1]  # the first occurrence writes last
    return ids[scratch[ids] == order]


def _mask_dtype(np_mod, steps: int):
    """The narrowest signed integer dtype holding a ``steps``-bit pick mask."""
    for dtype in (np_mod.int8, np_mod.int16, np_mod.int32):
        if steps < np_mod.iinfo(dtype).bits:
            return dtype
    return np_mod.int64


# -- registry --------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], Any]] = {}
_INSTANCES: Dict[str, Any] = {}


def register_sketch_backend(name: str, factory: Callable[[], Any]) -> None:
    """Register (or replace) a sketch-kernel factory under ``name``."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


register_sketch_backend("python", PythonSketchKernel)
register_sketch_backend("numpy", NumpySketchKernel)


def resolve_sketch_backend(name: Optional[str] = SKETCH_BACKEND_AUTO):
    """The sketch kernel registered under ``name`` (``None`` == ``"auto"``).

    Raises:
        BackendUnavailableError: the backend exists but its dependency
            is missing (never for ``"auto"``, which falls back).
        KernelError: no backend of that name exists.
    """
    if name is None or name == SKETCH_BACKEND_AUTO:
        for candidate in _AUTO_ORDER:
            try:
                return resolve_sketch_backend(candidate)
            except BackendUnavailableError:
                continue
        raise KernelError("no sketch backend could be loaded")  # unreachable
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KernelError(
            f"unknown sketch backend {name!r}; registered: {sorted(_FACTORIES)}"
        )
    try:
        instance = factory()
    except ImportError as error:
        raise BackendUnavailableError(
            f"sketch backend {name!r} needs an optional dependency "
            f"({error}); install the 'perf' extra: pip install repro-lcrb[perf]"
        ) from error
    _INSTANCES[name] = instance
    return instance


def available_sketch_backends() -> List[str]:
    """Names of sketch backends that load here, in registration order."""
    names: List[str] = []
    for name in _FACTORIES:
        try:
            resolve_sketch_backend(name)
        except BackendUnavailableError:
            continue
        names.append(name)
    return names


def sample_worlds(
    sampler, indices: Sequence[int], backend: Optional[str] = None
) -> List[WorldSample]:
    """Sample ``indices`` through the named (or auto) sketch backend."""
    return resolve_sketch_backend(backend).sample(sampler, list(indices))


def at_risk_ends(
    sampler, indices: Sequence[int], backend: Optional[str] = None
) -> List[List[Tuple[int, int]]]:
    """Each world's at-risk ``(end, deadline)`` pairs (rumor pass only)."""
    return resolve_sketch_backend(backend).at_risk(sampler, list(indices))


def sample_ends(
    sampler,
    requests: Sequence[Tuple[int, Sequence[Tuple[int, int]]]],
    backend: Optional[str] = None,
) -> List[WorldSample]:
    """The RR sets of chosen ``(index, [(end, deadline), ...])`` requests.

    Each result holds exactly the requested ends' sets of that world,
    equal to those sets in a full :func:`sample_worlds` sample.
    """
    return resolve_sketch_backend(backend).sample_ends(sampler, list(requests))
