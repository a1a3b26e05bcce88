"""Reverse-reachable (RR) set samplers for the paper's two semantics.

Reverse Influence Sampling (Borgs et al.; Tong et al., arXiv:1701.02368
for the rumor-blocking variant) turns protector evaluation inside out:
instead of forward-simulating every candidate set, sample random *worlds*
once, extract for each at-risk bridge end the set of nodes that could
have saved it in that world, and score any protector set by how many of
those RR sets it intersects. Coverage of the sampled sets is an unbiased
estimator of σ(A), and maximising coverage is plain weighted max
coverage — submodular, lazily greedifiable, and embarrassingly cheap per
candidate compared to Monte-Carlo simulation.

Two samplers, one per diffusion semantics:

* :class:`OPOAORRSampler` — the OPOAO selection process, proof-style
  (Section V.A.1): each world draws an independent rumor record via
  :func:`repro.diffusion.timestamps.record_cascade` (``G_R``) and one
  *shared* protector choice table (``G_P``): a per-node row of uniform
  out-neighbor picks, one per step, lazily sampled during reverse
  traversal. A node ``u`` belongs to ``RR(v)`` exactly when a protector
  cascade seeded at ``u`` alone would, under that choice table, reach
  ``v`` no later than the rumor does in ``G_R`` (Lemma 2's timestamp
  comparison; P wins ties). Because the whole table is shared, the
  arrival of a protector *set* is the min over its members, so
  ``A ∩ RR(v) ≠ ∅  ⇔  A saves v`` holds world by world.
* :class:`DOAMRRSampler` — DOAM is deterministic, so there is exactly
  one world: the rumor front arrives at ``v`` at its BFS distance
  ``t_R(v)`` from the nearest rumor seed (the fixpoint of
  :mod:`repro.diffusion.arrival`), and ``u`` saves ``v`` iff
  ``d(u → v) <= t_R(v)`` (Theorem 2's coverage criterion). ``RR(v)`` is
  a reverse BFS of depth ``t_R(v)`` — the BBST of ``v``, flattened.

Every OPOAO draw is a pure function of the world's replica seed
(``derive_seed(rng.seed, "replica", index)``), the draw's purpose, the
node and the step (:func:`repro.rng.counter_pick`), so world ``i`` is
identical no matter when, in what order, in which process, or by which
kernel backend it is sampled — the property that makes
:class:`repro.sketch.store.SketchStore` incrementally extendable and
parallel-safe.

**Slacks.** Each RR set keeps, beside its member ids, every member's
*max slack* ``S(x)``: the latest arrival step at ``x`` from which a
cascade is still relayed to the root in time. The root's slack is its
deadline; every other node satisfies a *slack equation* over its
relays (:meth:`OPOAORRSampler.relays`):

* OPOAO — ``S(x) = max{t - 1 : 1 <= t <= steps, S(row_x[t]) >= t}``,
  where ``row_x[t]`` is ``x``'s counter-keyed pick at step ``t``;
* DOAM — ``S(x) = max{S(y) : y in out(x)} - 1``;

with ``S(x) = -1`` (not a member) when no relay qualifies. Every relay
strictly lowers slack, so any solution's non-negative values are
witnessed by relay chains that climb strictly to the root: the
equations have exactly one solution, the one the reverse searches
compute. An edge update changes only its tail's relays, hence only its
tail's equation — so when a world's deadlines are unchanged and the
stored slacks still satisfy every touched node's equation on the
mutated graph, the stored set *is* the set a resample would produce.
:meth:`repro.sketch.store.SketchStore.refresh` repairs the sketch on
exactly that test.
"""

from __future__ import annotations

from array import array
from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.diffusion.base import DEFAULT_MAX_HOPS
from repro.diffusion.timestamps import record_cascade
from repro.errors import SeedError, ValidationError
from repro.graph.compact import IndexedDiGraph
from repro.rng import RngStream, counter_pick, derive_seed
from repro.utils.validation import check_positive

__all__ = [
    "WorldSample",
    "OPOAORRSampler",
    "DOAMRRSampler",
    "sampler_for",
    "rebuild_sampler",
    "SKETCH_SEMANTICS",
]

#: semantics names accepted by :func:`sampler_for` (and the CLI).
SKETCH_SEMANTICS = ("opoao", "doam")


class WorldSample:
    """One sampled world: an RR set per bridge end the rumor reaches.

    Sets are stored CSR-packed in int32/int64 machine arrays rather than
    per-set Python tuples, so a world costs a few flat buffers however
    many sets it holds — and pickles (pool workers ship worlds back to
    the parent) shrink accordingly. The ``rr_sets`` / ``slacks`` views
    below present the packed data in tuple shapes.

    A sample may hold only some of its world's at-risk ends: a repair
    (:meth:`OPOAORRSampler.sample_ends`) resamples just the ends whose
    sets changed.

    Attributes:
        index: the replica index the world was derived from.
        rr_sets: ``(root, members)`` pairs — ``root`` is the at-risk
            bridge end, ``members`` the sorted node ids whose singleton
            protector cascade saves it in this world.
        slacks: per set, the max slack of every member, aligned with
            ``members`` (``None`` when the producing sampler does not
            report slacks — the store then resamples the whole world on
            any update).
    """

    __slots__ = ("index", "_roots", "_offsets", "_members", "_slacks", "_view")

    def __init__(
        self,
        index: int,
        rr_sets: Sequence[Tuple[int, Sequence[int]]],
        slacks: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self.index = index
        roots = array("i")
        offsets = array("q", [0])
        members = array("i")
        for root, set_members in rr_sets:
            roots.append(root)
            members.extend(set_members)
            offsets.append(len(members))
        self._roots = roots
        self._offsets = offsets
        self._members = members
        self._slacks: Optional[array] = None
        if slacks is not None:
            packed_slacks = array("i")
            for set_slacks in slacks:
                packed_slacks.extend(set_slacks)
            if len(slacks) != len(roots) or len(packed_slacks) != len(members):
                raise ValidationError("slacks must align with the RR-set members")
            self._slacks = packed_slacks
        self._view: Optional[List[Tuple[int, Tuple[int, ...]]]] = None

    @classmethod
    def from_packed(
        cls,
        index: int,
        roots: array,
        offsets: array,
        members: array,
        slacks: Optional[array],
    ) -> "WorldSample":
        """A sample over already-packed arrays (taken over, not copied)."""
        world = cls.__new__(cls)
        world.index = index
        world._roots = roots
        world._offsets = offsets
        world._members = members
        world._slacks = slacks
        world._view = None
        return world

    @property
    def rr_sets(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(root, members)`` tuples, materialised lazily from the arrays."""
        if self._view is None:
            offsets = self._offsets
            members = self._members
            self._view = [
                (root, tuple(members[offsets[i] : offsets[i + 1]]))
                for i, root in enumerate(self._roots)
            ]
        return self._view

    @property
    def slacks(self) -> Optional[List[Tuple[int, ...]]]:
        """Per-set member slacks aligned with :attr:`rr_sets` (or ``None``)."""
        if self._slacks is None:
            return None
        offsets = self._offsets
        return [
            tuple(self._slacks[offsets[i] : offsets[i + 1]])
            for i in range(len(self._roots))
        ]

    def packed(self) -> Tuple[array, array, array, Optional[array]]:
        """The raw ``(roots, offsets, members, slacks)`` arrays (read-only use)."""
        return self._roots, self._offsets, self._members, self._slacks

    def __getstate__(self):
        return (self.index, self._roots, self._offsets, self._members, self._slacks)

    def __setstate__(self, state) -> None:
        self.index, self._roots, self._offsets, self._members, self._slacks = state
        self._view = None

    def __repr__(self) -> str:
        return f"WorldSample(index={self.index}, rr_sets={len(self._roots)})"


def _check_ids(graph: IndexedDiGraph, ids: Sequence[int], name: str) -> List[int]:
    out = sorted(set(ids))
    for node in out:
        if not isinstance(node, int) or isinstance(node, bool) or not (
            0 <= node < graph.node_count
        ):
            raise SeedError(f"{name} id {node!r} is not a node id")
    return out


class OPOAORRSampler:
    """RR sets under the OPOAO selection-process (timestamp) semantics.

    Args:
        graph: indexed graph.
        rumor_ids: rumor originators (node ids; non-empty).
        bridge_end_ids: the bridge ends ``B`` (node ids).
        steps: selection-step horizon (paper: 31).
        rng: base stream; world ``i`` draws only from keys derived from
            ``rng.seed`` and ``i``.
    """

    name = "OPOAO-RR"
    stochastic = True
    #: relay ``t - 1`` of :meth:`relays` is the pick at step ``t``.
    timed_relays = True

    def __init__(
        self,
        graph: IndexedDiGraph,
        rumor_ids: Sequence[int],
        bridge_end_ids: Sequence[int],
        steps: int = DEFAULT_MAX_HOPS,
        rng: Optional[RngStream] = None,
    ) -> None:
        self.graph = graph
        self.rumor_ids = _check_ids(graph, rumor_ids, "rumor seed")
        if not self.rumor_ids:
            raise SeedError("rumor seed set must not be empty")
        self.end_ids = _check_ids(graph, bridge_end_ids, "bridge end")
        self.steps = int(check_positive(steps, "steps"))
        self.rng = rng or RngStream(name="opoao-rr")
        self._keys: Dict[int, Tuple[int, int]] = {}

    def world_keys(self, index: int) -> Tuple[int, int]:
        """``(rumor_key, choices_key)``: world ``index``'s two draw keys (memoized)."""
        keys = self._keys.get(index)
        if keys is None:
            world_seed = derive_seed(self.rng.seed, "replica", index)
            keys = (derive_seed(world_seed, "rumor"), derive_seed(world_seed, "choices"))
            self._keys[index] = keys
        return keys

    def _choice_row(self, key: int, node: int) -> Tuple[int, ...]:
        """The node's out-neighbor pick for every step of this world.

        Each pick is :func:`repro.rng.counter_pick` of ``(key, node,
        step)``, so the row is identical regardless of the order reverse
        traversals touch it — and equal to the numpy kernel's row. A
        node without out-neighbors has an empty row.
        """
        neighbors = self.graph.out[node]
        steps = self.steps
        count = len(neighbors)
        if not count:
            return ()
        return tuple(
            neighbors[counter_pick(key, node, step, steps, count)]
            for step in range(1, steps + 1)
        )

    def relays(self, index: int, node: int) -> Tuple[int, ...]:
        """``node``'s choice row in world ``index`` (its slack equation's input)."""
        return self._choice_row(self.world_keys(index)[1], node)

    def _reverse_reachable(
        self,
        end: int,
        deadline: int,
        rows: Dict[int, Tuple[int, ...]],
        key: int,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Nodes whose singleton cascade reaches ``end`` by ``deadline``.

        Runs a max-slack Dijkstra backwards from ``end``: ``slack(x)`` is
        the latest step a cascade may *arrive* at ``x`` and still be
        relayed to ``end`` by the deadline. A node belongs to the RR set
        iff its slack is >= 0 (a seed arrives at itself at step 0).

        Returns:
            ``(members, slacks)``: sorted member ids and their slacks.
        """
        graph = self.graph
        slack: Dict[int, int] = {end: deadline}
        heap: List[Tuple[int, int]] = [(-deadline, end)]
        while heap:
            negative, node = heappop(heap)
            arrive_by = -negative
            if arrive_by < slack.get(node, -1):
                continue  # stale heap entry
            if arrive_by < 1:
                continue  # cannot relay further: choices happen at steps >= 1
            for tail in graph.inn[node]:
                row = rows.get(tail)
                if row is None:
                    row = self._choice_row(key, tail)
                    rows[tail] = row
                # Latest step t <= arrive_by at which `tail` picks `node`;
                # the cascade must have arrived at `tail` strictly before t.
                candidate = -1
                for step in range(min(arrive_by, self.steps), 0, -1):
                    if row[step - 1] == node:
                        candidate = step - 1
                        break
                if candidate > slack.get(tail, -1):
                    slack[tail] = candidate
                    heappush(heap, (-candidate, tail))
        members = tuple(sorted(slack))
        return members, tuple(slack[node] for node in members)

    def worker_payload(self) -> Dict[str, object]:
        """Graph-free description a pool worker rebuilds this sampler from.

        Only the base seed matters for reproduction: world ``i`` derives
        everything from ``rng.seed`` and ``i``, so a rebuilt sampler yields
        bit-identical :class:`WorldSample`\\ s for every index.
        """
        return {
            "semantics": "opoao",
            "rumor_ids": list(self.rumor_ids),
            "end_ids": list(self.end_ids),
            "steps": self.steps,
            "seed": self.rng.seed,
        }

    def at_risk(self, index: int) -> List[Tuple[int, int]]:
        """``(end, deadline)`` per bridge end the rumor reaches in world ``index``.

        Runs the world's rumor record; an end's deadline is the first
        step any in-neighbor relays the rumor to it. Ends come in
        ascending id order.
        """
        rumor_key = self.world_keys(index)[0]
        steps = self.steps

        def rumor_chooser(node: int, neighbors: Sequence[int], step: int) -> int:
            return neighbors[
                counter_pick(rumor_key, node, step, steps, len(neighbors))
            ]

        rumor = record_cascade(
            self.graph, self.rumor_ids, steps=steps, chooser=rumor_chooser
        )
        deadlines = (
            (end, rumor.min_in_timestamp(end, self.graph.inn[end]))
            for end in self.end_ids
        )
        return [(end, deadline) for end, deadline in deadlines if deadline is not None]

    def sample_ends(
        self, index: int, ends: Sequence[Tuple[int, int]]
    ) -> WorldSample:
        """World ``index``'s RR sets (with slacks) for the given ``(end, deadline)`` pairs.

        With the world's own :meth:`at_risk` pairs this is the full
        world; a subset yields exactly those ends' sets of it.
        """
        choices_key = self.world_keys(index)[1]
        rows: Dict[int, Tuple[int, ...]] = {}
        rr_sets: List[Tuple[int, Tuple[int, ...]]] = []
        slacks: List[Tuple[int, ...]] = []
        for end, deadline in ends:
            members, member_slacks = self._reverse_reachable(
                end, deadline, rows, choices_key
            )
            rr_sets.append((end, members))
            slacks.append(member_slacks)
        return WorldSample(index, rr_sets, slacks=slacks)

    def sample_world(self, index: int) -> WorldSample:
        """Sample world ``index``: one rumor record, one RR set per at-risk end."""
        return self.sample_ends(index, self.at_risk(index))

    def __repr__(self) -> str:
        return (
            f"OPOAORRSampler(|R|={len(self.rumor_ids)}, |B|={len(self.end_ids)}, "
            f"steps={self.steps})"
        )


class DOAMRRSampler:
    """RR sets under DOAM: the flattened BBST of each at-risk bridge end.

    DOAM consumes no randomness, so every world index yields the same
    sample; the sets are computed once and cached. ``rng`` is accepted
    for interface symmetry and ignored.
    """

    name = "DOAM-RR"
    stochastic = False
    #: :meth:`relays` are out-neighbors, each usable at any step.
    timed_relays = False

    def __init__(
        self,
        graph: IndexedDiGraph,
        rumor_ids: Sequence[int],
        bridge_end_ids: Sequence[int],
        max_hops: int = DEFAULT_MAX_HOPS,
        rng: Optional[RngStream] = None,
    ) -> None:
        self.graph = graph
        self.rumor_ids = _check_ids(graph, rumor_ids, "rumor seed")
        if not self.rumor_ids:
            raise SeedError("rumor seed set must not be empty")
        self.end_ids = _check_ids(graph, bridge_end_ids, "bridge end")
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.rng = rng
        #: the single world's ``(rr_sets, slacks)``, once computed.
        self._cached: Optional[Tuple[List, Optional[List]]] = None

    def _rumor_arrival(self) -> Dict[int, int]:
        """Multi-source BFS hop distance from the nearest rumor seed."""
        distance: Dict[int, int] = {seed: 0 for seed in self.rumor_ids}
        queue = deque(self.rumor_ids)
        while queue:
            node = queue.popleft()
            hops = distance[node]
            if hops >= self.max_hops:
                continue
            for head in self.graph.out[node]:
                if head not in distance:
                    distance[head] = hops + 1
                    queue.append(head)
        return distance

    def _reverse_ball(
        self, end: int, depth: int
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Nodes within ``depth`` reverse hops of ``end``, with slacks.

        A member ``d`` reverse hops away has slack ``depth - d``.
        """
        distance: Dict[int, int] = {end: 0}
        queue = deque([end])
        while queue:
            node = queue.popleft()
            hops = distance[node]
            if hops >= depth:
                continue
            for tail in self.graph.inn[node]:
                if tail not in distance:
                    distance[tail] = hops + 1
                    queue.append(tail)
        members = tuple(sorted(distance))
        return members, tuple(depth - distance[node] for node in members)

    def relays(self, index: int, node: int) -> Tuple[int, ...]:
        """``node``'s out-neighbors (its slack equation's input)."""
        return self.graph.out[node]

    def worker_payload(self) -> Dict[str, object]:
        """Graph-free description a pool worker rebuilds this sampler from."""
        return {
            "semantics": "doam",
            "rumor_ids": list(self.rumor_ids),
            "end_ids": list(self.end_ids),
            "steps": self.max_hops,
            "seed": None,
        }

    def forget(self) -> None:
        """Drop the cached world (call after the graph mutates in place)."""
        self._cached = None

    def at_risk(self, index: int) -> List[Tuple[int, int]]:
        """``(end, deadline)`` per reached bridge end; deadline = rumor hops."""
        arrival = self._rumor_arrival()
        return [(end, arrival[end]) for end in self.end_ids if end in arrival]

    def sample_ends(
        self, index: int, ends: Sequence[Tuple[int, int]]
    ) -> WorldSample:
        """The reverse balls (with slacks) of the given ``(end, deadline)`` pairs."""
        balls = [self._reverse_ball(end, deadline) for end, deadline in ends]
        return WorldSample(
            index,
            [(end, members) for (end, _), (members, _) in zip(ends, balls)],
            slacks=[slacks for _, slacks in balls],
        )

    def sample_world(self, index: int) -> WorldSample:
        """The (unique) DOAM world, whatever ``index`` is passed."""
        if self._cached is None:
            world = self.sample_ends(index, self.at_risk(index))
            self._cached = (world.rr_sets, world.slacks)
        rr_sets, slacks = self._cached
        return WorldSample(index, rr_sets, slacks=slacks)

    def __repr__(self) -> str:
        return (
            f"DOAMRRSampler(|R|={len(self.rumor_ids)}, |B|={len(self.end_ids)}, "
            f"max_hops={self.max_hops})"
        )


def sampler_for(
    semantics: str,
    context,
    steps: int = DEFAULT_MAX_HOPS,
    rng: Optional[RngStream] = None,
):
    """Build the RR sampler for a resolved LCRB instance.

    Args:
        semantics: ``"opoao"`` or ``"doam"``.
        context: a :class:`repro.algorithms.base.SelectionContext`.
        steps: horizon (OPOAO selection steps / DOAM hops).
        rng: base stream (OPOAO only).

    Returns:
        An :class:`OPOAORRSampler` or :class:`DOAMRRSampler` bound to the
        context's indexed graph, rumor seeds, and bridge ends.
    """
    if semantics not in SKETCH_SEMANTICS:
        raise ValidationError(
            f"semantics must be one of {SKETCH_SEMANTICS}, got {semantics!r}"
        )
    graph = context.indexed
    rumor_ids = context.rumor_seed_ids()
    end_ids = context.bridge_end_ids()
    if semantics == "opoao":
        return OPOAORRSampler(graph, rumor_ids, end_ids, steps=steps, rng=rng)
    return DOAMRRSampler(graph, rumor_ids, end_ids, max_hops=steps, rng=rng)


def rebuild_sampler(graph: IndexedDiGraph, payload: Dict[str, object]):
    """Reconstruct a sampler from its :meth:`worker_payload` in a worker.

    The stream *name* is cosmetic (only the seed feeds
    :func:`repro.rng.derive_seed`), so the rebuilt sampler's worlds are
    bit-identical to the original's.
    """
    semantics = payload["semantics"]
    if semantics == "opoao":
        return OPOAORRSampler(
            graph,
            payload["rumor_ids"],
            payload["end_ids"],
            steps=payload["steps"],
            rng=RngStream(payload["seed"], name="opoao-rr"),
        )
    if semantics == "doam":
        return DOAMRRSampler(
            graph,
            payload["rumor_ids"],
            payload["end_ids"],
            max_hops=payload["steps"],
        )
    raise ValidationError(f"unknown sampler semantics {semantics!r}")
