"""Existence of *any* deadlock-free routing relation on an arbitrary network.

Every other module in :mod:`repro.verify` answers "is this *given* relation
deadlock-free?".  This one answers the prior question Mendlovic & Matias
(arXiv:2503.04583) pose: does the channel digraph admit *any* deadlock-free
routing relation at all?  The decision procedure works on the network's link
channels viewed as a directed multigraph (each virtual channel is its own
arc -- exactly the vertex set of the CDG/CWG kernels) and is two-sided
constructive:

* **YES** comes with a *channel ordering certificate*: a permutation of the
  link channels such that every ordered node pair ``(s, d)`` is connected by
  a path whose channels are strictly increasing in the order.  The
  certificate is machine-checked by :func:`simulate_schedule` -- a linear
  "one-way gossip" pass: process the arcs in order, each arc ``u -> v``
  merging ``sources[u]`` into ``sources[v]``; the order is valid iff every
  node ends up holding every source.  From any valid ordering,
  :func:`synthesize_witness` emits a concrete deterministic routing relation
  (wait-on-SPECIFIC, acyclic CWG by construction) that the independently
  implemented Theorem checker then certifies -- so a YES is never taken on
  faith.
* **NO** comes with a *forced-precedence cycle*: a cyclic chain of
  constraints ``a < b``, each certified by a node pair ``(s, d)`` such that
  every ``s -> d`` path uses channel ``b`` and every ``s -> tail(b)`` path
  uses channel ``a`` (so in any ordering realizing all pairs, ``a`` must
  come strictly before ``b``).  A cycle of such constraints is
  unsatisfiable, hence no valid ordering -- and, via the equivalence below,
  no deadlock-free relation -- exists.  :meth:`Obstruction.verify` rechecks
  every constraint from raw reachability, and the cycle is *minimal*:
  dropping any single constraint breaks it.

Why channel orderability captures existence
-------------------------------------------
*Sufficiency*: given a valid ordering, route each message along a strictly
increasing path and let it wait (SPECIFIC) on the designated next channel.
Every waiting-dependency then goes strictly up the order, so the CWG is
acyclic and Theorem 2 certifies deadlock freedom.  This direction is not
argued abstractly -- the synthesizer builds the relation and the theorem
checker certifies it on every YES.

*Necessity*: a deadlock-free relation yields an acyclic immediate-wait
structure on some subrelation reaching all pairs; a topological order of it
is a valid channel ordering.  Networks that defeat every ordering (the
unidirectional ring is the smallest example) defeat every relation: the
forced-precedence cycle names channel demands that any all-pairs relation
must serialize and cannot.  The fuzz campaign pins this direction
empirically: the ``existence`` oracle claims deadlock for *every* generated
relation on a NO network, so a single deadlock-free relation certified by
any other checker on such a network is a reported contradiction.

Decision tiers (all certificates re-verified, nothing authoritative without
one, except a NO from the exhaustive search itself):

1. cheap constructive screens -- an up/down spanning-tree schedule for
   networks whose every link has a reverse link, then greedy gossip
   maximization (several tie-breaks); any candidate that simulates complete
   is a YES;
2. the forced-precedence obstruction screen (polynomial, sound for NO);
3. an exhaustive memoized search over useful gossip schedules for small
   digraphs (authoritative both ways; any completing schedule can be
   reordered so every fired arc is useful when fired, so restricting to
   useful moves loses nothing);
4. otherwise UNDETERMINED -- the verdict claims nothing and the fuzz oracle
   treats it as silent.

:func:`brute_force_existence` is the independent reference for tiny
digraphs: plain enumeration of every channel permutation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import TYPE_CHECKING, Any

from ..core.depgraph import bits, find_cycle_adj
from ..core.transitions import TransitionCache

if TYPE_CHECKING:
    from ..routing.relation import RoutingAlgorithm
    from ..topology.network import Network

__all__ = [
    "ExistenceVerdict",
    "ForcedStep",
    "Obstruction",
    "Witness",
    "brute_force_existence",
    "decide_existence",
    "forced_cycle",
    "schedule_from_triples",
    "schedule_triples",
    "simulate_schedule",
    "synthesize_witness",
]


# ----------------------------------------------------------------------
# the gossip simulation (certificate checker for YES)
# ----------------------------------------------------------------------
def _link_cids(network: Network) -> list[int]:
    return [c.cid for c in network.link_channels]


def simulate_schedule(network: Network, schedule: tuple[int, ...] | list[int]) -> tuple[bool, int]:
    """Run the one-way gossip pass for ``schedule`` (a sequence of link cids).

    Returns ``(complete, essential)``: whether every node ends up holding
    every source, and the length of the shortest completing prefix
    (``len(schedule)`` when incomplete).  Linear in ``len(schedule)`` --
    each arc is one bitmask merge.
    """
    n = network.num_nodes
    full = (1 << n) - 1
    sources = [1 << v for v in range(n)]
    if all(m == full for m in sources):
        return True, 0
    essential = len(schedule)
    done = False
    for i, cid in enumerate(schedule):
        ch = network.channel(cid)
        merged = sources[ch.dst] | sources[ch.src]
        if merged != sources[ch.dst]:
            sources[ch.dst] = merged
            if not done and all(m == full for m in sources):
                essential = i + 1
                done = True
    return done, essential


def verify_schedule(network: Network, schedule: tuple[int, ...]) -> bool:
    """True iff ``schedule`` is a permutation of the link cids and completes."""
    cids = _link_cids(network)
    if sorted(schedule) != sorted(cids):
        return False
    complete, _ = simulate_schedule(network, schedule)
    return complete


def schedule_triples(network: Network, schedule: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Schedule as ``(src, dst, vc)`` triples -- stable across cid renumbering."""
    out: list[tuple[int, int, int]] = []
    for cid in schedule:
        ch = network.channel(cid)
        out.append((ch.src, ch.dst, ch.vc))
    return tuple(out)


def schedule_from_triples(
    network: Network, triples: tuple[tuple[int, int, int], ...]
) -> tuple[int, ...] | None:
    """Map ``(src, dst, vc)`` triples back to cids; ``None`` if any is absent."""
    index: dict[tuple[int, int, int], int] = {
        (c.src, c.dst, c.vc): c.cid for c in network.link_channels
    }
    out: list[int] = []
    for t in triples:
        cid = index.get(t)
        if cid is None:
            return None
        out.append(cid)
    return tuple(out)


# ----------------------------------------------------------------------
# YES screens: constructive schedule candidates (always re-verified)
# ----------------------------------------------------------------------
def _tree_schedule(network: Network) -> list[int] | None:
    """Up/down schedule over a spanning tree of the bidirectional sublinks.

    When a spanning tree exists whose every edge has link channels in both
    directions, firing all child->parent arcs deepest-first and then all
    parent->child arcs shallowest-first routes every source through the
    root to every node; remaining arcs are appended (extra arcs at the top
    of an order never break it).
    """
    n = network.num_nodes
    if n == 0:
        return []
    pair: dict[tuple[int, int], int] = {}
    for c in network.link_channels:
        key = (c.src, c.dst)
        if key not in pair or c.cid < pair[key]:
            pair[key] = c.cid
    undirected: dict[int, list[int]] = {v: [] for v in range(n)}
    for (u, v) in pair:
        if (v, u) in pair:
            undirected[u].append(v)
    parent: dict[int, int] = {0: -1}
    depth = {0: 0}
    order = [0]
    frontier = [0]
    while frontier:
        u = frontier.pop(0)
        for v in sorted(undirected[u]):
            if v not in parent:
                parent[v] = u
                depth[v] = depth[u] + 1
                order.append(v)
                frontier.append(v)
    if len(parent) != n:
        return None
    up = sorted((v for v in parent if parent[v] >= 0), key=lambda v: -depth[v])
    down = sorted((v for v in parent if parent[v] >= 0), key=lambda v: depth[v])
    schedule = [pair[(v, parent[v])] for v in up]
    schedule += [pair[(parent[v], v)] for v in down]
    used = set(schedule)
    schedule += [c.cid for c in network.link_channels if c.cid not in used]
    return schedule


def _greedy_schedule(network: Network, *, reverse_ties: bool = False) -> list[int] | None:
    """Fire the useful arc adding the most new (source, node) facts."""
    n = network.num_nodes
    full = (1 << n) - 1
    sources = [1 << v for v in range(n)]
    arcs = [(c.cid, c.src, c.dst) for c in network.link_channels]
    remaining = dict.fromkeys(range(len(arcs)))
    schedule: list[int] = []
    while any(m != full for m in sources):
        best = -1
        best_key: tuple[int, int] | None = None
        for i in remaining:
            cid, u, v = arcs[i]
            gain = bin(sources[u] & ~sources[v]).count("1")
            if gain == 0:
                continue
            key = (gain, cid if reverse_ties else -cid)
            if best_key is None or key > best_key:
                best_key = key
                best = i
        if best < 0:
            return None
        cid, u, v = arcs[best]
        sources[v] |= sources[u]
        schedule.append(cid)
        del remaining[best]
    schedule += sorted(arcs[i][0] for i in remaining)
    return schedule


def _screen_schedules(network: Network) -> tuple[str, tuple[int, ...]] | None:
    """First screen whose candidate schedule verifies, with its method tag."""
    candidates: list[tuple[str, list[int] | None]] = [
        ("tree-screen", _tree_schedule(network)),
        ("greedy-screen", _greedy_schedule(network)),
        ("greedy-screen", _greedy_schedule(network, reverse_ties=True)),
    ]
    for method, cand in candidates:
        if cand is None:
            continue
        schedule = tuple(cand)
        if verify_schedule(network, schedule):
            return method, schedule
    return None


# ----------------------------------------------------------------------
# NO screen: forced-precedence obstruction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ForcedStep:
    """One forced precedence ``before < after``, certified by a node pair.

    Every ``source -> dest`` path uses channel ``after``, and every
    ``source -> tail(after)`` path uses channel ``before`` -- so any
    channel ordering realizing the pair must place ``before`` strictly
    before ``after``.
    """

    before: int
    after: int
    source: int
    dest: int

    def verify(self, network: Network) -> bool:
        ch = network.channel(self.after)
        return (
            not _reaches_without(network, self.source, self.dest, self.after)
            and not _reaches_without(network, self.source, ch.src, self.before)
        )

    def to_json(self) -> dict[str, int]:
        return {
            "before": self.before,
            "after": self.after,
            "source": self.source,
            "dest": self.dest,
        }


@dataclass(frozen=True)
class Obstruction:
    """A machine-checkable witness that no valid channel ordering exists.

    ``kind == "forced-cycle"``: ``steps`` chain into a cycle
    (``steps[i].after == steps[i+1].before``, wrapping), so the forced
    precedences are cyclic and unsatisfiable.  A single step with
    ``before == after`` is the degenerate one-step cycle.  The witness is
    minimal under single-edge removal: every step is load-bearing, since
    dropping any one leaves an acyclic chain.

    ``kind == "exhausted"``: the exhaustive schedule search proved NO but
    no forced-precedence cycle exists at this granularity; the certificate
    is the (re-runnable) search itself.
    """

    steps: tuple[ForcedStep, ...]
    kind: str = "forced-cycle"

    def cycle(self) -> tuple[int, ...]:
        """The cyclically ordered channel cids the steps chain through."""
        return tuple(s.before for s in self.steps)

    def verify(self, network: Network) -> bool:
        if self.kind != "forced-cycle" or not self.steps:
            return False
        k = len(self.steps)
        for i, step in enumerate(self.steps):
            if step.after != self.steps[(i + 1) % k].before:
                return False
            if not step.verify(network):
                return False
        return len(set(self.cycle())) == k

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "steps": [s.to_json() for s in self.steps]}


def _reaches_without(network: Network, source: int, target: int, banned: int) -> bool:
    """Can ``source`` reach ``target`` over link channels other than ``banned``?"""
    if source == target:
        return True
    seen = 1 << source
    frontier = [source]
    while frontier:
        u = frontier.pop()
        for c in network.out_channels(u):
            if c.cid == banned:
                continue
            v = c.dst
            if not (seen >> v) & 1:
                if v == target:
                    return True
                seen |= 1 << v
                frontier.append(v)
    return False


def _unavoidable_masks(network: Network) -> dict[int, list[int]]:
    """Per link cid ``b``: bitmask, per source, of nodes unreachable without ``b``."""
    n = network.num_nodes
    full = (1 << n) - 1
    out: dict[int, list[int]] = {}
    for banned in _link_cids(network):
        row: list[int] = []
        for s in range(n):
            seen = 1 << s
            frontier = [s]
            while frontier:
                u = frontier.pop()
                for c in network.out_channels(u):
                    if c.cid == banned:
                        continue
                    v = c.dst
                    if not (seen >> v) & 1:
                        seen |= 1 << v
                        frontier.append(v)
            row.append(full & ~seen)
        out[banned] = row
    return out


def forced_cycle(network: Network, *, per_edge: bool = False) -> Obstruction | None:
    """Find a forced-precedence cycle, or ``None`` when the screen is silent.

    ``per_edge=True`` is the deliberately broken scope the planted fuzz
    variant uses: each constraint edge is inspected in isolation (only the
    degenerate one-step cycles ``b < b`` can fire), never the strongly
    connected components of the whole constraint digraph -- which is where
    every real obstruction lives.
    """
    unavoid = _unavoidable_masks(network)
    cids = _link_cids(network)
    tail = {cid: network.channel(cid).src for cid in cids}
    # adjacency of the constraint digraph over cids, one witness per edge
    adj: dict[int, list[int]] = {cid: [] for cid in cids}
    witness: dict[tuple[int, int], tuple[int, int]] = {}
    for b in cids:
        row_b = unavoid[b]
        for s in range(network.num_nodes):
            dests = row_b[s]
            if not dests:
                continue
            tb = tail[b]
            for a in cids:
                if (unavoid[a][s] >> tb) & 1:
                    if (a, b) not in witness:
                        witness[(a, b)] = (s, next(bits(dests)))
                        adj[a].append(b)
    for (a, b), (s, d) in sorted(witness.items()):
        if a == b:
            return Obstruction(steps=(ForcedStep(before=a, after=b, source=s, dest=d),))
    if per_edge:
        return None
    cycle = find_cycle_adj(set(cids), adj)
    if cycle is None:
        return None
    steps: list[ForcedStep] = []
    k = len(cycle)
    for i, a in enumerate(cycle):
        b = cycle[(i + 1) % k]
        s, d = witness[(a, b)]
        steps.append(ForcedStep(before=a, after=b, source=s, dest=d))
    return Obstruction(steps=tuple(steps))


# ----------------------------------------------------------------------
# exhaustive memoized search (authoritative on small digraphs)
# ----------------------------------------------------------------------
class _Budget(Exception):
    pass


def _exact_search(network: Network, max_states: int) -> tuple[bool, tuple[int, ...] | None, int]:
    """Exhaustive search over useful gossip schedules.

    Returns ``(exists, schedule, states_visited)``.  Sound restrictions:
    only *useful* firings are tried (any completing schedule reorders into
    one whose every fired arc merges new sources, unfired arcs appended);
    parallel arcs are canonicalized (identical ``(src, dst)`` arcs are
    interchangeable, so only the lowest-cid unfired copy fires); states
    failing the *relaxed closure* bound (merge every remaining arc
    repeatedly without consuming it -- an over-approximation of anything a
    schedule could still achieve) are cut immediately.  Raises
    :class:`_Budget` past ``max_states`` distinct states.
    """
    n = network.num_nodes
    full = (1 << n) - 1
    arcs = [(c.cid, c.src, c.dst) for c in network.link_channels]
    a_count = len(arcs)
    group: dict[tuple[int, int], list[int]] = {}
    for i, (_, u, v) in enumerate(arcs):
        group.setdefault((u, v), []).append(i)
    failed: set[tuple[int, tuple[int, ...]]] = set()
    states = 0

    def closure_ok(remaining: int, sources: list[int]) -> bool:
        relaxed = list(sources)
        changed = True
        while changed:
            changed = False
            for i in bits(remaining):
                _, u, v = arcs[i]
                merged = relaxed[v] | relaxed[u]
                if merged != relaxed[v]:
                    relaxed[v] = merged
                    changed = True
        return all(m == full for m in relaxed)

    def canonical_moves(remaining: int, sources: list[int]) -> list[int]:
        moves: list[int] = []
        for members in group.values():
            for i in members:
                if (remaining >> i) & 1:
                    _, u, v = arcs[i]
                    if sources[u] & ~sources[v]:
                        moves.append(i)
                    break
        return moves

    def search(remaining: int, sources: list[int], fired: list[int]) -> tuple[int, ...] | None:
        nonlocal states
        if all(m == full for m in sources):
            tail = sorted(arcs[i][0] for i in bits(remaining))
            return tuple(fired + tail)
        key = (remaining, tuple(sources))
        if key in failed:
            return None
        states += 1
        if states > max_states:
            raise _Budget
        if not closure_ok(remaining, sources):
            failed.add(key)
            return None
        for i in canonical_moves(remaining, sources):
            cid, u, v = arcs[i]
            saved = sources[v]
            sources[v] |= sources[u]
            fired.append(cid)
            found = search(remaining & ~(1 << i), sources, fired)
            fired.pop()
            sources[v] = saved
            if found is not None:
                return found
        failed.add(key)
        return None

    initial = [1 << v for v in range(n)]
    schedule = search((1 << a_count) - 1, initial, [])
    return schedule is not None, schedule, states


def brute_force_existence(network: Network, *, limit: int = 100_000) -> tuple[bool, tuple[int, ...] | None]:
    """Plain enumeration over every channel permutation (tiny digraphs only).

    The independent reference the differential tests pin
    :func:`decide_existence` against; raises :class:`ValueError` when the
    factorial search space exceeds ``limit`` permutations.
    """
    cids = _link_cids(network)
    count = 1
    for i in range(2, len(cids) + 1):
        count *= i
        if count > limit:
            raise ValueError(
                f"{len(cids)}! permutations exceed the brute-force limit {limit}"
            )
    for perm in itertools.permutations(cids):
        complete, _ = simulate_schedule(network, perm)
        if complete:
            return True, tuple(perm)
    return False, None


# ----------------------------------------------------------------------
# the verdict
# ----------------------------------------------------------------------
@dataclass
class ExistenceVerdict:
    """Outcome of the existence decision, certificate included.

    ``exists`` is ``None`` when undetermined (every tier passed); such a
    verdict claims nothing (``authoritative`` is ``False``).  ``schedule``
    carries the YES certificate, ``obstruction`` the NO certificate.
    """

    network: str
    num_nodes: int
    num_channels: int
    exists: bool | None
    authoritative: bool
    method: str
    schedule: tuple[int, ...] | None = None
    obstruction: Obstruction | None = None
    reason: str = ""
    evidence: dict[str, Any] = field(default_factory=dict)

    def verify(self, network: Network) -> bool:
        """Re-check the carried certificate against the network from scratch."""
        if self.exists is True:
            return self.schedule is not None and verify_schedule(network, self.schedule)
        if self.exists is False:
            if self.obstruction is None:
                return False
            if self.obstruction.kind == "forced-cycle":
                return self.obstruction.verify(network)
            # an exhausted-search NO re-runs the (deterministic) search
            exists, _, _ = _exact_search(network, max_states=10_000_000)
            return not exists
        return True

    def to_json(self) -> dict[str, Any]:
        return {
            "network": self.network,
            "num_nodes": self.num_nodes,
            "num_channels": self.num_channels,
            "exists": self.exists,
            "authoritative": self.authoritative,
            "method": self.method,
            "schedule": list(self.schedule) if self.schedule is not None else None,
            "obstruction": self.obstruction.to_json() if self.obstruction else None,
            "reason": self.reason,
        }

    def digest(self) -> str:
        """Content digest of the verdict payload (delta-matrix pinning)."""
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return blake2b(payload.encode(), digest_size=16).hexdigest()

    def describe(self) -> str:
        state = {True: "YES", False: "NO", None: "UNDETERMINED"}[self.exists]
        return f"{self.network}: existence={state} via {self.method} ({self.reason})"


def decide_existence(
    network: Network,
    *,
    exact_arcs: int = 12,
    max_states: int = 200_000,
    obstruction_arcs: int = 220,
) -> ExistenceVerdict:
    """Decide whether any deadlock-free routing relation exists on ``network``.

    Tiers: constructive YES screens, the exhaustive search when the digraph
    has at most ``exact_arcs`` link channels (authoritative both ways,
    state-budgeted by ``max_states``), the forced-precedence NO screen up
    to ``obstruction_arcs`` channels, otherwise UNDETERMINED.
    """
    cids = _link_cids(network)
    base: dict[str, Any] = {
        "network": network.name,
        "num_nodes": network.num_nodes,
        "num_channels": len(cids),
    }
    if network.num_nodes <= 1:
        return ExistenceVerdict(
            exists=True, authoritative=True, method="trivial",
            schedule=tuple(cids), reason="single node: no pairs to route", **base,
        )
    screened = _screen_schedules(network)
    if screened is not None:
        method, schedule = screened
        return ExistenceVerdict(
            exists=True, authoritative=True, method=method, schedule=schedule,
            reason="verified channel-ordering certificate", **base,
        )
    if len(cids) <= exact_arcs:
        try:
            exists, schedule, states = _exact_search(network, max_states)
        except _Budget:
            pass
        else:
            if exists:
                return ExistenceVerdict(
                    exists=True, authoritative=True, method="exact-search",
                    schedule=schedule, evidence={"states": states},
                    reason="verified channel-ordering certificate (exhaustive search)",
                    **base,
                )
            obstruction = forced_cycle(network)
            if obstruction is None:
                obstruction = Obstruction(steps=(), kind="exhausted")
            return ExistenceVerdict(
                exists=False, authoritative=True, method="exact-search",
                obstruction=obstruction, evidence={"states": states},
                reason="exhaustive schedule search found no valid channel ordering",
                **base,
            )
    if len(cids) <= obstruction_arcs:
        obstruction = forced_cycle(network)
        if obstruction is not None:
            return ExistenceVerdict(
                exists=False, authoritative=True, method="forced-cycle",
                obstruction=obstruction,
                reason="cyclic forced-precedence constraints defeat every ordering",
                **base,
            )
    return ExistenceVerdict(
        exists=None, authoritative=False, method="undetermined",
        reason="screens silent and digraph too large for the exhaustive search",
        **base,
    )


# ----------------------------------------------------------------------
# the constructive synthesizer
# ----------------------------------------------------------------------
@dataclass
class Witness:
    """A synthesized routing relation realizing an existence YES.

    ``kind`` records which synthesis tier produced it: ``"nd-minimal"`` (a
    deterministic minimal-path ``R(n, d)`` relation accepted only after
    *both* the theorem and Duato checkers certified it at synthesis time)
    or ``"cnd-ordered"`` (the general increasing-path ``R(c, n, d)``
    relation read off the ordering certificate; Duato's condition does not
    apply to CND relations, the theorem checker must certify it).
    ``table`` holds the explicit route cells in the fuzz table-key grammar
    (``n{node}->{dest}`` / ``c{cid}->{dest}`` / ``i{node}->{dest}``).
    """

    algorithm: RoutingAlgorithm
    kind: str
    table: dict[str, list[int]]

    @property
    def nd(self) -> bool:
        return self.kind == "nd-minimal"


def _cnd_ordered_table(network: Network, schedule: tuple[int, ...]) -> dict[str, list[int]]:
    """Deterministic increasing-path routes from an ordering certificate.

    Per destination, ``good`` channels (those starting a strictly
    increasing path to the destination) are computed by one pass down the
    order; each state then takes the lowest-ranked good channel above its
    input.  A valid certificate makes every reachable state routable; an
    invalid one leaves gaps the theorem checker flags as not
    wait-connected (the fuzz oracle's teeth against bogus YES claims).
    """
    rank = {cid: i for i, cid in enumerate(schedule)}
    by_rank = sorted(rank, key=lambda cid: rank[cid])
    table: dict[str, list[int]] = {}
    for dest in range(network.num_nodes):
        good: set[int] = set()
        for cid in reversed(by_rank):
            ch = network.channel(cid)
            if ch.dst == dest or any(
                c.cid in good and rank[c.cid] > rank[cid]
                for c in network.out_channels(ch.dst)
            ):
                good.add(cid)

        def next_cid(node: int, floor: int, dest: int = dest, good: set[int] = good) -> int | None:
            best: int | None = None
            for c in network.out_channels(node):
                r = rank[c.cid]
                if r > floor and c.cid in good and (best is None or r < rank[best]):
                    best = c.cid
            return best

        # walk reachable states: injection first, then channel inputs
        pending: list[tuple[str, int, int]] = [
            (f"i{s}->{dest}", s, -1) for s in range(network.num_nodes) if s != dest
        ]
        seen: set[str] = set()
        while pending:
            key, node, floor = pending.pop()
            if key in seen:
                continue
            seen.add(key)
            nxt = next_cid(node, floor)
            if nxt is None:
                table[key] = []
                continue
            table[key] = [nxt]
            ch = network.channel(nxt)
            if ch.dst != dest:
                pending.append((f"c{nxt}->{dest}", ch.dst, rank[nxt]))
    return table


def _nd_minimal_assignment(
    network: Network, *, repair_rounds: int | None = None
) -> dict[tuple[int, int], int] | None:
    """A deterministic minimal-path ``(node, dest) -> cid`` choice whose
    joint consecutive-dependency graph is acyclic, or ``None``.

    Greedy lowest-cid choices plus bounded cycle repair: while the joint
    dependency graph is cyclic, advance the first on-cycle cell that still
    has an untried minimal candidate.  Deterministic; gives up after the
    repair budget.
    """
    dist = network.shortest_distances()
    cells: list[tuple[int, int]] = []
    cand: dict[tuple[int, int], list[int]] = {}
    for dest in range(network.num_nodes):
        for node in range(network.num_nodes):
            if node == dest or dist[node][dest] < 0:
                continue
            mins = sorted(
                c.cid for c in network.out_channels(node)
                if dist[c.dst][dest] == dist[node][dest] - 1
            )
            if not mins:
                return None
            cells.append((node, dest))
            cand[(node, dest)] = mins
    choice = {cell: 0 for cell in cells}
    if repair_rounds is None:
        repair_rounds = 4 * len(network.link_channels) + 16

    def dep_adj() -> tuple[dict[int, list[int]], dict[tuple[int, int], list[tuple[int, int]]]]:
        adj: dict[int, list[int]] = {}
        labels: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (node, dest), idx in choice.items():
            g = cand[(node, dest)][idx]
            head = network.channel(g).dst
            if head == dest:
                continue
            g2 = cand[(head, dest)][choice[(head, dest)]]
            adj.setdefault(g, []).append(g2)
            labels.setdefault((g, g2), []).append((node, dest))
        return adj, labels

    for _ in range(repair_rounds):
        adj, labels = dep_adj()
        vertices = set(adj)
        for targets in adj.values():
            vertices.update(targets)
        cycle = find_cycle_adj(vertices, adj)
        if cycle is None:
            return {
                cell: cand[cell][idx] for cell, idx in choice.items()
            }
        advanced = False
        k = len(cycle)
        for i in range(k):
            edge = (cycle[i], cycle[(i + 1) % k])
            for cell in labels.get(edge, []):
                if choice[cell] + 1 < len(cand[cell]):
                    choice[cell] += 1
                    advanced = True
                    break
            if advanced:
                break
        if not advanced:
            return None
    return None


def _witness_tables(
    network: Network, schedule: tuple[int, ...]
) -> tuple[str, dict[str, list[int]]]:
    """Pick the synthesis tier: certified ND-minimal if possible, else CND."""
    from ..routing.properties import is_coherent, provides_minimal_path

    assignment = _nd_minimal_assignment(network)
    if assignment is not None:
        table = {
            f"n{node}->{dest}": [cid] for (node, dest), cid in assignment.items()
        }
        algo = _build_witness(network, "nd-minimal", table)
        tc = TransitionCache(algo)
        if is_coherent(algo, transitions=tc) and provides_minimal_path(algo, transitions=tc):
            from . import duato, necsuf

            theorem_ok = necsuf.verify(algo).deadlock_free
            duato_ok = duato.search_escape(algo, transitions=tc).deadlock_free
            if theorem_ok and duato_ok:
                return "nd-minimal", table
    return "cnd-ordered", _cnd_ordered_table(network, schedule)


def _build_witness(
    network: Network, kind: str, table: dict[str, list[int]]
) -> RoutingAlgorithm:
    from ..routing.relation import NodeDestRouting, RoutingAlgorithm, WaitPolicy
    from ..topology.channel import Channel

    if kind == "nd-minimal":

        class _NdWitness(NodeDestRouting):
            name = "existence-witness-nd"
            wait_policy = WaitPolicy.SPECIFIC

            def route_nd(self, node: int, dest: int) -> frozenset[Channel]:
                cids = table.get(f"n{node}->{dest}", [])
                return frozenset(self.network.channel(c) for c in cids)

        return _NdWitness(network)

    class _CndWitness(RoutingAlgorithm):
        name = "existence-witness-cnd"
        form = "CND"
        wait_policy = WaitPolicy.SPECIFIC

        def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
            if node == dest:
                return frozenset()
            key = f"c{c_in.cid}->{dest}" if c_in.is_link else f"i{node}->{dest}"
            cids = table.get(key, [])
            return frozenset(self.network.channel(c) for c in cids)

    return _CndWitness(network)


def synthesize_witness(network: Network, schedule: tuple[int, ...]) -> Witness:
    """Emit a concrete routing relation realizing an ordering certificate.

    Tier 1 tries a deterministic minimal-path ND relation and keeps it only
    when the theorem *and* Duato checkers both certify it (some orderable
    networks -- the bidirectional odd ring on one virtual channel is the
    smallest -- admit no deadlock-free minimal deterministic relation at
    all, so this tier cannot always win).  Tier 2 reads the increasing-path
    CND relation straight off the certificate; its CWG is acyclic by
    construction and the theorem checker must certify it.
    """
    kind, table = _witness_tables(network, schedule)
    return Witness(algorithm=_build_witness(network, kind, table), kind=kind, table=table)
