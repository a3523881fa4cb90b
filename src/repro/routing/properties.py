"""Structural properties of routing algorithms (Definitions 5-7 and friends).

Duato's necessary-and-sufficient condition demands *coherence* (prefix- and
suffix-closure, no node revisits) and a minimal path for every pair; the
paper's whole point is that its own condition needs neither.  These checkers
make the distinction executable: the Section-9 algorithms (HPL, EFA) fail
``is_coherent`` yet pass the CWG condition, and the benchmarks record both.

The per-pair checks work by path enumeration (:mod:`repro.routing.paths`),
which names the first offending path but grows with the number of permitted
paths.  :func:`is_coherent` therefore first tries a sufficient certificate
read off the per-destination routing-state graphs
(:class:`~repro.core.transitions.TransitionCache`), whose cost grows with
the number of routing states; only when the certificate declines does the
enumeration run, and it alone words every counterexample.
:func:`provides_minimal_path` reads the same graphs and decides exactly,
without enumerating.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..topology.channel import Channel
from .paths import enumerate_paths, has_route, path_nodes
from .relation import RoutingAlgorithm

if TYPE_CHECKING:
    from ..core.transitions import DestinationTransitions, TransitionCache


@dataclass
class PropertyReport:
    """Outcome of a property check, with a counterexample when it fails."""

    holds: bool
    counterexample: str = ""
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


def is_connected(algorithm: RoutingAlgorithm, *, max_hops: int | None = None) -> PropertyReport:
    """Every ordered pair of distinct nodes has at least one permitted path."""
    net = algorithm.network
    for src in net.nodes:
        for dest in net.nodes:
            if src != dest and not has_route(algorithm, src, dest, max_hops=max_hops):
                return PropertyReport(False, f"no route {src} -> {dest}")
    return PropertyReport(True)


def is_minimal(algorithm: RoutingAlgorithm, *, max_hops: int | None = None) -> PropertyReport:
    """Every permitted path is a shortest path."""
    net = algorithm.network
    dist = net.shortest_distances()
    for src in net.nodes:
        for dest in net.nodes:
            if src == dest:
                continue
            for path in enumerate_paths(algorithm, src, dest, max_hops=max_hops):
                if len(path) != dist[src][dest]:
                    return PropertyReport(
                        False,
                        f"path {src}->{dest} has {len(path)} hops, distance is {dist[src][dest]}",
                        {"path": path},
                    )
    return PropertyReport(True)


def provides_minimal_path(
    algorithm: RoutingAlgorithm, *, transitions: TransitionCache | None = None
) -> PropertyReport:
    """Duato's side condition: some permitted path per pair is minimal.

    (Required by Duato's N&S condition even for nonminimal algorithms;
    *not* required by the CWG condition.)

    Decided on the per-destination state graphs (``transitions``, built
    here when absent) by one backward sweep per destination ``d``: a state
    at node ``n`` is *good* when ``n == d`` or some successor at distance
    ``dist[n][d] - 1`` is good, i.e. a walk of exactly ``dist[n][d]`` hops
    reaches ``d``.  ``(s, d)`` has a minimal permitted path iff ``inj(s)``
    is good.  This is exact: such a walk is a shortest path, hence simple,
    hence one the path enumeration yields, and every minimal path is such
    a walk.  A destination with a transition that does not leave its
    state's node over a link breaks that argument, so its pairs are
    enumerated instead.  The lexicographically first failing ``(src,
    dest)`` is reported.
    """
    from ..core.transitions import TransitionCache  # importing repro.core is heavy

    net = algorithm.network
    dist = net.shortest_distances()
    leaving = [0] * net.num_nodes  # node -> cids of the link channels leaving it
    for c in net.link_channels:
        leaving[c.src] |= 1 << c.cid
    first: tuple[int, int] | None = None
    for dt in (transitions or TransitionCache(algorithm)).all_destinations():
        dest = dt.dest
        good = _minimal_states(dt, dist, leaving)
        for src in net.nodes:
            if src == dest:
                continue
            d = dist[src][dest]
            if good is None:
                ok = any(len(p) == d for p in enumerate_paths(algorithm, src, dest, max_hops=d))
            else:
                ok = bool(good >> net.injection_channel(src).cid & 1)
            if not ok and (first is None or (src, dest) < first):
                first = (src, dest)
    if first is None:
        return PropertyReport(True)
    return PropertyReport(False, f"no minimal path permitted {first[0]} -> {first[1]}")


def _minimal_states(
    dt: DestinationTransitions, dist: Sequence[Sequence[int]], leaving: list[int]
) -> int | None:
    """Cid bitmask of the states of ``dt`` from which a walk of exactly their
    node's distance reaches the destination; ``None`` when some transition
    does not leave its state's node over a link."""
    dest = dt.dest
    heads = dt.algorithm.network.heads
    succ = dt.succ_masks
    layers: dict[int, list[int]] = {}
    for a, outs in succ.items():
        node = heads[a]
        if outs & ~leaving[node]:
            return None
        layers.setdefault(dist[node][dest], []).append(a)
    good = prev = 0
    for h in range(max(layers, default=-1) + 1):
        cur = 0
        for a in layers.get(h, ()):
            if h == 0 or succ[a] & prev:
                cur |= 1 << a
        good |= cur
        prev = cur
    return good


def _path_is_permitted(algorithm: RoutingAlgorithm, src: int, dest: int, path: tuple[Channel, ...]) -> bool:
    """Does the relation permit following exactly ``path`` from src to dest?"""
    a = algorithm.network.injection_channel(src).cid
    node = src
    for c in path:
        if not algorithm.route_masks(a, node, dest)[0] >> c.cid & 1:
            return False
        a, node = c.cid, c.dst
    return node == dest


def prefix_closed_pair(
    algorithm: RoutingAlgorithm, src: int, dest: int, *, max_hops: int | None = None
) -> PropertyReport:
    """Definition 5 restricted to the permitted paths of one ``(src, dest)`` pair."""
    for path in enumerate_paths(algorithm, src, dest, max_hops=max_hops):
        nodes = path_nodes(path, src)
        for cut in range(1, len(path)):
            mid = nodes[cut]
            if mid == src or mid == dest:
                continue
            # Prefix up to the *first* occurrence of mid, per Definition 5.
            first = nodes.index(mid)
            prefix = path[:first]
            if not _path_is_permitted(algorithm, src, mid, prefix):
                return PropertyReport(
                    False,
                    f"path {src}->{dest} via {mid}: prefix of {len(prefix)} hops not permitted "
                    f"when {mid} is the destination",
                    {"path": path, "prefix": prefix},
                )
    return PropertyReport(True)


def is_prefix_closed(algorithm: RoutingAlgorithm, *, max_hops: int | None = None) -> PropertyReport:
    """Definition 5: permitted path through n_x implies its prefix is permitted to n_x."""
    net = algorithm.network
    for src in net.nodes:
        for dest in net.nodes:
            if src == dest:
                continue
            rep = prefix_closed_pair(algorithm, src, dest, max_hops=max_hops)
            if not rep:
                return rep
    return PropertyReport(True)


def suffix_closed_pair(
    algorithm: RoutingAlgorithm, src: int, dest: int, *, max_hops: int | None = None
) -> PropertyReport:
    """Definition 6 restricted to the permitted paths of one ``(src, dest)`` pair."""
    for path in enumerate_paths(algorithm, src, dest, max_hops=max_hops):
        nodes = path_nodes(path, src)
        for cut in range(1, len(path)):
            mid = nodes[cut]
            if mid == dest:
                continue
            suffix = path[cut:]
            if not _path_is_permitted(algorithm, mid, dest, suffix):
                return PropertyReport(
                    False,
                    f"path {src}->{dest} via {mid}: suffix of {len(suffix)} hops not permitted "
                    f"when {mid} is the source",
                    {"path": path, "suffix": suffix},
                )
    return PropertyReport(True)


def is_suffix_closed(algorithm: RoutingAlgorithm, *, max_hops: int | None = None) -> PropertyReport:
    """Definition 6: permitted path through n_x implies its suffix is permitted from n_x."""
    net = algorithm.network
    for src in net.nodes:
        for dest in net.nodes:
            if src == dest:
                continue
            rep = suffix_closed_pair(algorithm, src, dest, max_hops=max_hops)
            if not rep:
                return rep
    return PropertyReport(True)


def revisit_free_pair(
    algorithm: RoutingAlgorithm, src: int, dest: int, *, max_hops: int
) -> PropertyReport:
    """One pair of :func:`never_revisits_node` (``max_hops`` already resolved)."""
    for path in enumerate_paths(algorithm, src, dest, max_hops=max_hops, simple=False):
        nodes = path_nodes(path, src)
        if len(set(nodes)) != len(nodes):
            return PropertyReport(False, f"path {src}->{dest} revisits a node", {"path": path})
    return PropertyReport(True)


def never_revisits_node(algorithm: RoutingAlgorithm, *, max_hops: int | None = None) -> PropertyReport:
    """No permitted path routes through the same node twice.

    Checked over non-simple enumeration bounded at ``max_hops`` (default:
    ``num_nodes + 1`` hops), which sees only the revisiting paths that
    reach the destination within the bound.  For an ND relation the default
    is enough: dropping the first hop of a permitted path leaves a permitted
    path (the relation ignores the input channel), so a shortest revisiting
    path without its first hop is simple, and the whole path has at most
    ``num_nodes`` hops.  A CND relation can need more hops to reach the
    destination after its first revisit, so for CND relations the default
    bound is not sufficient in general.
    """
    net = algorithm.network
    bound = max_hops if max_hops is not None else net.num_nodes + 1
    for src in net.nodes:
        for dest in net.nodes:
            if src == dest:
                continue
            rep = revisit_free_pair(algorithm, src, dest, max_hops=bound)
            if not rep:
                return rep
    return PropertyReport(True)


def is_coherent(
    algorithm: RoutingAlgorithm,
    *,
    max_hops: int | None = None,
    transitions: TransitionCache | None = None,
) -> PropertyReport:
    """Definition 7: prefix-closed, suffix-closed, and never revisits a node.

    Decided on the per-destination state graphs when
    :func:`certifies_coherence` holds; otherwise the per-pair enumeration
    runs and reports the first failing check with its counterexample.  Pass
    the ``transitions`` already built for ``algorithm`` to share them.
    """
    from ..core.transitions import TransitionCache  # importing repro.core is heavy

    if certifies_coherence(algorithm, transitions or TransitionCache(algorithm)):
        return PropertyReport(True)
    return enumerate_coherence(algorithm, max_hops=max_hops)


def enumerate_coherence(algorithm: RoutingAlgorithm, *, max_hops: int | None = None) -> PropertyReport:
    """Definition 7 by path enumeration alone: the first failing check wins."""
    for check, label in (
        (is_prefix_closed, "prefix-closed"),
        (is_suffix_closed, "suffix-closed"),
        (never_revisits_node, "node-revisit-free"),
    ):
        rep = check(algorithm, max_hops=max_hops)
        if not rep:
            return PropertyReport(False, f"not {label}: {rep.counterexample}", rep.details)
    return PropertyReport(True)


def certifies_coherence(algorithm: RoutingAlgorithm, transitions: TransitionCache) -> bool:
    """Sufficient condition for Definition 7 on the routing-state graphs.

    Every permitted path to ``d`` is a walk through the states of
    ``transitions[d]`` that can still reach ``d`` ("live" states), and every
    live transition ``a -> c`` lies on such a path.  The certificate holds
    when, for every destination ``d`` and live transition ``a -> c`` at
    node ``n = a.dst``:

    * ``c`` leaves ``n`` and no state reachable from ``c`` sits at ``n``, so
      no walk revisits a node (node-revisit-freedom, any hop bound);
    * for a link state ``a``, ``c in R(inj(n), n, d)``: the hop taken after
      arriving over ``a`` is also offered to a message injected at ``n``,
      and the rest of the suffix is the same walk (suffix closure);
    * ``c in R(a, n, m)`` for every node ``m != d`` reachable from ``c``:
      each hop of a path is offered again towards every later node of it
      (prefix closure).  The later nodes are merged per ``(a, c)`` across
      destinations, each union is expanded into per-``(a, m)`` demands
      once, and each demand is checked once, against ``transitions[m]``
      when ``a`` is one of its states.

    Holding implies :func:`enumerate_coherence` holds for every
    ``max_hops``; declining proves nothing.  Nothing assumes that an
    ND-declared relation ignores its input channel.
    """
    from ..core.depgraph import bits

    net = algorithm.network
    heads, links = net.heads, net.link_mask
    tails = [ch.src for ch in net.channels]
    inj = [net.injection_channel(n).cid for n in net.nodes]
    # a -> c -> node mask of every m whose R(a, a.dst, m) must offer c
    later_of: dict[int, dict[int, int]] = {}
    for dt in transitions.all_destinations():
        dest_bit = 1 << dt.dest
        succ = dt.succ_masks
        reach = dt.downstream_node_masks
        for a, outs in succ.items():
            if not outs:
                continue
            here = heads[a]
            fresh = succ[inj[here]] if links >> a & 1 else outs
            row = later_of.get(a)
            if row is None:
                row = later_of[a] = {}
            for c in bits(outs):
                later = reach[c]
                if not later & dest_bit:
                    continue
                if later >> here & 1 or tails[c] != here or not fresh >> c & 1:
                    return False
                row[c] = row.get(c, 0) | (later ^ dest_bit)
    for a, row in later_of.items():
        need: dict[int, int] = {}  # m -> cids c required in R(a, a.dst, m)
        for c, nodes in row.items():
            bit = 1 << c
            for m in bits(nodes):
                need[m] = need.get(m, 0) | bit
        for m, wanted in need.items():
            have = transitions[m].succ_masks.get(a)
            if have is None:
                have = algorithm.route_masks(a, heads[a], m)[0]
            if wanted & ~have:
                return False
    return True


def is_fully_adaptive(algorithm: RoutingAlgorithm) -> PropertyReport:
    """Every minimal *physical* path is permitted for every pair.

    "All fully adaptive routing algorithms allow a message to use any
    physical channel that is part of a shortest path" (Section 1); virtual
    channel restrictions on those physical channels are allowed.
    """
    net = algorithm.network
    dist = net.shortest_distances()
    for src in net.nodes:
        for dest in net.nodes:
            if src == dest:
                continue
            d = dist[src][dest]
            # Physical node sequences of permitted minimal paths.
            permitted = {
                tuple(path_nodes(p, src))
                for p in enumerate_paths(algorithm, src, dest, max_hops=d)
                if len(p) == d
            }
            # All minimal physical node sequences in the network.
            all_min = _minimal_node_paths(net, src, dest, d, dist)
            missing = all_min - permitted
            if missing:
                return PropertyReport(
                    False,
                    f"{src}->{dest}: {len(missing)} of {len(all_min)} minimal physical paths prohibited",
                    {"missing": sorted(missing)[:4]},
                )
    return PropertyReport(True)


def _minimal_node_paths(net, src: int, dest: int, d: int, dist) -> set[tuple[int, ...]]:
    """All shortest node sequences src..dest in the underlying graph."""
    out: set[tuple[int, ...]] = set()

    def dfs(node: int, acc: list[int]) -> None:
        if node == dest:
            out.add(tuple(acc))
            return
        for nbr in net.neighbors_out(node):
            if dist[nbr][dest] == dist[node][dest] - 1:
                acc.append(nbr)
                dfs(nbr, acc)
                acc.pop()

    dfs(src, [src])
    return out
