"""Structural properties of routing algorithms (Definitions 5-7 and friends).

Duato's necessary-and-sufficient condition demands *coherence* (prefix- and
suffix-closure, no node revisits) and a minimal path for every pair; the
paper's whole point is that its own condition needs neither.  These checkers
make the distinction executable: the Section-9 algorithms (HPL, EFA) fail
``is_coherent`` yet pass the CWG condition, and the benchmarks record both.

The per-pair checks work by path enumeration (:mod:`repro.routing.paths`),
which names the first offending path but grows with the number of permitted
paths.  :func:`is_coherent` therefore decides on the per-destination
routing-state graphs (:class:`~repro.core.transitions.TransitionCache`),
whose cost grows with the number of routing states -- once per ``(node,
dest)`` row for an ``R(n, d)`` relation.  When its certificate declines,
each violation flags the pairs it can affect, and only those are
enumerated, to find and word the first counterexample.
:func:`provides_minimal_path` reads the same graphs and decides exactly,
without enumerating.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..topology.channel import Channel
from .paths import enumerate_paths, has_route, path_nodes
from .relation import RoutingAlgorithm, is_node_dest

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

    Decided on the per-destination state graphs (``transitions``, built
    here when absent; pass the ones already built for ``algorithm`` to
    share them): when :func:`certifies_coherence` holds, so does the
    relation.  Otherwise each violation of the certificate flags the
    ``(src, dest)`` pairs whose source lies upstream of it, and only the
    flagged pairs are enumerated -- prefix closure, then suffix closure,
    then node revisits, each over its flagged pairs in ``(src, dest)``
    order, the first failure reported with its counterexample.  A pair
    left unflagged passes that check's enumeration for every
    ``max_hops`` (see :func:`certifies_coherence`), so the report is the
    one the full per-pair enumeration -- prefix, suffix and revisit checks
    over every pair in turn -- would give, and a relation whose flagged
    pairs all pass holds.
    """
    from ..core.transitions import TransitionCache  # importing repro.core is heavy

    tc = transitions or TransitionCache(algorithm)
    bad = _violations(algorithm, tc)
    if not bad:
        return PropertyReport(True)
    bound = max_hops if max_hops is not None else algorithm.network.num_nodes + 1
    checks = (
        ("prefix-closed", prefix_closed_pair, max_hops),
        ("suffix-closed", suffix_closed_pair, max_hops),
        ("node-revisit-free", revisit_free_pair, bound),
    )
    for (label, check, hops), pairs in zip(checks, _flagged_pairs(tc, bad)):
        for src, dest in pairs:
            rep = check(algorithm, src, dest, max_hops=hops)
            if not rep:
                return PropertyReport(False, f"not {label}: {rep.counterexample}", rep.details)
    return PropertyReport(True)


#: violation bits, one per check of Definition 7, in reporting order
_PREFIX, _SUFFIX, _REVISIT = 1, 2, 4


def certifies_coherence(algorithm: RoutingAlgorithm, transitions: TransitionCache) -> bool:
    """Sufficient condition for Definition 7 on the routing-state graphs.

    Every permitted path to ``d`` is a walk through the states of
    ``transitions[d]`` that can still reach ``d`` ("live" states), and every
    live transition ``a -> c`` lies on such a walk.  The certificate holds
    when, for every destination ``d`` and live transition ``a -> c`` at
    node ``n = a.dst``:

    * ``c`` leaves ``n`` and no state reachable from ``c`` sits at ``n``, so
      no walk revisits a node (node-revisit-freedom, any hop bound) and no
      path is discontinuous;
    * for a link state ``a``, ``c in R(inj(n), n, d)``: the hop taken after
      arriving over ``a`` is also offered to a message injected at ``n``,
      and the rest of the suffix is the same walk (suffix closure);
    * ``c in R(a, n, m)`` for every node ``m`` other than ``d`` and ``n``
      reachable from ``c``: each hop of a path is offered again towards
      every later node of it (prefix closure).  The later nodes are merged
      per ``(a, c)`` across destinations, each union is expanded into
      per-``(a, m)`` demands once, and each demand is checked once,
      against ``transitions[m]`` when ``a`` is one of its states.

    For an ``R(n, d)`` relation (:func:`~repro.routing.relation.is_node_dest`)
    every state at ``n`` shares the walk's row ``R(n, d)``, so each test
    runs once per ``(n, d)`` row instead of once per state: the suffix test
    holds trivially, and each prefix demand ``c in R(n, m)`` is checked
    once per ``(n, c, m)``, against ``n``'s row in ``transitions[m]`` or,
    when ``n`` has no state there, one ``route_masks`` query at ``n``'s
    injection channel.

    Holding implies the per-pair enumeration of all three checks holds for
    every ``max_hops``.  A violation is exact for walks, not for paths: a
    path failing a check is a live walk that violates the matching test,
    but a violation on a walk that revisits a node need not show on any
    simple path, so declining proves nothing by itself.
    """
    return not _violations(algorithm, transitions)


def _violations(
    algorithm: RoutingAlgorithm, transitions: TransitionCache
) -> dict[int, dict[int, int]]:
    """Every violation of :func:`certifies_coherence`'s tests, as ``dest ->
    key -> violation bits``, where the key is the violating state -- its
    node for an ``R(n, d)`` relation.  Empty exactly when the certificate
    holds.  A discontinuous hop violates all three checks, since every
    check's enumeration rejects a path that contains one."""
    from ..core.depgraph import bits

    net = algorithm.network
    heads, links = net.heads, net.link_mask
    tails = [ch.src for ch in net.channels]
    inj = [net.injection_channel(n).cid for n in net.nodes]
    by_node = is_node_dest(algorithm)
    # a key's node, and the input channel to query the relation at it with
    node_of, query_in = (
        (range(net.num_nodes), inj) if by_node else (heads, range(net.num_channels))
    )
    # dest -> key -> route mask at the key in dest's walk
    rows_at: dict[int, dict[int, int]] = {
        dt.dest: {n: row[0] for n, row in dt.node_rows.items()} if by_node else dt.succ_masks
        for dt in transitions.all_destinations()
    }
    bad: dict[int, dict[int, int]] = {}
    # key -> c -> node mask of every m whose R(key, m) must offer c
    later_of: dict[int, dict[int, int]] = {}
    for dest, rows in rows_at.items():
        dest_bit = 1 << dest
        reach = transitions[dest].downstream_node_masks
        flags: dict[int, int] = {}
        for key, outs in rows.items():
            if not outs:
                continue
            here = node_of[key]
            fresh = rows[inj[here]] if not by_node and links >> key & 1 else outs
            row = later_of.setdefault(key, {})
            f = 0
            for c in bits(outs):
                later = reach[c]
                if not later & dest_bit:
                    continue
                if tails[c] != here:
                    f |= _PREFIX | _SUFFIX | _REVISIT
                elif later >> here & 1:
                    f |= _REVISIT
                if not fresh >> c & 1:
                    f |= _SUFFIX
                row[c] = row.get(c, 0) | later & ~(dest_bit | 1 << here)
            if f:
                flags[key] = f
        if flags:
            bad[dest] = flags
    # key -> c -> node mask of every m whose R(key, m) lacks c
    missing: dict[int, dict[int, int]] = {}
    for key, row in later_of.items():
        need: dict[int, int] = {}  # m -> cids c required in R(key, m)
        for c, nodes in row.items():
            bit = 1 << c
            for m in bits(nodes):
                need[m] = need.get(m, 0) | bit
        for m, wanted in need.items():
            have = rows_at[m].get(key)
            if have is None:
                have = algorithm.route_masks(query_in[key], node_of[key], m)[0]
            lack = wanted & ~have
            if lack:
                miss = missing.setdefault(key, {})
                for c in bits(lack):
                    miss[c] = miss.get(c, 0) | 1 << m
    if missing:
        # the prefix violations each walk itself contains
        for dest, rows in rows_at.items():
            reach = transitions[dest].downstream_node_masks
            live = 1 << dest
            flags = bad.get(dest, {})
            for key, miss in missing.items():
                outs = rows.get(key, 0)
                for c, ms in miss.items():
                    if outs >> c & 1 and reach[c] & live and reach[c] & ms & ~live:
                        flags[key] = flags.get(key, 0) | _PREFIX
                        break
            if flags:
                bad[dest] = flags
    return bad


def _flagged_pairs(
    transitions: TransitionCache, bad: dict[int, dict[int, int]]
) -> list[list[tuple[int, int]]]:
    """Per check, in reporting order, the sorted ``(src, dest)`` pairs
    whose injection state reaches a state that violates it in ``dest``'s
    walk.  A path of ``(src, dest)`` failing the check's enumeration runs
    through such a state, so every other pair passes it."""
    net = transitions.algorithm.network
    heads = net.heads
    out: list[list[tuple[int, int]]] = [[], [], []]
    for dest, flags in bad.items():
        dt = transitions[dest]
        if dt.node_rows is not None:
            seed = {a: flags.get(heads[a], 0) for a in dt.succ_masks}
        else:
            seed = {a: flags.get(a, 0) for a in dt.succ_masks}
        up = dt.propagate(seed)
        for src in net.nodes:
            if src == dest:
                continue
            f = up[net.injection_channel(src).cid]
            for i, pairs in enumerate(out):
                if f >> i & 1:
                    pairs.append((src, dest))
    for pairs in out:
        pairs.sort()
    return out


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
