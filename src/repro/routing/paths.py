"""Path enumeration under a routing relation.

These helpers materialize the set ``R(src, dest)`` of Definition 4 -- every
path a routing algorithm permits between a pair of nodes -- by depth-first
search over routing states ``(input channel, node)``.  They power the
coherence/minimality property checkers, the degree-of-adaptiveness
cross-checks, and the False-Resource-Cycle witness search.

Nonminimal algorithms can permit unboundedly long (even cyclic) paths, so
every enumerator takes a ``max_hops`` bound; ``simple=True`` additionally
forbids revisiting a node, which matches the paths a *coherent* algorithm
may use (Definition 7) and is the right setting for counting.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..topology.channel import Channel
from .relation import RoutingAlgorithm


def enumerate_paths(
    algorithm: RoutingAlgorithm,
    src: int,
    dest: int,
    *,
    max_hops: int | None = None,
    simple: bool = True,
    limit: int | None = None,
) -> Iterator[tuple[Channel, ...]]:
    """Yield every permitted channel path from ``src`` to ``dest``.

    Paths are tuples of link channels in traversal order.  ``max_hops``
    defaults to ``num_nodes`` for simple paths and must be given explicitly
    otherwise (non-simple enumeration without a bound would not terminate
    for nonminimal relations).  ``limit`` caps the number of paths yielded.
    """
    if src == dest:
        yield ()
        return
    net = algorithm.network
    if max_hops is None:
        if not simple:
            raise ValueError("non-simple enumeration requires an explicit max_hops")
        max_hops = net.num_nodes
    count = 0
    stack: list[Channel] = []
    visited = {src}
    channels = net.channels
    route_masks = algorithm.route_masks

    def dfs(a: int, node: int) -> Iterator[tuple[Channel, ...]]:
        nonlocal count
        if node == dest:
            yield tuple(stack)
            count += 1
            return
        if len(stack) >= max_hops:
            return
        # the route mask's bits in ascending cid order
        m = route_masks(a, node, dest)[0]
        while m:
            low = m & -m
            m ^= low
            c = channels[low.bit_length() - 1]
            if simple and c.dst in visited:
                continue
            stack.append(c)
            if simple:
                visited.add(c.dst)
            yield from dfs(c.cid, c.dst)
            stack.pop()
            if simple:
                visited.discard(c.dst)
            if limit is not None and count >= limit:
                return

    yield from dfs(net.injection_channel(src).cid, src)


def count_paths(
    algorithm: RoutingAlgorithm,
    src: int,
    dest: int,
    *,
    max_hops: int | None = None,
    simple: bool = True,
) -> int:
    """Number of permitted paths from ``src`` to ``dest`` (see enumerate_paths)."""
    return sum(1 for _ in enumerate_paths(algorithm, src, dest, max_hops=max_hops, simple=simple))


def count_minimal_paths(algorithm: RoutingAlgorithm, src: int, dest: int, distance: int) -> int:
    """Number of permitted paths of exactly ``distance`` hops (shortest paths)."""
    return sum(
        1
        for p in enumerate_paths(algorithm, src, dest, max_hops=distance, simple=True)
        if len(p) == distance
    )


def has_route(algorithm: RoutingAlgorithm, src: int, dest: int, *, max_hops: int | None = None) -> bool:
    """True if the relation permits at least one path from ``src`` to ``dest``."""
    for _ in enumerate_paths(algorithm, src, dest, max_hops=max_hops, simple=True, limit=1):
        return True
    return False


def path_nodes(path: tuple[Channel, ...], src: int) -> list[int]:
    """Node sequence visited by a channel path starting at ``src``."""
    nodes = [src]
    for c in path:
        if c.src != nodes[-1]:
            raise ValueError(f"discontinuous path at {c!r} (expected src {nodes[-1]})")
        nodes.append(c.dst)
    return nodes
