"""Channel-form references for the mask-native registry relations.

Every registry relation on the mesh, torus, hypercube and 3D networks
answers ``route_masks`` from cid-mask tables.  The classes below are the
Channel bodies those relations were written in before (``route`` /
``route_nd`` over the network's channels plus the waiting hook), kept as
test-only references: :func:`reference_for` builds the reference of a
relation instance on the same network with the same parameters, and
``tests/test_route_masks.py`` checks the two agree at every reachable
state.
"""

from __future__ import annotations

from repro.routing import (
    DallySeitzTorus,
    DimensionOrderHypercube,
    DimensionOrderMesh,
    DraperGhoshMECA,
    DuatoFullyAdaptiveHypercube,
    DuatoFullyAdaptiveMesh,
    DuatoFullyAdaptiveTorus,
    EnhancedFullyAdaptive,
    HighestPositiveLast,
    LiStyleHypercube,
    MinimalAdaptive3D,
    NegativeFirst,
    NodeDestRouting,
    NorthLast,
    RelaxedEFA,
    RoutingAlgorithm,
    RoutingError,
    UnrestrictedMinimal,
    WaitPolicy,
    WestFirst,
    YangTsai,
)
from repro.topology.grid import direction_moves
from repro.topology.hypercube import differing_dimensions


def _deltas(net, node, dest):
    return [t - h for h, t in zip(net.coords[node], net.coords[dest])]


# ----------------------------------------------------------------------
# R(n, d) bodies as functions of (net, moves, node, dest) -> (route, wait)
# ----------------------------------------------------------------------
def _duato(net, moves, node, dest):
    deltas = _deltas(net, node, dest)
    for esc, delta in enumerate(deltas):
        if delta:
            break
    route = frozenset([c for (dim, sign), chans in moves[node].items() for c in chans
                       if deltas[dim] * sign > 0
                       and (c.vc == 1 or (c.vc == 0 and dim == esc))])
    return route, frozenset([c for c in route if c.vc == 0])


def _negative_first(net, moves, node, dest):
    deltas = _deltas(net, node, dest)
    out = []
    negs = [d for d, delta in enumerate(deltas) if delta < 0]
    if negs:
        for dim in negs:
            out.extend(moves[node].get((dim, -1), ()))
    else:
        for dim, delta in enumerate(deltas):
            if delta > 0:
                out.extend(moves[node].get((dim, +1), ()))
    return frozenset(out), frozenset(out)


def _west_first(net, moves, node, dest):
    dx, dy = _deltas(net, node, dest)
    out = []
    if dx < 0:
        out.extend(moves[node].get((0, -1), ()))
    else:
        if dx > 0:
            out.extend(moves[node].get((0, +1), ()))
        if dy != 0:
            out.extend(moves[node].get((1, +1 if dy > 0 else -1), ()))
    return frozenset(out), frozenset(out)


def _north_last(net, moves, node, dest):
    dx, dy = _deltas(net, node, dest)
    out = []
    if dx != 0:
        out.extend(moves[node].get((0, +1 if dx > 0 else -1), ()))
    if dy < 0:
        out.extend(moves[node].get((1, -1), ()))
    if dy > 0 and dx == 0:
        out.extend(moves[node].get((1, +1), ()))
    return frozenset(out), frozenset(out)


class FunctionReference(NodeDestRouting):
    """An ``R(n, d)`` body given as a function of ``(net, moves, node, dest)``."""

    def __init__(self, algorithm, body):
        super().__init__(algorithm.network)
        self.name = algorithm.name
        self.wait_policy = algorithm.wait_policy
        self._body = body
        self._moves = direction_moves(algorithm.network)

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        return self._body(self.network, self._moves, node, dest)[0]

    def waiting_subset(self, c_in, node, dest, permitted):
        if node == dest:
            return permitted
        return self._body(self.network, self._moves, node, dest)[1]


# ----------------------------------------------------------------------
# the input-dependent relation
# ----------------------------------------------------------------------
class HPLReference(RoutingAlgorithm):
    """Highest Positive Last over per-node ``(dim, sign) -> channels`` moves."""

    name = HighestPositiveLast.name

    def __init__(self, network, *, misroute=True, wait_any=False):
        super().__init__(network)
        self.ndims = len(network.meta["dims"])
        self.misroute = misroute
        self._wait_any = wait_any
        self.wait_policy = WaitPolicy.ANY if wait_any else WaitPolicy.SPECIFIC
        self._moves = direction_moves(network)
        self._dir = [None] * network.num_channels
        for by_dir in self._moves:
            for key, chans in by_dir.items():
                for c in chans:
                    self._dir[c.cid] = key

    def _u_turn_allowed(self, dim, sign, deltas):
        if sign > 0:
            return deltas[dim] > 0
        if deltas[dim] >= 0:
            return False
        return any(deltas[q] < 0 for q in range(dim + 1, self.ndims))

    def route(self, c_in, node, dest):
        if node == dest:
            return frozenset()
        deltas = _deltas(self.network, node, dest)
        negs = [d for d in range(self.ndims) if deltas[d] < 0]
        cand = []
        if negs:
            p = max(negs)
            cand.append((p, -1))
            for dim in range(p):
                if self.misroute or deltas[dim] != 0:
                    signs = (+1, -1) if self.misroute else ((+1,) if deltas[dim] > 0 else (-1,))
                    for sign in signs:
                        cand.append((dim, sign))
        else:
            low = min(d for d in range(self.ndims) if deltas[d] > 0)
            cand.append((low, +1))
            if self.misroute:
                for q in range(low, self.ndims):
                    cand.append((q, -1))
        came = self._dir[c_in.cid]
        moves = self._moves[node]
        out = []
        for dim, sign in cand:
            here = moves.get((dim, sign))
            if not here:
                continue
            if came is not None and came[0] == dim and came[1] != sign \
                    and not self._u_turn_allowed(dim, sign, deltas):
                continue
            out.extend(here)
        return frozenset(out)

    def waiting_subset(self, c_in, node, dest, permitted):
        if not permitted:
            return permitted
        deltas = _deltas(self.network, node, dest)
        if self._wait_any:
            dirs = self._dir
            toward = frozenset([
                c for c in permitted
                if deltas[dirs[c.cid][0]] * dirs[c.cid][1] > 0
            ])
            return toward or permitted
        negs = [d for d in range(self.ndims) if deltas[d] < 0]
        if negs:
            dim, sign = max(negs), -1
        else:
            dim, sign = min(d for d in range(self.ndims) if deltas[d] > 0), +1
        here = self._moves[node].get((dim, sign), ())
        wait = frozenset([c for c in here if c in permitted])
        if not wait:
            raise RoutingError(
                f"{self.name}: designated waiting channel dim={dim} sign={sign} "
                f"not in permitted set at node {node} (input {c_in!r})"
            )
        return wait


# ----------------------------------------------------------------------
# torus
# ----------------------------------------------------------------------
class DallySeitzReference(NodeDestRouting):
    name = DallySeitzTorus.name

    def __init__(self, algorithm):
        super().__init__(algorithm.network)
        self.wait_policy = algorithm.wait_policy
        self.fast = algorithm  # for direction() / crosses_dateline()
        self.dims = algorithm.dims
        self.vc_base = algorithm.vc_base

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        here = self.network.coord(node)
        there = self.network.coord(dest)
        for dim in range(len(self.dims)):
            if here[dim] != there[dim]:
                sign = self.fast.direction(dim, here[dim], there[dim])
                high = self.fast.crosses_dateline(dim, here[dim], there[dim], sign)
                vc = self.vc_base + (0 if high else 1)
                out = [
                    c
                    for c in self.network.out_channels(node)
                    if c.meta.get("dim") == dim and c.meta.get("sign") == sign and c.vc == vc
                ]
                if not out:
                    raise RoutingError(
                        f"{self.name}: missing channel dim={dim} sign={sign} vc={vc} at node {node}"
                    )
                return frozenset(out)
        return frozenset()


class DuatoTorusReference(NodeDestRouting):
    name = DuatoFullyAdaptiveTorus.name

    def __init__(self, algorithm):
        super().__init__(algorithm.network)
        self.wait_policy = algorithm.wait_policy
        self.fast = algorithm  # for _minimal_moves()
        self.escape = DallySeitzReference(algorithm.escape)

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        out = set(self.escape.route_nd(node, dest))
        for dim, sign in self.fast._minimal_moves(node, dest):
            for c in self.network.out_channels(node):
                if c.meta.get("dim") == dim and c.meta.get("sign") == sign and c.vc == 2:
                    out.add(c)
        return frozenset(out)

    def waiting_subset(self, c_in, node, dest, permitted):
        return frozenset([c for c in permitted if c.vc < 2])


# ----------------------------------------------------------------------
# dimension order
# ----------------------------------------------------------------------
class ECubeMeshReference(NodeDestRouting):
    name = DimensionOrderMesh.name

    def __init__(self, algorithm):
        super().__init__(algorithm.network)
        self.wait_policy = algorithm.wait_policy
        self.vc = algorithm.vc

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        here = self.network.coord(node)
        there = self.network.coord(dest)
        for dim, (h, t) in enumerate(zip(here, there)):
            if h != t:
                sign = 1 if t > h else -1
                out = [c for c in self.network.out_channels(node)
                       if c.meta.get("dim") == dim and c.meta.get("sign") == sign]
                if self.vc is not None:
                    out = [c for c in out if c.vc == self.vc]
                if not out:
                    raise RoutingError(f"{self.name}: no channel dim={dim} sign={sign} at node {node}")
                return frozenset(out)
        return frozenset()


class ECubeHypercubeReference(NodeDestRouting):
    name = DimensionOrderHypercube.name

    def __init__(self, algorithm):
        super().__init__(algorithm.network)
        self.wait_policy = algorithm.wait_policy
        self.vc = algorithm.vc

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        low = ((node ^ dest) & -(node ^ dest)).bit_length() - 1
        out = self.network.channels_between(node, node ^ (1 << low))
        if self.vc is not None:
            out = [c for c in out if c.vc == self.vc]
        return frozenset(out)


# ----------------------------------------------------------------------
# hypercube
# ----------------------------------------------------------------------
class _CubeReference(NodeDestRouting):
    def __init__(self, algorithm):
        super().__init__(algorithm.network)
        self.name = algorithm.name
        self.wait_policy = algorithm.wait_policy
        self.fast = algorithm

    def _channels(self, node, dim, vc):
        nbr = node ^ (1 << dim)
        return [c for c in self.network.channels_between(node, nbr) if c.vc == vc]


class EFAReference(_CubeReference):
    """EFA and its Theorem-6 relaxations; ``first_class_dims`` is the
    relation's own (a list of dimensions, not a mask)."""

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        allowed_first = set(self.fast.first_class_dims(node, dest))
        out = []
        for dim in differing_dimensions(node, dest):
            nbr = node ^ (1 << dim)
            for c in self.network.channels_between(node, nbr):
                if c.vc == 1 or (c.vc == 0 and dim in allowed_first):
                    out.append(c)
        return frozenset(out)

    def waiting_subset(self, c_in, node, dest, permitted):
        if not permitted or self.fast._wait_any:
            return permitted
        mu = differing_dimensions(node, dest)[0]
        nbr = node ^ (1 << mu)
        wait = frozenset(c for c in permitted if c.dst == nbr and c.vc == 0)
        if not wait:
            raise RoutingError(f"{self.name}: c^(1,mu) missing from permitted set at node {node}")
        return wait


class MECAReference(_CubeReference):
    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        needed = differing_dimensions(node, dest)
        out = []
        for dim in needed:
            out.extend(self._channels(node, dim, 0))
        out.extend(self._channels(node, needed[0], 1))
        return frozenset(out)

    def waiting_subset(self, c_in, node, dest, permitted):
        return frozenset([c for c in permitted if c.vc == 1])


class YangTsaiReference(_CubeReference):
    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        pos, neg = self.fast._signed_needed(node, dest)
        out = []
        for dim in (pos if pos else neg):
            out.extend(self._channels(node, dim, 0))
        out.extend(self._channels(node, pos[0] if pos else neg[0], 1))
        return frozenset(out)

    def waiting_subset(self, c_in, node, dest, permitted):
        return frozenset([c for c in permitted if c.vc == 1])


class LiReference(_CubeReference):
    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        needed = differing_dimensions(node, dest)
        mu = needed[0]
        dims = needed if (node >> mu) & 1 else [mu]
        out = []
        for dim in dims:
            out.extend(self._channels(node, dim, 0))
        return frozenset(out)

    def waiting_subset(self, c_in, node, dest, permitted):
        diff = node ^ dest
        mu_nbr = node ^ (diff & -diff)
        return frozenset([c for c in permitted if c.dst == mu_nbr])


# ----------------------------------------------------------------------
# distance-driven
# ----------------------------------------------------------------------
class Adaptive3DReference(NodeDestRouting):
    """The minimal candidates and the dimension-ordered escape, per query."""

    def __init__(self, algorithm):
        super().__init__(algorithm.network)
        self.name = algorithm.name
        self.wait_policy = algorithm.wait_policy
        self._dist = algorithm.network.shortest_distances()

    def _sets(self, node, dest):
        here = self._dist[node][dest]
        minimal = [c for c in self.network.out_channels(node)
                   if c.is_link and self._dist[c.dst][dest] == here - 1]
        escape = min((c for c in minimal if c.vc == 0),
                     key=lambda c: (c.meta["dim"], 0 if c.meta["sign"] < 0 else 1, c.dst, c.cid))
        return frozenset(c for c in minimal if c.vc >= 1) | {escape}, frozenset((escape,))

    def route_nd(self, node, dest):
        return frozenset() if node == dest else self._sets(node, dest)[0]

    def waiting_subset(self, c_in, node, dest, permitted):
        return frozenset() if node == dest else self._sets(node, dest)[1]


class UnrestrictedReference(NodeDestRouting):
    def __init__(self, algorithm):
        super().__init__(algorithm.network)
        self.name = algorithm.name
        self.wait_policy = algorithm.wait_policy
        self._wait_any = algorithm._wait_any
        self._dist = algorithm.network.shortest_distances()

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        d = self._dist[node][dest]
        return frozenset(c for c in self.network.out_channels(node)
                         if self._dist[c.dst][dest] == d - 1)

    def waiting_subset(self, c_in, node, dest, permitted):
        if self._wait_any or not permitted:
            return permitted
        return frozenset([min(permitted, key=lambda c: c.cid)])


#: mask-native class -> ``algorithm -> its Channel-form reference``
REFERENCES = {
    DuatoFullyAdaptiveMesh: lambda a: FunctionReference(a, _duato),
    DuatoFullyAdaptiveHypercube: lambda a: FunctionReference(a, _duato),
    NegativeFirst: lambda a: FunctionReference(a, _negative_first),
    WestFirst: lambda a: FunctionReference(a, _west_first),
    NorthLast: lambda a: FunctionReference(a, _north_last),
    HighestPositiveLast: lambda a: HPLReference(
        a.network, misroute=a.misroute, wait_any=a._wait_any),
    DallySeitzTorus: DallySeitzReference,
    DuatoFullyAdaptiveTorus: DuatoTorusReference,
    DimensionOrderMesh: ECubeMeshReference,
    DimensionOrderHypercube: ECubeHypercubeReference,
    EnhancedFullyAdaptive: EFAReference,
    RelaxedEFA: EFAReference,
    DraperGhoshMECA: MECAReference,
    YangTsai: YangTsaiReference,
    LiStyleHypercube: LiReference,
    MinimalAdaptive3D: Adaptive3DReference,
    UnrestrictedMinimal: UnrestrictedReference,
}


def reference_for(algorithm: RoutingAlgorithm) -> RoutingAlgorithm:
    """The Channel-form reference of a mask-native registry relation."""
    return REFERENCES[type(algorithm)](algorithm)
