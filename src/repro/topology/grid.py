"""Shared coordinate machinery for grid-like topologies (mesh, torus, cube).

Nodes of every grid topology are numbered in mixed-radix order: for dims
``(d0, d1, ..., dk-1)`` the node at coordinate ``(x0, ..., xk-1)`` has id
``x0 + d0*(x1 + d1*(x2 + ...))`` -- dimension 0 is the fastest-varying digit.
This matches the convention of the paper's hypercube section, where the bit
for dimension ``i`` is bit ``i`` of the node id.
"""

from __future__ import annotations

from collections.abc import Sequence

from .channel import Channel
from .network import Network


def node_id(coord: Sequence[int], dims: Sequence[int]) -> int:
    """Mixed-radix encoding of ``coord`` under radices ``dims``."""
    if len(coord) != len(dims):
        raise ValueError(f"coordinate {tuple(coord)} has wrong arity for dims {tuple(dims)}")
    nid = 0
    for x, d in zip(reversed(coord), reversed(dims)):
        if not 0 <= x < d:
            raise ValueError(f"coordinate {tuple(coord)} out of range for dims {tuple(dims)}")
        nid = nid * d + x
    return nid


def node_coord(nid: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`node_id`."""
    coord = []
    for d in dims:
        coord.append(nid % d)
        nid //= d
    if nid:
        raise ValueError("node id out of range")
    return tuple(coord)


def all_coords(dims: Sequence[int]):
    """Yield every coordinate of the grid in node-id order."""
    total = 1
    for d in dims:
        total *= d
    for nid in range(total):
        yield node_coord(nid, dims)


def offset_coord(coord: Sequence[int], dim: int, step: int, dims: Sequence[int], *, wrap: bool) -> tuple[int, ...] | None:
    """Move one hop along ``dim``; returns None if it falls off a mesh edge."""
    x = coord[dim] + step
    d = dims[dim]
    if wrap:
        x %= d
    elif not 0 <= x < d:
        return None
    out = list(coord)
    out[dim] = x
    return tuple(out)


def direction_moves(network: Network) -> list[dict[tuple[int, int], tuple[Channel, ...]]]:
    """Per node, ``(dim, sign) -> output channels`` in ``out_channels`` order.

    Reads each channel's ``dim`` / ``sign`` metadata once, so a relation
    that builds the table in its constructor never scans metadata dicts
    while routing.  Channels without a ``dim`` are left out.
    """
    moves = []
    for n in network.nodes:
        by_dir: dict[tuple[int, int], list[Channel]] = {}
        for c in network.out_channels(n):
            if c.meta.get("dim") is not None:
                by_dir.setdefault((c.meta["dim"], c.meta.get("sign")), []).append(c)
        moves.append({k: tuple(v) for k, v in by_dir.items()})
    return moves


def direction_masks(network: Network, vc: int | None = None) -> list[list[int]]:
    """Per node, the cid mask of the outputs moving along each dimension.

    Row ``n`` is indexed ``2 * dim + (sign > 0)``: ``row[2 * dim]`` holds
    the outputs that step ``dim`` down, ``row[2 * dim + 1]`` those that
    step it up; with ``vc`` given, only that virtual channel's.  The
    mask-native relations read these in place of :func:`direction_moves`,
    so a routing decision is a few integer ORs.
    """
    ndims = len(network.meta["dims"])
    masks = []
    for by_dir in direction_moves(network):
        row = [0] * (2 * ndims)
        for (dim, sign), chans in by_dir.items():
            for c in chans:
                if vc is None or c.vc == vc:
                    row[2 * dim + (sign > 0)] |= 1 << c.cid
        masks.append(row)
    return masks


def dimension_masks(network: Network, vc: int | None = None) -> list[list[int]]:
    """Per node, the cid mask of the outputs moving along each dimension in
    either direction: row ``n`` is indexed by ``dim``.  With ``vc`` given,
    only that virtual channel's.  On a hypercube, where a node steps each
    dimension one way only, entry ``dim`` is the link to ``n ^ (1 << dim)``.
    """
    return [[row[k] | row[k + 1] for k in range(0, len(row), 2)]
            for row in direction_masks(network, vc=vc)]
