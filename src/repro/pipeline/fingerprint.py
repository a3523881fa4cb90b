"""Content-addressed fingerprints of networks and routing relations.

The batch pipeline memoizes expensive artifacts -- CWG construction,
simple-cycle enumeration, reduction results, whole verdicts -- across calls
and across processes.  A cache entry is valid exactly as long as the
*content* it was computed from is unchanged, so cache keys are digests of
that content, not of object identities or class names:

* a network is its channel list (ids, endpoints, VC indices, kinds, labels,
  generator metadata) plus node count and coordinates -- everything the
  graph constructions and the simulator consult;
* a routing relation is its full reachable routing table: for every
  destination and every reachable routing state, the permitted outputs and
  the waiting set.  Two relations with identical tables verify identically,
  whatever code produced them, so the algorithm *name* is deliberately
  excluded.

Fingerprints are hex BLAKE2b digests, stable across processes and Python
versions (only integers and explicit strings are hashed -- never ``repr`` of
objects with addresses, never hash-randomized strings).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from ..core.depgraph import bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.depgraph import DepGraph
    from ..core.transitions import DestinationTransitions, TransitionCache
    from ..routing.relation import RoutingAlgorithm
    from ..topology.network import Network

_DIGEST_SIZE = 20


def _hasher() -> "hashlib.blake2b":
    return hashlib.blake2b(digest_size=_DIGEST_SIZE)


def _meta_token(meta: dict) -> str:
    """Canonical text for a metadata dict (sorted keys, primitive values)."""
    return ";".join(f"{k}={meta[k]!r}" for k in sorted(meta))


def fingerprint_network(network: "Network") -> str:
    """Digest of a network's full structure (nodes, channels, coords, meta)."""
    h = _hasher()
    h.update(b"network/v1\n")
    h.update(f"nodes={network.num_nodes}\n".encode())
    for c in network.channels:
        h.update(
            f"ch {c.cid} {c.src} {c.dst} {c.vc} {c.kind.value} "
            f"{c.label} [{_meta_token(c.meta)}]\n".encode()
        )
    for node in sorted(network.coords):
        h.update(f"coord {node} {network.coords[node]!r}\n".encode())
    h.update(f"meta [{_meta_token(network.meta)}]\n".encode())
    return h.hexdigest()


def fingerprint_depgraph(dep: "DepGraph") -> str:
    """Digest of a :class:`~repro.core.depgraph.DepGraph`'s CSR arrays.

    Hashes the vertex count, the ``indptr`` / ``indices`` adjacency arrays,
    and the per-edge payload masks (hex) -- the graph's entire observable
    content, so two kernels with equal fingerprints answer every structure,
    cycle, and witness query identically.  Used to key graph-derived cache
    stages (cycle enumerations) directly on graph content: distinct routing
    relations producing the same CWG share one entry.
    """
    h = _hasher()
    h.update(b"depgraph/v1\n")
    h.update(f"n={dep.num_vertices}\n".encode())
    h.update(",".join(map(str, dep.indptr)).encode())
    h.update(b"\n")
    h.update(",".join(map(str, dep.indices)).encode())
    h.update(b"\n")
    h.update(",".join(format(m, "x") for m in dep.masks).encode())
    return h.hexdigest()


def relation_header(algorithm: "RoutingAlgorithm") -> bytes:
    """The destination-independent prefix of a relation fingerprint.

    Covers the network structure, the relation form, and the wait policy.
    :func:`fingerprint_relation` is, by construction, the digest of this
    header followed by one :func:`relation_segment` per destination -- so
    incremental callers may cache segments per destination and recombine
    them without ever diverging from the batch pipeline's fingerprints.
    """
    return (
        b"relation/v1\n"
        + fingerprint_network(algorithm.network).encode()
        + f"\nform={algorithm.form} wait={algorithm.wait_policy.value}\n".encode()
    )


def relation_segment(dest: int, dt: "DestinationTransitions",
                     text: dict[int, str]) -> bytes:
    """Canonical bytes for one destination's routing table slice.

    One line per reachable state, ascending input cid: the state, its
    permitted outputs and its waiting set, each set as ascending cids --
    read off the cid bitmasks, formatting each distinct pair of sets once.
    ``text`` memoizes ``mask -> "a,b,c"``; callers pass one dict across a
    relation's destinations, whose rows repeat the same sets.
    """
    def fmt(mask: int) -> str:
        t = text.get(mask)
        if t is None:
            t = text[mask] = ",".join(map(str, bits(mask)))
        return t

    succ, wait = dt.succ_masks, dt.wait_masks
    tails = {key: f"[{fmt(key[0])}] wait [{fmt(key[1])}]\n"
             for key in set(zip(succ.values(), wait.values()))}
    return "".join(
        [f"{dest}:{c} -> {tails[succ[c], wait[c]]}" for c in sorted(succ)]
    ).encode()


def fingerprint_relation(
    algorithm: "RoutingAlgorithm",
    *,
    transitions: "TransitionCache | None" = None,
) -> str:
    """Digest of a routing relation: network + wait policy + full table.

    Enumerates the same reachable routing states the graph constructions
    consume (via :class:`~repro.core.transitions.TransitionCache`, shared
    with the caller when provided so the table is built only once) and
    hashes, per state, the permitted output set and the waiting set.
    """
    from ..core.transitions import TransitionCache

    h = _hasher()
    h.update(relation_header(algorithm))
    cache = transitions or TransitionCache(algorithm)
    text: dict[int, str] = {}
    for dest in algorithm.network.nodes:
        h.update(relation_segment(dest, cache[dest], text))
    return h.hexdigest()
