"""Test-only references for the coherence decision.

:func:`~repro.routing.properties.is_coherent` decides Definition 7 on the
per-destination state graphs and enumerates paths only for the pairs its
certificate flags.  The two functions below are what it replaced, kept as
references for ``tests/test_coherence_certificate.py``:

* :func:`enumerate_coherence` runs the per-pair enumeration of all three
  checks over every pair, in the order ``is_coherent`` reports them;
  ``is_coherent`` must give the same ``(holds, counterexample, details)``.
* :func:`per_state_certificate` is the certificate as it ran before it
  learned rows: every test once per routing state, never assuming that an
  ND-declared relation ignores its input channel.  On every ``R(n, d)``
  relation :func:`~repro.routing.properties.certifies_coherence` must agree
  with it.
"""

from __future__ import annotations

from repro.core.depgraph import bits
from repro.core.transitions import TransitionCache
from repro.routing.properties import (
    PropertyReport,
    is_prefix_closed,
    is_suffix_closed,
    never_revisits_node,
)
from repro.routing.relation import RoutingAlgorithm


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


def per_state_certificate(algorithm: RoutingAlgorithm, transitions: TransitionCache) -> bool:
    """The coherence certificate with every test run once per state."""
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
            row = later_of.setdefault(a, {})
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
            for m in bits(nodes):
                need[m] = need.get(m, 0) | 1 << c
        for m, wanted in need.items():
            have = transitions[m].succ_masks.get(a)
            if have is None:
                have = algorithm.route_masks(a, heads[a], m)[0]
            if wanted & ~have:
                return False
    return True
