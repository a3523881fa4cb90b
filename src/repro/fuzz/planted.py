"""Deliberately broken checker variants: the fuzz oracle's negative controls.

A differential fuzzer that never fires might be healthy -- or toothless.
These planted bugs decide which: each variant re-runs a real checker with a
known theory error injected, and the acceptance test demands the oracle
stack catches it within a fixed seed budget and shrinks the discrepancy to
a tiny reproducer.  Corpus entries produced this way are kept (tagged with
the stack name) as permanent regression tests that the oracles still have
teeth.

Variants
--------
``cwg-immediate``
    Builds the CWG from *immediate* waiting sets only (``dt.wait_masks``
    instead of ``dt.downstream_wait_masks``), ignoring the Definition 9
    note that a message of arbitrary length can occupy ``c1`` while waiting
    arbitrarily far downstream.  The broken graph is missing wait edges, so
    the theorem checker wrongly certifies relations whose deadlocks involve
    multi-hop holds -- exactly what SPECIFIC-policy random relations
    exercise.
    (ANY-policy verdicts are no longer fooled: Theorem 3's blocked-chain
    and configuration searches read the transition cache, not the
    dependency graph, so this variant's teeth are specific-waiting cases.)
``duato-no-indirect``
    Builds the ECDG without INDIRECT / INDIRECT_CROSS dependencies -- the
    mistake Duato's paper exists to correct (adaptive excursions off the
    escape layer create escape-to-escape dependencies a direct-only graph
    misses).  Duato applicability (coherent, minimal-path ``R(n,d)``) makes
    this one hard to trip generatively; it is pinned by unit tests showing
    it is observably weaker than the real builder, and by a shipped corpus
    control -- a coherent line-with-chords table whose planted escape cycle
    is made of indirect dependencies only, where this variant claims
    freedom while the theorem checker and the simulator prove deadlock.
``incremental-stale-scc``
    Runs the incremental-vs-full oracle with the session's dirty-frontier
    expansion disabled (``stale_scc=True``): link faults and repairs no
    longer invalidate the destinations whose recorded footprints touched
    the channel, so the session keeps answering from stale transition
    tables and dependency graphs.  The oracle's full-rebuild comparison
    must catch the divergence -- proving the campaign would fire on a real
    invalidation bug in the incremental engine.
``existence-ignore-scc``
    Replaces the existence checker's obstruction detection with a per-edge
    scope: each forced-precedence constraint is inspected in isolation
    (only degenerate self-cycles ``b < b`` can refute), never the strongly
    connected components of the constraint digraph -- where every real
    obstruction lives (the unidirectional ring's is a 3-cycle of
    constraints with no self-loop).  On non-orderable networks the broken
    decider therefore claims YES, backs the claim with an unverified
    channel order, and the synthesized witness relation comes out
    unroutable for at least one pair -- the theorem checker rejects it and
    the ``existence-divergence`` self-check fires.  The teeth are the
    YES-side of the metamorphic rule: a bogus existence claim cannot
    survive witness certification.
"""

from __future__ import annotations

from operator import attrgetter

from ..core.cwg import ChannelWaitingGraph
from ..core.depgraph import DepGraph
from ..deps.ecdg import DependencyType, ExtendedChannelDependencyGraph, _TYPE_BIT
from ..routing.relation import RoutingAlgorithm
from ..verify.duato import search_escape
from ..verify.necsuf import theorem2, theorem3
from .oracles import (
    BOUNDS,
    Checker,
    CheckerResult,
    OracleStack,
    REAL_CHECKERS,
    result_from_verdict,
)


class ImmediateWaitCWG(ChannelWaitingGraph):
    """CWG built from immediate waiting sets only (planted bug).

    Drops every edge that needs the "arbitrary message length" note under
    Definition 9: ``(c1, c2)`` where ``c2`` is waited on not at ``c1``'s
    head but somewhere downstream while the message still occupies ``c1``.
    """

    kind = "CWG[immediate-wait]"
    targets = attrgetter("wait_masks")


class NoIndirectECDG(ExtendedChannelDependencyGraph):
    """ECDG without indirect dependencies (planted bug)."""

    kind = "ECDG[no-indirect]"

    def _build(self) -> DepGraph:
        full = super()._build()
        keep = (1 << _TYPE_BIT[DependencyType.DIRECT]) | (
            1 << _TYPE_BIT[DependencyType.DIRECT_CROSS])
        edges = {(u, v): m & keep for u, v, m in full.iter_edges() if m & keep}
        return DepGraph(self.algorithm.network, edges)


# ----------------------------------------------------------------------
# broken checkers
# ----------------------------------------------------------------------
def _broken_theorem(algorithm: RoutingAlgorithm):
    """The paper's condition, fed the immediate-wait CWG."""
    from ..routing.relation import WaitPolicy

    cwg = ImmediateWaitCWG(algorithm)
    if algorithm.wait_policy is WaitPolicy.SPECIFIC:
        verdict = theorem2(algorithm, cwg=cwg, **BOUNDS)
    else:
        verdict = theorem3(algorithm, cwg=cwg, **BOUNDS)
    return result_from_verdict(
        "theorem", verdict,
        claims_deadlock=not verdict.deadlock_free and verdict.necessary_and_sufficient,
    )


def _broken_duato(algorithm: RoutingAlgorithm) -> CheckerResult:
    verdict = search_escape(algorithm, ecdg_cls=NoIndirectECDG)
    return result_from_verdict("duato", verdict, claims_deadlock=False)


def _broken_incremental(algorithm: RoutingAlgorithm) -> CheckerResult:
    from .oracles import check_incremental

    return check_incremental(algorithm, stale_scc=True)


def _decide_ignore_scc(network):
    """Existence decision with the obstruction scope broken to per-edge.

    The correct pipeline runs first; only its NO verdicts -- the ones that
    needed a constraint *cycle* or the exhaustive search -- are re-decided
    with the per-edge scope.  A surviving self-loop constraint still
    refutes; otherwise the variant declares YES on the strength of an
    unverified cid-order schedule, which is exactly the bug: absence of a
    single-edge obstruction is not absence of an obstruction.
    """
    from dataclasses import replace

    from ..verify.existence import decide_existence, forced_cycle

    verdict = decide_existence(network)
    if verdict.exists is not False:
        return verdict
    obstruction = forced_cycle(network, per_edge=True)
    if obstruction is not None:
        return replace(verdict, method="per-edge", obstruction=obstruction)
    return replace(
        verdict,
        exists=True,
        method="per-edge",
        schedule=tuple(c.cid for c in network.link_channels),
        obstruction=None,
        reason="no per-edge forced-precedence obstruction (broken scope)",
    )


def _broken_existence(algorithm: RoutingAlgorithm) -> CheckerResult:
    from .oracles import check_existence

    return check_existence(algorithm, decide=_decide_ignore_scc)


_REPLACEMENTS: dict[str, Checker] = {
    "cwg-immediate": Checker("theorem", _broken_theorem),
    "duato-no-indirect": Checker("duato", _broken_duato),
    "incremental-stale-scc": Checker("incremental", _broken_incremental),
    "existence-ignore-scc": Checker("existence", _broken_existence),
}

PLANTED_VARIANTS = tuple(_REPLACEMENTS)


def planted_stack(variant: str) -> OracleStack:
    """The real oracle stack with one checker replaced by a broken variant."""
    try:
        replacement = _REPLACEMENTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown planted variant {variant!r}; have {sorted(PLANTED_VARIANTS)}"
        ) from None
    checkers = tuple(replacement if c.name == replacement.name else c
                     for c in REAL_CHECKERS)
    return OracleStack(f"planted:{variant}", checkers)
