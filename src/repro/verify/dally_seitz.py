"""The Dally--Seitz condition: an acyclic channel dependency graph.

Necessary and sufficient for *nonadaptive* routing; sufficient only for
adaptive routing.  Exposed both as a verifier and as the ablation foil the
benchmarks use: HPL's CDG is cyclic (Dally--Seitz rejects it) while its CWG
is acyclic (Theorem 2 certifies it).
"""

from __future__ import annotations

from ..deps.cdg import ChannelDependencyGraph
from ..core.cycles import find_one_cycle
from ..core.transitions import TransitionCache
from ..routing.relation import RoutingAlgorithm
from .report import Verdict


def is_nonadaptive(algorithm: RoutingAlgorithm, *,
                   transitions: TransitionCache | None = None) -> bool:
    """Does the relation offer at most one output channel at every routing
    state a message can reach?

    Read off the per-destination transition graphs (pass the ``transitions``
    already built for ``algorithm`` to share them): a state the walk never
    reaches carries no message, and a relation such as HPL raises for
    some of those (its designated waiting channel is not permitted there).
    """
    tc = transitions if transitions is not None else TransitionCache(algorithm)
    for dt in tc.all_destinations():
        for m in dt.succ_masks.values():
            if m & (m - 1):
                return False
    return True


def dally_seitz(
    algorithm: RoutingAlgorithm,
    *,
    cdg: ChannelDependencyGraph | None = None,
) -> Verdict:
    """Apply the acyclic-CDG condition.

    The verdict is an "iff" only for nonadaptive algorithms; for adaptive
    ones an acyclic CDG still certifies deadlock freedom, but a cyclic CDG
    proves nothing (the verdict then reports ``deadlock_free=False`` with
    ``necessary_and_sufficient=False``, i.e. "cannot certify").
    """
    cdg = cdg or ChannelDependencyGraph(algorithm)
    nonadaptive = is_nonadaptive(algorithm, transitions=cdg.transitions)
    cycle = find_one_cycle(cdg.dep)
    if cycle is None:
        numbering = cdg.numbering()
        return Verdict(
            algorithm.name, "Dally-Seitz", True,
            necessary_and_sufficient=nonadaptive,
            reason="CDG is acyclic (strictly increasing channel numbering exists)",
            evidence={"cdg_edges": len(cdg), "numbering_size": len(numbering or {})},
        )
    return Verdict(
        algorithm.name, "Dally-Seitz", False,
        necessary_and_sufficient=nonadaptive,
        reason=(
            f"CDG has a cycle {cycle!r}"
            + ("" if nonadaptive else " (adaptive algorithm: condition cannot certify either way)")
        ),
        evidence={"cdg_edges": len(cdg), "cycle": cycle},
    )
