"""Duato's necessary-and-sufficient condition (the titled ICPP'94 paper).

For a routing relation of the form ``R(n, d)`` that is *coherent* and
*provides a minimal path for every pair*, deadlock freedom holds **iff**
there exists a connected routing subfunction ``R1`` whose extended channel
dependency graph -- direct, indirect, direct-cross, and indirect-cross
dependencies -- is acyclic.

:func:`duato_condition` checks one candidate escape set;
:func:`search_escape` tries the natural candidates (each virtual-channel
class, unions of classes, and the whole channel set) -- sufficient for every
algorithm in this repository; the general search is exponential, which the
supplied paper cites as motivation for the CWG approach.

Applicability is enforced, not assumed: the verifier first confirms the
relation has Duato's form and is coherent/minimal-path-providing, and
reports "not applicable" otherwise -- this is exactly the gap (HPL, EFA,
the incoherent example) that the supplied paper's condition closes.

One :class:`~repro.core.transitions.TransitionCache` serves a whole
decision: the coherence certificate, the minimal-path sweep and every
candidate's ECDG read the same per-destination transition graphs, and a
caller that already built them (the batch pipeline for the fingerprint, an
incremental session across deltas) passes its cache in.
"""

from __future__ import annotations

from itertools import combinations

from ..core.cycles import find_one_cycle
from ..core.transitions import TransitionCache
from ..deps.ecdg import EscapeSpec, ExtendedChannelDependencyGraph, escape_by_vc
from ..routing.properties import is_coherent, provides_minimal_path
from ..routing.relation import RoutingAlgorithm
from .report import Verdict


def applicability(
    algorithm: RoutingAlgorithm,
    *,
    max_hops: int | None = None,
    transitions: TransitionCache | None = None,
) -> tuple[bool, str]:
    """Are Duato's hypotheses satisfied?  (form, coherence, minimal paths)

    ``transitions`` is the cache the coherence certificate and the
    minimal-path sweep read (built here when absent).
    """
    if algorithm.form != "ND":
        return False, f"routing relation has form {algorithm.form}, Duato requires R(n, d)"
    coh = is_coherent(algorithm, max_hops=max_hops, transitions=transitions)
    if not coh:
        return False, f"not coherent: {coh.counterexample}"
    minp = provides_minimal_path(algorithm, transitions=transitions)
    if not minp:
        return False, f"no minimal path for some pair: {minp.counterexample}"
    return True, ""


def duato_condition(
    algorithm: RoutingAlgorithm,
    escape: EscapeSpec,
    *,
    check_applicability: bool = True,
    max_hops: int | None = None,
    ecdg_cls: type[ExtendedChannelDependencyGraph] = ExtendedChannelDependencyGraph,
    transitions: TransitionCache | None = None,
) -> Verdict:
    """Apply Duato's condition with a given escape set / subfunction.

    ``ecdg_cls`` is a seam for alternative ECDG builders; the fuzz
    subsystem's deliberately broken variants use it to prove the oracle
    stack can catch a checker that drops a dependency type.  ``transitions``
    hands the applicability check and the ECDG an already-populated
    per-destination transition cache (the incremental engine shares one
    across re-verifications); without it one is built and shared by both.
    """
    if transitions is None:
        transitions = TransitionCache(algorithm)
    if check_applicability:
        ok, why = applicability(algorithm, max_hops=max_hops, transitions=transitions)
        if not ok:
            return Verdict(
                algorithm.name, "Duato", False, necessary_and_sufficient=False,
                reason=f"condition not applicable: {why}",
                evidence={"applicable": False},
            )
    ecdg = ecdg_cls(algorithm, escape, transitions=transitions)
    connected, why = ecdg.subfunction_connected()
    if not connected:
        return Verdict(
            algorithm.name, "Duato", False, necessary_and_sufficient=False,
            reason=f"candidate R1 not connected: {why}",
            evidence={"applicable": True, "r1_connected": False},
        )
    cycle = find_one_cycle(ecdg.dep)
    if cycle is None:
        return Verdict(
            algorithm.name, "Duato", True,
            reason="connected routing subfunction with acyclic extended CDG",
            evidence={"applicable": True, "ecdg_edges": len(ecdg),
                      "escape_channels": len(ecdg.escape_union())},
        )
    return Verdict(
        algorithm.name, "Duato", False, necessary_and_sufficient=False,
        reason=f"extended CDG of this R1 has a cycle {cycle!r} (another R1 may exist)",
        evidence={"applicable": True, "ecdg_edges": len(ecdg), "cycle": cycle},
    )


def search_escape(
    algorithm: RoutingAlgorithm,
    *,
    max_hops: int | None = None,
    max_class_union: int = 2,
    ecdg_cls: type[ExtendedChannelDependencyGraph] = ExtendedChannelDependencyGraph,
    transitions: TransitionCache | None = None,
) -> Verdict:
    """Search the natural escape-set candidates for a certifying R1.

    Candidates: each virtual-channel class alone, unions of up to
    ``max_class_union`` classes, and the full channel set.  If one certifies
    the algorithm the verdict is authoritative ("iff" direction satisfied by
    exhibition); if none does, the verdict reports failure of the *search*,
    not a proof of deadlock (the complete search is exponential).

    One transition cache -- ``transitions``, or a fresh one -- serves the
    applicability check and every candidate's ECDG.  The incremental
    engine passes its session cache, whose dirty destinations it has
    already rebuilt, so a re-verification decides exactly as a cold check.
    """
    if transitions is None:
        transitions = TransitionCache(algorithm)
    ok, why = applicability(algorithm, max_hops=max_hops, transitions=transitions)
    if not ok:
        return Verdict(
            algorithm.name, "Duato", False, necessary_and_sufficient=False,
            reason=f"condition not applicable: {why}",
            evidence={"applicable": False},
        )
    vcs = sorted({c.vc for c in algorithm.network.link_channels})
    candidates: list[tuple[str, EscapeSpec]] = []
    for r in range(1, min(max_class_union, len(vcs)) + 1):
        for combo in combinations(vcs, r):
            candidates.append((f"vc classes {combo}", escape_by_vc(algorithm, combo)))
    candidates.append(("all channels", frozenset(algorithm.network.link_channels)))
    tried: list[str] = []
    for label, esc in candidates:
        verdict = duato_condition(algorithm, esc, check_applicability=False,
                                  ecdg_cls=ecdg_cls, transitions=transitions)
        tried.append(label)
        if verdict.deadlock_free:
            verdict.reason += f" (escape = {label})"
            verdict.evidence["escape_label"] = label
            return verdict
    return Verdict(
        algorithm.name, "Duato", False, necessary_and_sufficient=False,
        reason=f"no certifying escape set among candidates: {tried}",
        evidence={"applicable": True, "tried": tried},
    )
