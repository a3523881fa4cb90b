"""Incremental re-verification: deltas, overlays, and stateful sessions.

The paper's verifiers decide one frozen ``(network, relation)`` pair; this
package keeps a *changing* pair continuously verified.  A
:class:`~repro.incremental.session.IncrementalSession` holds the relation
behind an :class:`~repro.incremental.overlay.OverlayRouting` view, applies
:mod:`~repro.incremental.deltas` (link faults and repairs, table-cell
edits, virtual-channel additions), and re-runs the theorem, Duato, and
Dally--Seitz checkers rebuilding only what each delta's recorded footprint
touches -- with a hard contract that every verdict is bit-identical to a
cold full rebuild (:meth:`IncrementalSession.full_check`), which the
metamorphic test battery and the fuzz campaign's incremental oracle pin.
:func:`~repro.incremental.session.run_jobs` drives sessions through a
stream of :class:`ReverifyJob` objects with sampled full-rebuild audits;
the ``serve`` and ``reverify`` verbs both run on it.
"""

from .deltas import (
    Delta,
    LinkDown,
    LinkUp,
    TableEdit,
    VcAdd,
    delta_from_json,
    delta_to_json,
    format_delta,
    parse_delta,
    parse_table_key,
)
from .existence import (
    ExistenceDecision,
    ExistenceSession,
    default_link_flap,
    semantic_digest,
)
from .overlay import OverlayRouting, RouteRecorder
from .session import (
    FullCheckResult,
    IncrementalSession,
    JobOutcome,
    ReverifyJob,
    ReverifyResult,
    default_fault_pair,
    default_table_edit,
    run_jobs,
)

__all__ = [
    "Delta",
    "ExistenceDecision",
    "ExistenceSession",
    "FullCheckResult",
    "IncrementalSession",
    "JobOutcome",
    "LinkDown",
    "LinkUp",
    "OverlayRouting",
    "ReverifyJob",
    "ReverifyResult",
    "RouteRecorder",
    "TableEdit",
    "VcAdd",
    "default_fault_pair",
    "default_link_flap",
    "default_table_edit",
    "delta_from_json",
    "delta_to_json",
    "format_delta",
    "parse_delta",
    "parse_table_key",
    "run_jobs",
    "semantic_digest",
]
