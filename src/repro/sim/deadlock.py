"""Runtime deadlock detection: the message wait-for graph (Definition 12).

A blocked message waits on its waiting channels; a deadlock exists when a
set of messages forms a *knot*: every waiting channel of every member is
owned by another member (or by the message itself -- the N=1 case of
Definition 12).  The detector computes the knot by fixpoint elimination:

    start from all blocked messages; repeatedly un-mark any message that
    has a waiting channel which is free or owned by an un-marked message
    (that owner can still make progress, so the channel may yet free);
    whatever remains is deadlocked.

For wait-on-SPECIFIC algorithms the waiting set is the committed designated
set, so a wait-for cycle is a certain deadlock; for wait-on-ANY the knot
condition is exactly Theorem 3's "no waiting channel is guaranteed to
become free".  The report reconstructs the Definition 12 evidence: each
message's occupied channels and the member holding its waiting channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import WormholeSimulator


@dataclass
class DeadlockReport:
    """Evidence for a detected deadlock knot."""

    cycle: int
    message_ids: list[int]
    #: per message: (source, dest, held channel labels, waiting channel labels)
    detail: list[tuple[int, int, list[str], list[str]]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.message_ids)

    def describe(self) -> str:
        lines = [f"deadlock detected at cycle {self.cycle}: {len(self.message_ids)} messages"]
        for (src, dest, held, waits), mid in zip(self.detail, self.message_ids):
            lines.append(f"  m{mid}: {src}->{dest} holds [{', '.join(held)}] waits [{', '.join(waits)}]")
        return "\n".join(lines)


class DeadlockDetector:
    """Knot detection over the simulator's live state."""

    def __init__(self, sim: "WormholeSimulator") -> None:
        self.sim = sim

    def _can_release_without_head_progress(self, mid: int, w: int) -> bool:
        """Can message ``mid`` free channel ``w`` (a cid) just by draining forward?

        Even with its header blocked, a message's tail keeps advancing while
        free buffer space remains in the channels it already holds.  ``w``
        frees once every flit that has not yet passed it fits strictly
        downstream of it -- the short-message slack the paper alludes to in
        Section 4 ("messages that fit in the intermediate channel buffers").
        Ignoring this would make the detector cry deadlock on transient
        blockage of short messages.
        """
        sim = self.sim
        m = sim.messages[mid]
        if m.header_arrived:
            return True  # ejection drains it regardless
        held = m.held
        try:
            i = held.index(w)
        except ValueError:
            return True  # already released
        bufs = sim._buf
        to_pass = (m.length - m.flits_injected) + sum(len(bufs[c]) for c in held[:i + 1])
        capacity_ahead = sum(sim.config.buffer_depth - len(bufs[c]) for c in held[i + 1:])
        return to_pass <= capacity_ahead

    def check(self) -> DeadlockReport | None:
        """Return a report if a deadlocked knot currently exists."""
        sim = self.sim
        blocked = {m.mid: m for m in sim.blocked_messages() if m.held}
        if not blocked:
            return None
        marked = set(blocked)
        changed = True
        while changed:
            changed = False
            # sorted iteration: the fixpoint is order-independent, but the
            # sweep order must not depend on set layout for runs to be
            # reproducible flit-for-flit under any PYTHONHASHSEED
            for mid in sorted(marked):
                m = blocked[mid]
                assert m.waiting_for is not None
                for w in m.waiting_for:
                    owner = sim._owner[w]
                    if owner < 0 or owner not in marked or \
                            self._can_release_without_head_progress(owner, w):
                        # w is free, its owner can still move, or the owner can
                        # drain past w without head progress: m may yet proceed
                        marked.discard(mid)
                        changed = True
                        break
        if not marked:
            return None
        # Self-waiting (owner == mid) counts as deadlocked per Definition 12.
        ids = sorted(marked)
        chans = sim.network.channels
        detail = []
        for mid in ids:
            m = blocked[mid]
            detail.append((
                m.src,
                m.dest,
                [chans[c].label or f"c{c}" for c in m.held],
                [chans[c].label or f"c{c}" for c in sorted(m.waiting_for or ())],
            ))
        return DeadlockReport(cycle=sim.cycle, message_ids=ids, detail=detail)
