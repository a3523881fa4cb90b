"""The Section 7.1 / Figure 4 ring routing algorithm: a False Resource Cycle
under minimal routing.

The paper routes a ten-node clockwise ring (1D torus) with four virtual
channels per link -- two *classes* selected by destination parity, each with
two *levels* toggled whenever a wrap-around channel is used -- plus a fifth
channel ``cA`` on the link ``n8 -> n9`` that any message crossing that link
may use.  After using ``cA`` a message continues on the *level-2* channel of
the class **opposite** its destination parity ("the message routes either on
c_X2 if the destination is an odd-numbered node, or on c_Y2 if the
destination is an even-numbered node"), and the usual wrap toggle then drops
it back to level 1 past the dateline.

The consequence (Section 7.1): the only CWG cycles are chains that cross the
dateline *twice*, once per class, and **each crossing edge's witness message
must route through ``cA``** -- so any deadlock configuration would need two
messages occupying ``cA`` simultaneously.  Every cycle is therefore a False
Resource Cycle and Theorem 2 gives deadlock freedom, even though the CWG is
cyclic (a checker demanding an acyclic CWG wrongly rejects the algorithm).

Reconstruction note: the scanned text's virtual-channel subscripts are
corrupted, so the class/level naming here is a reconstruction; it satisfies
every legible constraint of Section 7.1 (four VCs + ``cA``, parity classes,
"stays on its channel until a wrap-around channel is used, then switches
``i -> (i+1) mod 2``", the post-``cA`` reassignment quoted above) and
reproduces the claimed behaviour exactly: all CWG cycles require ``cA``
twice.  Setting ``flip_class=False`` (post-``cA`` messages keep their own
class) yields a *single*-witness crossing -- a True Cycle -- and a provably
deadlock-prone algorithm; the benchmarks use it as the contrast case.

VC index layout on every link: 0 = even-class level 1, 1 = even level 2,
2 = odd level 1, 3 = odd level 2; ``cA`` is VC 4 on the extra link.
"""

from __future__ import annotations

from ..topology.channel import Channel
from ..topology.network import Network
from .relation import RoutingAlgorithm, RoutingError, WaitPolicy


def _vc_index(even_class: bool, level: int) -> int:
    """Map (class, level) to the VC index layout documented above."""
    return (0 if even_class else 2) + (level - 1)


class RingExample(RoutingAlgorithm):
    """The Figure-4 ring routing algorithm (form ``R(c_in, n, d)``).

    Parameters
    ----------
    flip_class:
        ``True`` (the paper's algorithm): after ``cA``, continue on level 2
        of the class *opposite* the destination parity.  ``False``: keep the
        destination-parity class -- the deadlock-prone strawman whose CWG
        contains a True Cycle.
    """

    name = "ring-figure4"
    form = "CND"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network: Network, *, flip_class: bool = True) -> None:
        super().__init__(network)
        if network.meta.get("topology") != "figure4":
            raise RoutingError(f"{self.name} requires the Figure-4 ring network")
        self.size: int = network.meta["dims"][0]
        self.extra_link: tuple[int, int] = tuple(network.meta["extra_link"])  # type: ignore[assignment]
        self.flip_class = flip_class
        self.cA = network.channel_by_label("cA")
        if not flip_class:
            self.name = "ring-figure4-noflip"

    # ------------------------------------------------------------------
    def _class_level(self, c_in: Channel, dest: int) -> tuple[bool, int]:
        """(even_class, level) for the *next* hop given the input channel."""
        if not c_in.is_link:
            # Fresh injection: class by destination parity, level 1.
            return (dest % 2 == 0, 1)
        if c_in == self.cA:
            # Post-cA reassignment: level 2 of the crossed (or kept) class.
            even = (dest % 2 == 1) if self.flip_class else (dest % 2 == 0)
            return (even, 2)
        even = c_in.vc < 2
        level = 1 + (c_in.vc % 2)
        if c_in.meta.get("wrap"):
            level = 1 if level == 2 else 2  # toggle i -> (i+1) mod 2
        return (even, level)

    def route(self, c_in: Channel, node: int, dest: int) -> frozenset[Channel]:
        if node == dest:
            return frozenset()
        even, level = self._class_level(c_in, dest)
        nxt = (node + 1) % self.size
        vc = _vc_index(even, level)
        out = [c for c in self.network.channels_between(node, nxt) if c.vc == vc]
        if not out:
            raise RoutingError(f"{self.name}: missing vc {vc} on link {node}->{nxt}")
        if (node, nxt) == self.extra_link:
            out.append(self.cA)
        return frozenset(out)

    def waiting_subset(self, c_in: Channel, node: int, dest: int,
                       permitted: frozenset[Channel]) -> frozenset[Channel]:
        """The class/level channel only -- never ``cA``.

        A message at node 8 may *use* ``cA`` when it happens to be free but
        always *waits* on its regular virtual channel: the use-vs-wait
        distinction Section 5 introduces as the whole motivation for the
        CWG.  (If ``cA`` were a waiting channel, the even-class level-1
        chain could close a lap through a single ``cA`` journey and the
        algorithm would genuinely deadlock.)
        """
        regular = frozenset(c for c in permitted if c != self.cA)
        return regular or permitted
