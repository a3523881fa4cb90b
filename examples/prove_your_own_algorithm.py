#!/usr/bin/env python3
"""Design scenario: prove (or refute) a custom routing algorithm.

This is the workflow the paper's Section 8 methodology automates for a
routing-algorithm designer:

1. write the routing relation (here: a deliberately naive "always prefer
   the lowest-numbered minimal channel, wait on anything" torus router);
2. run the necessary-and-sufficient condition -- it *refutes* the design
   and hands back an explicit Definition-12 deadlock configuration;
3. repair the design with a dateline virtual-channel class (Dally--Seitz
   escape layer) and re-verify;
4. replay the deadlock configuration's traffic in the simulator against
   both designs and watch theory and practice agree.

Run:  python examples/prove_your_own_algorithm.py
"""

from repro.routing import DallySeitzTorus, NodeDestRouting, WaitPolicy
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology import build_torus
from repro.verify import verify


class NaiveTorus(NodeDestRouting):
    """Any minimal move on any VC; a blocked message commits to the lowest-
    numbered permitted channel.  Deadlocks on the torus rings."""

    name = "naive-torus"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network):
        super().__init__(network)
        self.dims = network.meta["dims"]
        self._dist = network.shortest_distances()

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        d = self._dist[node][dest]
        return frozenset(
            c for c in self.network.out_channels(node)
            if self._dist[c.dst][dest] == d - 1
        )

    def waiting_subset(self, c_in, node, dest, permitted):
        if not permitted:
            return permitted
        return frozenset([min(permitted, key=lambda c: c.cid)])


class RepairedTorus(NaiveTorus):
    """The same relation restricted to the Dally--Seitz dateline discipline
    on VC classes 0/1, with VC 2 left fully adaptive (Duato-style repair)."""

    name = "repaired-torus"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network):
        super().__init__(network)
        self.escape = DallySeitzTorus(network, vc_base=0)

    def route_nd(self, node, dest):
        if node == dest:
            return frozenset()
        adaptive = frozenset(c for c in super().route_nd(node, dest) if c.vc == 2)
        return adaptive | self.escape.route_nd(node, dest)

    def waiting_subset(self, c_in, node, dest, permitted):
        # the escape part: the dateline pair at VC indices 0 and 1
        return frozenset(c for c in permitted if c.vc < 2)


def half_ring(net):
    """Adversarial pattern: shift half-way around the x ring (equidistant
    both ways, so the naive router spreads over both directions and ties
    the ring in knots)."""
    k = net.meta["dims"][0]

    def pick(src, rng):
        x, y = net.coord(src)
        return net.node_at(((x + k // 2) % k, y))

    return pick


def main() -> None:
    # Verify on the 4x4 instance (the theory is topology-family-generic and
    # the small instance answers in seconds); stress-test at 8x8 scale.
    small = build_torus((4, 4), num_vcs=3)
    net = build_torus((8, 8), num_vcs=3)
    print(f"verification network: {small}")
    print(f"simulation network:   {net}\n")

    verdict = verify(NaiveTorus(small))
    print("step 1-2: verify the naive design")
    print(" ", verdict)
    cfg = verdict.evidence.get("deadlock_configuration")
    if cfg is not None:
        print("  the refutation is constructive -- a reachable deadlock:")
        for line in cfg.describe().splitlines():
            print("   ", line)

    print("\nstep 3: verify the repaired design")
    print(" ", verify(RepairedTorus(small)))

    naive = NaiveTorus(net)
    repaired = RepairedTorus(net)
    print("\nstep 4: both designs under half-ring traffic at 8x8 scale (4 seeds)")
    for ra in (naive, repaired):
        deadlocks = 0
        for seed in range(4):
            sim = WormholeSimulator(
                ra, BernoulliTraffic(net, rate=0.6, length=24, pattern=half_ring(net)),
                SimConfig(seed=seed, buffer_depth=2, deadlock_check_interval=32),
            )
            sim.run(6000)
            deadlocks += sim.deadlock is not None
        print(f"  {ra.name}: deadlocked in {deadlocks}/4 runs")


if __name__ == "__main__":
    main()
