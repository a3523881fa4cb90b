#!/usr/bin/env python3
"""Anatomy of a wormhole deadlock: from True Cycle to stuck flits.

Takes unrestricted minimal adaptive routing on a 4x4 mesh -- the canonical
"no restrictions" design Dally & Seitz showed must deadlock -- and:

1. extracts the True-Cycle witness and Definition-12 configuration the
   verifier constructs (Theorem 3's necessity direction);
2. runs saturating random traffic until the runtime detector reports a
   knot (reliably within a few thousand cycles);
3. dissects the report: which messages hold which channels, who waits on
   whom, and why no waiting channel can ever free.

A closing contrast: the Theorem-6 relaxation of EFA is *also* proved
deadlock-prone, but its knot needs auxiliary blocker messages on the second
VC class (exactly what the paper's necessity proof constructs by hand), so
random traffic almost never assembles it -- a concrete illustration of why
"it never deadlocked in simulation" is not a proof, and a necessary *and*
sufficient condition is worth having.

Run:  python examples/deadlock_anatomy.py
"""

from repro.routing import RelaxedEFA, UnrestrictedMinimal
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology import build_hypercube, build_mesh
from repro.verify import verify


def main() -> None:
    net = build_mesh((4, 4))
    ra = UnrestrictedMinimal(net)

    print("step 1: the verifier constructs the refutation")
    verdict = verify(ra)
    print(" ", verdict.summary()[:100])
    cfg = verdict.evidence["deadlock_configuration"]
    print(f"  witness configuration (Definition 12, {len(cfg)} messages):")
    for line in cfg.describe().splitlines():
        print("   ", line)

    print("\nstep 2: saturating random traffic until the knot forms")
    deadlock = sim = None
    for seed in range(8):
        sim = WormholeSimulator(
            ra,
            BernoulliTraffic(net, rate=0.6, length=24),
            SimConfig(seed=seed, buffer_depth=2, deadlock_check_interval=32),
        )
        sim.run(10_000)
        if sim.deadlock is not None:
            deadlock = sim.deadlock
            print(f"  seed {seed}: deadlock at cycle {deadlock.cycle}")
            break
        print(f"  seed {seed}: survived 10k cycles, retrying")
    assert deadlock is not None and sim is not None

    print("\nstep 3: dissect the knot")
    for line in deadlock.describe().splitlines():
        print(" ", line)
    ids = set(deadlock.message_ids)
    channels = sim.network.channels
    holders = {
        channels[w].label or f"c{w}": sim.owner[channels[w]]
        for mid in deadlock.message_ids
        for w in sim.messages[mid].waiting_for
    }
    print("\n  every waited channel is held inside the set:")
    for label, owner in sorted(holders.items()):
        print(f"    {label} held by m{owner}  (member: {owner in ids})")
    print(f"\n  {len(deadlock)} messages mutually wait on channels held inside "
          "the set; no waiting channel can ever free -- exactly the "
          "configuration the True Cycle predicted.")

    print("\ncontrast: relaxed EFA (Theorem 6) is also proved deadlock-prone...")
    h = build_hypercube(4, num_vcs=2)
    rel = RelaxedEFA(h)
    print(" ", verify(rel).summary()[:90])
    hits = 0
    for seed in range(4):
        s2 = WormholeSimulator(
            rel, BernoulliTraffic(h, rate=0.7, length=32),
            SimConfig(seed=seed, buffer_depth=2, deadlock_check_interval=32),
        )
        s2.run(8_000)
        hits += s2.deadlock is not None
    print(f"  ...yet random traffic assembled its knot in only {hits}/4 runs: "
          "the configuration needs the necessity proof's auxiliary blockers.")
    print("  'Never deadlocked in simulation' is not deadlock freedom -- "
          "hence the need for a necessary and sufficient condition.")


if __name__ == "__main__":
    main()
