"""Generative verification of the verifier itself.

Two families of randomly generated routing algorithms with *known* ground
truth exercise the checkers far beyond the hand-written fixtures:

* **Duato-by-construction**: dimension-order escape on VC class 0 plus an
  arbitrary random subset of minimal moves on VC class 1, waiting on the
  escape channel.  Duato's theorem guarantees deadlock freedom for *every*
  such subset, so the CWG condition must certify all of them.
* **Random-waiting strawmen**: the same relations but waiting on a randomly
  chosen permitted channel instead of the escape.  No ground truth a
  priori -- instead we check *consistency*: whenever the verifier says
  deadlock-free, saturating simulation must never deadlock.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import NodeDestRouting, WaitPolicy
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator
from repro.topology import build_mesh
from repro.verify import verify


def _stable_bits(seed: int, node: int, dest: int, idx: int) -> int:
    h = hashlib.blake2b(f"{seed}/{node}/{dest}/{idx}".encode(), digest_size=2)
    return int.from_bytes(h.digest(), "big")


class RandomDuatoStyle(NodeDestRouting):
    """Escape = e-cube on VC 0; adaptive class = random minimal VC-1 subset."""

    name = "random-duato"
    wait_policy = WaitPolicy.SPECIFIC

    def __init__(self, network, seed: int) -> None:
        super().__init__(network)
        self.seed = seed
        self._dist = network.shortest_distances()

    def _escape(self, node: int, dest: int):
        here = self.network.coord(node)
        there = self.network.coord(dest)
        for dim, (h, t) in enumerate(zip(here, there)):
            if h != t:
                sign = 1 if t > h else -1
                return [
                    c for c in self.network.out_channels(node)
                    if c.meta["dim"] == dim and c.meta["sign"] == sign and c.vc == 0
                ]
        return []

    def route_nd(self, node: int, dest: int):
        if node == dest:
            return frozenset()
        out = list(self._escape(node, dest))
        d = self._dist[node][dest]
        minimal_vc1 = [
            c for c in self.network.out_channels(node)
            if c.vc == 1 and self._dist[c.dst][dest] == d - 1
        ]
        for i, c in enumerate(minimal_vc1):
            if _stable_bits(self.seed, node, dest, i) & 1:
                out.append(c)
        return frozenset(out)

    def waiting_subset(self, c_in, node, dest, permitted):
        if node == dest:
            return permitted
        return frozenset(self._escape(node, dest))


class RandomWaiting(RandomDuatoStyle):
    """Same relation, but wait on a pseudo-random permitted channel."""

    name = "random-waiting"

    def waiting_subset(self, c_in, node, dest, permitted):
        if not permitted:
            return permitted
        ordered = sorted(permitted, key=lambda c: c.cid)
        pick = _stable_bits(self.seed, node, dest, 999) % len(ordered)
        return frozenset([ordered[pick]])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_duato_by_construction_always_certified(seed):
    net = build_mesh((3, 3), num_vcs=2)
    ra = RandomDuatoStyle(net, seed)
    verdict = verify(ra)
    assert verdict.deadlock_free, f"seed {seed}: {verdict.summary()}"


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_waiting_verdicts_consistent_with_simulation(seed):
    net = build_mesh((3, 3), num_vcs=2)
    ra = RandomWaiting(net, seed)
    verdict = verify(ra)
    if verdict.deadlock_free:
        for sim_seed in (1, 2):
            sim = WormholeSimulator(
                ra, BernoulliTraffic(net, rate=0.5, length=16, stop_at=3000),
                SimConfig(seed=sim_seed, buffer_depth=2, deadlock_check_interval=32),
            )
            sim.run(3000)
            assert sim.deadlock is None, (
                f"seed {seed}: verifier certified but simulation deadlocked"
            )
    else:
        # a refutation must come with a concrete witness or an explicit
        # incompleteness disclaimer
        assert ("deadlock_configuration" in verdict.evidence
                or not verdict.necessary_and_sufficient)
