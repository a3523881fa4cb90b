"""FIG4: the ten-node ring whose CWG cycles are all False Resource Cycles.

Paper claims (Section 7.1 / Figure 4):

* the ring algorithm's CWG *is* cyclic, but a cycle can close only if two
  messages both leave node 8 on the extra channel ``cA`` -- physically
  impossible, so every cycle is a False Resource Cycle and Theorem 2 gives
  deadlock freedom;
* ablation (DESIGN.md #2): a checker demanding an *acyclic* CWG wrongly
  rejects the algorithm, and the no-class-flip strawman genuinely deadlocks
  (its True Cycle needs ``cA`` only once).
"""

from repro.core import ChannelWaitingGraph, find_one_cycle
from repro.core.deadlock_search import TrueCycleSearch
from repro.routing import RingExample
from repro.topology import build_figure4_ring
from repro.verify import theorem1, verify


def test_fig4_all_cycles_false(benchmark, once, table):
    net = build_figure4_ring()
    ra = RingExample(net)

    def run():
        cwg = ChannelWaitingGraph(ra)
        return cwg, TrueCycleSearch(cwg).search(), verify(ra, cwg=cwg)

    cwg, outcome, verdict = once(benchmark, run)
    table("Figure 4: ring verification", ["check", "result"], [
        ("CWG cyclic", find_one_cycle(cwg.dep) is not None),
        ("True Cycle exists", outcome.true_cycle is not None),
        ("exhaustive proof", outcome.exhaustive),
        ("Theorem 2 verdict", "deadlock-free" if verdict else "deadlock"),
        ("naive acyclic-CWG checker", "rejects (ablation)" if not theorem1(ra, cwg=cwg) else "accepts"),
    ])
    assert find_one_cycle(cwg.dep) is not None
    assert outcome.proves_no_true_cycle
    assert verdict.deadlock_free
    assert not theorem1(ra, cwg=cwg).deadlock_free  # the ablation gap


def test_fig4_noflip_strawman_true_cycle(benchmark, once, table):
    net = build_figure4_ring()
    bad = RingExample(net, flip_class=False)

    def run():
        return verify(bad)

    verdict = once(benchmark, run)
    assert not verdict.deadlock_free
    cfg = verdict.evidence["deadlock_configuration"]
    ca_holders = [
        i for i in range(len(cfg))
        if any(c.label == "cA" for c in cfg.held[i])
    ]
    table("Figure 4 strawman (no class flip): deadlock witness",
          ["message", "route", "holds", "waits on"],
          [
              (f"m{i+1}", f"{cfg.sources[i]}->{cfg.dests[i]}",
               ", ".join(c.label or str(c.cid) for c in cfg.held[i]),
               cfg.waits_on[i].label or cfg.waits_on[i].cid)
              for i in range(len(cfg))
          ])
    assert len(ca_holders) == 1, "single cA journey suffices without the flip"
