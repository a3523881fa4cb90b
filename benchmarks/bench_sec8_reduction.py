"""SEC8: the worked CWG -> CWG' reduction trace.

The paper's Section 8 runs its formal methodology on the incoherent example:
the cycle list L is built, one cycle is a False Resource Cycle, the five
True Cycles are resolved by removing five edges with the routing algorithm
staying wait-connected, and no backtracking is needed.  This bench replays
the algorithm and prints the step trace next to the paper's.
"""

from repro.core import CWGReducer, ChannelWaitingGraph, CycleClassifier, find_cycles
from repro.routing import IncoherentExample
from repro.topology import build_figure1_network


def test_sec8_reduction_trace(benchmark, once, table):
    net = build_figure1_network()
    ra = IncoherentExample(net)
    cwg = ChannelWaitingGraph(ra)

    def run():
        return CWGReducer(cwg).run()

    res = once(benchmark, run)
    table("Section 8 reduction trace", ["step", "action"], [
        (i + 1, str(s)) for i, s in enumerate(res.steps)
    ])
    removed = sorted(f"{a.label}->{b.label}" for a, b in res.removed)
    print("removed edges (CWG - CWG'):", ", ".join(removed))

    assert res.success
    assert len(res.true_cycles) == 5, "paper: five True Cycles in L"
    assert len(res.false_cycles) == 3
    assert len(res.removed) == 5, "paper: one edge removal per True Cycle"
    assert all(s.action == "remove" for s in res.steps), "paper: no backtracking"

    # the surviving graph is wait-connected and only False-cyclic (Fig. 3)
    classifier = CycleClassifier(cwg)
    remaining = find_cycles(res.cwg_prime(cwg))
    assert remaining and all(
        not classifier.classify(cy).possibly_true for cy in remaining
    )
    print(f"CWG' retains {len(remaining)} cycles, all False Resource Cycles")
