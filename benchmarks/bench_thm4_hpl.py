"""THM4: Highest Positive Last -- cyclic CDG, acyclic CWG, deadlock-free.

Reproduced claims (Section 9.2 / Theorem 4):

* HPL needs no virtual channels, its CDG is cyclic (every acyclic-CDG
  methodology, Dally--Seitz included, fails to certify it), yet its CWG is
  acyclic, so Theorem 2 proves deadlock freedom -- swept over 2D/3D meshes;
* HPL permits more minimal paths than negative-first, the best prior
  1-channel partially adaptive algorithm (the paper's n(n-1) turn-count
  comparison, measured here as actual permitted-path counts);
* ablation (DESIGN.md #3): CWG vs CDG as verification object.
"""

from repro.core import ChannelWaitingGraph, find_one_cycle
from repro.deps import ChannelDependencyGraph
from repro.metrics import minimal_path_matrix
from repro.routing import HighestPositiveLast, NegativeFirst
from repro.topology import build_mesh
from repro.verify import dally_seitz, verify


def test_thm4_verification_sweep(benchmark, once, table):
    def run():
        rows = []
        for dims in ((3, 3), (4, 4), (5, 5), (3, 3, 3)):
            net = build_mesh(dims)
            hpl = HighestPositiveLast(net)
            cdg_cyclic = not ChannelDependencyGraph(hpl).is_acyclic()
            cwg_acyclic = find_one_cycle(ChannelWaitingGraph(hpl).dep) is None
            v = verify(hpl)
            ds = dally_seitz(hpl)
            rows.append((dims, cdg_cyclic, cwg_acyclic, v.deadlock_free, ds.deadlock_free))
        return rows

    rows = once(benchmark, run)
    table("Theorem 4: HPL on n-D meshes",
          ["mesh", "CDG cyclic", "CWG acyclic", "Theorem 2", "Dally-Seitz"], rows)
    for dims, cdg_cyclic, cwg_acyclic, thm2, ds in rows:
        assert cdg_cyclic and cwg_acyclic and thm2 and not ds


def test_thm4_adaptiveness_vs_negative_first(benchmark, once, table):
    """HPL's restrictions are *conditional* (lifted whenever a higher
    dimension still needs a negative hop), negative-first's are absolute.
    In 2D the minimal-path counts tie exactly (both free on two quadrants,
    the turn-model symmetry); from three dimensions on HPL permits strictly
    more minimal paths -- the Section 9.2 claim."""

    mesh2d = build_mesh((4, 4))
    mesh3d = build_mesh((3, 3, 3))

    def run():
        out = {}
        for label, net in (("4x4", mesh2d), ("3x3x3", mesh3d)):
            hpl = sum(minimal_path_matrix(HighestPositiveLast(net)).values())
            nf = sum(minimal_path_matrix(NegativeFirst(net)).values())
            out[label] = (hpl, nf)
        return out

    out = once(benchmark, run)
    table("Section 9.2: permitted minimal paths, HPL vs negative-first",
          ["mesh", "HPL", "negative-first"], [
              (label, h, n) for label, (h, n) in out.items()
          ])
    h2, n2 = out["4x4"]
    h3, n3 = out["3x3x3"]
    assert h2 == n2, "2D: turn-model symmetry gives a tie"
    assert h3 > n3, "3D+: HPL strictly more adaptive"
