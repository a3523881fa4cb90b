"""The paper's theorems, end to end (the headline results)."""

import pytest

from repro.routing import (
    DimensionOrderMesh,
    EnhancedFullyAdaptive,
    HighestPositiveLast,
    IncoherentExample,
    RelaxedEFA,
    RingExample,
    UnrestrictedMinimal,
)
from repro.topology import build_hypercube, build_mesh
from repro.verify import theorem1, theorem2, verify


class TestTheorem1:
    def test_sufficiency_on_acyclic_cwg(self, mesh33):
        v = theorem1(DimensionOrderMesh(mesh33))
        assert v and not v.necessary_and_sufficient

    def test_inconclusive_on_cyclic_cwg(self, figure1):
        v = theorem1(IncoherentExample(figure1))
        assert not v and "cycle" in v.reason


class TestTheorem4_HPL:
    @pytest.mark.parametrize("dims", [(3, 3), (4, 4), (3, 3, 2)])
    def test_deadlock_free(self, dims):
        v = verify(HighestPositiveLast(build_mesh(dims)))
        assert v.deadlock_free and v.necessary_and_sufficient

    def test_wait_any_variant_deadlock_free(self, mesh33):
        v = verify(HighestPositiveLast(mesh33, wait_any=True))
        assert v.deadlock_free


class TestTheorem5_EFA:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_deadlock_free(self, n):
        v = verify(EnhancedFullyAdaptive(build_hypercube(n, num_vcs=2)))
        assert v.deadlock_free

    def test_wait_any_variant(self, cube3_2vc):
        v = verify(EnhancedFullyAdaptive(cube3_2vc, wait_any=True))
        assert v.deadlock_free


class TestTheorem6_Relaxations:
    def test_every_single_relaxation_deadlocks(self, cube3_2vc):
        """Theorem 6: no restriction of EFA can be relaxed."""
        n = 3
        for mu in range(n):
            for j in range(mu + 1, n):
                v = verify(RelaxedEFA(cube3_2vc, pair=(mu, j)))
                assert not v.deadlock_free, f"pair ({mu},{j}) should deadlock"
                assert "True Cycle" in v.reason

    def test_witness_configuration_is_definition12(self, cube3_2vc):
        v = verify(RelaxedEFA(cube3_2vc, pair=(0, 1)))
        cfg = v.evidence["deadlock_configuration"]
        n = len(cfg)
        assert n >= 2
        for i in range(n):
            # message i waits on a channel held by message i+1
            assert cfg.waits_on[i] in cfg.held[(i + 1) % n]
        assert "holds" in cfg.describe()

    def test_full_relaxation_deadlocks(self, cube3_2vc):
        assert not verify(RelaxedEFA(cube3_2vc))


class TestIncoherentExample:
    def test_wait_any_deadlock_free_by_theorem3(self, figure1):
        v = verify(IncoherentExample(figure1))
        assert v.deadlock_free and v.condition == "Theorem 3"
        red = v.evidence["reduction"]
        assert len(red.true_cycles) == 5 and len(red.false_cycles) == 3

    def test_wait_specific_deadlocks_by_theorem2(self, figure1):
        v = verify(IncoherentExample(figure1, wait_any=False))
        assert not v.deadlock_free and v.condition == "Theorem 2"


class TestRingExample:
    def test_paper_algorithm_deadlock_free(self, figure4):
        v = verify(RingExample(figure4))
        assert v.deadlock_free
        assert "False Resource" in v.reason

    def test_noflip_strawman_deadlocks(self, figure4):
        v = verify(RingExample(figure4, flip_class=False))
        assert not v.deadlock_free


class TestNegativeFixtures:
    def test_unrestricted_wait_any(self, mesh33):
        v = verify(UnrestrictedMinimal(mesh33))
        assert not v.deadlock_free and v.condition == "Theorem 3"

    def test_spanning_message_deadlock_not_certified(self):
        """Regression for the fuzz-found Theorem 3 soundness hole.

        The shipped reproducer (``corpus/real-29bbf8ee95a6.json``) deadlocks
        under wait-on-any with two messages each spanning two channels of
        the cycle; every single-message CWG cycle is breakable, so the
        Section 8 edge reduction certifies a CWG' whose wait-connectivity
        test only protects immediate wait edges.  The theorem checker must
        never claim freedom here -- the deadlock survives because both
        messages already *acquired* the channels whose edges were removed.
        """
        import json
        from pathlib import Path

        from repro.fuzz.corpus import CorpusEntry

        path = Path(__file__).resolve().parents[1] / "corpus" / "real-29bbf8ee95a6.json"
        entry = CorpusEntry.from_json(json.loads(path.read_text()))
        v = verify(entry.table.build())
        # the any-wait blocked-configuration search settles it authoritatively
        assert not v.deadlock_free and v.necessary_and_sufficient

    def test_unrestricted_wait_specific(self, mesh33):
        v = verify(UnrestrictedMinimal(mesh33, wait_any=False))
        assert not v.deadlock_free and v.condition == "Theorem 2"


class TestEnumeratedVariant:
    def test_enumerated_agrees_on_figure1(self, figure1):
        ra = IncoherentExample(figure1, wait_any=False)
        a = theorem2(ra)
        b = theorem2(ra, enumerate_cycles=True)
        assert a.deadlock_free == b.deadlock_free == False
        assert b.evidence["cycles"] == 8

    def test_enumerated_positive(self, mesh33):
        v = theorem2(DimensionOrderMesh(mesh33), enumerate_cycles=True)
        assert v.deadlock_free


class TestVerdict:
    def test_summary_format(self, mesh33):
        v = verify(DimensionOrderMesh(mesh33))
        s = v.summary()
        assert "DEADLOCK-FREE" in s and "Theorem 2" in s
        assert str(v) == s
        assert bool(v)
