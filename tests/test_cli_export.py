"""The command-line interface and the DOT/text export helpers."""

import pytest

from repro.__main__ import main
from repro.core import ChannelWaitingGraph, find_cycles
from repro.export import edge_listing, to_dot, verdict_block
from repro.routing import IncoherentExample, UnrestrictedMinimal
from repro.verify import verify


class TestExport:
    def test_dot_structure(self, figure1):
        cwg = ChannelWaitingGraph(IncoherentExample(figure1))
        dot = to_dot(cwg, title="CWG")
        assert dot.startswith("digraph channels {") and dot.endswith("}")
        assert '"cA1" -> "cL2"' in dot
        assert 'label="CWG"' in dot

    def test_dot_highlight_and_removed(self, figure1):
        ra = IncoherentExample(figure1)
        cwg = ChannelWaitingGraph(ra)
        cy = find_cycles(cwg.dep)[0]
        dot = to_dot(cwg, highlight=cy.edges, removed=[cwg.edges[0]])
        assert "color=red" in dot
        assert "style=dashed" in dot

    def test_edge_listing_marks_removed(self, figure1):
        cwg = ChannelWaitingGraph(IncoherentExample(figure1))
        text = edge_listing(cwg, removed=[cwg.edges[0]])
        assert " - " in text and " -> " in text

    def test_verdict_block_with_witness(self, mesh33):
        v = verify(UnrestrictedMinimal(mesh33))
        block = verdict_block(v)
        assert "NOT deadlock-free" in block
        assert "deadlock configuration" in block

    def test_verdict_block_with_reduction(self, figure1):
        v = verify(IncoherentExample(figure1))
        block = verdict_block(v)
        assert "CWG' = CWG minus" in block


class TestCLI:
    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "highest-positive-last" in out and "certified by" in out

    def test_verify_safe_exits_zero(self, capsys):
        rc = main(["verify", "--algorithm", "e-cube-mesh", "--dims", "3,3"])
        assert rc == 0
        assert "DEADLOCK-FREE" in capsys.readouterr().out

    def test_verify_unsafe_exits_one(self, capsys):
        rc = main(["verify", "--algorithm", "unrestricted-minimal", "--dims", "3,3"])
        assert rc == 1
        assert "deadlock configuration" in capsys.readouterr().out

    def test_verify_all_conditions(self, capsys):
        rc = main(["verify", "--algorithm", "highest-positive-last",
                   "--dims", "3,3", "--all-conditions"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Dally-Seitz" in out and "Duato" in out and "Theorem 2" in out

    def test_default_topology_from_catalog(self, capsys):
        rc = main(["verify", "--algorithm", "incoherent-example"])
        assert rc == 0

    def test_dot_command(self, capsys):
        rc = main(["dot", "--algorithm", "incoherent-example", "--graph", "cwg"])
        assert rc == 0
        assert "digraph channels" in capsys.readouterr().out

    def test_dot_cdg(self, capsys):
        rc = main(["dot", "--algorithm", "e-cube-mesh", "--dims", "3,3", "--graph", "cdg"])
        assert rc == 0

    def test_simulate(self, capsys):
        rc = main(["simulate", "--algorithm", "e-cube-mesh", "--dims", "3,3",
                   "--rate", "0.15", "--cycles", "600"])
        assert rc == 0
        assert "thpt=" in capsys.readouterr().out

    def test_simulate_deadlock_exits_two(self, capsys):
        rc = main(["simulate", "--algorithm", "unrestricted-minimal",
                   "--dims", "4,4", "--rate", "0.6", "--length", "24",
                   "--cycles", "8000", "--seed", "0"])
        out = capsys.readouterr().out
        if rc == 2:
            assert "deadlock detected" in out
        else:
            assert rc == 0  # this seed survived; theory still refutes it

    @pytest.mark.parametrize("rate, match", [
        ("-1", "bad --rate: injection rate must be non-negative"),
        ("9", "bad --rate: injection rate 9.0 exceeds the mean message length 8"),
    ])
    def test_simulate_rejects_impossible_rates(self, rate, match):
        with pytest.raises(SystemExit, match=match):
            main(["simulate", "--algorithm", "e-cube-mesh", "--dims", "3,3",
                  "--rate", rate, "--length", "8", "--cycles", "50"])

    @pytest.mark.parametrize("flag, value, match", [
        ("--seed", "-1", "bad --seed: seed must be >= 0, got -1"),
        ("--cycles", "-5", "bad --cycles: must be at least 1, got -5"),
        ("--cycles", "0", "bad --cycles: must be at least 1, got 0"),
        ("--length", "0", "bad --length: message length must be at least 1 flit, got 0"),
    ])
    def test_simulate_rejects_inputs_that_crash_or_print_nan(self, flag, value, match, capsys):
        args = {"--rate": "0.1", "--length": "8", "--cycles": "50", "--seed": "1"}
        args[flag] = value
        with pytest.raises(SystemExit, match=f"^{match}$"):
            main(["simulate", "--algorithm", "e-cube-mesh", "--dims", "3,3",
                  *[x for kv in args.items() for x in kv]])
        assert capsys.readouterr().out == ""

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--algorithm", "nope"])

    @pytest.mark.parametrize("verb", ["verify", "dot", "graph-stats", "simulate"])
    def test_algorithm_that_does_not_fit_the_topology_exits_cleanly(self, verb):
        with pytest.raises(SystemExit, match="requires a hypercube"):
            main([verb, "--algorithm", "e-cube", "--topology", "mesh", "--dims", "3,3"])
