"""The metamorphic battery: incremental re-verification == full rebuilds.

The incremental engine's whole contract is a single metamorphic relation:
for ANY sequence of deltas, the session's verdict digest (verdicts plus
witness evidence, canonically serialized) after each step is bit-identical
to what a cold full rebuild of the mutated relation reports.  This file
attacks that relation from two directions:

* **Hypothesis**: random small networks and routing relations (both wait
  policies) under random delta sequences, checked after *every* step --
  the profile machinery (``HYPOTHESIS_PROFILE=ci|dev|nightly``) scales the
  example count, with ``ci`` derandomized for reproducibility;
* **a deterministic grid**: catalog algorithms on mesh / torus / hypercube
  at smoke dims under seeded delta sequences (including ``VcAdd``, which
  only spec-built sessions can express), checked at the end of each
  sequence.

Together the two directions exceed 200 distinct generated delta sequences
per run at default settings (100 Hypothesis examples in each of the two
``@given`` tests + 36 grid sequences), which is the acceptance floor for
this battery.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.incremental import (
    Delta,
    IncrementalSession,
    LinkDown,
    LinkUp,
    TableEdit,
    VcAdd,
    default_table_edit,
)
from repro.pipeline import catalog_specs
from repro.routing.relation import WaitPolicy
from tests.generative import derive_seed, routed_networks

# ----------------------------------------------------------------------
# random delta generation against a live session
# ----------------------------------------------------------------------


def _random_delta(session: IncrementalSession, rng: random.Random,
                  *, allow_vc_add: bool = False) -> Delta | None:
    """Draw one applicable delta for the session's current state."""
    net = session.base.network
    down = {(c.src, c.dst, c.vc) for c in net.channel_set(session.overlay.down)}
    moves: list[str] = []
    up_links = [c for c in net.link_channels if (c.src, c.dst, c.vc) not in down]
    if up_links and len(down) < 2:
        moves.append("down")
    if down:
        moves.append("up")
    moves.append("edit")
    if session.overlay.edits:
        moves.append("clear")
    if allow_vc_add:
        moves.append("vc")
    kind = rng.choice(moves)
    if kind == "down":
        c = rng.choice(up_links)
        return LinkDown(c.src, c.dst, c.vc)
    if kind == "up":
        return LinkUp(*rng.choice(sorted(down)))
    if kind == "edit":
        try:
            edit, _revert = default_table_edit(session)
        except ValueError:
            return None
        return edit
    if kind == "clear":
        return TableEdit(rng.choice(sorted(session.overlay.edits)))
    return VcAdd(1)


def _assert_step_equivalent(session: IncrementalSession, result) -> None:
    full = session.full_check()
    assert result.digest == full.digest, (
        f"incremental digest {result.digest} != full-rebuild {full.digest} "
        f"after {result.delta!r} on {session.overlay.name}"
    )


# ----------------------------------------------------------------------
# Hypothesis: random relations, random delta sequences, per-step checks
# ----------------------------------------------------------------------
@given(pair=routed_networks(), seed=st.integers(min_value=0, max_value=2**16))
def test_random_delta_sequences_match_full_rebuild(pair, seed):
    _net, ra = pair
    rng = random.Random(derive_seed("inc-seq", seed))
    session = IncrementalSession(ra, triage=bool(seed % 2))
    _assert_step_equivalent(session, session.baseline())
    for _ in range(3):
        delta = _random_delta(session, rng)
        if delta is None:
            continue
        _assert_step_equivalent(session, session.reverify(delta))


@given(pair=routed_networks(wait_policy=WaitPolicy.SPECIFIC),
       seed=st.integers(min_value=0, max_value=2**16))
def test_specific_wait_fault_and_repair_roundtrip(pair, seed):
    """A fault + repair pair must restore the baseline fingerprint *and*
    digest exactly -- repairs revisit known states, which is what makes the
    service's content-addressed cache effective."""
    _net, ra = pair
    rng = random.Random(derive_seed("inc-flap", seed))
    session = IncrementalSession(ra)
    base = session.baseline()
    links = list(ra.network.link_channels)
    c = links[rng.randrange(len(links))]
    session.reverify(LinkDown(c.src, c.dst, c.vc))
    restored = session.reverify(LinkUp(c.src, c.dst, c.vc))
    assert restored.fingerprint == base.fingerprint
    assert restored.digest == base.digest
    _assert_step_equivalent(session, restored)


# ----------------------------------------------------------------------
# deterministic grid: catalog algorithms at smoke dims, seeded sequences
# ----------------------------------------------------------------------
GRID_ALGOS = (
    "west-first", "north-last", "negative-first", "e-cube-mesh",
    "highest-positive-last", "e-cube", "li-hypercube", "dally-seitz-torus",
    "unrestricted-minimal",
)
GRID_SEEDS = tuple(range(4))


def _grid_session(name: str, **kwargs) -> IncrementalSession:
    (spec,) = catalog_specs([name], mesh_dims=(3, 3), torus_dims=(4, 4),
                            hypercube_dim=3)
    return IncrementalSession(spec=spec, **kwargs)


@pytest.mark.parametrize("name", GRID_ALGOS)
def test_grid_sequences_match_full_rebuild(name):
    # One long-lived session per algorithm (the service's usage pattern):
    # each seed extends the delta history, and equivalence is re-checked
    # against a cold rebuild of the *accumulated* state.
    session = _grid_session(name, triage=derive_seed("inc-triage", name) % 2 == 0)
    for seed in GRID_SEEDS:
        rng = random.Random(derive_seed("inc-grid", name, seed))
        result = None
        for _ in range(2):
            delta = _random_delta(session, rng)
            if delta is None:
                continue
            result = session.reverify(delta)
        assert result is not None
        _assert_step_equivalent(session, result)


def test_vc_add_rebuild_matches_full_rebuild():
    session = _grid_session("e-cube-mesh")
    before = session.baseline()
    result = session.reverify(VcAdd(1))
    assert result.fingerprint != before.fingerprint
    assert len({c.vc for c in session.base.network.link_channels}) == 2
    _assert_step_equivalent(session, result)
    # deltas keep applying on the rebuilt network
    c = session.base.network.link_channels[0]
    _assert_step_equivalent(session, session.reverify(LinkDown(c.src, c.dst, c.vc)))
