"""The pinned relation fingerprints: the pipeline's cache key, per scenario.

Every cached artifact and every verdict lookup is keyed on
:meth:`RoutingAlgorithm.fingerprint`, the digest of the network plus the
full reachable routing table.  ``tests/fixtures/relation_fingerprints.json``
freezes it for every registry scenario at the batch default sizes and at
the benchmark's triage-off theorem sizes, so a change to how the table is
walked or serialized (one relation evaluation per ``(node, dest)`` row,
the segment read off cid bitmasks) is checked to keep every byte, not
assumed to.  Regenerate (only for an intended key change) with::

    PYTHONPATH=src:tests python -m golden_matrix --write-relation-fingerprints
"""

from __future__ import annotations

import pytest

from repro.core.transitions import TransitionCache
from repro.incremental import IncrementalSession
from repro.pipeline.engine import catalog_spec
from tests.golden_matrix import load_relation_fixture, relation_specs, run_relation_case

RECORDED = load_relation_fixture()
SPECS = relation_specs()


def test_fixture_covers_every_scenario_at_both_sizes():
    assert sorted(RECORDED) == sorted(SPECS)


@pytest.mark.parametrize("key", sorted(SPECS))
def test_relation_fingerprint_is_pinned(key):
    assert run_relation_case(SPECS[key]) == RECORDED[key]


def test_session_fingerprint_matches_the_batch_key():
    """The incremental session assembles the same digest from cached
    per-destination segments."""
    spec = catalog_spec("duato-mesh", mesh_dims=(3, 3))
    ra = spec.build()
    session = IncrementalSession(spec=spec)
    assert session.check().fingerprint == ra.fingerprint(transitions=TransitionCache(ra))
