"""The scenario layer: spec codecs, the registry, and driver resolution."""

from __future__ import annotations

import json

import pytest

from repro import scenario
from repro.routing import CATALOG
from repro.scenario import ScenarioSpec, TopologySpec, family_names


# ----------------------------------------------------------------------
# TopologySpec codecs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("text", [
    "mesh:4x4",
    "mesh:4x4:v2",
    "hypercube:3",
    "torus:4x4:v3",
    "figure1",
    "figure4",
    "mesh3d:3x3x3:v2",
    "sparse-pillar:3x3x3:v2:pillars=0.0+1.0+2.0",
])
def test_string_codec_round_trips(text):
    spec = TopologySpec.parse(text)
    assert spec.describe() == text
    assert TopologySpec.parse(spec.describe()) == spec


def test_string_codec_is_order_independent():
    a = TopologySpec.parse("sparse-pillar:pillars=0.0+2.2:3x3x3:v2")
    b = TopologySpec.parse("sparse-pillar:3x3x3:v2:pillars=0.0+2.2")
    assert a == b
    assert a.describe() == "sparse-pillar:3x3x3:v2:pillars=0.0+2.2"
    assert a.param_map["pillars"] == ((0, 0), (2, 2))


def test_json_codec_round_trips():
    spec = TopologySpec.parse("sparse-pillar:3x3x3:v2:pillars=0.0+1.0")
    doc = json.loads(json.dumps(spec.to_json()))  # must survive real JSON
    assert TopologySpec.from_json(doc) == spec
    plain = TopologySpec.parse("mesh:4x4")
    assert TopologySpec.from_json(plain.to_json()) == plain


@pytest.mark.parametrize("bad", ["", ":v2", "mesh:wat", "mesh:k=v", "mesh:4x4:"])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        TopologySpec.parse(bad)


def test_unknown_param_key_rejected_eagerly():
    with pytest.raises(ValueError, match="unknown topology parameter"):
        TopologySpec(family="mesh", params=(("typo", 1),))


def test_with_dims_and_vcs_none_are_noops():
    spec = TopologySpec.parse("mesh:4x4:v2")
    assert spec.with_dims(None) is spec
    assert spec.with_vcs(None) is spec
    assert spec.with_dims(5).dims == (5,)  # int => hypercube-style 1-tuple
    assert spec.with_vcs(3).vcs == 3


# ----------------------------------------------------------------------
# builders and the registry
# ----------------------------------------------------------------------
def test_family_names_cover_catalog_families():
    assert set(family_names()) >= {"mesh", "torus", "hypercube", "figure1",
                                   "figure4", "mesh3d", "sparse-pillar"}
    assert {e.family for e in CATALOG.values()} <= set(family_names())


def test_build_dispatches_per_family():
    mesh = TopologySpec.parse("mesh:3x3:v2").build()
    assert mesh.meta["topology"] == "mesh" and mesh.max_vcs() == 2
    cube = TopologySpec.parse("hypercube:3").build()
    assert cube.num_nodes == 8
    m3 = TopologySpec.parse("mesh3d:3x3x3:v2").build()
    assert m3.meta["topology"] == "mesh3d" and m3.num_nodes == 27
    sp = TopologySpec.parse("sparse-pillar:3x3x3:v2:pillars=0.0+1.0").build()
    assert sp.meta["pillars"] == ((0, 0), (1, 0))


def test_build_unknown_family_raises():
    with pytest.raises(Exception, match="unknown topology"):
        TopologySpec.parse("nowhere:2x2").build()


def test_registry_lookup_and_population():
    assert scenario.get("duato-mesh").name == "duato-mesh"
    assert sorted(scenario.names()) == sorted(CATALOG)
    with pytest.raises(KeyError):
        scenario.get("no-such-scenario")
    for_mesh3d = scenario.for_family("mesh3d")
    assert [s.name for s in for_mesh3d] == ["adaptive-mesh3d"]


# ----------------------------------------------------------------------
# ScenarioSpec resolution
# ----------------------------------------------------------------------
def test_topology_for_family_dims_and_overrides():
    entry = scenario.get("duato-mesh")
    # family_dims resizes resizable families; vcs resolves to min_vcs
    resolved = entry.topology_for({"mesh": (8, 8)})
    assert resolved.dims == (8, 8) and resolved.vcs == entry.min_vcs
    # explicit dims wins over the family map
    assert entry.topology_for({"mesh": (8, 8)}, dims=(5, 5)).dims == (5, 5)
    # fixed-shape families ignore a family map that does not name them
    pillar = scenario.get("pillar-wall-3d")
    kept = pillar.topology_for({"mesh": (8, 8)})
    assert kept.dims == (3, 3, 3) and kept.vcs == 2
    assert kept.param_map["pillars"] == ((0, 0), (1, 0), (2, 0))


def test_scenarios_carry_selection_policy():
    assert scenario.get("duato-mesh").selection == "first-free"
    for name in ("adaptive-mesh3d", "pillar-wall-3d", "pillar-diag-3d"):
        assert scenario.get(name).selection == "credit"


def test_scenario_to_json_is_jsonable():
    doc = json.loads(json.dumps(scenario.get("pillar-wall-3d").to_json()))
    assert doc["name"] == "pillar-wall-3d"
    assert doc["topology"]["family"] == "sparse-pillar"
    assert doc["selection"] == "credit"
    assert doc["deadlock_free"] is True


def test_instantiate_builds_relation_on_resolved_network():
    entry = scenario.get("adaptive-mesh3d")
    ra = entry.instantiate()
    assert ra.network.num_nodes == 27
    assert ra.network.max_vcs() == 2


def test_scenario_spec_equality_ignores_factory():
    a = scenario.get("e-cube-mesh")
    b = ScenarioSpec(
        name=a.name, factory=lambda net: None, topology=a.topology,
        min_vcs=a.min_vcs, adaptivity=a.adaptivity,
        deadlock_free=a.deadlock_free, certified_by=a.certified_by,
        notes=a.notes, selection=a.selection,
    )
    assert a == b  # factory is compare=False: specs are value objects


@pytest.mark.parametrize("make_spec", [
    lambda vcs: TopologySpec.parse(f"mesh:4x4:v{vcs}"),
    lambda vcs: TopologySpec("mesh", (4, 4)).with_vcs(vcs),
    lambda vcs: TopologySpec.from_json({"family": "mesh", "dims": [4, 4], "vcs": vcs}),
    lambda vcs: TopologySpec("mesh3d", (3, 3, 3), vcs=vcs),
], ids=["parse", "with_vcs", "from_json", "init"])
def test_vc_count_below_one_is_rejected(make_spec):
    """A zero count was read as the family default and built another network."""
    assert make_spec(1).vcs == 1
    with pytest.raises(ValueError, match=r"^num_vcs must be >= 1$"):
        make_spec(0)
    with pytest.raises(ValueError):  # the string codec has no sign
        make_spec(-1)


@pytest.mark.parametrize("vcs", ["0", "-1"])
def test_cli_vc_count_below_one_exits_with_one_line(vcs):
    from repro.__main__ import main

    with pytest.raises(SystemExit, match=r"^num_vcs must be >= 1$"):
        main(["verify", "--algorithm", "e-cube-mesh", "--topology", "mesh",
              "--dims", "3,3", "--vcs", vcs])
