"""The golden (algorithm x traffic x seed) matrix pinning simulator behavior.

The fast-path engine rewrite is only legal because it is *behavior
preserving*: :meth:`repro.sim.SimStats.digest` must stay byte-identical to
the original per-object engine on every matrix point below.  The digests in
``tests/fixtures/sim_golden_digests.json`` were recorded with the
pre-rewrite engine; ``test_sim_determinism.py`` asserts the current engine
reproduces them exactly.

The matrix deliberately crosses the simulator's behavioral axes:

* wait policies -- SPECIFIC (HPL default) and ANY (e-cube, Duato, EFA);
* adaptivity -- nonadaptive, partially and fully adaptive, nonminimal;
* topologies -- mesh, hypercube, torus;
* traffic -- uniform, transpose, bit-reverse, hotspot patterns;
* configs -- buffer depths, ejection rates, ``prefer_minimal`` off,
  non-default selection functions (the allocator's slow path);
* faults -- mid-run ``fail_channel`` / ``repair_channel`` around which
  adaptive algorithms must reroute deterministically.

Regenerate (only when a change is *intended* to alter behavior) with::

    PYTHONPATH=src:tests python -m golden_matrix --write

The module also pins the **delta verdict matrix**: for every catalog
algorithm, the session-default link-down and table-edit scenarios of
:mod:`repro.incremental` with their frozen verdicts and verdict digests
(``tests/fixtures/delta_verdict_matrix.json``).  The incremental engine
must keep answering reconfiguration questions *identically* -- same
deltas derived, same verdicts, same digests.  Regenerate (same caveat)
with::

    PYTHONPATH=src:tests python -m golden_matrix --write-deltas

And the **existence matrix**: for every scenario-registry topology, the
pinned answer to "does *any* deadlock-free routing relation exist here?"
(:func:`repro.verify.decide_existence`) with its decision method, witness
tier, and semantic digest (``tests/fixtures/existence_matrix.json``) --
plus the **existence delta matrix**
(``tests/fixtures/existence_delta_matrix.json``), which flaps the
session-default link channel through
:class:`repro.incremental.ExistenceSession` and pins each step's verdict,
fast-path reuse flag, and incremental-vs-cold semantic-digest agreement.
Regenerate (same caveat) with ``--write-existence`` /
``--write-existence-deltas``.

And the **relation fingerprints** (``tests/fixtures/relation_fingerprints.json``):
the pipeline's cache key for every registry scenario at the batch default
sizes and at the benchmark's triage-off theorem sizes, checked by
``test_relation_fingerprints.py``.  Regenerate (same caveat) with
``--write-relation-fingerprints``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.routing import make
from repro.routing.selection import make_selection
from repro.scenario import TopologySpec
from repro.sim import BernoulliTraffic, SimConfig, WormholeSimulator

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "sim_golden_digests.json"

#: case id -> spec; every field is plain data (topologies are scenario-layer
#: spec strings) so the matrix itself can be diffed when cases are added.
CASES: dict[str, dict] = {}


def _case(cid: str, **spec) -> None:
    assert cid not in CASES
    spec.setdefault("pattern", "uniform")
    spec.setdefault("rate", 0.3)
    spec.setdefault("length", 6)
    spec.setdefault("cycles", 600)
    spec.setdefault("stop_at", 400)
    spec.setdefault("config", {})
    spec.setdefault("faults", [])
    CASES[cid] = spec


# -- wait-on-ANY algorithms across topologies and seeds -----------------
for seed in (17, 42):
    _case(f"duato-mesh-u{seed}", algorithm="duato-mesh",
          topology="mesh:3x3:v2", seed=seed)
    _case(f"ecube-mesh-u{seed}", algorithm="e-cube-mesh",
          topology="mesh:3x3:v2", seed=seed)
    _case(f"efa-cube-u{seed}", algorithm="enhanced-fully-adaptive",
          topology="hypercube:3:v2", seed=seed)
_case("west-first-t9", algorithm="west-first", topology="mesh:3x3",
      pattern="transpose", seed=9)
_case("duato-cube-br5", algorithm="duato-hypercube", topology="hypercube:3:v2",
      pattern="bit-reverse", seed=5)
_case("duato-torus-u7", algorithm="duato-torus", topology="torus:4x4:v3",
      seed=7, cycles=400, stop_at=250, rate=0.2)
_case("ecube-cube-hot3", algorithm="e-cube", topology="hypercube:3",
      pattern="hotspot", seed=3, rate=0.25)

# -- wait-on-SPECIFIC: HPL commits to designated waiting channels -------
_case("hpl-specific-u11", algorithm="highest-positive-last", topology="mesh:3x3",
      seed=11, rate=0.25)
_case("hpl-specific-t4", algorithm="highest-positive-last", topology="mesh:4x4",
      pattern="transpose", seed=4, rate=0.2)

# -- config axes: depths, ejection rate, raw cid order, slow selection --
_case("duato-mesh-depth2", algorithm="duato-mesh", topology="mesh:3x3:v2",
      seed=6, config={"buffer_depth": 2})
_case("duato-mesh-eject2", algorithm="duato-mesh", topology="mesh:3x3:v2",
      seed=6, config={"ejection_rate": 2})
_case("efa-raw-order", algorithm="enhanced-fully-adaptive",
      topology="hypercube:3:v2", seed=8, config={"prefer_minimal": False})
_case("duato-mesh-lowvc", algorithm="duato-mesh", topology="mesh:3x3:v2",
      seed=8, config={"selection": "lowest-vc-first"})
# every other named policy on the slow path; round-robin and random keep
# state across decisions, and round-robin under SPECIFIC waiting also picks
# among a committed message's designated waiting channels
_case("west-first-straight", algorithm="west-first", topology="mesh:4x4",
      pattern="transpose", seed=31, config={"selection": "straight-first"})
_case("duato-mesh-highvc", algorithm="duato-mesh", topology="mesh:3x3:v2",
      seed=33, config={"selection": "highest-vc-first"})
_case("hpl-specific-rr", algorithm="highest-positive-last", topology="mesh:3x3",
      seed=35, rate=0.25, config={"selection": "round-robin"})
_case("efa-cube-random", algorithm="enhanced-fully-adaptive",
      topology="hypercube:3:v2", seed=37, config={"selection": "random"})

# -- faults: adaptive rerouting around a channel killed mid-sweep -------
# (cycle, "fail"|"repair", src node, dim, sign[, vc]) applied before that
# cycle; without a vc the first matching out-channel is taken
_case("hpl-fault-reroute", algorithm="highest-positive-last", topology="mesh:3x3",
      seed=13, rate=0.2, algo_kwargs={"wait_any": True},
      faults=[(120, "fail", 6, 1, -1), (360, "repair", 6, 1, -1)])
_case("duato-fault-reroute", algorithm="duato-mesh", topology="mesh:3x3:v2",
      seed=19, rate=0.2,
      faults=[(100, "fail", 4, 0, 1), (300, "repair", 4, 0, 1)])

# -- the 3D scenarios: credit-based adaptive selection, escape fallback --
_case("mesh3d-credit-u21", algorithm="adaptive-mesh3d",
      topology="mesh3d:3x3x3:v2", seed=21, rate=0.2,
      config={"selection": "credit"})
_case("pillar-wall-credit-u23", algorithm="pillar-wall-3d",
      topology="sparse-pillar:3x3x3:v2:pillars=0.0+1.0+2.0",
      seed=23, rate=0.2, config={"selection": "credit"})
# drop (then restore) the escape VC of the pillar z-link at node (1,0,0):
# adaptive vc1 keeps the column draining while vc0 is down
_case("pillar-fault-escape", algorithm="pillar-wall-3d",
      topology="sparse-pillar:3x3x3:v2:pillars=0.0+1.0+2.0",
      seed=29, rate=0.15, config={"selection": "credit"},
      faults=[(150, "fail", 1, 2, 1, 0), (400, "repair", 1, 2, 1, 0)])


# ----------------------------------------------------------------------
def _find_channel(net, node: int, dim: int, sign: int, vc: int | None = None):
    for c in net.out_channels(node):
        if (c.meta.get("dim") == dim and c.meta.get("sign") == sign
                and (vc is None or c.vc == vc)):
            return c
    raise LookupError(f"no channel at node {node} dim {dim} sign {sign} vc {vc}")


def build_case(cid: str) -> WormholeSimulator:
    """Instantiate the simulator for one matrix point (not yet stepped)."""
    spec = CASES[cid]
    net = TopologySpec.parse(spec["topology"]).build()
    ra = make(spec["algorithm"], net, **spec.get("algo_kwargs", {}))
    cfg_kwargs = dict(spec["config"])
    if "selection" in cfg_kwargs:
        # a fresh instance per run, so stateful policies replay bit-identically
        cfg_kwargs["selection"] = make_selection(cfg_kwargs["selection"])
    config = SimConfig(seed=spec["seed"], deadlock_check_interval=32, **cfg_kwargs)
    traffic = BernoulliTraffic(
        net, rate=spec["rate"], pattern=spec["pattern"],
        length=spec["length"], stop_at=spec["stop_at"],
    )
    return WormholeSimulator(ra, traffic, config)


def run_case(cid: str) -> str:
    """Run one matrix point to completion and return its stats digest."""
    spec = CASES[cid]
    sim = build_case(cid)
    events = sorted(spec["faults"])
    for cycle in range(spec["cycles"]):
        while events and events[0][0] <= cycle:
            _, action, node, dim, sign, *rest = events[0]
            ch = _find_channel(sim.network, node, dim, sign,
                               rest[0] if rest else None)
            if action == "fail":
                try:
                    sim.fail_channel(ch)
                except ValueError:
                    break  # occupied right now: retry next cycle
            else:
                sim.repair_channel(ch)
            events.pop(0)
        sim.step()
    sim.drain(max_cycles=5000)
    return sim.stats.digest()


# ----------------------------------------------------------------------
# the delta verdict matrix (incremental re-verification scenarios)
# ----------------------------------------------------------------------
DELTA_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "delta_verdict_matrix.json"


def delta_algorithms() -> list[str]:
    """Every catalog algorithm is a delta-matrix row."""
    from repro.routing import CATALOG

    return sorted(CATALOG)


def run_delta_case(name: str) -> dict:
    """One algorithm's pinned reconfiguration scenarios.

    Builds the catalog session, then applies the session-default fault
    pair (link down + repair) and table-edit pair (edit + revert).  Both
    the derived delta *coordinates* and the resulting verdicts/digests are
    part of the pin: a change to the defaults or to any verdict shows up
    as a fixture diff, never silently.
    """
    from repro.incremental import (
        IncrementalSession,
        default_fault_pair,
        default_table_edit,
        format_delta,
    )
    from repro.pipeline import catalog_spec

    session = IncrementalSession(spec=catalog_spec(name), triage=True)
    out: dict = {"baseline": _delta_obs(session.baseline())}

    def scenario(key: str, deltas) -> None:
        results = [session.reverify(d) for d in deltas]
        out[key] = {
            "deltas": [format_delta(d) for d in deltas],
            "steps": [_delta_obs(r) for r in results],
        }

    down, up = default_fault_pair(session)
    scenario("link-down", [down, up])
    try:
        edit, revert = default_table_edit(session)
    except ValueError as exc:
        out["table-edit"] = {"error": str(exc)}
    else:
        scenario("table-edit", [edit, revert])
    return out


def _delta_obs(result) -> dict:
    return {
        "verdicts": {k: v.deadlock_free for k, v in result.verdicts.items()},
        "digest": result.digest,
    }


def load_delta_fixture() -> dict[str, dict]:
    with open(DELTA_FIXTURE) as f:
        return json.load(f)


def write_delta_fixture() -> dict[str, dict]:
    rows = {name: run_delta_case(name) for name in delta_algorithms()}
    DELTA_FIXTURE.parent.mkdir(exist_ok=True)
    with open(DELTA_FIXTURE, "w") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
        f.write("\n")
    return rows


# ----------------------------------------------------------------------
# the existence matrix (network-level deadlock-free-routing existence)
# ----------------------------------------------------------------------
EXISTENCE_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "existence_matrix.json"
EXISTENCE_DELTA_FIXTURE = (
    Path(__file__).resolve().parent / "fixtures" / "existence_delta_matrix.json"
)


def existence_scenarios() -> list[str]:
    """Every scenario-registry topology is an existence-matrix row."""
    from repro.scenario import names

    return sorted(names())


def run_existence_case(name: str) -> dict:
    """One scenario's pinned existence decision (certificates re-verified).

    The row pins the verdict bits, the decision method, the witness tier,
    and that both the channel-ordering certificate and the synthesized
    witness relation machine-verify -- so a regression in any decision
    tier or in witness synthesis shows up as a fixture diff.
    """
    from repro.incremental.existence import semantic_digest
    from repro.scenario import get
    from repro.verify import decide_existence, synthesize_witness, verify

    net = get(name).instantiate().network
    verdict = decide_existence(net)
    row = {
        "exists": verdict.exists,
        "authoritative": verdict.authoritative,
        "method": verdict.method,
        "link_channels": len(net.link_channels),
        "digest": semantic_digest(verdict),
        "certificate_verified": verdict.verify(net),
    }
    if verdict.exists and verdict.schedule is not None:
        witness = synthesize_witness(net, verdict.schedule)
        row["witness"] = witness.kind
        row["witness_certified"] = bool(verify(witness.algorithm).deadlock_free)
    return row


def run_existence_delta_case(name: str) -> dict:
    """One scenario's pinned link-flap re-decision through ExistenceSession.

    Flaps the session-default link channel (down, then restore) and pins
    each step's verdict, whether the monotone fast path reused the previous
    certificate, that the incremental semantic digest equals a cold
    re-decision's, and that the dirty-SCC refresh reported zero frontier
    violations.
    """
    from repro.incremental import ExistenceSession, default_link_flap, format_delta
    from repro.scenario import get

    net = get(name).instantiate().network
    session = ExistenceSession(net)
    base = session.decide()
    out: dict = {"baseline": {"exists": base.verdict.exists, "digest": base.digest}}
    steps = []
    for delta in default_link_flap(net):
        decision = session.apply(delta)
        cold = session.full_decide()
        steps.append({
            "delta": format_delta(delta),
            "exists": decision.verdict.exists,
            "digest": decision.digest,
            "reused": decision.reused,
            "matches_cold": decision.digest == cold.digest,
            "frontier_violations": decision.refresh.get("scc_frontier_violations", 0),
        })
    out["steps"] = steps
    return out


def load_existence_fixture() -> dict[str, dict]:
    with open(EXISTENCE_FIXTURE) as f:
        return json.load(f)


def write_existence_fixture() -> dict[str, dict]:
    rows = {name: run_existence_case(name) for name in existence_scenarios()}
    EXISTENCE_FIXTURE.parent.mkdir(exist_ok=True)
    with open(EXISTENCE_FIXTURE, "w") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
        f.write("\n")
    return rows


def load_existence_delta_fixture() -> dict[str, dict]:
    with open(EXISTENCE_DELTA_FIXTURE) as f:
        return json.load(f)


def write_existence_delta_fixture() -> dict[str, dict]:
    rows = {name: run_existence_delta_case(name) for name in existence_scenarios()}
    EXISTENCE_DELTA_FIXTURE.parent.mkdir(exist_ok=True)
    with open(EXISTENCE_DELTA_FIXTURE, "w") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
        f.write("\n")
    return rows


# ----------------------------------------------------------------------
# relation fingerprints: the pipeline's cache key, pinned per scenario
# ----------------------------------------------------------------------
RELATION_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "relation_fingerprints.json"

#: registry scenarios at the batch default sizes and at the sizes of the
#: benchmark's triage-off theorem workload (unrestricted-minimal at 5x5)
RELATION_SIZES = (
    {},
    {"mesh_dims": (8, 8), "torus_dims": (6, 6), "hypercube_dim": 5},
)


def relation_specs() -> dict[str, "JobSpec"]:
    from repro.pipeline.engine import catalog_specs
    from repro.routing.catalog import CATALOG

    specs = {}
    for sizes in RELATION_SIZES:
        for spec in catalog_specs(**sizes):
            if sizes and spec.algorithm == "unrestricted-minimal":
                spec = catalog_specs([spec.algorithm], mesh_dims=(5, 5))[0]
            specs[f"{spec.algorithm}@{spec.topology.describe()}"] = spec
    assert len({key.split("@")[0] for key in specs}) == len(CATALOG)
    return specs


def run_relation_case(spec) -> str:
    return spec.build().fingerprint()


def load_relation_fixture() -> dict[str, str]:
    with open(RELATION_FIXTURE) as f:
        return json.load(f)


def write_relation_fixture() -> dict[str, str]:
    rows = {key: run_relation_case(spec) for key, spec in relation_specs().items()}
    with open(RELATION_FIXTURE, "w") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
        f.write("\n")
    return rows


def load_fixture() -> dict[str, str]:
    with open(FIXTURE) as f:
        return json.load(f)


def write_fixture() -> dict[str, str]:
    digests = {cid: run_case(cid) for cid in sorted(CASES)}
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    return digests


if __name__ == "__main__":
    import sys

    if "--write-existence" in sys.argv:
        for name, row in write_existence_fixture().items():
            exists = {True: "yes", False: "NO", None: "?"}[row["exists"]]
            print(f"{name:24} exists={exists:3} via {row['method']} "
                  f"witness={row.get('witness', '-')}")
        print(f"wrote {len(existence_scenarios())} existence rows to {EXISTENCE_FIXTURE}")
    elif "--write-existence-deltas" in sys.argv:
        for name, row in write_existence_delta_fixture().items():
            reused = sum(s["reused"] for s in row["steps"])
            cold_ok = all(s["matches_cold"] for s in row["steps"])
            print(f"{name:24} steps={len(row['steps'])} reused={reused} "
                  f"cold={'ok' if cold_ok else 'MISMATCH'}")
        print(f"wrote {len(existence_scenarios())} existence delta rows to "
              f"{EXISTENCE_DELTA_FIXTURE}")
    elif "--write-relation-fingerprints" in sys.argv:
        for key, fp in write_relation_fixture().items():
            print(f"{key:40} {fp}")
        print(f"wrote relation fingerprints to {RELATION_FIXTURE}")
    elif "--write-deltas" in sys.argv:
        for name, row in write_delta_fixture().items():
            print(f"{name:24} baseline={row['baseline']['digest'][:12]}")
        print(f"wrote {len(delta_algorithms())} delta rows to {DELTA_FIXTURE}")
    elif "--write" in sys.argv:
        for cid, d in write_fixture().items():
            print(f"{cid:24} {d}")
        print(f"wrote {len(CASES)} digests to {FIXTURE}")
    else:
        recorded = load_fixture()
        for cid in sorted(CASES):
            got = run_case(cid)
            status = "ok" if recorded.get(cid) == got else "MISMATCH"
            print(f"{cid:24} {status}")
