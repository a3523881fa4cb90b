"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``verify``        run the deadlock-freedom verifiers on a cataloged algorithm;
``verify-batch``  sweep many algorithms concurrently through the cached pipeline;
``lint``          static-analyze routing relations: rule pack, triage screens,
                  text/JSON/SARIF output with baseline suppression;
``scenarios``     list the scenario registry (topology, VCs, selection policy,
                  certifying theorem, pinned verdict) as text or JSON;
``dot``           emit the CWG or CDG of an algorithm as Graphviz DOT;
``graph-stats``   print the kernel summary (SCCs, acyclicity, fingerprint)
                  of an algorithm's CWG, CDG, or ECDG;
``simulate``      run the wormhole simulator and print a latency/throughput row;
``sim-sweep``     fan a simulation grid across a process pool;
``profile``       cProfile a named bench scenario and rank its hotspots;
``fuzz``          differential-fuzz the verifier stack (or replay the corpus);
``exists``        decide whether *any* deadlock-free routing relation exists on
                  a topology (Mendlovic--Matias), with witness synthesis and
                  incremental link-flap re-decision;
``reverify``      apply deltas (link faults/repairs, table edits, VC adds) to an
                  algorithm and incrementally re-verify after each one;
``serve``         re-verify a seeded stream of link-flap jobs across many
                  algorithms, with sampled full-rebuild audits (the CI smoke mode);
``regen-golden``  rebuild the simulator golden-digest fixture (needs ``--force``).

Examples::

    python -m repro scenarios
    python -m repro verify --algorithm highest-positive-last --topology mesh --dims 4,4
    python -m repro verify-batch --jobs 4 --cache-dir .repro-cache --format json
    python -m repro lint --format sarif --baseline lint-baseline.json --output lint.sarif
    python -m repro dot --algorithm incoherent-example --topology figure1 --graph cwg
    python -m repro simulate --algorithm e-cube-mesh --topology mesh --dims 8,8 \
        --rate 0.2 --cycles 3000
    python -m repro sim-sweep --algorithms e-cube-mesh,highest-positive-last \
        --patterns uniform,transpose --rates 0.1,0.2,0.3 --seeds 3,5 --jobs 4
    python -m repro fuzz --seed 42 --cases 200 --corpus-dir corpus
    python -m repro fuzz --replay-corpus corpus
    python -m repro exists --all
    python -m repro exists --scenario e-cube --witness --format json
    python -m repro exists --topology torus --dims 4,4 --delta down:0>1@0 \
        --delta up:0>1@0 --compare-full
    python -m repro reverify --algorithm west-first \
        --delta down:0>1@0 --delta up:0>1@0 --compare-full
    python -m repro serve --algorithms all --events 40 \
        --sample 0.2 --expect-hit-rate 0.3
    python -m repro regen-golden --force
"""

from __future__ import annotations

import argparse
import sys

from .export import (
    batch_table,
    batch_to_csv,
    batch_to_json,
    graph_stats_block,
    to_dot,
    verdict_block,
)
from .routing import CATALOG, make


def _parse_dims(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"{flag} expects comma-separated integers, got {text!r}") from None


def _build_network(args) -> object:
    from .pipeline import build_topology

    dims = _parse_dims(args.dims, "--dims") if args.dims else None
    try:
        return build_topology(args.topology, dims, args.vcs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _topology_spec(args):
    """Resolve the common --topology/--dims/--vcs flags to a TopologySpec."""
    from .scenario import TopologySpec

    topo = args.topology
    if isinstance(topo, str):
        topo = TopologySpec.parse(topo)
    dims = _parse_dims(args.dims, "--dims") if args.dims else None
    return topo.with_dims(dims).with_vcs(args.vcs)


def _default_vcs(name: str) -> int:
    return CATALOG[name].min_vcs if name in CATALOG else 1


def _build_algorithm(args):
    """Resolve --algorithm/--topology/--dims/--vcs to ``(network, relation)``."""
    from .routing import RoutingError

    if args.vcs is None:
        args.vcs = _default_vcs(args.algorithm)
    net = _build_network(args)
    try:
        return net, make(args.algorithm, net)
    except RoutingError as exc:
        raise SystemExit(str(exc)) from None


def cmd_scenarios(args) -> int:
    """List the scenario registry: the single source of reproducible setups."""
    from .scenario import all_specs

    specs = list(all_specs())
    if args.format == "json":
        import json

        print(json.dumps([s.to_json() for s in specs], indent=2))
        return 0
    width = max(len(s.name) for s in specs)
    tw = max(len("topology"), *(len(s.topology.describe()) for s in specs))
    print(f"{'name'.ljust(width)}  {'topology'.ljust(tw)}  vcs  "
          f"{'selection'.ljust(12)}  {'adaptivity'.ljust(11)}  safe  certified by")
    for s in specs:
        print(
            f"{s.name.ljust(width)}  {s.topology.describe().ljust(tw)}  {s.min_vcs:<3}  "
            f"{s.selection:<12}  {s.adaptivity:<11}  "
            f"{'yes' if s.deadlock_free else 'NO ':<4}  {s.certified_by}"
        )
    return 0


def cmd_verify(args) -> int:
    from .verify import dally_seitz, search_escape, verify

    net, ra = _build_algorithm(args)
    print(f"network: {net}")
    if args.all_conditions:
        print(dally_seitz(ra))
        print(search_escape(ra))
    verdict = verify(ra)
    print(verdict_block(verdict))
    return 0 if verdict.deadlock_free else 1


def cmd_verify_batch(args) -> int:
    from .pipeline import DEFAULT_CONDITIONS, BatchVerifier, catalog_specs

    names = None
    if args.algorithms and args.algorithms != "all":
        names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
        unknown = [n for n in names if n not in CATALOG]
        if unknown:
            raise SystemExit(f"unknown algorithms {unknown}; see `python -m repro scenarios`")
    conditions = tuple(
        c.strip() for c in (args.conditions or ",".join(DEFAULT_CONDITIONS)).split(",")
        if c.strip()
    )
    specs = catalog_specs(
        names,
        mesh_dims=_parse_dims(args.mesh_dims, "--mesh-dims"),
        torus_dims=_parse_dims(args.torus_dims, "--torus-dims"),
        hypercube_dim=args.hypercube_dim,
        conditions=conditions,
        triage=not args.no_triage,
    )
    verifier = BatchVerifier(
        workers=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    report = verifier.run(specs)
    rendered = {
        "table": batch_table,
        "json": batch_to_json,
        "csv": batch_to_csv,
    }[args.format](report)
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"wrote {args.format} report for {len(report.jobs)} jobs to {args.output}")
    else:
        print(rendered)
    return 1 if report.errors else 0


def _lint_split(text: str | None) -> list[str]:
    return [t.strip() for t in (text or "").split(",") if t.strip()]


def _lint_case_target(path, config, dims_args):
    """Analyze one case file (a fuzz TableCase or a corpus entry)."""
    import json
    from pathlib import Path

    from .analyze import TargetReport, analyze

    p = Path(path)
    name = p.stem
    try:
        doc = json.loads(p.read_text())
        if "table" in doc and "format" in doc:  # a shrunk corpus reproducer
            from .fuzz.corpus import CorpusEntry

            case = CorpusEntry.from_json(doc).table
        else:  # a bare TableCase
            from .fuzz.table import TableCase

            case = TableCase.from_json(doc)
        ra = case.build()
    except Exception as exc:
        return TargetReport(target=name, network="?", wait_policy="?",
                            error=f"{type(exc).__name__}: {exc}")
    return analyze(ra, config=config, target=name)


def cmd_lint(args) -> int:
    from pathlib import Path

    from .analyze import (
        RENDERERS,
        AnalysisReport,
        RuleConfig,
        Severity,
        analyze,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from .pipeline import build_topology

    try:
        config = RuleConfig.from_tokens(
            disable=_lint_split(args.disable), select=_lint_split(args.select)
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    report = AnalysisReport()
    if args.case:
        for path in args.case:
            report.add(_lint_case_target(path, config, args))
    elif args.corpus:
        files = sorted(Path(args.corpus).glob("*.json"))
        if not files:
            raise SystemExit(f"no .json case files under {args.corpus}")
        for path in files:
            report.add(_lint_case_target(path, config, args))
    else:
        names = _lint_split(args.algorithms) or sorted(CATALOG)
        if args.algorithms in (None, "", "all"):
            names = sorted(CATALOG)
        unknown = [n for n in names if n not in CATALOG]
        if unknown:
            raise SystemExit(f"unknown algorithms {unknown}; see `python -m repro scenarios`")
        family_dims = {
            "mesh": _parse_dims(args.mesh_dims, "--mesh-dims"),
            "torus": _parse_dims(args.torus_dims, "--torus-dims"),
            "hypercube": args.hypercube_dim,
        }
        from .analyze import TargetReport

        for name in names:
            entry = CATALOG[name]
            try:
                net = build_topology(entry.topology_for(family_dims))
                ra = make(name, net)
            except Exception as exc:
                report.add(TargetReport(target=name, network="?", wait_policy="?",
                                        error=f"{type(exc).__name__}: {exc}"))
                continue
            report.add(analyze(ra, config=config, target=name))
    report.finalize()

    if args.write_baseline:
        n = write_baseline(report, Path(args.write_baseline))
        print(f"wrote {n} suppressions to {args.write_baseline}")
        return 0
    if args.baseline:
        try:
            suppressions = load_baseline(Path(args.baseline))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load baseline: {exc}") from None
        apply_baseline(report, suppressions)

    rendered = RENDERERS[args.format](report)
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered)
        print(f"wrote {args.format} report for {len(report.targets)} targets to {args.output}")
    else:
        print(rendered, end="")

    if any(t.error for t in report.targets):
        return 2
    if args.fail_on == "never":
        return 0
    threshold = Severity.parse(args.fail_on)
    worst = report.max_severity
    return 1 if worst is not None and worst >= threshold else 0


def cmd_dot(args) -> int:
    net, ra = _build_algorithm(args)
    g = _build_channel_graph(ra, args.graph)
    print(to_dot(g, title=f"{g.kind} of {ra.name} on {net.name}"))
    return 0


def _build_channel_graph(ra, kind: str):
    if kind == "cwg":
        from .core import ChannelWaitingGraph

        return ChannelWaitingGraph(ra)
    if kind == "cdg":
        from .deps import ChannelDependencyGraph

        return ChannelDependencyGraph(ra)
    from .deps import ExtendedChannelDependencyGraph, escape_by_vc

    return ExtendedChannelDependencyGraph(ra, escape_by_vc(ra))


def cmd_graph_stats(args) -> int:
    net, ra = _build_algorithm(args)
    g = _build_channel_graph(ra, args.graph)
    print(f"{args.graph.upper()} of {ra.name} on {net.name}")
    print(graph_stats_block(g))
    return 0


def _check_sim_inputs(cycles: int, length: int, seeds: tuple[int, ...], seed_flag: str) -> None:
    """One-line exits for simulator inputs that would crash or print ``nan``."""
    from .sim import SimConfig
    from .sim.traffic import check_length

    if cycles < 1:
        raise SystemExit(f"bad --cycles: must be at least 1, got {cycles}")
    try:
        check_length(length)
    except ValueError as exc:
        raise SystemExit(f"bad --length: {exc}") from None
    try:
        for seed in seeds:
            SimConfig(seed=seed)
    except ValueError as exc:
        raise SystemExit(f"bad {seed_flag}: {exc}") from None


def cmd_simulate(args) -> int:
    from .sim import BernoulliTraffic, SimConfig, WormholeSimulator

    _check_sim_inputs(args.cycles, args.length, (args.seed,), "--seed")
    net, ra = _build_algorithm(args)
    try:
        traffic = BernoulliTraffic(net, rate=args.rate, pattern=args.pattern,
                                   length=args.length, stop_at=args.cycles)
    except ValueError as exc:
        raise SystemExit(f"bad --rate: {exc}") from None
    sim = WormholeSimulator(ra, traffic, SimConfig(seed=args.seed))
    sim.run(args.cycles)
    if sim.deadlock is not None:
        print(sim.deadlock.describe())
        return 2
    sim.drain()
    s = sim.stats.summary(cycles=sim.cycle, num_nodes=net.num_nodes,
                          warmup=args.cycles // 5)
    print(f"{ra.name} on {net.name} @ rate {args.rate} ({args.pattern}): {s.row()}")
    return 0


def cmd_sim_sweep(args) -> int:
    from .sim import SweepRunner, grid_points, sweep_table, sweep_to_json
    from .sim.traffic import check_rate

    names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
    unknown = [n for n in names if n not in CATALOG]
    if unknown:
        raise SystemExit(f"unknown algorithms {unknown}; see `python -m repro scenarios`")
    try:
        rates = tuple(float(x) for x in args.rates.split(","))
        seeds = tuple(int(x) for x in args.seeds.split(","))
    except ValueError as exc:
        raise SystemExit(f"bad --rates/--seeds: {exc}") from None
    _check_sim_inputs(args.cycles, args.length, seeds, "--seeds")
    try:
        for rate in rates:
            check_rate(rate, args.length)
    except ValueError as exc:
        raise SystemExit(f"bad --rates: {exc}") from None
    points = grid_points(
        names,
        patterns=tuple(p.strip() for p in args.patterns.split(",") if p.strip()),
        rates=rates,
        seeds=seeds,
        cycles=args.cycles,
        length=args.length,
        mesh_dims=_parse_dims(args.mesh_dims, "--mesh-dims"),
        torus_dims=_parse_dims(args.torus_dims, "--torus-dims"),
        hypercube_dim=args.hypercube_dim,
    )
    report = SweepRunner(workers=args.jobs).run(points)
    rendered = {"table": sweep_table, "json": sweep_to_json}[args.format](report)
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"wrote {args.format} report for {len(report.points)} points to {args.output}")
    else:
        print(rendered)
    return 1 if report.errors else 0


def cmd_profile(args) -> int:
    from .profiling import SCENARIOS, run_profile

    if args.list:
        width = max(len(n) for n in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name.ljust(width)}  {SCENARIOS[name].description}")
        return 0
    if args.scenario is None:
        raise SystemExit("profile: a scenario is required (or use --list)")
    try:
        report = run_profile(args.scenario, top=args.top, sort=args.sort)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    rendered = report.to_json() if args.format == "json" else report.to_text()
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"wrote {args.format} profile of {args.scenario} to {args.output}")
    else:
        print(rendered)
    return 0


def cmd_fuzz(args) -> int:
    from pathlib import Path

    from .fuzz import (
        DEFAULT_FAMILIES,
        FAMILIES,
        FuzzConfig,
        fuzz_table,
        replay_corpus,
        replay_table,
        run_campaign,
    )

    if args.replay_corpus is not None:
        if not Path(args.replay_corpus).is_dir():
            # an empty replay would pass vacuously
            raise SystemExit(f"corpus directory {args.replay_corpus!r} does not exist")
        report = replay_corpus(args.replay_corpus)
        print(replay_table(report))
        return 0 if report.ok else 1

    families = DEFAULT_FAMILIES
    if args.families:
        families = tuple(f.strip() for f in args.families.split(",") if f.strip())
        unknown = [f for f in families if f not in FAMILIES]
        if unknown:
            raise SystemExit(f"unknown families {unknown}; known: {sorted(FAMILIES)}")
    config = FuzzConfig(
        seed=args.seed,
        max_cases=args.cases if args.cases > 0 else None,
        max_seconds=args.seconds,
        families=families,
        stack=args.stack,
        workers=args.jobs,
        corpus_dir=args.corpus_dir,
        shrink_budget=args.shrink_budget,
    )
    try:
        report = run_campaign(config)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(fuzz_table(report))
    return 0 if report.clean else 1


def _exists_row(name: str, net, *, witness: bool) -> tuple:
    """Decide existence on one network; returns (verdict, json-able row)."""
    import time

    from .verify import decide_existence, synthesize_witness

    t0 = time.perf_counter()
    verdict = decide_existence(net)
    seconds = time.perf_counter() - t0
    row = {
        "name": name,
        "network": net.name,
        "num_nodes": net.num_nodes,
        "link_channels": len(net.link_channels),
        "exists": verdict.exists,
        "authoritative": verdict.authoritative,
        "method": verdict.method,
        "seconds": round(seconds, 6),
    }
    if witness and verdict.exists and verdict.schedule is not None:
        w = synthesize_witness(net, verdict.schedule)
        row["witness"] = w.kind
        row["witness_relation"] = w.algorithm.name
    if verdict.exists is False and verdict.obstruction is not None:
        row["obstruction"] = verdict.obstruction.to_json()
    return verdict, row


def cmd_exists(args) -> int:
    import json

    from .scenario import all_specs, get as get_scenario

    if args.all_scenarios:
        rows = []
        for spec in all_specs():
            net = spec.instantiate().network
            _, row = _exists_row(spec.name, net, witness=args.witness)
            rows.append(row)
        if args.format == "json":
            print(json.dumps(rows, indent=2))
            return 0
        width = max(len(r["name"]) for r in rows)
        nw = max(len("network"), *(len(r["network"]) for r in rows))
        print(f"{'scenario'.ljust(width)}  {'network'.ljust(nw)}  chans  "
              f"exists  method          ms")
        for r in rows:
            exists = {True: "yes", False: "NO ", None: "?  "}[r["exists"]]
            extra = f"  [{r['witness']}]" if "witness" in r else ""
            print(f"{r['name'].ljust(width)}  {r['network'].ljust(nw)}  "
                  f"{r['link_channels']:<5}  {exists:<6}  {r['method']:<14}  "
                  f"{r['seconds'] * 1000:6.1f}{extra}")
        return 0

    if args.scenario:
        try:
            net = get_scenario(args.scenario).instantiate().network
        except KeyError:
            raise SystemExit(
                f"unknown scenario {args.scenario!r}; see `python -m repro scenarios`"
            ) from None
        name = args.scenario
    elif args.topology:
        net = _build_network(args)
        name = net.name
    else:
        raise SystemExit("exists: need --scenario, --topology, or --all")

    verdict, row = _exists_row(name, net, witness=args.witness)

    if args.delta:
        from .incremental import ExistenceSession, parse_delta

        try:
            deltas = [parse_delta(text) for text in args.delta]
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        session = ExistenceSession(net)
        decision = session.decide()
        steps = [{"delta": None, **row}]
        print(f"baseline: {decision.describe()}")
        mismatches = 0
        for delta in deltas:
            try:
                decision = session.apply(delta)
            except ValueError as exc:
                raise SystemExit(f"cannot apply {delta}: {exc}") from None
            print(f"{delta}: {decision.describe()}")
            if args.compare_full:
                full = session.full_decide()
                same = full.digest == decision.digest
                mismatches += not same
                print(f"  full re-decision: digest "
                      f"{'matches' if same else 'MISMATCH'} "
                      f"({full.seconds:.3f}s cold vs "
                      f"{decision.seconds:.3f}s incremental)")
        if mismatches:
            print(f"{mismatches} incremental verdict(s) diverged from cold re-decisions")
            return 2
        verdict = decision.verdict

    if args.format == "json":
        print(json.dumps(row, indent=2))
    elif not args.delta:
        print(verdict.describe())
        if "witness" in row:
            print(f"witness: {row['witness']} relation "
                  f"{row['witness_relation']} (theorem-certified)")
    if verdict.exists is True:
        return 0
    return 1 if verdict.exists is False else 2


def cmd_reverify(args) -> int:
    from .incremental import IncrementalSession, ReverifyJob, parse_delta, run_jobs
    from .pipeline import JobSpec

    if args.vcs is None:
        args.vcs = _default_vcs(args.algorithm)
    spec = JobSpec(algorithm=args.algorithm, topology=_topology_spec(args))
    try:
        deltas = [parse_delta(text) for text in (args.delta or [])]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        session = IncrementalSession(spec=spec, triage=not args.no_triage)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    result = session.baseline()
    print(result.describe())
    jobs = [ReverifyJob(i, args.algorithm, d) for i, d in enumerate(deltas, 1)]
    mismatches = 0
    for outcome in run_jobs(jobs, {args.algorithm: session},
                            verify_sample=1.0 if args.compare_full else 0.0):
        if outcome.error is not None:
            raise SystemExit(f"cannot apply {outcome.job.delta}: {outcome.error}")
        result = outcome.result
        print(result.describe())
        if outcome.audit is not None:
            mismatches += not outcome.audit_ok
            print(f"  full rebuild: digest {'matches' if outcome.audit_ok else 'MISMATCH'} "
                  f"({outcome.audit.seconds:.3f}s cold vs {result.seconds:.3f}s incremental)")
    if mismatches:
        print(f"{mismatches} incremental verdict(s) diverged from full rebuilds")
        return 1
    # like cmd_verify: the authoritative theorem verdict decides the exit
    # code (sufficient-only conditions cannot refute adaptive algorithms)
    final = result.verdicts.get("theorem")
    free = final.deadlock_free if final is not None else result.deadlock_free
    return 0 if free else 1


def cmd_serve(args) -> int:
    import random

    from .incremental import LinkDown, LinkUp, ReverifyJob, run_jobs
    from .pipeline import StageMetrics, VerificationCache, build_topology, catalog_specs

    if not 0.0 <= args.sample <= 1.0:
        raise SystemExit(f"--sample must be within [0, 1], got {args.sample}")
    names = sorted(CATALOG)
    if args.algorithms and args.algorithms != "all":
        names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
        if not names:
            raise SystemExit(f"--algorithms names no algorithm: {args.algorithms!r}")
        unknown = [n for n in names if n not in CATALOG]
        if unknown:
            raise SystemExit(f"unknown algorithms {unknown}; see `python -m repro scenarios`")
    specs = catalog_specs(
        names,
        mesh_dims=_parse_dims(args.mesh_dims, "--mesh-dims"),
        torus_dims=_parse_dims(args.torus_dims, "--torus-dims"),
        hypercube_dim=args.hypercube_dim,
    )
    # A deterministic link-flap event stream: each target flaps one randomly
    # chosen link channel, so repaired states revisit known fingerprints and
    # the content-addressed cache must show hits.
    rng = random.Random(args.seed)
    flap_link: dict[str, tuple[int, int, int]] = {}
    is_down: dict[str, bool] = {}
    for spec in specs:
        net = build_topology(spec.topology, spec.dims, spec.vcs)
        c = rng.choice(net.link_channels)
        flap_link[spec.algorithm] = (c.src, c.dst, c.vc)
        is_down[spec.algorithm] = False
    jobs = []
    for job_id in range(args.events):
        target = rng.choice(names)
        src, dst, vc = flap_link[target]
        delta = LinkUp(src, dst, vc) if is_down[target] else LinkDown(src, dst, vc)
        is_down[target] = not is_down[target]
        jobs.append(ReverifyJob(job_id, target, delta))
    cache = VerificationCache(max_entries=256)
    metrics = StageMetrics()
    outcomes = list(run_jobs(jobs, {s.algorithm: s for s in specs}, cache=cache,
                             verify_sample=args.sample, metrics=metrics))
    errors = [o for o in outcomes if o.error is not None]
    audited = [o for o in outcomes if o.audit is not None]
    mismatches = [o for o in audited if not o.audit_ok]
    stats = cache.stats()
    print(f"serve: {len(outcomes)} jobs over {len(specs)} targets")
    print(f"  cache hit rate {stats['hit_rate']:.3f} "
          f"({stats['hits']} hits / {stats['misses']} misses)")
    print(f"  audited {len(audited)} jobs against full rebuilds, "
          f"{len(mismatches)} mismatches")
    for o in errors:
        print(f"  error: job {o.job.job_id} ({o.job.target}): {o.error}")
    for o in mismatches:
        print(f"  MISMATCH: job {o.job.job_id} ({o.job.target})")
    lat = metrics.snapshot()["observations"].get("reverify_seconds")
    if lat:
        print(f"  reverify mean={lat['mean']:.4f}s min={lat['min']:.4f}s "
              f"max={lat['max']:.4f}s over {int(lat['count'])} checks")
    if stats["hit_rate"] < args.expect_hit_rate:
        print(f"  hit rate {stats['hit_rate']:.3f} below required "
              f"{args.expect_hit_rate:.3f}")
        return 1
    return 1 if errors or mismatches else 0


def cmd_regen_golden(args) -> int:
    import importlib
    import json
    from pathlib import Path

    tests_dir = Path(__file__).resolve().parents[2] / "tests"
    if not (tests_dir / "golden_matrix.py").is_file():
        raise SystemExit(f"golden matrix module not found under {tests_dir}")
    sys.path.insert(0, str(tests_dir))
    try:
        gm = importlib.import_module("golden_matrix")
    finally:
        sys.path.remove(str(tests_dir))

    fixture = Path(args.fixture) if args.fixture else gm.FIXTURE
    only = None
    if args.only:
        only = [c.strip() for c in args.only.split(",") if c.strip()]
        unknown = [c for c in only if c not in gm.CASES]
        if unknown:
            raise SystemExit(f"unknown golden cases {unknown}; known: {sorted(gm.CASES)}")

    if args.check:
        recorded = gm.load_fixture()
        bad = 0
        for cid in only or sorted(gm.CASES):
            got = gm.run_case(cid)
            ok = recorded.get(cid) == got
            bad += not ok
            print(f"{cid:24} {'ok' if ok else 'MISMATCH'}")
        return 1 if bad else 0

    if not args.force:
        targets = only or sorted(gm.CASES)
        raise SystemExit(
            f"refusing to regenerate {len(targets)} golden digest(s) in {fixture}.\n"
            "Golden digests pin simulator behavior; rewrite them only when a\n"
            "change is *intended* to alter it.  Re-run with --force to proceed,\n"
            "or with --check to compare without writing."
        )

    recorded = {}
    if fixture.is_file():
        with open(fixture) as f:
            recorded = json.load(f)
    digests = dict(recorded)
    for cid in only or sorted(gm.CASES):
        digests[cid] = gm.run_case(cid)
        changed = recorded.get(cid) != digests[cid]
        print(f"{cid:24} {digests[cid]}{'  (changed)' if changed else ''}")
    fixture.parent.mkdir(parents=True, exist_ok=True)
    with open(fixture, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {fixture}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    from .scenario import family_names

    def common(p):
        p.add_argument("--algorithm", required=True, choices=sorted(CATALOG))
        p.add_argument("--topology", default=None, choices=list(family_names()),
                       help="topology family (default: the scenario's canonical one)")
        p.add_argument("--dims", default=None, help="comma-separated, e.g. 4,4 (hypercube: one number)")
        p.add_argument("--vcs", type=int, default=None, help="virtual channels per link")

    pc = sub.add_parser(
        "scenarios",
        help="list the scenario registry (topology, VCs, selection, verdict)",
    )
    pc.add_argument("--format", default="text", choices=["text", "json"])

    pv = sub.add_parser("verify", help="run the deadlock-freedom verifiers")
    common(pv)
    pv.add_argument("--all-conditions", action="store_true",
                    help="also run Dally-Seitz and Duato's condition")

    pb = sub.add_parser(
        "verify-batch",
        help="verify many cataloged algorithms concurrently with caching",
    )
    pb.add_argument("--algorithms", default="all",
                    help="comma-separated catalog names (default: the whole catalog)")
    pb.add_argument("--conditions", default=None,
                    help="comma-separated subset of theorem,duato,dally-seitz")
    pb.add_argument("--jobs", type=int, default=0,
                    help="worker processes (0/1 = deterministic in-process)")
    pb.add_argument("--mesh-dims", default="4,4", help="dims for mesh jobs")
    pb.add_argument("--torus-dims", default="4,4", help="dims for torus jobs")
    pb.add_argument("--hypercube-dim", type=int, default=3, help="dimension for hypercube jobs")
    pb.add_argument("--cache-dir", default=None,
                    help="shared on-disk cache directory (warm re-runs are near-free)")
    pb.add_argument("--no-cache", action="store_true", help="disable all caching")
    pb.add_argument("--no-triage", action="store_true",
                    help="skip the static triage screens; always run the full theorem check")
    pb.add_argument("--format", default="table", choices=["table", "json", "csv"])
    pb.add_argument("--output", default=None, help="write the report to a file")

    pl = sub.add_parser(
        "lint",
        help="static-analyze routing relations (rule pack + triage screens)",
    )
    pl.add_argument("--algorithms", default="all",
                    help="comma-separated catalog names (default: the whole catalog)")
    pl.add_argument("--case", action="append", default=None, metavar="FILE",
                    help="analyze a fuzz TableCase / corpus-entry JSON file (repeatable)")
    pl.add_argument("--corpus", default=None, metavar="DIR",
                    help="analyze every .json case under a corpus directory")
    pl.add_argument("--mesh-dims", default="4,4", help="dims for mesh algorithms")
    pl.add_argument("--torus-dims", default="4,4", help="dims for torus algorithms")
    pl.add_argument("--hypercube-dim", type=int, default=3,
                    help="dimension for hypercube algorithms")
    pl.add_argument("--format", default="text", choices=["text", "json", "sarif"])
    pl.add_argument("--output", default=None, help="write the report to a file")
    pl.add_argument("--baseline", default=None, metavar="FILE",
                    help="suppress diagnostics whose fingerprints are in this baseline")
    pl.add_argument("--write-baseline", default=None, metavar="FILE",
                    help="write a baseline accepting every current finding, then exit")
    pl.add_argument("--disable", default=None,
                    help="comma-separated rule ids/names to disable")
    pl.add_argument("--select", default=None,
                    help="comma-separated rule ids/names to run exclusively")
    pl.add_argument("--fail-on", default="error",
                    choices=["error", "warning", "info", "never"],
                    help="lowest severity that fails the run (default: error)")

    pd = sub.add_parser("dot", help="emit a channel graph as Graphviz DOT")
    common(pd)
    pd.add_argument("--graph", default="cwg", choices=["cwg", "cdg", "ecdg"])

    pg = sub.add_parser(
        "graph-stats",
        help="print the dependency-graph kernel summary (SCCs, acyclicity, fingerprint)",
    )
    common(pg)
    pg.add_argument("--graph", default="cwg", choices=["cwg", "cdg", "ecdg"])

    ps = sub.add_parser("simulate", help="run the wormhole simulator")
    common(ps)
    ps.add_argument("--rate", type=float, default=0.2)
    ps.add_argument("--pattern", default="uniform")
    ps.add_argument("--length", type=int, default=8)
    ps.add_argument("--cycles", type=int, default=3000)
    ps.add_argument("--seed", type=int, default=1)

    pw = sub.add_parser(
        "sim-sweep",
        help="run a simulation grid (algorithm x pattern x load x seed) in parallel",
    )
    pw.add_argument("--algorithms", default="e-cube-mesh",
                    help="comma-separated catalog names")
    pw.add_argument("--patterns", default="uniform",
                    help="comma-separated traffic patterns (see repro.sim.PATTERNS)")
    pw.add_argument("--rates", default="0.1,0.2,0.3",
                    help="comma-separated offered loads (flits/node/cycle)")
    pw.add_argument("--seeds", default="1", help="comma-separated RNG seeds")
    pw.add_argument("--cycles", type=int, default=2500)
    pw.add_argument("--length", type=int, default=8, help="message length in flits")
    pw.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: one per CPU core; "
                         "0/1 = deterministic in-process)")
    pw.add_argument("--mesh-dims", default="8,8", help="dims for mesh algorithms")
    pw.add_argument("--torus-dims", default="8,8", help="dims for torus algorithms")
    pw.add_argument("--hypercube-dim", type=int, default=5,
                    help="dimension for hypercube algorithms")
    pw.add_argument("--format", default="table", choices=["table", "json"])
    pw.add_argument("--output", default=None, help="write the report to a file")

    pp = sub.add_parser(
        "profile",
        help="profile a named bench scenario with cProfile and rank hotspots",
    )
    pp.add_argument("scenario", nargs="?", default=None,
                    help="scenario name (see --list)")
    pp.add_argument("--list", action="store_true", help="list scenarios and exit")
    pp.add_argument("--top", type=int, default=20, help="hotspot rows to report")
    pp.add_argument("--sort", default="cumulative",
                    choices=["cumulative", "tottime", "ncalls"])
    pp.add_argument("--format", default="text", choices=["text", "json"])
    pp.add_argument("--output", default=None, help="write the report to a file")

    pf = sub.add_parser(
        "fuzz",
        help="differential-fuzz the verifiers with metamorphic oracles",
    )
    pf.add_argument("--seed", type=int, default=0, help="campaign master seed")
    pf.add_argument("--cases", type=int, default=200,
                    help="case budget (<= 0 = unbounded, use --seconds)")
    pf.add_argument("--seconds", type=float, default=None,
                    help="wall-clock budget (machine-dependent case coverage); "
                         "checked between chunks of cases, so started cases always finish")
    pf.add_argument("--families", default=None,
                    help="comma-separated generator families (default: all)")
    pf.add_argument("--stack", default="real",
                    help='oracle stack: "real" or "planted:<variant>"')
    pf.add_argument("--jobs", type=int, default=0,
                    help="worker processes (0/1 = deterministic in-process)")
    pf.add_argument("--corpus-dir", default=None,
                    help="save shrunk reproducers here (default: don't)")
    pf.add_argument("--shrink-budget", type=int, default=600,
                    help="max oracle evaluations per shrink")
    pf.add_argument("--replay-corpus", default=None, metavar="DIR",
                    help="replay a corpus directory instead of generating cases")

    px = sub.add_parser(
        "exists",
        help="decide whether any deadlock-free routing exists on a topology",
    )
    px.add_argument("--scenario", default=None,
                    help="scenario-registry name (see `python -m repro scenarios`)")
    px.add_argument("--topology", default=None, choices=list(family_names()),
                    help="topology family (alternative to --scenario)")
    px.add_argument("--dims", default=None,
                    help="comma-separated, e.g. 4,4 (hypercube: one number)")
    px.add_argument("--vcs", type=int, default=1, help="virtual channels per link")
    px.add_argument("--all", action="store_true", dest="all_scenarios",
                    help="decide every scenario-registry topology and print a table")
    px.add_argument("--witness", action="store_true",
                    help="on YES, synthesize and name the certified witness relation")
    px.add_argument("--delta", action="append", default=None, metavar="DELTA",
                    help="link delta, repeatable: down:SRC>DST@VC or up:SRC>DST@VC "
                         "(re-decided incrementally)")
    px.add_argument("--compare-full", action="store_true",
                    help="audit every incremental re-decision against a cold one")
    px.add_argument("--format", default="text", choices=["text", "json"])

    pi = sub.add_parser(
        "reverify",
        help="apply deltas to an algorithm and incrementally re-verify each one",
    )
    common(pi)
    pi.add_argument("--delta", action="append", default=None, metavar="DELTA",
                    help="compact delta, repeatable: down:SRC>DST@VC, up:SRC>DST@VC, "
                         "edit:KEY=CIDS[|WAITS] (edit:KEY clears), vc:+N")
    pi.add_argument("--compare-full", action="store_true",
                    help="audit every incremental verdict against a cold full rebuild")
    pi.add_argument("--no-triage", action="store_true",
                    help="skip the static triage screens; always run the full theorem check")

    pe = sub.add_parser(
        "serve",
        help="re-verify a seeded stream of link-flap jobs with sampled audits",
    )
    pe.add_argument("--algorithms", default="all",
                    help="comma-separated catalog names (default: the whole catalog)")
    pe.add_argument("--events", type=int, default=40,
                    help="number of link-flap jobs to enqueue")
    pe.add_argument("--seed", type=int, default=0, help="event-stream RNG seed")
    pe.add_argument("--sample", type=float, default=0.1,
                    help="fraction of jobs audited against a cold full rebuild")
    pe.add_argument("--expect-hit-rate", type=float, default=0.0,
                    help="fail unless the cache hit rate reaches this fraction")
    pe.add_argument("--mesh-dims", default="3,3", help="dims for mesh targets")
    pe.add_argument("--torus-dims", default="4,4", help="dims for torus targets")
    pe.add_argument("--hypercube-dim", type=int, default=3,
                    help="dimension for hypercube targets")

    pr = sub.add_parser(
        "regen-golden",
        help="rebuild tests/fixtures/sim_golden_digests.json (needs --force)",
    )
    pr.add_argument("--force", action="store_true",
                    help="actually rewrite the fixture")
    pr.add_argument("--check", action="store_true",
                    help="compare current digests against the fixture, write nothing")
    pr.add_argument("--only", default=None,
                    help="comma-separated case ids (default: the whole matrix)")
    pr.add_argument("--fixture", default=None,
                    help="alternate fixture path (default: the tests/ fixture)")

    args = parser.parse_args(argv)
    needs_topology = ("verify", "dot", "graph-stats", "simulate", "reverify")
    if args.command in needs_topology and args.topology is None:
        args.topology = CATALOG[args.algorithm].topology
    return {
        "scenarios": cmd_scenarios,
        "verify": cmd_verify,
        "verify-batch": cmd_verify_batch,
        "lint": cmd_lint,
        "dot": cmd_dot,
        "graph-stats": cmd_graph_stats,
        "simulate": cmd_simulate,
        "sim-sweep": cmd_sim_sweep,
        "profile": cmd_profile,
        "fuzz": cmd_fuzz,
        "exists": cmd_exists,
        "reverify": cmd_reverify,
        "serve": cmd_serve,
        "regen-golden": cmd_regen_golden,
    }[args.command](args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro dot | head`
        sys.exit(0)
