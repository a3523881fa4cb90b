"""Run the repository benchmark.

    python3 bench/run.py                          # all five workloads, untraced then traced
    python3 bench/run.py --workload sim-light --seed 3            # one untraced run
    python3 bench/run.py --workload sim-light --seed 3 --trace 1  # one traced run
    python3 bench/run.py --quick                  # tiny sizes, a smoke check only

With one ``--workload``, the workload runs in this process: it times the
program's import in fresh interpreters, sets up, repeats timed passes for
``--seconds`` (taking each operation's median time), checks every output,
prints each metric with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end metrics
of ``BENCHMARK.json`` untraced (``--trace 0``, the default), its per-layer
metrics traced (``--trace 1``, which also writes a Chrome trace to
``--trace-dir``).  Otherwise every requested workload runs in a fresh
subprocess, one at a time, untraced and then traced with the same seed
(or in the one mode ``--trace`` names).  There a traced run makes a single
pass, which is all its unbounded layer numbers need, so the five workloads
take about three minutes.  The two runs must produce the same output
digest, and their difference is the tracing overhead.  That command ends
with one JSON line of the same shape holding every workload's metrics,
named ``workload/metric``.  ``--json OUT`` appends each run's record
(stamped with commit, Python version, nproc, seed, run length and workload
key) to OUT, the input of ``bench/compare.py``.  The exit code is non-zero
when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ["registry-verify", "deep-verify", "flap-reverify", "sim-light", "sim-saturated"]
#: set-ups per run; setup_s takes their median
SETUPS = 3
#: fresh interpreters whose import time enters set-up, one with --quick
IMPORT_SAMPLES = 3
IMPORT_PROBE = ("import sys; sys.path[:0] = sys.argv[1:]; from stopwatch import Stopwatch; "
                "sw = Stopwatch(); sw.start(); import workloads; sw.stop(); print(sw.host_s()[0])")


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no repro package under {src}; run from a full checkout")
    # keep the source tree free of compiled files the benchmark would leave behind
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import the program and the workloads.

    Work a module does at import time is set-up work too; it cannot be
    repeated in this process, whose modules are already loaded.  The probe
    scales its own time for the host's speed, on whichever processor it ran.
    """
    out = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE,
                          str(ROOT / "src"), str(Path(__file__).resolve().parent)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def _append_records(path: Path, records: list[dict[str, Any]]) -> None:
    existing = json.loads(path.read_text()) if path.exists() else []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(existing + records, indent=1) + "\n")


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    from stopwatch import Stopwatch
    from tracing import Tracer
    from workloads import build_workloads, percentile, tail

    wl = build_workloads(args.quick)[args.workload[0]]
    traced = bool(args.trace)
    start = time.perf_counter()
    imports = [_import_s() for _ in range(1 if args.quick else IMPORT_SAMPLES)]
    setups = Stopwatch()
    setups.start()
    state = wl.setup(args.seed)
    setups.stop()
    gc.collect()
    gc.freeze()
    passes = []
    tracers: list[Tracer] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        tracer = Tracer() if traced else None
        passes.append(wl.run_pass(state, tracer))
        if tracer is not None:
            tracers.append(tracer)
        gc.collect()
        longest = max(longest, time.perf_counter() - t0)
        # stop before the next pass and the remaining set-ups would overrun
        if time.perf_counter() - start + longest + (SETUPS - 1) * setups.wall_s[0] > args.seconds:
            break
    del state
    gc.unfreeze()
    gc.collect()
    while len(setups.wall_s) < SETUPS:
        setups.start()
        wl.setup(args.seed)
        setups.stop()
        gc.collect()

    # Every pass repeats the same operations, so each operation's time is
    # its median over the passes.  Host-speed scaling (stopwatch.py) removes
    # most of a shared host's slowdown, but not all of it; a minimum would
    # keep whatever error the luckiest pass had, the median is steadier.
    op_s = [median(times) for times in zip(*(p.op_s for p in passes))]
    tail_s, tail_q = tail(op_s)
    end_to_end = {
        "setup_s": median(imports) + median(setups.host_s()),
        "pass_s": sum(op_s),
        "op_p50_ms": percentile(op_s, 50) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    layer_runs = [{**(t.layer_metrics() if t else {}), **p.layer}
                  for t, p in zip(tracers or [None] * len(passes), passes)]
    per_layer = {name: sum(r.get(name, 0.0) for r in layer_runs) / len(layer_runs)
                 for name in {k for r in layer_runs for k in r}}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"passes with the same seed disagree: digests {sorted(digests)}")
        failed = attempted
    key = hashlib.sha256(json.dumps({"workload": wl.name, "params": wl.params},
                                    sort_keys=True).encode()).hexdigest()[:16]
    stamp = {
        "workload": wl.name, "key": key, "seed": args.seed, "trace": int(traced),
        "quick": args.quick, "seconds": args.seconds, "passes": len(passes),
        "setups": SETUPS, "ops": len(op_s), "tail_percentile": round(tail_q, 1),
        "slowdown": round(median(p.slowdown for p in passes), 3),
        "commit": _commit(), "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    if tracers:
        tracers[0].write_chrome_trace(Path(args.trace_dir) / f"{wl.name}.trace.json",
                                      {**stamp, "per_layer": per_layer})

    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    values = per_layer if traced else end_to_end
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(f"# {wl.name} seed={args.seed} trace={int(traced)} passes={len(passes)} "
          f"setups={SETUPS} ops={len(op_s)} tail=p{tail_q:.1f} slowdown={stamp['slowdown']} "
          f"key={key} commit={stamp['commit'][:12]} python={stamp['python']} "
          f"nproc={stamp['nproc']}")
    for name, m in metrics.items():
        print(f"{name:40} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_ratio':40} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.json:
        _append_records(Path(args.json), [{
            "stamp": stamp, "correct": not problems, "attempted": attempted, "failed": failed,
            "digest": sorted(digests)[0], "end_to_end": end_to_end, "per_layer": per_layer,
        }])
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


# ----------------------------------------------------------------------
# several workloads: one fresh subprocess per workload and mode
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    scratch = Path(".bench_out") / f"records-{os.getpid()}.json"
    scratch.unlink(missing_ok=True)
    modes = [args.trace] if args.trace is not None else [0, 1]
    status = 0
    for name in args.workload or WORKLOAD_NAMES:
        for trace in modes:
            seconds = 0 if trace else args.seconds  # a run makes at least one pass
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--trace-dir", args.trace_dir, "--json", str(scratch)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(proc.stdout, end="")
                print(f"bench: {name} (trace {trace}) exited with {proc.returncode}")
                status = 1
    records = json.loads(scratch.read_text()) if scratch.exists() else []
    scratch.unlink(missing_ok=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["trace.overhead_pct"] = "%"
    metrics: dict[str, dict[str, Any]] = {}
    for name in args.workload or WORKLOAD_NAMES:
        runs = {r["stamp"]["trace"]: r for r in records if r["stamp"]["workload"] == name}
        plain, traced = runs.get(0), runs.get(1)
        if plain is None and traced is None:
            continue
        head = plain or traced
        print(f"\n== {name}  seed={args.seed}  key={head['stamp']['key']}  "
              f"passes={head['stamp']['passes']}  ops={head['stamp']['ops']}  "
              f"tail=p{head['stamp']['tail_percentile']}")
        if plain is not None:
            for metric, value in plain["end_to_end"].items():
                print(f"  {metric:40} {value:14.6g} {units[metric]}")
                metrics[f"{name}/{metric}"] = {"value": value, "unit": units[metric]}
        for run in (plain, traced):
            if run is not None:
                print(f"  {'fail_ratio':40} {run['failed'] / run['attempted']:14.6g} ratio"
                      f"  (trace {run['stamp']['trace']})")
        if plain is not None and traced is not None:
            overhead = (traced["end_to_end"]["pass_s"] / plain["end_to_end"]["pass_s"] - 1) * 100
            traced["per_layer"]["trace.overhead_pct"] = overhead
            if plain["digest"] != traced["digest"]:
                print(f"  check failed: traced output digest {traced['digest']} "
                      f"!= untraced {plain['digest']}")
                status = 1
        if traced is not None:
            for metric in [m["name"] for m in bench["per_layer"]] + ["trace.overhead_pct"]:
                value = traced["per_layer"].get(metric, 0.0)
                if value:
                    print(f"  {metric:40} {value:14.6g} {units[metric]}")
                    metrics[f"{name}/{metric}"] = {"value": value, "unit": units[metric]}
    if args.json:
        _append_records(Path(args.json), records)
    if any(not r["correct"] for r in records):
        status = 1
    # One result line for the whole command, metrics named workload/metric.
    print(json.dumps({"correct": status == 0,
                      "attempted": max(1, sum(r["attempted"] for r in records)),
                      "failed": sum(r["failed"] for r in records), "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"run length; benchmark harnesses pass BENCHMARK.json's "
                             f"run_seconds, the default ({bench['run_seconds']}; 1 with "
                             "--quick).  Runs of other lengths are not comparable")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics untraced; 1: per-layer metrics traced "
                             "(default: 0 for one workload, both in turn for several, "
                             "the traced run making one pass)")
    parser.add_argument("--trace-dir", default=".bench_out/traces",
                        help="where traced runs write their Chrome traces")
    parser.add_argument("--json", metavar="OUT", help="append run records to OUT")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes: a smoke check, never a measurement")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(bench["run_seconds"])
    _load_program()
    if args.workload is not None and len(args.workload) == 1:
        return run_one(args, bench)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
