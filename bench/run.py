"""gascert benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the root of a gascert checkout; gascert is imported from
``src/``.  The first form generates the workload's documents from the
seed, times gascert's set-up in several fresh worker processes, runs the
workload in one fresh worker (one process, one BLAS thread) for S
seconds of whole cycles, checks every output, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A run record with the machine, library
versions and every metric goes to ``bench/out/``.

End-to-end metrics.  Every operation of a workload runs once per cycle,
each time right after a fixed reference kernel (``reference``).  An
execution's cost is its time in multiples of that kernel's time, so the
shared machine's drift in speed cancels; an operation's cost is the
median over its repetitions in the run.  ``cycle_cost`` is the cost of
one cycle of the workload, ``op_cost_p50``/``op_cost_p90`` are
nearest-rank percentiles over the operations, ``setup_s`` is the median
of the fresh set-ups, each scaled to the kernel's nominal speed with the
kernel timed just before it (``setup_raw_s`` is the unscaled median),
and ``peak_rss_mb`` is the workload worker's peak resident memory.  The run record and the printed lines add wall-clock
figures (medians over repetitions): ``ops_per_s``, ``op_ms_p50/p90``,
the per-workload metrics (``riccati_subsys_per_s``, ``cert_call_ms_p90``
over every call, ``sim_subsys_steps_per_s`` ...) and ``error_rate``.

``correct`` is false when a verdict or exit code contradicts what the
inputs imply; ``failed`` counts operations that failed any output check,
including numerical accuracy checks that leave the verdict intact.

The second form runs every workload, untraced and traced, and prints
all end-to-end metrics with their sample counts, the per-layer metrics
and the ROADMAP baseline table.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("bench", "out")
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def check_layout():
    if not os.path.isfile(os.path.join(ROOT, "src", "gascert", "__init__.py")):
        fail("src/gascert not found: run from the root of a gascert checkout")
    for name in ("toy_pair", "dc_pair", "mesh6", "weak_pair", "unstable_pair"):
        if not os.path.isfile(os.path.join(ROOT, "demos", "configs", f"{name}.json")):
            fail(f"demos/configs/{name}.json not found")


def quantile(values, p):
    """Nearest-rank quantile: the smallest value with at least ``p`` below or at it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p * len(xs)) - 1)]


def start_worker(args, deadline):
    """Start a worker and time it from process start until it is set up."""
    env = dict(os.environ, **WORKER_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if readable else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc, timeout=0)
        fail(f"worker did not finish set-up (said {line.strip()!r})")
    return proc, setup


def stop(proc, timeout=None):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("worker exceeded the run time limit")
    return proc.returncode


def run_workload(workload, seed, seconds, trace):
    import reference
    import workloads

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        plan = workloads.plan(workload, seed, workdir)
        plan["workload"] = workload
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        setups, raw_setups = [], []

        def timed_setup(args):
            # scale to the nominal machine speed measured just before
            ref = statistics.median(reference.timed() for _ in range(3))
            proc, setup = start_worker(args, deadline)
            raw_setups.append(setup)
            setups.append(setup * reference.NOMINAL_S / ref)
            return proc

        for _ in range(SETUP_RUNS - 1):
            if stop(timed_setup([plan_path, "setup"]), timeout=deadline - time.monotonic()) != 0:
                fail("set-up worker failed")
        result_path = os.path.join(workdir, "result.json")
        proc = timed_setup([plan_path, "run", str(seconds), str(trace), result_path])
        if stop(proc, timeout=deadline - time.monotonic()) != 0:
            fail("workload worker failed")
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workloads.CSV_DIR, ignore_errors=True)
    return summarize(workload, seed, seconds, trace, setups, raw_setups, result)


def summarize(workload, seed, seconds, trace, setups, raw_setups, result):
    import workloads

    log = result["log"]
    every = log + result.get("traced_log", [])
    failed = [e for e in every if e[4]]
    contradicted = [e for e in failed
                    if any(f.startswith(workloads.VERDICT) for f in e[4])]
    ops = workloads.per_op(log, result["ref_s"])
    sample = [op for op in ops.values() if op["sample"]]
    costs = [op["cost"] for op in sample]
    times = [op["s"] for op in sample]
    total = sum(op["s"] for op in ops.values())
    calls = [e[1] for e in log if e[3]]

    def rate(prefix):
        chosen = [op for op_id, op in ops.items() if op_id.startswith(prefix)]
        t = sum(op["s"] for op in chosen)
        return (sum(op["units"] for op in chosen) / t if t else 0.0), len(chosen)

    setup_s = sorted(setups)[len(setups) // 2]
    e2e = {
        "setup_s": (setup_s, "s", len(setups)),
        "cycle_cost": (sum(op["cost"] for op in ops.values()), "ref", len(ops)),
        "op_cost_p50": (quantile(costs, 0.5), "ref", len(costs)),
        "op_cost_p90": (quantile(costs, 0.9), "ref", len(costs)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    named = {
        "setup_raw_s": (statistics.median(raw_setups), "s", len(raw_setups)),
        "ref_kernel_ms": (statistics.median(result["ref_s"]) * 1e3, "ms", len(result["ref_s"])),
        "ops_per_s": (len(times) / total, "1/s", len(times)),
        "op_ms_p50": (quantile(times, 0.5) * 1e3, "ms", len(times)),
        "op_ms_p90": (quantile(times, 0.9) * 1e3, "ms", len(times)),
    }
    if workload == "certify-sweep":
        for cmd, unit in (("riccati", "subsys"), ("connective", "subsys"),
                          ("smallgain", "edges")):
            value, n = rate(cmd + ":")
            named[f"{cmd}_{unit}_per_s"] = (value, "1/s", n)
        named["cert_call_ms_p50"] = (quantile(calls, 0.5) * 1e3, "ms", len(calls))
        named["cert_call_ms_p90"] = (quantile(calls, 0.9) * 1e3, "ms", len(calls))
    else:
        named["sim_subsys_steps_per_s"] = (
            sum(op["units"] for op in sample) / total, "1/s", len(times))
    named["error_rate"] = (len(failed) / len(every), "ratio", len(every))

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {"system": platform.system(), "release": platform.release(),
                    "machine": platform.machine(), "cores": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_info(result["blas_threads"]),
        "src_gascert_lines": source_lines(),
        "cycles": len(result["cycle_s"]),
        "cycle_s": result["cycle_s"],
        "attempted": len(every), "failed": len(failed),
        "correct": not contradicted,
        "failures": sorted({f"{e[0]}: {f}" for e in failed for f in e[4]}),
        "hash_changes": result["hash_changes"],
        "observed": result["observed"],
        "samples": [[e[0], e[1], e[2], e[3]] for e in log],
        "ref_s": result["ref_s"],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
    }
    if trace:
        record["traced_cycle_s"] = result["traced_cycle_s"]
        record["per_layer"] = result["per_layer"]["metrics"]
        record["not_exercised"] = result["per_layer"]["not_exercised"]
        record["baseline_rows"] = result["baseline_rows"]
        with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w") as fh:
            json.dump(result["trace_dump"], fh)
    with open(os.path.join(OUT, f"record-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def blas_info(threads):
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = deps.get("name"), deps.get("version")
    except (KeyError, TypeError):
        name = version = None
    return {"name": name, "version": version, "threads": threads,
            "env": dict(WORKER_ENV)}


def source_lines():
    src = os.path.join(ROOT, "src", "gascert")
    total = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def report(record):
    """Human-readable lines; the last line printed by ``main`` is the JSON."""
    w = record["workload"]
    print(f"# {w} seed={record['seed']} trace={record['trace']} cycles={record['cycles']}"
          f"+{len(record.get('traced_cycle_s', []))} traced "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"src_gascert_lines={record['src_gascert_lines']}")
    if not record["trace"]:
        for k, m in {**record["end_to_end"], **record["metrics"]}.items():
            note = ""
            if k.endswith("p90") and m["samples"] < 100:
                note = "  (fewer than 10 samples beyond the p90)"
            print(f"{w}  {k:<28} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}{note}")
    for f in record["failures"]:
        print(f"{w}  FAILED {f}")
    for h in record["hash_changes"]:
        print(f"{w}  hash differs from the stored reference (not a failure): {h}")
    if record["trace"]:
        for k, m in record["per_layer"].items():
            print(f"{w}  {k:<48} {m['value']:>14.6g} {m['unit']}")
        for k, why in record["not_exercised"].items():
            print(f"{w}  {k}: {why}")
        for row in record["baseline_rows"]:
            print(f"{w}  baseline  {row['row']:<52} {row['value']:>10.4g} {row['unit']:<5} "
                  f"(ROADMAP: {row['roadmap']})")


def final_line(record):
    if record["trace"]:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in record["per_layer"].items()}
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in record["end_to_end"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_all(seed, seconds):
    """Every workload, untraced and traced, each in its own benchmark process."""
    import workloads

    records = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                           timeout=RUN_LIMIT_S + 30)
            path = os.path.join(ROOT, OUT, f"record-{workload}-seed{seed}-trace{trace}.json")
            with open(path) as fh:
                records.append(json.load(fh))
    print(f"# gascert benchmark, seed {seed}, {seconds} s per run")
    print(f"{'workload':<14} {'metric':<28} {'value':>14} {'unit':<6} samples")
    for r in records:
        if r["trace"]:
            continue
        for k, m in {**r["end_to_end"], **r["metrics"]}.items():
            print(f"{r['workload']:<14} {k:<28} {m['value']:>14.6g} {m['unit']:<6} {m['samples']}")
        for f in r["failures"]:
            print(f"{r['workload']:<14} FAILED {f}")
    print("# per-layer metrics (traced runs; per workload cycle)")
    for r in records:
        if not r["trace"]:
            continue
        for k, m in r["per_layer"].items():
            if m["value"]:
                print(f"{r['workload']:<14} {k:<48} {m['value']:>14.6g} {m['unit']}")
        for k, why in r["not_exercised"].items():
            print(f"{r['workload']:<14} {k}: {why}")
    print("# ROADMAP baseline table, reproduced from the traced runs")
    for r in records:
        for row in r.get("baseline_rows", []):
            print(f"{r['workload']:<14} {row['row']:<52} {row['value']:>10.4g} {row['unit']:<5} "
                  f"(ROADMAP: {row['roadmap']})")
    with open(os.path.join(ROOT, OUT, f"summary-seed{seed}.json"), "w") as fh:
        json.dump(records, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, and summarize")
    args = parser.parse_args(argv)
    check_layout()
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    if args.all:
        run_all(args.seed, args.seconds)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(record)
    print(final_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
