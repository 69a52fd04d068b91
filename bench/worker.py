"""Benchmark worker: one fresh process that sets gascert up and runs a workload.

    python3 bench/worker.py PLAN.json setup
    python3 bench/worker.py PLAN.json run SECONDS TRACE RESULT.json

Set-up is ``import gascert.cli`` plus ``config.load_config`` of every
document of the plan; the worker prints ``ready`` when it is done, so
the parent can time it from process start.  In ``run`` mode the worker
then warms up, runs whole cycles of the plan's operations until SECONDS
have passed, checks every output, and writes RESULT.json.  With TRACE=1
it first runs untraced cycles for half the time, then traced cycles for
the other half, then the plan's baseline operations once, traced, and
adds the per-layer metrics and the ROADMAP baseline rows.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _setup(plan):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gascert.cli  # noqa: F401  (the set-up being measured)
    import gascert.config

    nets = {name: gascert.config.load_config(path)[:2]
            for name, path in plan["docs"].items()}
    print("ready", flush=True)
    return nets


def _run_cycles(runner, ops, budget, log, ref):
    """Run whole cycles until ``budget`` seconds have passed (at least one).

    The reference kernel runs before every operation; its times go to
    ``ref``.  Returns the operation time of each cycle.
    """
    import reference  # after set-up: its numpy import is not part of set-up

    start = time.perf_counter()
    cycles = []
    while True:
        op_time = 0.0
        for op in ops:
            ref.append(reference.timed())
            res = runner.execute(op)
            failures = runner.check(res)
            log.append((op["id"], res.seconds, res.units, op.get("sample", True),
                        failures))
            op_time += res.seconds
        cycles.append(op_time)
        if time.perf_counter() - start >= budget:
            return cycles


def main(argv):
    with open(argv[1]) as fh:
        plan = json.load(fh)
    nets = _setup(plan)
    if argv[2] == "setup":
        return 0
    seconds, trace, result_path = float(argv[3]), argv[4] == "1", argv[5]

    import resource

    import gascert
    import layers
    import reference
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    runner = workloads.Runner(plan["workload"], plan, gascert, tracer=tracer)
    runner.nets = nets
    by_id = {op["id"]: op for op in plan["ops"]}
    for op_id in plan["warmup"]:
        runner.execute(by_id[op_id])
    for _ in range(3):
        reference.timed()

    result = {"log": [], "ref_s": []}
    result["cycle_s"] = _run_cycles(runner, plan["ops"], seconds / 2 if trace else seconds,
                                    result["log"], result["ref_s"])
    if trace:
        tracer.install("gascert")
        tracer.enabled = True
        result["traced_log"], traced_ref = [], []
        traced = _run_cycles(runner, plan["ops"], seconds / 2, result["traced_log"],
                             traced_ref)
        result["traced_cycle_s"] = traced

        def cycle_cost(log, ref_s):
            return sum(op["cost"] for op in workloads.per_op(log, ref_s).values())

        overhead = (cycle_cost(result["traced_log"], traced_ref)
                    / cycle_cost(result["log"], result["ref_s"]))
        result["per_layer"] = layers.per_layer(tracer, len(traced), overhead)
        # one traced pass over operations too long to repeat in every cycle
        for op in plan["baseline"]:
            res = runner.execute(op)
            result["traced_log"].append((op["id"], res.seconds, res.units, False,
                                         runner.check(res)))
        tracer.enabled = False
        tracer.uninstall()
        result["baseline_rows"] = layers.baseline_rows(tracer)
        result["trace_dump"] = tracer.dump()
    result["hash_changes"] = sorted(set(runner.hash_changes))
    result["observed"] = runner.observed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = layers.blas_threads()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
