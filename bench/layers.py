"""Per-layer metrics and the ROADMAP baseline rows, read from a trace.

Counts and times are per workload cycle, so they do not depend on how
many cycles fit in a run.  Ratios are taken over all traced cycles.
"""

from __future__ import annotations

import ctypes
import glob
import os

import tracing

# (metric, unit, how to read it)
PER_LAYER = [
    ("numerics.eigenvalues.calls", "count", ("calls", "numerics.eigenvalues")),
    ("numerics.spectral_norm.calls", "count", ("calls", "numerics.spectral_norm")),
    ("numerics.distance_to_instability.calls", "count", ("calls", "numerics.distance_to_instability")),
    ("numerics.distance_to_instability.s", "s", ("s", "numerics.distance_to_instability")),
    ("numerics.distance_to_instability.eig_per_call", "count", ("eig_per_call",)),
    ("numerics.solve_are.calls", "count", ("calls", "numerics.solve_are")),
    ("numerics.solve_are.s", "s", ("s", "numerics.solve_are")),
    ("numerics.hinf_gain.calls", "count", ("calls", "numerics.hinf_gain")),
    ("numerics.hinf_gain.s", "s", ("s", "numerics.hinf_gain")),
    ("numerics.solve_lyapunov.calls", "count", ("calls", "numerics.solve_lyapunov")),
    ("numerics.solve_lyapunov.s", "s", ("s", "numerics.solve_lyapunov")),
    ("model.NetworkModel.init_s", "s", ("s", "model.NetworkModel.__init__")),
    ("model.NetworkModel.in_edges.calls", "count", ("calls", "model.NetworkModel.in_edges")),
    ("model.Interconnection.gain.calls", "count", ("calls", "model.Interconnection.gain")),
    ("config.load_config.s", "s", ("s", "config.load_config")),
    ("config.parse_config.s", "s", ("s", "config.parse_config")),
    ("config.dump_report.s", "s", ("s", "config.dump_report")),
    ("config.dump_report.kb", "kB", ("counter", "config.dump_report.bytes", 1e-3)),
    ("cli.riccati.s", "s", ("s", "cli.cmd_riccati")),
    ("cli.connective.s", "s", ("s", "cli.cmd_connective")),
    ("cli.smallgain.s", "s", ("s", "cli.cmd_smallgain")),
    ("cli.simulate.s", "s", ("s", "cli.cmd_simulate")),
    ("riccati.certify.calls", "count", ("calls", "riccati.certify")),
    ("riccati.certify.s", "s", ("s", "riccati.certify")),
    ("riccati.certify.self_s", "s", ("self_s", "riccati.certify")),
    ("riccati.certify.not_ok", "count", ("counter", "riccati.certify.not_ok", 1.0)),
    ("connective.analyze.s", "s", ("s", "connective.analyze")),
    ("connective.analyze.self_s", "s", ("self_s", "connective.analyze")),
    ("control.mrac_control.calls", "count", ("calls", "control.mrac_control")),
    ("control.predictor_rate.calls", "count", ("calls", "control.predictor_rate")),
    ("control.update_projection.calls", "count", ("calls", "control.update_projection")),
    ("control.update_normalized.calls", "count", ("calls", "control.update_normalized")),
    ("control.project_columns.calls", "count", ("calls", "control.project_columns")),
    ("control.project.active_ratio", "ratio", ("ratio", "control.project.active", "control.project")),
    ("sim.simulate.s", "s", ("s", "sim.simulate")),
    ("sim.simulate.self_s", "s", ("self_s", "sim.simulate")),
    ("sim.simulate.steps", "count", ("counter", "sim.simulate.steps", 1.0)),
    ("sim.simulate.us_per_subsys_step", "us", ("per", "sim.simulate", "sim.simulate.subsys_steps", 1e6)),
    ("sim.export_csv.s", "s", ("s", "sim.export_csv")),
    ("sim.export_csv.mb", "MB", ("counter", "sim.export_csv.bytes", 1e-6)),
    ("sim.export_csv.mb_per_s", "MB/s", ("rate", "sim.export_csv.bytes", "sim.export_csv", 1e-6)),
    ("sim.metrics.s", "s", ("s", "sim.metrics")),
] + [(f"{layer}.self_s", "s", ("layer_self", layer)) for layer in tracing.LAYERS] + [
    ("trace.overhead_ratio", "ratio", ("overhead",)),
]


def per_layer(tracer, cycles, overhead):
    """Every per-layer metric as ``{name: {"value", "unit"}}``.

    Metrics whose layer the workload never reaches read 0; the ratios
    among them are listed under ``"not_exercised"`` with the reason.
    """
    agg = tracer.by_name()
    zero = (0, 0.0, 0.0)
    out, missing = {}, {}
    for name, unit, how in PER_LAYER:
        kind = how[0]
        value = 0.0
        if kind in ("calls", "s", "self_s"):
            value = agg.get(how[1], zero)[("calls", "s", "self_s").index(kind)] / cycles
        elif kind == "counter":
            value = tracer.counters.get(how[1], 0) * how[2] / cycles
        elif kind == "layer_self":
            value = sum(v[2] for k, v in agg.items() if k.startswith(how[1] + ".")) / cycles
        elif kind == "overhead":
            value = overhead
        else:
            if kind == "eig_per_call":
                num = tracer.under("numerics.eigenvalues", "numerics.distance_to_instability")[0]
                den = agg.get("numerics.distance_to_instability", zero)[0]
                scale, what = 1.0, "distance_to_instability is never called"
            elif kind == "ratio":
                num = tracer.counters.get(how[1], 0)
                den = agg.get(how[2], zero)[0]
                scale, what = 1.0, f"{how[2]} is never called"
            elif kind == "per":
                num = agg.get(how[1], zero)[1]
                den = tracer.counters.get(how[2], 0)
                scale, what = how[3], f"{how[1]} runs no steps"
            else:   # rate
                num = tracer.counters.get(how[1], 0)
                den = agg.get(how[2], zero)[1]
                scale, what = how[3], f"{how[2]} is never called"
            if den:
                value = num * scale / den
            else:
                missing[name] = f"not exercised by this workload: {what}"
        out[name] = {"value": float(value), "unit": unit}
    return {"metrics": out, "not_exercised": missing}


def baseline_rows(tracer):
    """The ROADMAP baseline table, for the operations this workload runs."""
    rows = []

    def add(row, value, unit, roadmap):
        rows.append({"row": row, "value": value, "unit": unit, "roadmap": roadmap})

    def steps(op):
        return tracer.counters.get(f"sim.simulate.steps@{op}", 0)

    for op, label, roadmap in (
            ("op:simulate-dist:mesh6", "mesh6 simulate, distributed", "2.2 ms/step (4.4 s)"),
            ("op:simulate-dec:mesh6", "mesh6 simulate, decentralized", "1.8 ms/step (3.6 s)"),
            ("op:distributed:toy_pair", "toy_pair simulate, distributed", "0.72 ms/step"),
            ("op:decentralized:toy_pair", "toy_pair simulate, decentralized", "0.72 ms/step")):
        n = steps(op)
        if n:
            add(f"{label}: sim.simulate ms/step", tracer.under("sim.simulate", op)[1] / n * 1e3,
                "ms", roadmap)
            if op.startswith("op:simulate"):
                calls, total = tracer.under("cli.main", op)
                add(f"{label}: whole CLI call s", total / calls, "s", roadmap)
    calls, total = tracer.under("sim.export_csv", "op:simulate-dist:mesh6")
    if calls:
        mb = tracer.counters.get("sim.export_csv.bytes@op:simulate-dist:mesh6", 0) / calls / 1e6
        add("export_csv on mesh6 s", total / calls, "s", "0.56 s")
        add("export_csv on mesh6 MB", mb, "MB", "7.2 MB")
    for op in ("op:riccati:mesh6", "op:simulate-dist:mesh6"):
        calls, total = tracer.under("riccati.certify", op)
        if calls:
            add(f"certify on mesh6 ms (in {op[3:]})", total / calls * 1e3, "ms", "40 ms")
            break
    den = tracer.by_name().get("numerics.distance_to_instability", (0,))[0]
    if den:
        num = tracer.under("numerics.eigenvalues", "numerics.distance_to_instability")[0]
        add("eigensolves per distance_to_instability call", num / den, "count", "41")
    return rows


def blas_threads():
    """Thread count reported by each OpenBLAS build numpy and scipy load."""
    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    out = {}
    for path in sorted(glob.glob(os.path.join(site, "*.libs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out
