"""The three benchmark workloads: what they run and how outputs are checked.

``plan`` runs in the benchmark's parent process: it generates the
seeded documents and the operation list.  ``Runner`` runs in the worker
process: it executes operations against gascert and checks every
output.  The first execution of an operation gets the full check; a
repeat must reproduce the first execution's output bytes.

Workloads (why each was chosen):

* ``certify-sweep`` -- in-process ``gascert riccati|connective|smallgain``
  calls on generated ring, mesh and random-sparse networks (2 to 128
  subsystems, 1 to 20 states each) and on the demo configs.  The
  certification path users run: dense eigensolves, Schur factorisations
  and H-infinity sweeps; it never touches the simulator.
* ``sim-network`` -- in-process ``gascert simulate`` in both modes on
  ``mesh6``, on a generated 28-subsystem mesh with mixed input widths and
  on ``unstable_pair`` (which diverges, exit code 3).  Many subsystems
  per step: the per-subsystem right-hand side and the CSV export.
* ``sim-ensemble`` -- library ``simulate`` + ``metrics`` calls over many
  seeded short scenarios on ``toy_pair`` and a generated 4-subsystem
  ring, no CSV.  Few subsystems per step, many runs: the per-run set-up
  (one Lyapunov solve per subsystem without a certificate) matters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import statistics
import time

import numpy as np

import gen
import oracle

WORKLOADS = ("certify-sweep", "sim-network", "sim-ensemble")
DEMOS = ("toy_pair", "dc_pair", "mesh6", "weak_pair", "unstable_pair")
HERE = os.path.dirname(os.path.abspath(__file__))
# Trace CSVs go to a fixed path: the simulate report names it, and the
# stored report hashes of the demo configs depend on it.
CSV_DIR = os.path.join("bench", "out", "csv")

# certify-sweep: small networks get every command, large ones skip the
# small-gain diagnostic (about 20 ms per edge at the seed).  A cycle takes
# a few seconds, so each operation repeats about ten times in a run.
SMALL_SIZES = (2, 3, 4, 6, 8)
SMALLGAIN_MAX_N = 3
LARGE = (("random", 16), ("ring", 32), ("mesh", 128))
RHO_OK = (0.3, 0.6, 0.85)
RHO_FAIL = (2.0, 1.25)

# sim-network repeats mesh6 over its first MESH6_STEPS steps; the traced
# run adds the full 2000-step mesh6 runs of the ROADMAP baseline table.
MESH6_STEPS = 300
SIM_MESH_N = 28
SIM_MESH = {"horizon": 0.06, "dt": 1e-3}
ENSEMBLE_DRAWS = 16
ENSEMBLE = {"horizon": 0.05, "dt": 1e-3}

# distributed runs carrying a certificate must not raise the Lyapunov
# value by more than this (relative to 1 + V(0)) after the first samples
LYAP_RTOL = 1e-6
LYAP_SKIP = 10
METRIC_RTOL = 1e-9

# Failure messages that contradict a verdict, exit code or divergence
# flag the inputs imply start with this; they make a run incorrect.
# Other failures (accuracy, determinism) only count as failed operations.
VERDICT = "verdict: "


def load_references():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


# -- planning (parent process) ----------------------------------------------

def _write(workdir, name, doc):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _demo_path(name):
    return os.path.join("demos", "configs", f"{name}.json")


def plan(workload, seed, workdir):
    """Generate the documents of one workload and its operation list."""
    if workload == "certify-sweep":
        return _plan_certify(seed, workdir)
    if workload == "sim-network":
        return _plan_sim_network(seed, workdir)
    if workload == "sim-ensemble":
        return _plan_sim_ensemble(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _cli_op(cmd, name, path):
    return {"id": f"{cmd}:{name}", "kind": "cli", "cmd": cmd, "doc": name,
            "argv": [cmd, path]}


def _simulate_op(mode, name, path):
    out = os.path.join(CSV_DIR, f"{name}-{mode}.csv")
    return {"id": f"simulate-{mode}:{name}", "kind": "cli", "cmd": "simulate",
            "doc": name, "out": out,
            "argv": ["simulate", path, "--mode", mode, "--out", out]}


def _plan_certify(seed, workdir):
    docs, facts, ops = {}, {}, []
    for name in DEMOS:
        docs[name] = _demo_path(name)
    ladder = [(kind, N) for N in SMALL_SIZES for kind in ("ring", "mesh", "random")]
    ladder += list(LARGE)
    for idx, (kind, N) in enumerate(ladder):
        rng = np.random.default_rng([seed, idx])
        failing = idx % 3 == 2
        doc, f = gen.network(rng, kind, N, rho_ok=RHO_OK[idx % 3],
                             rho_fail=RHO_FAIL[idx % 2],
                             n_fail=max(1, N // 8) if failing else 0)
        name = f"{kind}-{N:03d}"
        docs[name] = _write(workdir, name, doc)
        facts[name] = f
    for name, path in docs.items():
        cmds = ["riccati", "connective"]
        if name in DEMOS or facts[name]["N"] <= SMALLGAIN_MAX_N:
            cmds.append("smallgain")
        ops += [_cli_op(cmd, name, path) for cmd in cmds]
    warmup = [f"{cmd}:toy_pair" for cmd in ("riccati", "connective", "smallgain")]
    return {"docs": docs, "facts": facts, "ops": ops, "warmup": warmup, "baseline": []}


def _plan_sim_network(seed, workdir):
    rng = np.random.default_rng([seed, 0])
    doc, f = gen.network(rng, "mesh", SIM_MESH_N, rho_ok=0.5, inputs=(1, 2),
                         states=[1, 2, 3, 4] * (SIM_MESH_N // 4),
                         scenario=SIM_MESH)
    name = f"mesh-{SIM_MESH_N:03d}"
    with open(_demo_path("mesh6")) as fh:
        short = json.load(fh)
    short["scenario"]["horizon"] = MESH6_STEPS * short["scenario"]["dt"]
    short_name = f"mesh6-{MESH6_STEPS}"
    docs = {short_name: _write(workdir, short_name, short),
            name: _write(workdir, name, doc),
            "unstable_pair": _demo_path("unstable_pair"),
            "mesh6": _demo_path("mesh6")}
    os.makedirs(CSV_DIR, exist_ok=True)
    ops = [_simulate_op(mode, d, docs[d]) for d in (short_name, name, "unstable_pair")
           for mode in ("dist", "dec")]
    baseline = [_simulate_op(mode, "mesh6", docs["mesh6"]) for mode in ("dist", "dec")]
    warmup = ["simulate-dist:unstable_pair", "simulate-dec:unstable_pair"]
    return {"docs": docs, "facts": {name: f}, "ops": ops, "warmup": warmup,
            "baseline": baseline}


def _plan_sim_ensemble(seed, workdir):
    rng = np.random.default_rng([seed, 0])
    doc, f = gen.network(rng, "ring", 4, rho_ok=0.5, states=[1, 2, 3, 1])
    name = "ring-004"
    docs = {"toy_pair": _demo_path("toy_pair"), name: _write(workdir, name, doc)}
    with open(docs["toy_pair"]) as fh:
        toy = json.load(fh)
    ops = [{"id": f"certify:{d}", "kind": "certify", "doc": d, "sample": False}
           for d in docs]
    for mode in ("distributed", "decentralized"):
        ops.append({"id": f"{mode}:toy_pair:ref", "kind": "lib", "doc": "toy_pair",
                    "mode": mode, "scenario": None})
    for k in range(ENSEMBLE_DRAWS):
        for d, d_doc in (("toy_pair", toy), (name, doc)):
            sc = gen.draw_scenario(rng, d_doc, **ENSEMBLE)
            for mode in ("distributed", "decentralized"):
                ops.append({"id": f"{mode}:{d}:{k}", "kind": "lib", "doc": d,
                            "mode": mode, "scenario": sc})
    warmup = ["certify:toy_pair", "distributed:toy_pair:0", "decentralized:toy_pair:0"]
    return {"docs": docs, "facts": {name: f}, "ops": ops, "warmup": warmup, "baseline": []}


def per_op(log, ref_s):
    """``op id -> {"cost", "s", "units", "sample"}`` over a run's executions.

    ``ref_s[i]`` is the reference kernel's time just before execution
    ``i``; an execution's cost is its time in multiples of that.  Both
    figures are medians over the operation's repetitions in the run.
    """
    runs = {}
    for (op_id, seconds, units, sample, _), ref in zip(log, ref_s):
        runs.setdefault(op_id, []).append((seconds / ref, seconds, units, sample))
    return {op_id: {"cost": statistics.median(r[0] for r in rs),
                    "s": statistics.median(r[1] for r in rs),
                    "units": rs[0][2], "sample": rs[0][3]}
            for op_id, rs in runs.items()}


# -- execution and checks (worker process) ----------------------------------

@dataclasses.dataclass
class Outcome:
    op: dict
    seconds: float
    units: float = 0.0         # subsystems, edges or subsystem-steps
    rc: int | None = None
    stdout: str = ""
    value: object = None        # library result (trace, metrics) or certificate
    digest: str = ""            # SHA-256 over every output the op produced
    info: dict = dataclasses.field(default_factory=dict)


def _sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
    return h.hexdigest()


def _file_sha(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), data


def _numbers_close(a, b, rtol):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_numbers_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_numbers_close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300
    return a == b


def _schedule_at(spec, t, width):
    if spec is None:
        return np.zeros(width)
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float).ravel()
    times = np.asarray(spec["times"], dtype=float)
    k = int(np.searchsorted(times, t, side="right")) - 1
    return np.asarray(spec["values"][max(k, 0)], dtype=float)


class Runner:
    """Executes and checks the operations of one workload plan."""

    def __init__(self, workload, plan_doc, gascert, tracer=None):
        self.workload = workload
        self.plan = plan_doc
        self.g = gascert
        self.tracer = tracer
        self.refs = load_references().get(workload, {})
        self.raw = {}
        for name, path in plan_doc["docs"].items():
            with open(path) as fh:
                self.raw[name] = json.load(fh)
        self.nets = {}
        self.certs = {}
        self.first = {}   # op id -> (digest, failures) of its first execution
        self.observed = {}  # op id -> exit code, verdict, metrics and hashes
        self.hash_changes = []

    # -- execution -----------------------------------------------------------

    def execute(self, op):
        kind = op["kind"]
        if kind == "cli":
            return self._run_cli(op)
        if kind == "certify":
            return self._run_certify(op)
        return self._run_lib(op)

    def _span(self, op):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op("op:" + op["id"].rsplit(":", 1)[0]
                              if op["kind"] == "lib" else "op:" + op["id"])

    def _run_cli(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self._span(op):
                t0 = time.perf_counter()
                rc = self.g.cli.main(op["argv"])
                seconds = time.perf_counter() - t0
        res = Outcome(op=op, seconds=seconds, rc=rc, stdout=out.getvalue())
        res.info["stderr"] = err.getvalue()[-300:]
        return res

    def _run_certify(self, op):
        net, _ = self.nets[op["doc"]]
        with self._span(op):
            t0 = time.perf_counter()
            cert = self.g.riccati.certify(net)
            seconds = time.perf_counter() - t0
        self.certs[op["doc"]] = cert
        return Outcome(op=op, seconds=seconds, value=cert)

    def _scenario(self, op):
        net, scenario = self.nets[op["doc"]]
        if op["scenario"] is None:
            return dataclasses.replace(scenario, horizon=ENSEMBLE["horizon"])
        sim = self.g.sim
        spec = op["scenario"]
        return sim.Scenario(
            horizon=spec["horizon"], dt=spec["dt"],
            references={sid: sim.Schedule(times=r["times"], values=r["values"])
                        for sid, r in spec["references"].items()},
            theta={sid: np.asarray(v) for sid, v in spec["theta"].items()},
            x0={sid: np.asarray(v) for sid, v in spec["x0"].items()})

    def _run_lib(self, op):
        net, _ = self.nets[op["doc"]]
        scenario = op.setdefault("_scenario", self._scenario(op))
        cert = self.certs[op["doc"]] if op["mode"] == "distributed" else None
        with self._span(op):
            t0 = time.perf_counter()
            trace = self.g.sim.simulate(net, scenario, mode=op["mode"], certificate=cert)
            summary = self.g.sim.metrics(trace)
            seconds = time.perf_counter() - t0
        steps = max(trace.t.size - 1, 0)
        res = Outcome(op=op, seconds=seconds, units=steps * len(trace.ids),
                      value=(trace, summary))
        return res

    # -- checks --------------------------------------------------------------

    def check(self, res):
        """Return the list of failed output checks of one execution."""
        op = res.op
        if op["kind"] == "certify":
            res.digest = _sha(json.dumps([c.ok for c in res.value.subsystems]))
            return []
        if op["kind"] == "cli":
            report = None
            failures = []
            try:
                report = json.loads(res.stdout) if res.stdout else None
            except json.JSONDecodeError:
                failures.append("report is not JSON")
            chunks = [str(res.rc), res.stdout]
            if op["cmd"] == "simulate" and os.path.exists(op["out"]):
                csv_sha, csv = _file_sha(op["out"])
                res.info["csv_sha256"] = csv_sha
                res.info["csv_lines"] = csv.count(b"\n")
                chunks.append(csv_sha)
            res.digest = _sha(*chunks)
            res.info["report_sha256"] = _sha(res.stdout)
            if op["cmd"] == "simulate":
                res.units = (report["samples"] - 1) * len(self.raw[op["doc"]]["subsystems"]) \
                    if report else 0
            elif op["cmd"] == "smallgain":
                res.units = len(self.raw[op["doc"]].get("edges", []))
            else:
                res.units = len(self.raw[op["doc"]]["subsystems"])
        else:
            trace, summary = res.value
            arrays = [trace.t] + [a[sid] for a in (trace.xbar, trace.xhat, trace.theta_hat)
                                  for sid in trace.ids]
            if trace.lyapunov is not None:
                arrays.append(trace.lyapunov)
            res.digest = _sha(*(np.ascontiguousarray(a).tobytes() for a in arrays))
            res.info["trace_sha256"] = res.digest
        known = self.first.get(op["id"])
        if known is not None:
            digest, failures = known
            if res.digest != digest:
                return ["output differs from the first execution of this operation"]
            return failures
        if op["kind"] == "cli":
            failures += self._check_cli(op, res, report)
            seen = {"rc": res.rc}
            if report is not None:
                seen.update({k: report[k] for k in ("verdict", "samples", "metrics")
                             if k in report})
        else:
            failures = self._check_lib(op, res)
            seen = {"metrics": res.value[1]}
        seen.update({k: v for k, v in res.info.items() if k.endswith("sha256")})
        self.observed[op["id"]] = seen
        self.first[op["id"]] = (res.digest, failures)
        return failures

    def _check_reference(self, op, res, report):
        ref = self.refs.get(op["id"])
        if ref is None:
            return [f"no stored reference for {op['id']}"]
        failures = []
        if res.rc != ref["rc"]:
            failures.append(VERDICT + f"exit code {res.rc}, reference {ref['rc']}")
        if report is not None and "verdict" in ref and report.get("verdict") != ref["verdict"]:
            failures.append(VERDICT + f"verdict {report.get('verdict')}, reference {ref['verdict']}")
        if report is not None and "metrics" in ref and not _numbers_close(
                report.get("metrics"), ref["metrics"], METRIC_RTOL):
            failures.append("trace metrics differ from the stored reference")
        if report is not None and "samples" in ref and report.get("samples") != ref["samples"]:
            failures.append(f"samples {report.get('samples')}, reference {ref['samples']}")
        for key in ("report_sha256", "csv_sha256"):
            if key in ref and res.info.get(key) != ref[key]:
                self.hash_changes.append(f"{op['id']}: {key}")
        return failures

    def _check_cli(self, op, res, report):
        name = op["doc"]
        facts = self.plan["facts"].get(name)
        if facts is None:
            failures = self._check_reference(op, res, report)
            if op["cmd"] == "riccati" and report is not None:
                failures += self._check_distances(name, report, sample=None)
            return failures
        if report is None:
            return [VERDICT + f"no report (exit code {res.rc}): {res.info.get('stderr', '')}"]
        check = getattr(self, f"_check_{op['cmd']}")
        return check(name, facts, res, report)

    def _check_riccati(self, name, facts, res, report):
        failures = []
        want_rc = 0 if facts["certified"] else 2
        if res.rc != want_rc:
            failures.append(VERDICT + f"exit code {res.rc}, expected {want_rc} by construction")
        if report["failing"] != facts["failing"]:
            failures.append(VERDICT + f"failing {report['failing']}, expected {facts['failing']}")
        for sid, sub in report["subsystems"].items():
            f = facts["subsystems"][sid]
            N = f["neighbors"]
            if sub["neighbors"] != N:
                failures.append(f"{sid}: neighbors {sub['neighbors']}, expected {N}")
            xi2 = N * f["edge_gain"] ** 2
            if not math.isclose(sub["coupling_energy"], xi2, rel_tol=1e-9, abs_tol=1e-300):
                failures.append(f"{sid}: coupling energy {sub['coupling_energy']}, expected {xi2}")
            A = np.asarray(self._desired(name, sid))
            if not oracle.distance_ok(sub["distance"], f["distance"], np.linalg.norm(A, 2)):
                failures.append(f"{sid}: distance {sub['distance']}, exact {f['distance']}")
            if (sub["P"] is not None) != (f["rho"] < 1.0):
                failures.append(VERDICT + f"{sid}: certificate presence does not match rho={f['rho']}")
        # a sample of subsystems also goes through the independent sweep
        sample = sorted(report["subsystems"])[:: max(1, len(report["subsystems"]) // 3)]
        return failures + self._check_distances(name, report, sample)

    def _desired(self, name, sid):
        doc = self.raw[name]
        for sub in doc["subsystems"]:
            if sub["id"] == sid:
                return sub.get("reference_model", doc.get("reference_model"))
        raise KeyError(sid)

    def _check_distances(self, name, report, sample):
        failures = []
        for sid in sample if sample is not None else sorted(report["subsystems"]):
            A = np.asarray(self._desired(name, sid), dtype=float)
            ref = oracle.sweep_distance(A)
            got = report["subsystems"][sid]["distance"]
            if not oracle.distance_ok(got, ref, np.linalg.norm(A, 2)):
                failures.append(f"{sid}: distance {got:.6g}, sweep gives {ref:.6g}")
        return failures

    def _edge_gains(self, name, facts):
        return [(e["from"], e["to"], facts["subsystems"][e["to"]]["edge_gain"])
                for e in self.raw[name]["edges"]]

    def _check_connective(self, name, facts, res, report):
        M, offsets, passed = oracle.connective_expected(facts, self._edge_gains(name, facts))
        failures = []
        want_rc = 0 if passed else 2
        if res.rc != want_rc:
            failures.append(VERDICT + f"exit code {res.rc}, independent verdict gives {want_rc}")
        got_M = np.asarray(report["aggregate_matrix"], dtype=float)
        if got_M.shape != M.shape or not np.allclose(got_M, M, rtol=1e-6, atol=1e-12):
            failures.append("aggregate matrix differs from the closed form")
        if not np.allclose(report["offsets"], offsets, rtol=1e-6, atol=1e-12):
            failures.append("offsets differ from the closed form")
        return failures

    def _check_smallgain(self, name, facts, res, report):
        doc = self.raw[name]
        gains = {(s, d): g for s, d, g in self._edge_gains(name, facts)}
        edges = {(e["from"], e["to"]): e for e in doc["edges"]}
        failures = []
        pairs = {tuple(sorted(k)) for k in gains}
        got_pairs = {tuple(p["pair"]) for p in report["pairs"]}
        if got_pairs != pairs:
            failures.append("reported pairs differ from the coupled pairs")
        all_pass = True
        for k, entry in enumerate(report["pairs"]):
            i, j = entry["pair"]
            raw = gains.get((j, i), 0.0) * gains.get((i, j), 0.0)
            if not math.isclose(entry["raw_gain_product"], raw, rel_tol=1e-9, abs_tol=1e-300):
                failures.append(f"{i}-{j}: raw gain product {entry['raw_gain_product']}, expected {raw}")
            all_pass = all_pass and entry["pass"]
            if k >= 3:
                continue     # the sweep below is costly; check a sample
            prod = 1.0
            for src, dst in ((j, i), (i, j)):
                e = edges.get((src, dst))
                if e is None:
                    prod = 0.0
                    continue
                A_src = np.asarray(self._desired(name, src), dtype=float)
                M = np.zeros((len(self._desired(name, dst)), A_src.shape[0]))
                raw_A = np.asarray(e["A"], dtype=float)
                M[:raw_A.shape[0], :raw_A.shape[1]] = raw_A
                prod *= oracle.sweep_hinf(M, A_src)
            if not math.isclose(entry["hinf_product"], prod, rel_tol=1e-2, abs_tol=1e-12):
                failures.append(f"{i}-{j}: H-inf product {entry['hinf_product']:.6g}, sweep {prod:.6g}")
            elif abs(prod - 1.0) > 1e-2 and entry["pass"] != (prod < 1.0):
                failures.append(VERDICT + f"{i}-{j}: pass={entry['pass']} but the sweep product is {prod:.6g}")
        want_rc = 0 if all_pass else 2
        if res.rc != want_rc:
            failures.append(VERDICT + f"exit code {res.rc} does not match the pair verdicts")
        return failures

    def _check_simulate(self, name, facts, res, report):
        failures = []
        if res.rc != 0:
            failures.append(VERDICT + f"exit code {res.rc}, expected 0 (certified by construction)")
        if report.get("certified") != facts["certified"]:
            failures.append(VERDICT + f"certified={report.get('certified')}, expected {facts['certified']}")
        steps = int(round(SIM_MESH["horizon"] / SIM_MESH["dt"]))
        if report.get("samples") != steps + 1:
            failures.append(f"samples {report.get('samples')}, expected {steps + 1}")
        m = report.get("metrics", {})
        if m.get("diverged") is not False:
            failures.append(VERDICT + "trace diverged")
        values = [v for sub in m.get("per_subsystem", {}).values() for v in sub.values()]
        if not all(v is None or math.isfinite(v) for v in values):
            failures.append("non-finite trace metric")
        if (m.get("final_lyapunov") is not None) != facts["certified"]:
            failures.append("Lyapunov series presence does not match the certificate")
        rows = sum(2 * f["p"] + f["p"] * f["m"] + 2 * f["m"] + 3 + 1
                   for f in facts["subsystems"].values()) + int(facts["certified"])
        if res.info.get("csv_lines") != 1 + (steps + 1) * rows:
            failures.append(f"CSV has {res.info.get('csv_lines')} lines, "
                            f"expected {1 + (steps + 1) * rows}")
        return failures

    def _check_lib(self, op, res):
        trace, summary = res.value
        doc = self.raw[op["doc"]]
        failures = []
        if op["scenario"] is None:
            ref = self.refs.get(op["id"])
            if ref is None:
                return [f"no stored reference for {op['id']}"]
            if not _numbers_close(summary, ref["metrics"], METRIC_RTOL):
                failures.append("trace metrics differ from the stored reference")
            if ref.get("trace_sha256") != res.info["trace_sha256"]:
                self.hash_changes.append(f"{op['id']}: trace_sha256")
            spec = doc["scenario"]
        else:
            spec = op["scenario"]
        if trace.diverged:
            return failures + [VERDICT + "trace diverged"]
        t_end = float(trace.t[-1])
        for sub in doc["subsystems"]:
            sid = sub["id"]
            n = len(sub["B"])
            C = np.asarray(sub["C"], dtype=float)
            x = trace.xbar[sid]
            err = np.linalg.norm(trace.xhat[sid] - x, axis=1)
            got = summary["per_subsystem"][sid]
            if not math.isclose(got["max_error_norm"], float(err.max()), rel_tol=1e-12, abs_tol=1e-300):
                failures.append(f"{sid}: max_error_norm {got['max_error_norm']}, recomputed {err.max()}")
            r_end = _schedule_at(spec.get("references", {}).get(sid), t_end, C.shape[0])
            sse = float(np.max(np.abs(C @ x[-1, :n] - r_end)))
            if not math.isclose(got["steady_state_error"], sse, rel_tol=1e-9, abs_tol=1e-12):
                failures.append(f"{sid}: steady_state_error {got['steady_state_error']}, recomputed {sse}")
        if op["mode"] == "distributed":
            V = trace.lyapunov
            cert = self.certs[op["doc"]]
            v_end = 0.0
            for sid in trace.ids:
                e = trace.xhat[sid][-1] - trace.xbar[sid][-1]
                theta = np.asarray(spec.get("theta", {}).get(sid, 0.0), dtype=float)
                dth = trace.theta_hat[sid][-1] - theta
                gamma = self._tuning(doc, sid)["gamma"]
                v_end += float(e @ cert.P(sid) @ e) + float(np.sum(dth * dth)) / gamma
            if not math.isclose(summary["final_lyapunov"], v_end, rel_tol=1e-9, abs_tol=1e-12):
                failures.append(f"final_lyapunov {summary['final_lyapunov']}, recomputed {v_end}")
            rise = float(np.max(np.diff(V[LYAP_SKIP:]))) if V.size > LYAP_SKIP + 1 else 0.0
            if rise > LYAP_RTOL * (1.0 + V[0]):
                failures.append(f"Lyapunov value rises by {rise:.3g} under a certificate")
        return failures

    @staticmethod
    def _tuning(doc, sid):
        for sub in doc["subsystems"]:
            if sub["id"] == sid:
                return sub.get("tuning", doc.get("tuning"))
        raise KeyError(sid)

