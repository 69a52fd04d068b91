import copy
import csv
import dataclasses
import io
import json
import pickle
import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import CONFIG_DIR, assert_same_bits, random_hurwitz
import gascert.model
from gascert import (
    AugmentedSubsystem,
    DimensionError,
    GasCertificate,
    GascertError,
    Interconnection,
    NetworkModel,
    NonFiniteError,
    Scenario,
    Schedule,
    Tuning,
    analyze,
    certify,
    closed_loop_global,
    control,
    export_csv,
    metrics,
    simulate,
)
from gascert.config import load_config, parse_config
from gascert.numerics import _lyapunovs, solve_lyapunov
from gascert.sim import _Kernel

AM = np.array([[-2.0, 1.0], [-1.0, 0.0]])


def make_sub(sid):
    return AugmentedSubsystem.from_raw(sid, B=[[1.0]], C=[[1.0]], A=[[0.0]], E=[[1.0]])


def solo_net(gamma=20.0):
    tun = Tuning(Q=np.eye(2), gamma=gamma, theta_max=1.5, eps0=0.1)
    return NetworkModel(subsystems=[make_sub("solo")], edges=[],
                        desired={"solo": AM}, tuning={"solo": tun})


def pair_net(coupling=0.1, gamma=20.0):
    tun = Tuning(Q=np.eye(2), gamma=gamma, theta_max=1.5, eps0=0.1)
    edges = [Interconnection(src="b", dst="a", A=coupling * np.eye(2) * [[1, 0], [0, 0]]),
             Interconnection(src="a", dst="b", A=coupling * np.eye(2) * [[1, 0], [0, 0]])]
    return NetworkModel(subsystems=[make_sub("a"), make_sub("b")], edges=edges,
                        desired={"a": AM, "b": AM},
                        tuning={"a": tun, "b": tun})


def pack(kern, state):
    """``kern.pack`` of a state's three mappings keyed by id."""
    return kern.pack(state.xbar, state.xhat, state.theta_hat)


def unpack(kern, z):
    """The state ``z`` as per-subsystem views, split as the trace splits it."""
    X, XH, TH = kern.views(z)
    return SimpleNamespace(xbar=kern.split(X, kern.dims), xhat=kern.split(XH, kern.dims),
                           theta_hat=kern.split(TH, kern.dims, kern.ms))


class TestSchedule:
    def test_piecewise_lookup(self):
        s = Schedule(times=[0.0, 1.0, 2.5], values=[[0.0], [1.0], [-3.0]])
        assert s.at(0.0)[0] == 0.0
        assert s.at(0.999)[0] == 0.0
        assert s.at(1.0)[0] == 1.0
        assert s.at(3.0)[0] == -3.0

    def test_arrays_are_read_only_copies(self):
        times, values = np.array([0.0, 1.0]), np.array([[1.0], [2.0]])
        s = Schedule(times=times, values=values)
        times[1], values[0, 0] = -1.0, 7.0
        assert s.at(0.5)[0] == 1.0
        assert s.at(1.5)[0] == 2.0
        with pytest.raises(ValueError):
            s.times[1] = -1.0
        with pytest.raises(ValueError):
            s.values[0, 0] = 7.0

    def test_copy_rebuilt_read_only(self):
        s = Schedule(times=[0.0, 1.0], values=[[1.0], [2.0]])
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert copied is not s
            for got, want in ((copied.times, s.times), (copied.values, s.values)):
                assert_same_bits(got, want)
                assert not got.flags.writeable

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            Schedule(times=[0.0, 2.0, 1.0], values=[[0.0], [1.0], [2.0]])

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Schedule(times=[1.0], values=[[0.0]])


class TestEquilibrium:
    def test_exact_zero_error(self):
        # no coupling, truth equals initial estimate (zero), plant and
        # predictor start together: the error stays exactly zero
        net = solo_net()
        sc = Scenario(horizon=0.05, dt=1e-3)
        trace = simulate(net, sc, mode="distributed")
        assert np.all(trace.error_norm["solo"] == 0.0)
        assert np.all(trace.theta_hat["solo"] == 0.0)

    def test_equilibrium_metrics_all_zero(self):
        net = solo_net()
        sc = Scenario(horizon=0.05, dt=1e-3)
        m = metrics(simulate(net, sc, mode="distributed"))
        entry = m["per_subsystem"]["solo"]
        assert entry["max_error_norm"] == 0.0
        assert entry["settling_time"] == 0.0
        assert entry["steady_state_error"] == 0.0
        assert not m["diverged"]

    def test_subsystem_without_outputs(self):
        # a library-built subsystem may have no outputs (C with 0 rows): nothing
        # to track, so settling time and steady-state error read 0.0
        sub = AugmentedSubsystem.from_raw("s", B=[[1.0]], C=np.zeros((0, 1)), A=[[-1.0]])
        net = NetworkModel(subsystems=[sub], edges=[], desired={"s": [[-1.0]]},
                           tuning={"s": Tuning(Q=np.eye(1), gamma=5.0, theta_max=1.0,
                                               eps0=0.1)})
        sc = Scenario(horizon=0.05, dt=1e-3, theta={"s": [[0.3]]}, x0={"s": [0.5]})
        trace = simulate(net, sc, mode="distributed")
        assert trace.reference["s"].shape == (trace.t.size, 0)
        entry = metrics(trace)["per_subsystem"]["s"]
        assert entry["max_error_norm"] > 0.0
        assert entry["settling_time"] == 0.0
        assert entry["steady_state_error"] == 0.0


class TestDecoupledConvergence:
    def test_error_vanishes_and_tracks_analytic_response(self):
        net = solo_net(gamma=60.0)
        cert = certify(net)
        horizon = 30.0
        sc = Scenario(horizon=horizon, dt=2e-3,
                      references={"solo": Schedule.constant([1.0])},
                      theta={"solo": [[0.1], [-0.067]]},
                      x0={"solo": [0.5, 0.0]})
        trace = simulate(net, sc, mode="distributed", certificate=cert)
        # the predictor's uncertainty channel cancels identically, so it
        # follows the pure reference dynamics; compare with the matrix
        # exponential (independent of the RK4 path)
        forced = np.array([0.0, 1.0])
        x_eq = -np.linalg.solve(AM, forced)
        x_ref = sla.expm(AM * horizon) @ (np.zeros(2) - x_eq) + x_eq
        assert np.max(np.abs(trace.xhat["solo"][-1] - x_ref)) < 1e-9
        assert trace.error_norm["solo"][-1] < 1e-6
        # plant output converged to the reference input
        m = metrics(trace)
        assert m["per_subsystem"]["solo"]["steady_state_error"] < 1e-6

    def test_decentralized_mode_converges_too(self):
        net = solo_net(gamma=20.0)
        sc = Scenario(horizon=10.0, dt=2e-3,
                      references={"solo": Schedule.constant([1.0])},
                      theta={"solo": [[0.3], [-0.2]]},
                      x0={"solo": [0.5, 0.0]})
        trace = simulate(net, sc, mode="decentralized")
        assert trace.error_norm["solo"][-1] < 1e-2
        assert trace.error_norm["solo"][-1] < 0.05 * np.max(trace.error_norm["solo"])


class TestStepFunction:
    def test_matches_simulate_first_step(self):
        # simulate's first row after the start is one kern.rk4 step
        net = pair_net()
        sc = Scenario(horizon=0.002, dt=1e-3,
                      references={"a": Schedule.constant([1.0])},
                      theta={"a": [[0.3], [-0.2]]},
                      x0={"a": [0.4, 0.0]})
        trace = simulate(net, sc, mode="distributed")
        state0 = SimpleNamespace(
            xbar={"a": np.array([0.4, 0.0])}, xhat={}, theta_hat={})
        kern = _Kernel(net, sc, "distributed")
        nxt = unpack(kern, kern.rk4(pack(kern, state0), 1e-3, kern.segment([0.0, 5e-4, 1e-3])))
        assert np.allclose(nxt.xbar["a"], trace.xbar["a"][1], atol=1e-15)
        assert np.allclose(nxt.xbar["b"], trace.xbar["b"][1], atol=1e-15)
        assert np.allclose(nxt.theta_hat["a"], trace.theta_hat["a"][1], atol=1e-15)

    def test_distributed_coupling_matches_control_module(self):
        # the simulator's distributed predictor must reproduce the control
        # module's rate: decentralized rate plus the coupling replica
        net = pair_net(coupling=0.3)
        sc = Scenario(horizon=0.0, dt=1e-3, theta={"a": [[0.3], [-0.2]]})
        rng = np.random.default_rng(6)
        state = SimpleNamespace(
            xbar={"a": rng.normal(size=2), "b": rng.normal(size=2)},
            xhat={"a": rng.normal(size=2), "b": rng.normal(size=2)},
            theta_hat={"a": rng.normal(size=(2, 1)) * 0.1,
                       "b": rng.normal(size=(2, 1)) * 0.1},
        )
        kern = _Kernel(net, sc, "distributed")
        rate = unpack(kern, kern.rhs(pack(kern, state), kern.forcing[kern.segment(0.0)]))
        u = control.mrac_control(state.theta_hat["a"], state.xbar["a"])
        edge = net.in_edges("a")[0]
        expected = control.predictor_rate(
            AM, np.array([[1.0], [0.0]]), state.xhat["a"], u,
            state.theta_hat["a"], state.xbar["a"], np.zeros(2),
            mode="distributed", neighbor_terms=[(edge.A, state.xhat["b"])])
        assert np.allclose(rate.xhat["a"], expected, atol=1e-14)
        dec = control.predictor_rate(
            AM, np.array([[1.0], [0.0]]), state.xhat["a"], u,
            state.theta_hat["a"], state.xbar["a"], np.zeros(2))
        assert np.allclose(rate.xhat["a"] - dec, edge.A @ state.xhat["b"], atol=1e-14)


def mixed_net(rng, n_subs, with_edges):
    """Random network of mixed shapes: augmented dim 1-6, 1-3 inputs."""
    subs, desired, tuning, scen = [], {}, {}, {"references": {}, "disturbances": {}, "theta": {}}
    for k in range(n_subs):
        sid = f"s{k}"
        n = int(rng.integers(1, 5))
        q = int(rng.integers(0, min(n, 6 - n) + 1))
        m, r = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        sub = AugmentedSubsystem.from_raw(sid, B=rng.normal(size=(n, m)), C=rng.normal(size=(q, n)),
                                          A=rng.normal(size=(n, n)), E=rng.normal(size=(n, r)))
        subs.append(sub)
        desired[sid] = random_hurwitz(rng, sub.dim)
        tuning[sid] = Tuning(Q=np.eye(sub.dim), gamma=rng.uniform(5.0, 50.0),
                             theta_max=rng.uniform(0.5, 2.0), eps0=rng.uniform(0.05, 0.5))
        scen["references"][sid] = Schedule(times=[0.0, 0.05], values=rng.normal(size=(2, q)))
        scen["disturbances"][sid] = Schedule(times=[0.0, 0.1], values=rng.normal(size=(2, r)))
        scen["theta"][sid] = rng.normal(size=(sub.dim, m)) * 0.3
    edges = []
    if with_edges:
        for i in range(n_subs):
            for j in range(n_subs):
                if i != j and rng.random() < 0.6:
                    edges.append(Interconnection(
                        src=subs[j].sid, dst=subs[i].sid,
                        A=rng.normal(size=(subs[i].dim, subs[j].dim)) * 0.2))
    net = NetworkModel(subsystems=subs, edges=edges, desired=desired, tuning=tuning)
    return net, Scenario(horizon=0.2, dt=1e-3, **scen)


def reference_rhs(net, sc, mode, state, t):
    """Joint rate per subsystem from the scalar laws of ``control``."""
    out = {}
    for sid in net.ids:
        s, tun = net.subsystem(sid), net.tuning[sid]
        x, xh, th = state.xbar[sid], state.xhat[sid], state.theta_hat[sid]
        P = solve_lyapunov(net.desired[sid], tun.Q)
        forced = np.zeros(s.dim)  # the reference drives the integral rows; disturbances nothing
        forced[s.n:] = sc.references[sid].at(t)
        u = control.mrac_control(th, x)
        edges = net.in_edges(sid)
        coupling = sum((e.A @ state.xbar[e.src] for e in edges), np.zeros(s.dim))
        dx = net.desired[sid] @ x + s.B @ (u + sc.theta[sid].T @ x) + forced + coupling
        if mode == "distributed":
            dxh = control.predictor_rate(net.desired[sid], s.B, xh, u, th, x, forced, mode=mode,
                                         neighbor_terms=[(e.A, state.xhat[e.src]) for e in edges])
            dth = control.update_projection(xh - x, P, s.B, x, tun.gamma, th,
                                            tun.theta_max, tun.eps0)
        else:
            dxh = control.predictor_rate(net.desired[sid], s.B, xh, u, th, x, forced)
            dth = control.update_normalized(xh - x, P, s.B, xh, tun.gamma)
        out[sid] = (dx, dxh, dth)
    return out


def boundary_state(net, rng):
    """Random state with projection-active columns and floored errors.

    Per subsystem, each estimate column is placed on the boundary layer
    (g >= 0) along +/- its own update direction, or well inside; every
    third subsystem has a prediction error under the normalized law's floor.
    """
    xbar, xhat, theta = {}, {}, {}
    for k, sid in enumerate(net.ids):
        s, tun = net.subsystem(sid), net.tuning[sid]
        x = rng.normal(size=s.dim)
        err = rng.normal(size=s.dim) * (1e-14 if k % 3 == 2 else 1.0)
        P = solve_lyapunov(net.desired[sid], tun.Q)
        drive = -np.outer(x, err @ P @ s.B)
        th = np.empty((s.dim, s.m))
        for col in range(s.m):
            d = drive[:, col] / np.linalg.norm(drive[:, col])
            kind = (k + col) % 3
            th[:, col] = (0.98 * tun.theta_max * d if kind == 0 else
                          -0.98 * tun.theta_max * d if kind == 1 else 0.1 * tun.theta_max * d)
        xbar[sid], xhat[sid], theta[sid] = x, x + err, th
    return SimpleNamespace(xbar=xbar, xhat=xhat, theta_hat=theta)


def lookup_tables(net, sc):
    """Breaks, forcing and reference tables by one ``Schedule.at`` per break and
    subsystem: the breaks are the references', and the forcing is the reference
    in the integral rows."""
    refs = [sc.references[sid] for sid in net.ids]
    breaks = np.unique(np.concatenate([ref.times for ref in refs]))
    subs = [net.subsystem(sid) for sid in net.ids]
    forcing = np.zeros((breaks.size, len(subs), max(s.dim for s in subs)))
    reference = np.zeros((breaks.size, len(subs), max(s.q for s in subs)))
    for j, t in enumerate(breaks):
        for k, (s, ref) in enumerate(zip(subs, refs)):
            forcing[j, k, s.n:s.dim] = reference[j, k, :s.q] = ref.at(t)
    return breaks, forcing, reference


class TestStackedKernel:
    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    @pytest.mark.parametrize("seed", range(6))
    def test_rhs_matches_control_reference(self, mode, seed):
        rng = np.random.default_rng(100 + seed)
        net, sc = mixed_net(rng, int(rng.integers(2, 6)), with_edges=seed % 3 != 0)
        state = boundary_state(net, rng)
        kern = _Kernel(net, sc, mode)
        active = floored = 0
        for t in (0.0, 0.07, 0.15):
            got = unpack(kern, kern.rhs(pack(kern, state), kern.forcing[kern.segment(t)]))
            want = reference_rhs(net, sc, mode, state, t)
            for sid in net.ids:
                for g, w in zip((got.xbar[sid], got.xhat[sid], got.theta_hat[sid]), want[sid]):
                    assert g.shape == w.shape
                    scale = np.max(np.abs(w), initial=0.0)
                    assert np.max(np.abs(g - w), initial=0.0) <= 1e-13 * scale, sid
                if mode == "decentralized":
                    floored += not np.any(want[sid][2])
        for sid in net.ids:
            tun, th = net.tuning[sid], state.theta_hat[sid]
            err = state.xhat[sid] - state.xbar[sid]
            P = solve_lyapunov(net.desired[sid], tun.Q)
            drive = -np.outer(state.xbar[sid], err @ P @ net.subsystem(sid).B)
            for col in range(th.shape[1]):
                g = control.boundary_function(th[:, col], tun.theta_max, tun.eps0)
                active += g >= 0.0 and th[:, col] @ drive[:, col] > 0.0
        if mode == "distributed":
            assert active > 0
        else:
            assert floored > 0

    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    def test_padding_stays_zero(self, mode):
        rng = np.random.default_rng(7)
        net, sc = mixed_net(rng, 5, with_edges=True)
        kern = _Kernel(net, sc, mode)
        assert len(set(kern.dims)) > 1 and len(set(kern.ms)) > 1
        ones = SimpleNamespace(
            xbar={sid: np.ones(d) for sid, d in zip(kern.ids, kern.dims)},
            xhat={sid: np.ones(d) for sid, d in zip(kern.ids, kern.dims)},
            theta_hat={sid: np.ones((d, m)) for sid, d, m in zip(kern.ids, kern.dims, kern.ms)})
        pad = pack(kern, ones) == 0.0
        assert pad.any()
        z = pack(kern, boundary_state(net, rng))
        dt = 1e-3
        for i in range(200):
            t = i * dt
            z = kern.rk4(z, dt, kern.segment([t, t + 0.5 * dt, t + dt]))
            assert np.all(z[pad] == 0.0)
        assert np.all(np.isfinite(z)) and np.any(z[~pad] != 0.0)

    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    @pytest.mark.parametrize("seed", range(4))
    def test_linear_operator_matches_closed_loop_global(self, mode, seed):
        # with theta_hat = theta and no forcing only the linear terms act:
        # the plant rate is A_cl xbar, the predictor rate A_cl xhat when
        # predictors exchange states and blkdiag(A_m) xhat when they do not
        rng = np.random.default_rng(300 + seed)
        net, sc = mixed_net(rng, int(rng.integers(2, 7)), with_edges=True)
        kern = _Kernel(net, Scenario(horizon=0.0, dt=1e-3, theta=sc.theta), mode)
        x, xh = ({sid: rng.normal(size=net.subsystem(sid).dim) for sid in net.ids}
                 for _ in range(2))
        state = SimpleNamespace(xbar=x, xhat=xh, theta_hat=dict(sc.theta))
        got = unpack(kern, kern.rhs(pack(kern, state), kern.forcing[0]))
        A_cl = closed_loop_global(net)
        local = sla.block_diag(*[net.desired[sid] for sid in net.ids])
        for name, op, vec in (("xbar", A_cl, x),
                              ("xhat", A_cl if mode == "distributed" else local, xh)):
            want = op @ np.concatenate([vec[sid] for sid in net.ids])
            rate = np.concatenate([getattr(got, name)[sid] for sid in net.ids])
            assert np.max(np.abs(rate - want)) <= 1e-13 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("case", ["mixed_net", "interleaved"])
    def test_forcing_tables_match_schedule_lookup(self, case):
        rng = np.random.default_rng(11)
        net, sc = mixed_net(rng, 5, with_edges=False)
        if case == "interleaved":
            # 50 breaks per schedule, drawn independently, so segments interleave
            def draw(width):
                times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 0.2, 49))])
                return Schedule(times=times, values=rng.normal(size=(50, width)))
            subs = [net.subsystem(sid) for sid in net.ids]
            sc = Scenario(horizon=0.2, dt=1e-3,
                          references={s.sid: draw(s.q) for s in subs},
                          disturbances={s.sid: draw(s.r) for s in subs})
        kern = _Kernel(net, sc, "distributed")
        breaks, forcing, reference = lookup_tables(net, sc)
        assert_same_bits(kern.breaks, breaks)
        assert_same_bits(kern.forcing, forcing)
        # the trace's references are read from the forcing table, at every
        # break and between breaks
        t = np.unique(np.concatenate([breaks, breaks + 1e-4, np.arange(201) * 1e-3]))
        trace = kern.trace(np.zeros((t.size, kern.size)), t, False, None)
        seg = np.searchsorted(breaks, t, side="right") - 1
        for k, sid in enumerate(net.ids):
            want = reference[seg, k, :net.subsystem(sid).q]
            assert_same_bits(trace.reference[sid], want)

    def test_tables_scale_with_nodes_and_edges(self):
        # a 1024-leaf star (P = 2): tables sized N x E, or padded to the hub's
        # in-degree for every row, take megabytes; O((N + E) P^2) does not
        leaves = [f"l{k}" for k in range(1024)]
        ids = ["hub", *leaves]
        tun = Tuning(Q=np.eye(2), gamma=20.0, theta_max=1.5, eps0=0.1)
        net = NetworkModel(
            subsystems=[make_sub(sid) for sid in ids],
            edges=[Interconnection(src=sid, dst="hub", A=0.01 * np.eye(2)) for sid in leaves],
            desired=dict.fromkeys(ids, AM), tuning=dict.fromkeys(ids, tun))
        unit_weights = SimpleNamespace(P=lambda sid: np.eye(2))   # skips 1025 Lyapunov solves
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kern = _Kernel(net, Scenario(horizon=0.0, dt=1e-3), "distributed", unit_weights)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2e6
        state = SimpleNamespace(xbar=dict.fromkeys(leaves, [1.0, 0.0]), xhat={}, theta_hat={})
        rate = unpack(kern, kern.rhs(pack(kern, state), kern.forcing[0]))
        assert np.allclose(rate.xbar["hub"], [10.24, 0.0], rtol=1e-12)

    def test_simulate_mixed_network_matches_step(self):
        # simulate's rows are kern.rk4 applied step by step from the packed
        # initial state, bit for bit
        rng = np.random.default_rng(8)
        net, sc = mixed_net(rng, 4, with_edges=True)
        start = boundary_state(net, rng)
        sc.x0, sc.xhat0, sc.theta_hat0 = start.xbar, start.xhat, start.theta_hat
        trace = simulate(net, sc, mode="distributed")
        assert trace.t.size == 201 and not trace.diverged
        kern, dt = _Kernel(net, sc, "distributed"), sc.dt
        z = pack(kern, start)
        for i, t in enumerate(trace.t):
            row = unpack(kern, z)
            for name in ("xbar", "xhat", "theta_hat"):
                for sid in net.ids:
                    assert_same_bits(getattr(row, name)[sid], getattr(trace, name)[sid][i])
            z = kern.rk4(z, dt, kern.segment([t, t + 0.5 * dt, t + dt]))


def _run(**scenario):
    """``simulate`` on ``wide_net`` for 10 steps of ``scenario``."""
    return simulate(wide_net(), Scenario(**{"horizon": 0.01, "dt": 1e-3, **scenario}))


def wide_net():
    """One subsystem "a" with dim 3, m = 2, q = 1 and r = 1."""
    sub = AugmentedSubsystem.from_raw("a", B=np.eye(2), C=[[1.0, 0.0]],
                                      A=[[0.0, 1.0], [0.0, 0.0]], E=[[1.0], [0.0]])
    tun = Tuning(Q=np.eye(3), gamma=20.0, theta_max=1.5, eps0=0.1)
    return NetworkModel(subsystems=[sub], edges=[], desired={"a": np.diag([-1.0, -2.0, -3.0])},
                        tuning={"a": tun})


class TestScenarioCheck:
    @pytest.mark.parametrize("key,value", [
        ("references", Schedule.constant([1.0])), ("disturbances", Schedule.constant([1.0])),
        ("theta", np.zeros((3, 2))), ("theta_hat0", np.zeros((3, 2))),
        ("x0", np.zeros(3)), ("xhat0", np.zeros(3)),
    ])
    def test_unknown_id_rejected(self, key, value):
        sc = Scenario(horizon=0.01, dt=1e-3, **{key: {"a": value, "ghost": value}})
        with pytest.raises(GascertError, match=f"^{key}.ghost: unknown subsystem id$"):
            simulate(wide_net(), sc)

    @pytest.mark.parametrize("key,value,fault", [
        ("theta_hat0", np.ones((2, 3)), "expected shape (3, 2), got (2, 3)"),
        ("theta", np.ones((3, 1)), "expected shape (3, 2), got (3, 1)"),
        ("x0", np.ones(2), "expected 3 entries, got 2"),
        ("xhat0", np.ones(4), "expected 3 entries, got 4"),
        ("references", Schedule.constant([1.0, 2.0]), "schedule is 2 wide, expected 1"),
        ("disturbances", Schedule(times=[0.0], values=np.zeros((1, 0))),
         "schedule is 0 wide, expected 1"),
    ])
    def test_size_mismatch_rejected(self, key, value, fault):
        # pack would reshape the (2, 3) estimate into the (3, 2) slot
        sc = Scenario(horizon=0.01, dt=1e-3, **{key: {"a": value}})
        with pytest.raises(DimensionError, match=f"^{re.escape(f'{key}.a: {fault}')}$"):
            simulate(wide_net(), sc)

    @pytest.mark.parametrize("call,fault", [
        (lambda: _run(x0={"a": [np.nan, 0.0, 0.0]}), "x0.a: non-finite entries"),
        (lambda: _run(xhat0={"a": ["1", 0, 0]}), "xhat0.a: not a numeric array"),
        (lambda: _run(theta={"a": np.full((3, 2), np.inf)}), "theta.a: non-finite entries"),
        (lambda: _run(theta_hat0={"a": [[True, False]] * 3}), "theta_hat0.a: not a numeric array"),
        (lambda: _run(x0={"a": [10 ** 400, 0, 0]}),
         "x0.a: not a numeric array (int too large to convert to float)"),
        (lambda: _run(xhat0={"a": [[0.0], [0.0, 0.0], [0.0]]}), "xhat0.a: not a numeric array ("),
        (lambda: _run(dt="0.1"), "dt: not a numeric array"),
        (lambda: _run(references={"a": Schedule(times=[0.0], values=[["1.0"]])}),
         "schedule values: not a numeric array"),
        (lambda: AugmentedSubsystem.from_raw("a", B=np.eye(2), C=[["1", "0"]]),
         "subsystem a: C: not a numeric array"),
        (lambda: AugmentedSubsystem.from_raw("a", B=np.eye(2), C=[[1.0, 0.0]],
                                             E=np.full((2, 1), np.nan)),
         "subsystem a: E: non-finite entries"),
    ], ids=["x0_nan", "xhat0_string", "theta_inf", "theta_hat0_bool", "x0_int_beyond_double",
            "xhat0_ragged", "dt_string", "schedule_string", "subsystem_C_string",
            "subsystem_E_nan"])
    def test_non_numeric_or_non_finite_rejected(self, call, fault):
        # every library value is read by numeric_array, so simulate cannot run,
        # or report a divergence at its first step, on a string, boolean or NaN
        with pytest.raises(GascertError, match=f"^{re.escape(fault)}"):
            call()

    @pytest.mark.parametrize("kwargs,fault", [
        ({"horizon": 0.01, "dt": [0.1]}, "dt: expected a number, got ndim=1"),
        ({"horizon": [[1.0]], "dt": 0.1}, "horizon: expected a number, got ndim=2"),
    ], ids=["dt", "horizon"])
    def test_scalar_given_as_array_names_its_field(self, kwargs, fault):
        # numpy's own refusal of float([0.1]) named no field
        with pytest.raises(DimensionError, match=f"^{re.escape(fault)}$"):
            Scenario(**kwargs)

    @pytest.mark.parametrize("key", ["references", "disturbances", "theta", "theta_hat0",
                                     "x0", "xhat0"])
    @pytest.mark.parametrize("value", [[1, 2], None, "a"], ids=["list", "none", "str"])
    def test_per_id_field_not_a_mapping_names_its_field(self, key, value):
        # a list raised AttributeError ('list' object has no attribute 'items'),
        # for the schedules only later, in simulate
        with pytest.raises(GascertError,
                           match=f"^{key}: expected a mapping keyed by subsystem id$"):
            Scenario(horizon=1.0, dt=0.1, **{key: value})

    def test_int_beyond_int64_accepted(self):
        trace = simulate(wide_net(), Scenario(horizon=0.01, dt=1e-3, x0={"a": [2 ** 70, 0, 0]}))
        assert trace.xbar["a"][0, 0] == 2.0 ** 70

    def test_schedule_entries_are_schedules(self):
        with pytest.raises(TypeError, match=r"^references\.a: expected a Schedule$"):
            simulate(wide_net(), Scenario(horizon=0.01, dt=1e-3, references={"a": [1.0]}))

    def test_fitting_scenario_runs(self):
        sc = Scenario(horizon=0.01, dt=1e-3, references={"a": Schedule.constant([1.0])},
                      disturbances={"a": Schedule.constant([0.5])},
                      theta={"a": np.full((3, 2), 0.1)}, theta_hat0={"a": np.ones((3, 2))},
                      x0={"a": [0.1, 0.2, 0.3]}, xhat0={"a": None})
        trace = simulate(wide_net(), sc)
        assert trace.t.size == 11 and not trace.diverged
        assert_same_bits(trace.theta_hat["a"][0], np.ones((3, 2)))


class TestLyapunovWeights:
    def test_solved_once_per_subsystem(self, monkeypatch):
        # analyze and three runs without a certificate read one memo per
        # network: each subsystem is one member of one kernel call, once
        calls = []

        def counting(recs, Q):
            calls.extend(recs)
            return _lyapunovs(recs, Q)

        # at every name the kernel is bound to, so no module escapes the count
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("gascert") \
                    and getattr(module, "_lyapunovs", None) is _lyapunovs:
                monkeypatch.setattr(module, "_lyapunovs", counting)
        assert gascert.model._lyapunovs is counting
        net, sc = mixed_net(np.random.default_rng(31), 4, with_edges=True)
        assert calls == []
        analyze(net)
        for _ in range(3):
            simulate(net, Scenario(horizon=0.01, dt=1e-3, theta=sc.theta), mode="decentralized")
        assert len(calls) == len(net.ids)

    def test_memo_is_the_solution_read_only(self):
        net = pair_net()
        P = net.lyapunov("a")
        assert net.lyapunov("a") is P
        assert_same_bits(P, solve_lyapunov(net.desired["a"], net.tuning["a"].Q))
        with pytest.raises(ValueError):
            P[0, 0] = 1.0
        # a new network of the same parts solves afresh
        assert pair_net().lyapunov("a") is not P


def allocating_rhs(kern, z, force, stats):
    """The stacked RHS as it was before the stage buffers: every product a
    new array, the forcing broadcast over the plant and predictor rows and
    the exact g test in every distributed stage."""
    N, P, M = kern.shape
    out = np.empty(kern.size)
    lin = out[:kern.n2].reshape(2, N, P, 1)
    np.add.reduceat(kern.W @ z[kern.gather], kern.starts, out=lin.reshape(2 * N, P, 1))
    lin[..., 0] += force
    x, xh = z[:kern.n2].reshape(2, N, 1, P)
    th = z[kern.n2:].reshape(N, P, M)
    lin[0] += kern.B @ (x @ (kern.theta - th)).transpose(0, 2, 1)
    err = xh - x
    ePB = err @ kern.PB
    rate = out[kern.n2:].reshape(N, P, M)
    if kern.mode == "distributed":
        np.multiply(x.transpose(0, 2, 1), ePB, out=rate)
        tt = np.einsum("npm,npm->nm", th, th)
        stats["tt_max"] = max(stats["tt_max"], float(tt.max()))
        g = kern.g_scale * tt - kern.g_shift
        if not g.max() >= 0.0:
            return out
        ty = np.einsum("npm,npm->nm", th, rate)
        active = (g >= 0.0) & (ty > 0.0)
        stats["active"] += int(active.sum())
        scale = np.where(active, g * ty / np.where(active, tt, 1.0), 0.0)
        np.subtract(rate, th * scale[:, None, :], out=rate, where=active[:, None, :])
    else:
        w = err @ kern.Pc @ err.transpose(0, 2, 1)
        scale = (w > control.ERR_FLOOR ** 2) / np.sqrt(np.maximum(w, control.ERR_FLOOR ** 2))
        np.multiply(xh.transpose(0, 2, 1) * scale, ePB, out=rate)
    return out


def allocating_rk4(kern, z, dt, seg, stats):
    f1, f2, f4 = kern.forcing[seg]
    k1 = allocating_rhs(kern, z, f1, stats)
    k2 = allocating_rhs(kern, z + 0.5 * dt * k1, f2, stats)
    k3 = allocating_rhs(kern, z + 0.5 * dt * k2, f2, stats)
    k4 = allocating_rhs(kern, z + dt * k3, f4, stats)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestStageBuffers:
    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    @pytest.mark.parametrize("start", ["boundary", "interior"])
    def test_rk4_bit_identical_to_allocating_oracle(self, mode, start):
        # "boundary" starts with estimate columns on the projection layer;
        # "interior" starts from zero estimates and small states, unforced,
        # so every estimate column stays where g < 0
        rng = np.random.default_rng(21)
        net, sc = mixed_net(rng, 5, with_edges=True)
        state = boundary_state(net, rng)
        if start == "interior":
            sc = Scenario(horizon=sc.horizon, dt=sc.dt, theta=sc.theta)
            state = SimpleNamespace(xbar={sid: 0.01 * x for sid, x in state.xbar.items()},
                                    xhat={sid: 0.01 * x for sid, x in state.xhat.items()},
                                    theta_hat={})
        kern = _Kernel(net, sc, mode)
        z = want = pack(kern, state)
        stats = {"active": 0, "tt_max": 0.0}
        dt = 1e-3
        for i in range(200):
            t = i * dt
            seg = kern.segment([t, t + 0.5 * dt, t + dt])
            want = allocating_rk4(kern, want, dt, seg, stats)
            z = kern.rk4(z, dt, seg)
            assert_same_bits(z, want)
        assert np.all(np.isfinite(z))
        if mode == "distributed" and start == "boundary":
            assert stats["active"] > 0
        if mode == "distributed" and start == "interior":
            assert 0.0 < stats["tt_max"] < np.min(kern.g_shift / kern.g_scale)

    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    def test_rhs_bit_identical_to_allocating_oracle(self, mode):
        # rhs takes a forcing row, untiled or tiled, and returns a new array
        rng = np.random.default_rng(22)
        net, sc = mixed_net(rng, 4, with_edges=True)
        kern = _Kernel(net, sc, mode)
        stats = {"active": 0, "tt_max": 0.0}
        z = pack(kern, boundary_state(net, rng))
        got = [kern.rhs(z, kern.forcing[j]) for j in range(kern.breaks.size)]
        for j, rate in enumerate(got):
            assert_same_bits(rate, allocating_rhs(kern, z, kern.forcing[j], stats))
            assert_same_bits(kern.rhs(z, kern.tiled[j]), rate)

    def test_projection_around_g_threshold(self):
        # estimate columns along their update direction with |theta|^2 just
        # below, at and above each subsystem's g = 0 threshold, and outside
        # it: the rate matches control.project
        rng = np.random.default_rng(23)
        net, sc = mixed_net(rng, 4, with_edges=True)
        kern = _Kernel(net, sc, "distributed")
        base = boundary_state(net, rng)
        u = np.finfo(float).eps
        levels = {"below_threshold": lambda thr: thr * (1.0 - 4 * u),
                  "at_threshold": lambda thr: thr,
                  "above_threshold": lambda thr: thr * (1.0 + 4 * u),
                  "outside": lambda thr: 1.02 * thr}
        active = {}
        for name, level in levels.items():
            theta = {}
            for sid in net.ids:
                tun, s = net.tuning[sid], net.subsystem(sid)
                err = base.xhat[sid] - base.xbar[sid]
                drive = -np.outer(base.xbar[sid], err @ net.lyapunov(sid) @ s.B)
                d = drive / np.linalg.norm(drive, axis=0)
                theta[sid] = d * np.sqrt(level(tun.theta_max ** 2 / (1.0 + tun.eps0)))
            state = SimpleNamespace(xbar=base.xbar, xhat=base.xhat, theta_hat=theta)
            got = unpack(kern, kern.rhs(pack(kern, state), kern.forcing[0]))
            want = reference_rhs(net, sc, "distributed", state, 0.0)
            active[name] = 0
            for sid in net.ids:
                w = want[sid][2]
                assert np.max(np.abs(got.theta_hat[sid] - w)) <= 1e-13 * np.max(np.abs(w)), name
                tun = net.tuning[sid]
                # each column points along its update, so it is projected iff g >= 0
                active[name] += sum(control.boundary_function(col, tun.theta_max, tun.eps0) >= 0.0
                                    for col in theta[sid].T)
        assert active["below_threshold"] == 0
        assert active["outside"] == sum(net.subsystem(sid).m for sid in net.ids)

    def test_kernels_stepped_alternately_match_alone(self):
        rng = np.random.default_rng(24)
        runs = []
        for mode in ("distributed", "decentralized"):
            net, sc = mixed_net(rng, 3, with_edges=True)
            kern = _Kernel(net, sc, mode)
            runs.append((kern, pack(kern, boundary_state(net, rng))))

        def advance(kern, z, i, dt=1e-3):
            t = i * dt
            return kern.rk4(z, dt, kern.segment([t, t + 0.5 * dt, t + dt]))

        alone = []
        for kern, z in runs:
            for i in range(50):
                z = advance(kern, z, i)
            alone.append(z)
        together = [z for _, z in runs]
        for i in range(50):
            together = [advance(kern, z, i) for (kern, _), z in zip(runs, together)]
        for got, want in zip(together, alone):
            assert_same_bits(got, want)


class TestTraceMechanics:
    def test_zero_horizon_single_sample(self):
        net = solo_net()
        sc = Scenario(horizon=0.0, dt=1e-3, x0={"solo": [0.3, -0.1]})
        trace = simulate(net, sc, mode="distributed")
        assert trace.t.shape == (1,)
        assert np.allclose(trace.xbar["solo"][0], [0.3, -0.1])
        assert not trace.diverged

    def test_determinism_bit_identical(self):
        net = pair_net()
        sc = Scenario(horizon=0.3, dt=1e-3,
                      references={"a": Schedule.constant([1.0])},
                      theta={"a": [[0.3], [-0.2]], "b": [[-0.25], [0.15]]},
                      x0={"a": [0.4, 0.0]})
        cert = certify(net)
        t1 = simulate(net, sc, mode="distributed", certificate=cert)
        t2 = simulate(net, sc, mode="distributed", certificate=cert)
        for sid in t1.ids:
            assert np.array_equal(t1.xbar[sid], t2.xbar[sid])
            assert np.array_equal(t1.theta_hat[sid], t2.theta_hat[sid])
        assert np.array_equal(t1.lyapunov, t2.lyapunov)
        buf1, buf2 = io.StringIO(), io.StringIO()
        export_csv(t1, buf1)
        export_csv(t2, buf2)
        assert buf1.getvalue() == buf2.getvalue()

    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    @pytest.mark.parametrize("name", ["toy_pair", "mesh6"])
    def test_disturbances_cannot_move_a_trace(self, name, mode):
        # disturbances are assumed rejected by the baseline loop: each config's
        # load step is checked but enters no dynamics, so dropping it moves no bit
        net, sc, _ = load_config(CONFIG_DIR / f"{name}.json")
        assert sc.disturbances
        cert = certify(net)
        csv = []
        for scenario in (sc, dataclasses.replace(sc, disturbances={})):
            trace = simulate(net, scenario, mode=mode, certificate=cert)
            assert not trace.diverged
            buf = io.StringIO()
            export_csv(trace, buf)
            csv.append(buf.getvalue())
        assert csv[0] == csv[1]

    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    def test_certificate_of_another_network_names_the_subsystem(self, mode):
        # a certificate with no record of a subsystem raised a bare KeyError: 'a'
        net, sc, _ = load_config(CONFIG_DIR / "toy_pair.json")
        mesh, _, _ = load_config(CONFIG_DIR / "mesh6.json")
        with pytest.raises(GascertError, match="^certificate has no record of subsystem a$"):
            simulate(net, sc, mode=mode, certificate=certify(mesh))

    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    def test_certificate_P_is_read_and_sized(self, mode):
        # a record's P went into the kernel unread: a 3x3 P for a 2x2 subsystem
        # ended in numpy's broadcast ValueError, a boolean P was taken as it
        # was, and a NaN P gave a diverged trace with a NaN Lyapunov value
        net, sc, _ = load_config(CONFIG_DIR / "toy_pair.json")
        sc = dataclasses.replace(sc, horizon=20 * sc.dt)
        cert = certify(net)

        def with_P(**P):
            return GasCertificate([dataclasses.replace(c, P=P.get(c.sid, c.P))
                                   for c in cert.subsystems], cert.certified)

        for P, error, message in (
                (np.eye(3), DimensionError,
                 r"^certificate\.P\.a: expected shape \(2, 2\), got \(3, 3\)$"),
                ([[1.0, 0.0]], DimensionError,
                 r"^certificate\.P\.a must be square, got shape \(1, 2\)$"),
                (np.eye(2, dtype=bool), GascertError, r"^certificate\.P\.a: not a numeric array$"),
                (np.full((2, 2), np.nan), NonFiniteError,
                 r"^certificate\.P\.a: non-finite entries$")):
            with pytest.raises(error, match=message):
                simulate(net, sc, mode=mode, certificate=with_P(a=P))
        # a P given as lists is read as its numbers; a record with no P takes
        # the network's own solution
        want = simulate(net, sc, mode=mode, certificate=cert).lyapunov
        got = simulate(net, sc, mode=mode, certificate=with_P(a=cert.P("a").tolist())).lyapunov
        assert_same_bits(got, want)
        net_P = with_P(a=net.lyapunov("a"), b=net.lyapunov("b"))
        assert_same_bits(simulate(net, sc, mode=mode, certificate=with_P(a=None, b=None)).lyapunov,
                         simulate(net, sc, mode=mode, certificate=net_P).lyapunov)

    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    def test_certificate_P_must_be_symmetric_positive_definite(self, mode):
        # a P of the right size was taken whatever it was: -I ran both modes to
        # a negative "Lyapunov" value, and a zero P froze the adaptation
        net, sc, _ = load_config(CONFIG_DIR / "toy_pair.json")
        sc = dataclasses.replace(sc, horizon=20 * sc.dt)
        cert = certify(net)

        def with_P(**P):
            return GasCertificate([dataclasses.replace(c, P=P.get(c.sid, c.P))
                                   for c in cert.subsystems], cert.certified)

        P = cert.P("b")
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        refused = {"minus I": -np.eye(2), "non-symmetric": [[1.0, 5.0], [0.0, 1.0]],
                   "zero": np.zeros((2, 2)), "singular": [[1.0, 1.0], [1.0, 1.0]],
                   "indefinite": [[1.0, 0.0], [0.0, -1e-300]],
                   "asymmetric beyond 1e-12": P + 1e-11 * np.abs(P).max() * skew}
        for name, bad in refused.items():
            with pytest.raises(GascertError) as got:
                simulate(net, sc, mode=mode, certificate=with_P(b=bad))
            assert type(got.value) is GascertError, name
            assert str(got.value) == "certificate.P.b: must be symmetric positive definite"
        # an asymmetry within solve_lyapunov's 1e-12 is taken, and the
        # Lyapunov series weighs the error by that P
        near = P + 0.5e-12 * np.abs(P).max() * skew
        trace = simulate(net, sc, mode=mode, certificate=with_P(b=near))
        want = 0.0
        for sid, Pk in (("a", cert.P("a")), ("b", near)):
            err = trace.xhat[sid][-1] - trace.xbar[sid][-1]
            dth = trace.theta_hat[sid][-1] - np.asarray(sc.theta.get(sid, 0.0))
            want += err @ Pk @ err + np.sum(dth * dth) / net.tuning[sid].gamma
        assert not trace.diverged and trace.lyapunov[-1] == pytest.approx(want, rel=1e-12)

    def test_rk4_order(self):
        # halving the step shrinks the end-state error against a dt/8
        # reference by about 2^4
        net = solo_net()
        cert = certify(net)

        def end_state(dt):
            sc = Scenario(horizon=1.0, dt=dt,
                          references={"solo": Schedule.constant([1.0])},
                          theta={"solo": [[0.3], [-0.2]]},
                          x0={"solo": [0.5, 0.0]})
            tr = simulate(net, sc, mode="distributed", certificate=cert)
            return np.concatenate([tr.xbar["solo"][-1], tr.xhat["solo"][-1],
                                   tr.theta_hat["solo"][-1].ravel()])

        ref = end_state(1.0 / 4096)
        e1 = np.linalg.norm(end_state(1.0 / 256) - ref)
        e2 = np.linalg.norm(end_state(1.0 / 512) - ref)
        assert 8.0 < e1 / e2 < 32.0

    def test_divergence_flagged_with_partial_trace(self):
        net = pair_net(coupling=5000.0)
        sc = Scenario(horizon=0.5, dt=1e-3, x0={"a": [0.4, 0.0]})
        trace = simulate(net, sc, mode="decentralized")
        assert trace.diverged
        assert trace.diverged_at is not None
        assert trace.t.size < 501
        assert np.all(np.isfinite(trace.xbar["a"]))
        m = metrics(trace)
        assert m["diverged"]

    @pytest.mark.parametrize("mode", ["distributed", "decentralized"])
    def test_initial_state_beyond_the_guard_diverges_at_zero(self, mode):
        # the 1e150 guard checked each new sample but never the first: such a
        # start ran on and made non-finite metrics
        net, scenario, _ = load_config(CONFIG_DIR / "toy_pair.json")
        sc = dataclasses.replace(scenario, x0={"a": [1e160, 0.0]})
        cert = certify(net)
        trace = simulate(net, sc, mode=mode, certificate=cert if mode == "distributed" else None)
        assert trace.diverged and trace.diverged_at == 0.0
        assert trace.t.size == 0
        assert all(trace.xbar[sid].shape[0] == 0 for sid in trace.ids)
        m = metrics(trace)
        assert m["diverged"] and m["final_lyapunov"] is None
        assert all(v == 0.0 for sub in m["per_subsystem"].values() for v in sub.values())
        buf = io.StringIO()
        export_csv(trace, buf)
        assert buf.getvalue() == "time,subsystem,series,index,value\n"

    def test_csv_format(self):
        net = solo_net()
        sc = Scenario(horizon=0.001, dt=1e-3, x0={"solo": [0.25, 0.0]})
        cert = certify(net)
        trace = simulate(net, sc, mode="distributed", certificate=cert)
        buf = io.StringIO()
        export_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "time,subsystem,series,index,value"
        assert lines[1] == "0,solo,state,0,0.25"
        # samples * (2+2+2+1+1+2+1+1 per-subsystem rows + 1 network row)
        assert len(lines) == 1 + 2 * 13
        assert any(line.startswith("0,network,lyapunov,0,") for line in lines)

    def test_lyapunov_decreases_on_certified_pair(self):
        net = pair_net()
        cert = certify(net)
        assert cert.certified
        sc = Scenario(horizon=1.0, dt=1e-3,
                      references={"a": Schedule.constant([1.0]),
                                  "b": Schedule.constant([0.5])},
                      theta={"a": [[0.3], [-0.2]], "b": [[-0.25], [0.15]]},
                      x0={"a": [0.4, 0.0]})
        trace = simulate(net, sc, mode="distributed", certificate=cert)
        tol = 1e-6 * (1.0 + trace.lyapunov[0])
        assert np.max(np.diff(trace.lyapunov[10:])) <= tol


def reference_export_csv(trace, fh):
    """Row-by-row long-form writer: the oracle for ``export_csv``'s bytes."""
    fh.write("time,subsystem,series,index,value\n")
    for i, t in enumerate(trace.t):
        ts = f"{t:.17g}"
        for sid in trace.ids:
            rows = (
                ("state", trace.xbar[sid][i]),
                ("predictor", trace.xhat[sid][i]),
                ("estimate", trace.theta_hat[sid][i].reshape(-1)),
                ("u_bl", trace.u_bl[sid][i]),
                ("u_mrac", trace.u_mrac[sid][i]),
                ("output", trace.output[sid][i]),
                ("reference", trace.reference[sid][i]),
                ("error_norm", np.atleast_1d(trace.error_norm[sid][i])),
            )
            for series, vec in rows:
                for j, v in enumerate(vec):
                    fh.write(f"{ts},{sid},{series},{j},{v:.17g}\n")
        if trace.lyapunov is not None:
            fh.write(f"{ts},network,lyapunov,0,{trace.lyapunov[i]:.17g}\n")


def demo_trace(name, mode, certified):
    net, sc, _ = load_config(CONFIG_DIR / f"{name}.json")
    cert = certify(net) if certified else None
    return simulate(net, sc, mode=mode, certificate=cert)


def percent_id_trace():
    ids = ("100%", "%s%%")
    tun = Tuning(Q=np.eye(2), gamma=20.0, theta_max=1.5, eps0=0.1)
    net = NetworkModel(subsystems=[make_sub(sid) for sid in ids], edges=[],
                       desired={sid: AM for sid in ids}, tuning={sid: tun for sid in ids})
    return simulate(net, Scenario(horizon=0.003, dt=1e-3, x0={"100%": [0.1, 0.2]}))


class TestCsvExport:
    @pytest.mark.parametrize("make", [
        lambda: demo_trace("toy_pair", "distributed", certified=True),
        lambda: demo_trace("toy_pair", "decentralized", certified=False),
        lambda: demo_trace("unstable_pair", "decentralized", certified=False),
        lambda: simulate(*mixed_net(np.random.default_rng(9), 4, with_edges=True),
                         mode="distributed"),
        percent_id_trace,
    ], ids=["toy_pair_certified", "toy_pair_no_certificate", "unstable_pair_diverged",
            "mixed_shapes", "percent_in_ids"])
    def test_bytes_match_row_by_row_writer(self, make, tmp_path):
        trace = make()
        want = io.StringIO()
        reference_export_csv(trace, want)
        got = io.StringIO()
        export_csv(trace, got)
        assert got.getvalue() == want.getvalue()
        path = tmp_path / "trace.csv"
        export_csv(trace, str(path))
        assert path.read_bytes() == want.getvalue().encode()
        assert ("network,lyapunov" in want.getvalue()) == (trace.lyapunov is not None)

    @pytest.mark.parametrize("sid", ['a,"x"', 'a"x', "a\nx", "a\r\nx", ",", '"'])
    def test_ids_are_quoted_as_rfc_4180_asks(self, sid):
        # an id holding a comma split its rows into 6 fields; a quote or a line
        # break broke the row for csv.reader too
        doc = json.loads((CONFIG_DIR / "toy_pair.json").read_text()
                         .replace('"a"', json.dumps(sid)))
        doc["scenario"]["horizon"] = 0.005
        net, sc = parse_config(doc)
        assert net.ids == [sid, "b"]
        buf = io.StringIO()
        export_csv(simulate(net, sc, certificate=certify(net)), buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue(), newline="")))
        assert {len(row) for row in rows} == {5}
        assert {row[1] for row in rows[1:]} == {sid, "b", "network"}
        assert sum(row[1] == sid for row in rows) == sum(row[1] == "b" for row in rows) > 0
        # every other id keeps its bytes
        assert "\n0,b,state,0," in buf.getvalue()
