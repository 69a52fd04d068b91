"""Fixed-step time-domain simulation of the coupled adaptive network.

The joint ODE (plants in uncertainty form, state predictors, estimate
dynamics) is advanced with classical RK4 at a fixed step, so a run is a
pure function of its inputs: identical inputs give bit-identical traces.
Two architectures are supported:

* ``decentralized`` - local predictors, normalized adaptation law;
* ``distributed``   - predictors exchange their states along the coupling
  graph and the projection-based law is used.

Plants are integrated as ``desired + B theta'`` (the uncertainty form),
so the scenario's true ``theta`` is the single source of plant-model
mismatch.  The reference enters each subsystem's integral rows; the
disturbance schedules are checked against the network but enter no
dynamics (the baseline loop is assumed to reject them).  Outputs are
``C_aug @ x``; feedthrough is not modelled.

One stacked kernel evaluates the right-hand side of all N subsystems,
each padded with zero blocks to the largest state dimension P and input
count M; the state is ``[xbar (N, P) | xhat (N, P) | theta_hat (N, P, M)]``
flattened.  The linear terms are (P, P) blocks over the coupling graph:
``A_m`` for each plant and predictor row and one per in-edge (predictors:
distributed mode only), summed by one gather, one stacked product and one
segment sum.  Padded table entries are zero and a zero estimate column
lies inside the projection set, so padded state entries stay exactly 0.
The forcing is tabulated per reference segment, tiled over the plant and
predictor rows.  A run pays for its RK4 steps and little else: each
subsystem's Lyapunov weight is solved once per network
(``NetworkModel.lyapunov``), and every stage writes into buffers, and
through views of them, that the kernel builds once.  A run keeps only the
state history and derives the controls, outputs, references, error norms
and Lyapunov value from it afterwards.  The scalar laws in ``control`` are
the reference the kernel is tested against.

``simulate`` is the one entry point.  Its kernel first runs
``Scenario.check``, the one check that a scenario fits its network, which
``config`` also runs when it loads a document.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .control import ERR_FLOOR
from .exceptions import ConfigError, DimensionError, GascertError, SolverError
from .model import NetworkModel
from .numerics import _rebuilt, numeric_array, numeric_scalar

__all__ = [
    "NetworkState",
    "Scenario",
    "Schedule",
    "SimTrace",
    "export_csv",
    "metrics",
    "simulate",
]

# trace values gathered per block of the CSV export (512 kB)
_CSV_BLOCK = 1 << 16
# the scenario's fields keyed by subsystem id
_PER_ID = ("references", "disturbances", "theta", "theta_hat0", "x0", "xhat0")

@dataclass(frozen=True, eq=False)
class Schedule:
    """Piecewise-constant signal: value k holds on [times[k], times[k+1]).

    ``times`` and ``values`` are read by ``numeric_array`` into read-only copies.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = numeric_array(self.times, "schedule times").flatten()
        values = np.array(numeric_array(self.values, "schedule values"), ndmin=2)
        if times.size == 0:  # tested first: values read as 2-D hold at least one row
            raise ValueError("schedule needs at least one breakpoint")
        if values.ndim > 2:
            raise DimensionError(f"schedule values must be at most 2-D, got ndim={values.ndim}")
        if values.shape[0] != times.shape[0]:
            raise DimensionError(
                f"schedule has {times.shape[0]} breakpoints but {values.shape[0]} rows"
            )
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("schedule breakpoints must be strictly increasing")
        if times[0] != 0.0:
            raise ValueError("schedules start at t = 0")
        for name, a in (("times", times), ("values", values)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def constant(cls, value):
        return cls(times=[0.0], values=[value])

    __reduce__ = _rebuilt

    def at(self, t):
        """Value at time ``t``, or one row per time of an array ``t``."""
        return self.values[np.maximum(np.searchsorted(self.times, t, side="right") - 1, 0)]


@dataclass(eq=False)
class Scenario:
    """Simulation scenario: horizon, step, input schedules, the truth ``theta`` and the
    initial ``x0``, ``xhat0``, ``theta_hat0``, each a mapping keyed by subsystem id (a
    ``GascertError`` names a field given as anything else), the last four read into
    float arrays; missing or None entries are zeros.  The horizon is a whole number
    of steps (to 1e-9 relative) of dt.  ``check`` tests the entries against a
    network."""

    horizon: float
    dt: float
    references: dict = field(default_factory=dict)
    disturbances: dict = field(default_factory=dict)
    theta: dict = field(default_factory=dict)
    x0: dict = field(default_factory=dict)
    xhat0: dict = field(default_factory=dict)
    theta_hat0: dict = field(default_factory=dict)

    def __post_init__(self):
        self.horizon = numeric_scalar(self.horizon, "horizon")
        self.dt = numeric_scalar(self.dt, "dt")
        for key in _PER_ID:
            if not isinstance(getattr(self, key), Mapping):
                raise GascertError(f"{key}: expected a mapping keyed by subsystem id")
        for key in ("theta", "theta_hat0", "x0", "xhat0"):
            setattr(self, key, {sid: None if v is None else numeric_array(v, f"{key}.{sid}")
                                for sid, v in getattr(self, key).items()})
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.horizon < 0.0:
            raise ValueError("horizon must be non-negative")
        steps = self.horizon / self.dt
        if not (np.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * max(steps, 1.0)):
            raise ValueError(f"horizon {self.horizon!r} is not a finite, whole number of "
                             f"steps of dt {self.dt!r}")

    def check(self, net: NetworkModel):
        """Check every entry against the subsystem of ``net`` that it names.

        Each key must be a subsystem id.  ``x0`` and ``xhat0`` have ``dim``
        entries, ``theta`` and ``theta_hat0`` shape ``(dim, m)``, all of them
        finite numbers (``numeric_array``), and the references and
        disturbances are ``Schedule``s ``q`` and ``r`` wide; a None entry
        counts as missing.  Errors name ``<field>.<sid>``.
        """
        for key in _PER_ID:
            for sid, value in getattr(self, key).items():
                if sid not in net.index:
                    raise GascertError(f"{key}.{sid}: unknown subsystem id")
                if value is None:
                    continue
                s = net.subsystem(sid)
                if key in ("references", "disturbances"):
                    if not isinstance(value, Schedule):
                        raise TypeError(f"{key}.{sid}: expected a Schedule")
                    got, want = value.values.shape[1], s.q if key == "references" else s.r
                    fault = f"schedule is {got} wide, expected {want}"
                elif key in ("theta", "theta_hat0"):
                    got, want = numeric_array(value, f"{key}.{sid}").shape, (s.dim, s.m)
                    fault = f"expected shape {want}, got {got}"
                else:
                    got, want = numeric_array(value, f"{key}.{sid}").size, s.dim
                    fault = f"expected {want} entries, got {got}"
                if got != want:
                    raise DimensionError(f"{key}.{sid}: {fault}")


@dataclass(eq=False)
class NetworkState:
    """Snapshot of the joint simulation state."""

    xbar: dict
    xhat: dict
    theta_hat: dict


@dataclass(eq=False)
class SimTrace:
    """Time-indexed record of one run.

    Per-subsystem arrays are keyed by id; ``lyapunov`` is the certificate
    Lyapunov value (error energy plus weighted estimate error) when a
    certificate was supplied, else None.  A diverged run is truncated
    before its first sample beyond the divergence guard and flagged, not
    discarded; it may hold no sample.
    """

    ids: list
    t: np.ndarray
    xbar: dict
    xhat: dict
    theta_hat: dict
    u_bl: dict
    u_mrac: dict
    output: dict
    reference: dict
    error_norm: dict
    lyapunov: np.ndarray | None
    diverged: bool
    diverged_at: float | None
    mode: str


class _Kernel:
    """The network padded to (N, P, M) blocks, with one stacked RHS that
    runs in buffers built with the kernel: one kernel serves one caller at
    a time."""

    def __init__(self, net: NetworkModel, scenario: Scenario, mode, certificate=None):
        if mode not in ("decentralized", "distributed"):
            raise ValueError(f"unknown mode {mode!r}")
        scenario.check(net)
        self.mode = mode
        self.ids = list(net.ids)
        subs = [net.subsystem(sid) for sid in self.ids]
        self.dims, self.ms, self.qs = ([getattr(s, a) for s in subs] for a in ("dim", "m", "q"))
        self.shape = N, P, M = len(subs), max(self.dims), max(self.ms)
        Q = max(self.qs)
        self.Pc = np.zeros((N, P, P))
        self.B, self.theta = np.zeros((N, P, M)), np.zeros((N, P, M))
        self.K, self.C = np.zeros((N, M, P)), np.zeros((N, 2 * Q, P))
        tunings = [net.tuning[sid] for sid in self.ids]
        self.gamma, tmax, eps0 = (np.array([getattr(tn, a) for tn in tunings], dtype=float)
                                  for a in ("gamma", "theta_max", "eps0"))
        refs = []
        for k, (sid, s, tn) in enumerate(zip(self.ids, subs, tunings)):
            p, m = s.dim, s.m
            if mode == "distributed" and not tn.theta_max > 0.0:
                raise ConfigError(f"subsystem {sid}: tuning.theta_max must be positive for "
                                  f"the distributed projection law, got {tn.theta_max!r}")
            th = scenario.theta.get(sid)
            if th is not None:
                self.theta[k, :p, :m] = th
            try:
                Pk = None if certificate is None else certificate.P(sid)
            except KeyError:
                raise GascertError(f"certificate has no record of subsystem {sid}") from None
            self.Pc[k, :p, :p] = net.lyapunov(sid) if Pk is None else Pk
            self.B[k, :p, :m] = s.B
            self.K[k, :m, :p], self.C[k, :2 * s.q, :p] = net.baseline[sid], s.C
            refs.append(scenario.references.get(sid) or Schedule.constant(np.zeros(s.q)))
        # -gamma folded into P B for the projection law (positively homogeneous,
        # so gamma > 0 commutes with it), -gamma / 2 for the normalized law
        gain = -self.gamma if mode == "distributed" else -0.5 * self.gamma
        self.PB = gain[:, None, None] * (self.Pc @ self.B)
        if mode == "distributed":
            # g(theta) = ((eps0 + 1) |theta|^2 - theta_max^2) / (eps0 theta_max^2)
            self.g_scale = ((eps0 + 1.0) / (eps0 * tmax ** 2))[:, None]
            self.g_shift = (1.0 / eps0)[:, None]
        # (source row, block) terms of the 2N rows, plants then predictors: the
        # row's A_m, then one per in-edge (predictor rows only when distributed)
        rows = [[(r, net.desired[sid])] for r, sid in enumerate(self.ids * 2)]
        for e in net.edges:
            if e.A is None:
                raise ConfigError(f"edge {e.src}->{e.dst}: bound_only edge has no "
                                  "coupling matrix A to simulate")
            for h in (0, N) if mode == "distributed" else (0,):
                rows[h + net.index[e.dst]].append((h + net.index[e.src], e.A))
        terms = [term for row in rows for term in row]
        self.W = np.zeros((len(terms), P, P))
        for w, (_, A) in zip(self.W, terms):
            w[:A.shape[0], :A.shape[1]] = A
        # flat index into z of each block's source state; first term of each row
        self.gather = (np.array([r for r, _ in terms])[:, None] * P + np.arange(P))[:, :, None]
        self.starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
        # one forcing row (the reference in the integral rows) and reference
        # row per segment of the merged references, tiled over the plant and
        # predictor rows
        self.breaks = np.unique(np.concatenate([s.times for s in refs]))
        self.tiled = np.zeros((self.breaks.size, 2, N, P))
        self.forcing = self.tiled[:, 0]
        self.reference = np.zeros((self.breaks.size, N, Q))
        for k, s in enumerate(subs):
            self.reference[:, k, :s.q] = refs[k].at(self.breaks)
            self.forcing[:, k, s.n:s.dim] = self.reference[:, k, :s.q]
        self.tiled[:, 1] = self.forcing
        self.n1, self.n2 = N * P, 2 * N * P
        self.size = N * P * (2 + M)
        # a stage reads the state in _z and writes its rate into _k, through
        # views made here; _acc sums the RK4 stages
        self._z, self._k, self._acc = np.empty(self.size), np.empty(self.size), np.empty(self.size)
        self._x, self._xh = self._z[:self.n2].reshape(2, N, 1, P)      # row vectors
        self._th = self._z[self.n2:].reshape(N, P, M)
        self._lin = self._k[:self.n2].reshape(2 * N, P, 1)
        self._forced = self._k[:self.n2].reshape(2, N, P)
        self._plant = self._lin[:N]
        self._rate = self._k[self.n2:].reshape(N, P, M)
        self._Wz = np.empty((len(terms), P, 1))
        self._dth, self._xdth = np.empty((N, P, M)), np.empty((N, 1, M))
        self._Bu, self._err, self._ePB = np.empty((N, P, 1)), np.empty((N, 1, P)), np.empty((N, 1, M))
        if mode == "distributed":
            self._tt = np.empty((N, M))
        else:
            self._eP, self._w, self._s = np.empty((N, 1, P)), np.empty((N, 1, 1)), np.empty((N, 1, 1))
            self._above, self._xs = np.empty((N, 1, 1), dtype=bool), np.empty((N, P, 1))

    def segment(self, t):
        """Forcing-table row of time(s) ``t`` (``Schedule.at`` semantics)."""
        return np.maximum(np.searchsorted(self.breaks, t, side="right") - 1, 0)

    def views(self, z):
        """``(xbar, xhat, theta_hat)`` views of state(s) ``z (..., size)``."""
        lead, (N, P, M) = z.shape[:-1], self.shape
        return (z[..., :self.n1].reshape(lead + (N, P)),
                z[..., self.n1:self.n2].reshape(lead + (N, P)),
                z[..., self.n2:].reshape(lead + (N, P, M)))

    def split(self, a, *widths):
        """Per-subsystem slices of ``a (..., N, ...)``, cut to the given widths."""
        return {sid: a[(Ellipsis, k) + tuple(slice(w[k]) for w in widths)]
                for k, sid in enumerate(self.ids)}

    def unpack(self, z):
        """The state ``z`` as per-subsystem views."""
        X, XH, TH = self.views(z)
        return NetworkState(xbar=self.split(X, self.dims), xhat=self.split(XH, self.dims),
                            theta_hat=self.split(TH, self.dims, self.ms))

    def pack(self, state: NetworkState):
        """State vector of ``state``; missing entries are zero."""
        z = np.zeros(self.size)
        slots = self.unpack(z)
        for name in ("xbar", "xhat", "theta_hat"):
            for sid, slot in getattr(slots, name).items():
                value = getattr(state, name).get(sid)
                if value is not None:
                    slot[...] = np.reshape(value, slot.shape)
        return z

    def _project(self, th, y):
        # control.project per column, in place: grad(g) is parallel to theta,
        # so the outward case removes theta (theta'y) g / |theta|^2 from y
        tt = np.einsum("npm,npm->nm", th, th, out=self._tt)
        g = self.g_scale * tt - self.g_shift
        if not g.max() >= 0.0:
            return
        ty = np.einsum("npm,npm->nm", th, y)
        active = (g >= 0.0) & (ty > 0.0)
        if np.any(active & (tt == 0.0)):
            raise SolverError("projection hit g >= 0 with zero gradient (theta == 0)")
        scale = np.where(active, g * ty / np.where(active, tt, 1.0), 0.0)
        np.subtract(y, th * scale[:, None, :], out=y, where=active[:, None, :])

    def _stage(self, force):
        """Rate at the state in ``_z``, written into ``_k`` and returned.

        ``force`` is a forcing row (N, P), or a row of ``tiled`` (2, N, P).
        """
        np.matmul(self.W, self._z[self.gather], out=self._Wz)
        np.add.reduceat(self._Wz, self.starts, out=self._lin)
        np.add(self._forced, force, out=self._forced)
        x, xh, th = self._x, self._xh, self._th
        # B (u + theta' x) under u = -theta_hat' x; it vanishes in the predictor
        xdth = np.matmul(x, np.subtract(self.theta, th, out=self._dth), out=self._xdth)
        np.add(self._plant, np.matmul(self.B, xdth.transpose(0, 2, 1), out=self._Bu),
               out=self._plant)
        # one difference before any product: xhat ~ xbar would cancel
        err = np.subtract(xh, x, out=self._err)
        ePB = np.matmul(err, self.PB, out=self._ePB)
        if self.mode == "distributed":
            np.multiply(x.transpose(0, 2, 1), ePB, out=self._rate)
            self._project(th, self._rate)
        else:
            w = np.matmul(np.matmul(err, self.Pc, out=self._eP), err.transpose(0, 2, 1),
                          out=self._w)
            # scale = (w > floor^2) / sqrt(max(w, floor^2))
            s = np.sqrt(np.maximum(w, ERR_FLOOR ** 2, out=self._s), out=self._s)
            np.divide(np.greater(w, ERR_FLOOR ** 2, out=self._above), s, out=s)
            np.multiply(np.multiply(xh.transpose(0, 2, 1), s, out=self._xs), ePB,
                        out=self._rate)
        return self._k

    def rhs(self, z, force):
        """Joint rate at state ``z`` as a new array; ``force`` as in ``_stage``."""
        self._z[:] = z
        return self._stage(force).copy()

    def rk4(self, z, dt, seg, out=None):
        """One step from ``z`` into ``out`` (a new array by default); ``seg``
        holds the forcing rows at t, t + dt/2 and t + dt.

        The stages run in the kernel's buffers; the weighted sum
        ``z + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` is formed left to right.
        """
        f1, f2, f4 = self.tiled[seg]
        zs, k, acc = self._z, self._k, self._acc
        zs[:] = z
        np.copyto(acc, self._stage(f1))
        np.add(z, np.multiply(k, 0.5 * dt, out=zs), out=zs)
        self._stage(f2)
        np.add(z, np.multiply(k, 0.5 * dt, out=zs), out=zs)
        np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
        self._stage(f2)
        np.add(z, np.multiply(k, dt, out=zs), out=zs)
        np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
        np.add(acc, self._stage(f4), out=acc)
        return np.add(z, np.multiply(acc, dt / 6.0, out=acc), out=out)

    def trace(self, Z, t, with_lyapunov, diverged_at):
        """Derive every recorded series from the state history ``Z``."""
        X, XH, TH = self.views(Z)
        err = XH - X
        lyap = None
        if with_lyapunov:
            dth = TH - self.theta
            lyap = (np.einsum("tnp,npq,tnq->t", err, self.Pc, err)
                    + np.einsum("tnpm,tnpm,n->t", dth, dth, 1.0 / self.gamma))
        split = self.split
        return SimTrace(
            ids=list(self.ids), t=t,
            xbar=split(X, self.dims), xhat=split(XH, self.dims),
            theta_hat=split(TH, self.dims, self.ms),
            u_bl=split(-np.einsum("nmp,tnp->tnm", self.K, X), self.ms),
            u_mrac=split(-np.einsum("tnpm,tnp->tnm", TH, X), self.ms),
            output=split(np.einsum("nqp,tnp->tnq", self.C, X), [2 * q for q in self.qs]),
            reference=split(self.reference[self.segment(t)], self.qs),
            error_norm=split(np.linalg.norm(err, axis=-1)),
            lyapunov=lyap, diverged=diverged_at is not None,
            diverged_at=diverged_at, mode=self.mode,
        )


def simulate(net, scenario: Scenario, mode="distributed",
             certificate=None) -> SimTrace:
    """Run the scenario over its horizon and record the full trace.

    The Lyapunov series is recorded when a certificate is supplied (its
    per-subsystem weights are used both by the distributed adaptation law
    and by the diagnostic); it must hold a record of every subsystem, else
    a ``GascertError`` names the first one missing.  Divergence (a state
    entry beyond 1e150, the initial state's included) truncates the trace
    before that sample and sets the flag; it is not an exception.  A start
    beyond it records no sample and is diverged at t = 0.
    """
    kern = _Kernel(net, scenario, mode, certificate)
    n_steps, dt = int(round(scenario.horizon / scenario.dt)), scenario.dt
    try:
        Z = np.empty((n_steps + 1, kern.size))
    except (ValueError, MemoryError):
        raise GascertError(f"scenario needs {n_steps:.6g} steps of dt {dt!r}: the state "
                           "history cannot be allocated") from None
    t_grid = np.arange(n_steps + 1) * dt
    t0 = t_grid[:-1]
    stages = kern.segment(np.stack([t0, t0 + 0.5 * dt, t0 + dt], axis=1))
    Z[0] = kern.pack(NetworkState(scenario.x0, scenario.xhat0, scenario.theta_hat0))
    last, diverged_at = n_steps, None
    # states beyond 1e150, the initial state included, count as divergent:
    # the derived quadratics (Lyapunov value, control signals) would overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            if not np.abs(Z[i]).max() < 1e150:
                last, diverged_at = i - 1, float(t_grid[i])
                break
            if i < n_steps:
                kern.rk4(Z[i], dt, stages[i], out=Z[i + 1])
    return kern.trace(Z[:last + 1], t_grid[:last + 1], certificate is not None, diverged_at)


def metrics(trace: SimTrace):
    """Summary figures of a trace.

    Per subsystem: peak prediction-error norm, settling time of the
    tracked outputs into a 2 percent band, and final tracking error.
    Global: final Lyapunov value and the largest increase between
    consecutive samples (both None without a certificate), plus the
    divergence marker.
    """
    per = {}
    for sid in trace.ids:
        q = trace.reference[sid].shape[1]
        entry = {"max_error_norm": float(np.max(trace.error_norm[sid]))
                 if trace.error_norm[sid].size else 0.0}
        if q == 0 or trace.t.size == 0:
            entry["settling_time"] = 0.0
            entry["steady_state_error"] = 0.0
        else:
            y = trace.output[sid][:, :q]
            r = trace.reference[sid]
            err = np.max(np.abs(y - r), axis=1)
            r_final = r[-1]
            scale = max(float(np.max(np.abs(r_final))),
                        float(np.max(np.abs(y - r_final[None, :]))))
            if scale == 0.0:
                entry["settling_time"] = 0.0
            else:
                band = 0.02 * scale
                above = np.nonzero(err > band)[0]
                if above.size == 0:
                    entry["settling_time"] = 0.0
                elif above[-1] + 1 >= trace.t.size:
                    entry["settling_time"] = None
                else:
                    entry["settling_time"] = float(trace.t[above[-1] + 1])
            entry["steady_state_error"] = float(np.max(np.abs(y[-1] - r[-1])))
        per[sid] = entry
    out = {"per_subsystem": per, "diverged": trace.diverged}
    if trace.lyapunov is not None and trace.lyapunov.size:
        out["final_lyapunov"] = float(trace.lyapunov[-1])
        dv = np.diff(trace.lyapunov)
        out["max_lyapunov_increase"] = float(np.max(dv)) if dv.size else 0.0
    else:
        out["final_lyapunov"] = None
        out["max_lyapunov_increase"] = None
    return out


def export_csv(trace: SimTrace, stream):
    """Write the trace in long form: ``time,subsystem,series,index,value``.

    One row per sample element, floats rendered with 17 significant
    digits; row order is fixed (time, then subsystem in model order, then
    series, then element index), so identical traces serialize to
    identical bytes.  Each time sample is one ``%`` format of a template
    built once, written in one call.
    """
    series, rows = [], [""]
    for sid in trace.ids:
        for name, data in (("state", trace.xbar), ("predictor", trace.xhat),
                           ("estimate", trace.theta_hat), ("u_bl", trace.u_bl),
                           ("u_mrac", trace.u_mrac), ("output", trace.output),
                           ("reference", trace.reference), ("error_norm", trace.error_norm)):
            series.append(data[sid])
            rows += [f",{sid},{name},{j},".replace("%", "%%") + "%.17g\n"
                     for j in range(int(np.prod(data[sid].shape[1:])))]
    if trace.lyapunov is not None:
        series.append(trace.lyapunov)
        rows.append(",network,lyapunov,0,%.17g\n")
    own = isinstance(stream, (str, os.PathLike))
    fh = open(stream, "w", newline="") if own else stream
    try:
        fh.write("time,subsystem,series,index,value\n")
        step = max(1, _CSV_BLOCK // len(rows))
        for lo in range(0, trace.t.size, step):
            t = trace.t[lo:lo + step]
            block = np.concatenate([a[lo:lo + t.size].reshape(t.size, -1) for a in series], axis=1)
            for ts, values in zip(t.tolist(), block):
                fh.write(f"{ts:.17g}".join(rows) % tuple(values.tolist()))
    finally:
        if own:
            fh.close()
