"""Distributed stability certification via per-subsystem Riccati equations.

Each subsystem is certified independently: its incoming coupling energy is
summed, the distance from its target dynamics to instability is computed
by a level-set Hamiltonian iteration, and the margin of the distance
condition ``gamma > sqrt(N * Xi2)`` is formed once.  When it is positive
a slack is picked and the Riccati equation solved; the Riccati solve
confirms the same condition through the crossing test of
``numerics.is_hyperbolic``.  For a decoupled subsystem (N = 0) that
equation is the Lyapunov equation ``A'P + PA + eps I = 0``, solved the
same way: there is no Lyapunov branch.  The subsystems of one size are
certified together, one stacked kernel call per step, with the numbers
each gets alone.  The network is certified when every subsystem passes;
failures are collected, never raised mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import GascertError, StabilityError
from .model import NetworkModel
from .numerics import AreSolution, _distances, _solve_ares, numeric_scalar

__all__ = [
    "GasCertificate",
    "SubsystemCertificate",
    "certify",
    "epsilon_margin",
    "interconnection_energy",
]


def interconnection_energy(net: NetworkModel, sid):
    """Total incoming coupling energy: sum of squared edge gains.

    Each incoming edge contributes the square of its gain: the spectral
    norm of its matrix (the largest singular value of ``A_ij``), or the
    declared bound of a bound-only edge.
    """
    if sid not in net.index:
        raise ValueError(f"unknown subsystem id {sid!r}")
    total = 0.0
    for e in net.in_edges(sid):
        gain = e.gain()
        total += gain * gain
    return total


def epsilon_margin(distance, n_neighbors, coupling_energy):
    """Slack added to the coupling energy in the Riccati equation.

    Half the available gap: ``eps = (gamma^2 / N - Xi2) / 2`` for the
    distance ``gamma``, which keeps the augmented Hamiltonian hyperbolic
    whenever the margin is positive (then ``N (Xi2 + eps) < gamma^2``).  A
    decoupled subsystem (N = 0) has no gap to split; the convention there
    is ``eps = gamma^2 / 2``.  ``N`` is a non-negative number, not only a count.

    Raises
    ------
    ValueError
        If ``N`` is negative.
    StabilityError
        If the margin is not positive (no admissible slack exists).
    """
    N = numeric_scalar(n_neighbors, "N")
    if N < 0.0:
        raise ValueError("N must be a non-negative count")
    if N == 0:
        return 0.5 * distance * distance
    if distance - np.sqrt(N * coupling_energy) <= 0.0:
        raise StabilityError("margin is not positive: no admissible slack exists")
    return 0.5 * (distance * distance / N - coupling_energy)


@dataclass(frozen=True, eq=False)
class SubsystemCertificate:
    """Per-subsystem certification record."""

    sid: str
    n_neighbors: int
    coupling_energy: float
    distance: float
    margin: float
    epsilon: float | None
    P: np.ndarray | None
    are_residual: float | None
    ok: bool
    reason: str | None = None


@dataclass(frozen=True, eq=False)
class GasCertificate:
    """Network-wide verdict with per-subsystem records (sorted by id).

    ``subsystems`` is stored as a tuple and indexed by id at construction;
    on a repeated id the first record is the one found.
    """

    subsystems: tuple
    certified: bool

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        object.__setattr__(self, "_by_sid",
                           {c.sid: c for c in reversed(self.subsystems)})

    @property
    def failing(self):
        return [c.sid for c in self.subsystems if not c.ok]

    def record(self, sid) -> SubsystemCertificate:
        return self._by_sid[sid]

    def P(self, sid):
        return self.record(sid).P


def certify(net: NetworkModel) -> GasCertificate:
    """Certify the network subsystem by subsystem.

    For each subsystem: coupling energy, distance to instability (absolute
    accuracy ``1e-12 * max(1, ||A_m||_2)``, so it scales with the matrix),
    margin, and on a positive margin the slack pick and the Riccati solve.
    The norms, distances and Riccati solves of the subsystems of one size
    run as stacks (``numerics._distances``, ``numerics._solve_ares``), a
    decoupled subsystem's Riccati solve too.  Failures are recorded per
    subsystem; the run never aborts early.  An error that is not a verdict
    (one of the distance, or one of the Riccati solve that is not a
    ``GascertError``) is raised for the first such subsystem in id order.
    """
    ids = sorted(net.ids)
    N = {sid: net.neighbor_count(sid) for sid in ids}
    xi2 = {sid: interconnection_energy(net, sid) for sid in ids}
    by_size = {}
    for sid in ids:
        by_size.setdefault(net.desired[sid].shape[0], []).append(sid)
    gamma, margin, eps, solved = {}, {}, {}, {}
    for group in by_size.values():
        recs = [net.checked[sid] for sid in group]
        # bit for bit spectral_norm of each record
        norms = np.linalg.svd(np.array([r.A for r in recs]), compute_uv=False)[:, 0]
        gamma.update(zip(group, _distances(recs, 1e-12 * np.maximum(1.0, norms))))
        for sid in group:
            if not isinstance(gamma[sid], Exception):
                margin[sid] = gamma[sid] - np.sqrt(N[sid] * xi2[sid])
                if margin[sid] > 0.0:
                    eps[sid] = epsilon_margin(gamma[sid], N[sid], xi2[sid])
        stack = [sid for sid in group if sid in eps]  # a margin <= 0 never enters it
        if stack:
            solved.update(zip(stack, _solve_ares([net.checked[sid] for sid in stack],
                                                 [N[sid] for sid in stack],
                                                 [xi2[sid] + eps[sid] for sid in stack])))
    records = []
    for sid in ids:
        if isinstance(gamma[sid], Exception):
            raise gamma[sid]
        record = partial(SubsystemCertificate, sid=sid, n_neighbors=N[sid],
                         coupling_energy=xi2[sid], distance=gamma[sid], margin=margin[sid])
        sol = solved.get(sid)
        if isinstance(sol, AreSolution):
            records.append(record(epsilon=eps[sid], P=sol.P, are_residual=sol.residual_norm,
                                  ok=True))
        elif sol is None or isinstance(sol, GascertError):
            records.append(record(epsilon=eps.get(sid), P=None, are_residual=None, ok=False,
                                  reason="margin is not positive" if sol is None else str(sol)))
        else:
            raise sol
    return GasCertificate(subsystems=records,
                          certified=bool(all(c.ok for c in records)))
