"""Distributed stability certification via per-subsystem Riccati equations.

Each subsystem is certified independently: its incoming coupling energy is
summed, the distance from its target dynamics to instability is computed
by a level-set Hamiltonian iteration, and the margin of the distance
condition ``gamma > sqrt(N * Xi2)`` is formed once.  When it is positive
a slack is picked and the Riccati equation solved; ``solve_are`` confirms
the same condition through ``numerics.is_hyperbolic``.  The network is
certified when every subsystem passes; failures are collected, never
raised mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import GascertError, StabilityError
from .model import NetworkModel
from .numerics import distance_to_instability, solve_are, solve_lyapunov, spectral_norm

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
    is ``eps = gamma^2 / 2``.

    Raises
    ------
    StabilityError
        If the margin is not positive (no admissible slack exists).
    """
    N = int(n_neighbors)
    if N == 0:
        return 0.5 * distance * distance
    if distance - np.sqrt(N * coupling_energy) <= 0.0:
        raise StabilityError("margin is not positive: no admissible slack exists")
    return 0.5 * (distance * distance / N - coupling_energy)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    Failures are recorded per subsystem; the run never aborts early.
    """
    records = []
    for sid in sorted(net.ids):
        checked, A_m = net.checked[sid], net.desired[sid]
        N = net.neighbor_count(sid)
        xi2 = interconnection_energy(net, sid)
        gamma = distance_to_instability(checked, 1e-12 * max(1.0, spectral_norm(checked)))
        margin = gamma - np.sqrt(N * xi2)
        record = partial(SubsystemCertificate, sid=sid, n_neighbors=N,
                         coupling_energy=xi2, distance=gamma, margin=margin)
        if margin <= 0.0:
            records.append(record(epsilon=None, P=None, are_residual=None, ok=False,
                                  reason="margin is not positive"))
            continue
        eps = epsilon_margin(gamma, N, xi2)
        try:
            if N == 0:
                P = solve_lyapunov(checked, eps * np.eye(A_m.shape[0]))
                residual = float(np.linalg.norm(
                    A_m.T @ P + P @ A_m + eps * np.eye(A_m.shape[0])))
            else:
                sol = solve_are(checked, N, xi2 + eps)
                P, residual = sol.P, sol.residual_norm
        except GascertError as exc:
            records.append(record(epsilon=eps, P=None, are_residual=None, ok=False,
                                  reason=str(exc)))
            continue
        records.append(record(epsilon=eps, P=P, are_residual=residual, ok=True))
    return GasCertificate(subsystems=records,
                          certified=bool(all(c.ok for c in records)))
