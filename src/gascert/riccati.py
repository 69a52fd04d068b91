"""Distributed stability certification via per-subsystem Riccati equations.

Each subsystem is certified independently: its incoming coupling energy is
summed, the distance from its target dynamics to instability is computed
by a level-set Hamiltonian iteration, and the margin of the distance
condition ``gamma > sqrt(N * Xi2)`` is formed once.  When it is positive
a slack is picked and the Riccati equation solved; the Riccati solve
confirms the same condition through the crossing test of
``numerics.is_hyperbolic``.  For a decoupled subsystem (N = 0) that
equation is the Lyapunov equation ``A'P + PA + eps I = 0``, solved the
same way: there is no Lyapunov branch.  The kernels run on stacks that
``numerics._per_shape`` forms, one per subsystem size, and each
subsystem gets the numbers it gets alone.  The network is certified when
every subsystem passes; failures are collected, never raised mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GascertError, StabilityError
from .model import NetworkModel, _edge_table
from .numerics import AreSolution, _peak_gains, _per_shape, _solve_ares, numeric_scalar

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
    declared bound of a bound-only edge.  Only the in-edges of ``sid`` are
    read, in edge order, so the sum is bit for bit the ``coupling_energy``
    that ``certify`` records from the whole edge table.
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
    is ``eps = gamma^2 / 2``.  ``N`` is a non-negative number, not only a count;
    the distance and the coupling energy are non-negative numbers.

    Raises
    ------
    ValueError
        If ``N``, the distance or the coupling energy is negative.
    StabilityError
        If the margin is not positive (no admissible slack exists).
    """
    N = numeric_scalar(n_neighbors, "N")
    if N < 0.0:
        raise ValueError("N must be a non-negative count")
    distance = numeric_scalar(distance, "distance")
    coupling_energy = numeric_scalar(coupling_energy, "coupling_energy")
    if distance < 0.0 or coupling_energy < 0.0:
        raise ValueError("distance and coupling_energy must be non-negative")
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
    coupling_energy: float | None
    distance: float
    margin: float | None
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

    For each subsystem: coupling energy, distance to instability (at the
    accuracy ``numerics._peak_gains`` sets, which scales with the matrix),
    margin, and on a positive margin the slack pick and the Riccati solve.
    One flat pass: N and Xi2 of every subsystem from the edge table, the
    distances of all of them (one ``_per_shape`` call of
    ``numerics._peak_gains``), the margin and slack of each id, then one
    ``_per_shape`` call of ``numerics._solve_ares`` for the subsystems with
    a positive margin, a decoupled one too.  A coupling energy that
    overflows (Xi2 or N Xi2 beyond the float range) leaves its subsystem
    uncertified, with None for each of ``coupling_energy`` and ``margin``
    that is not finite; a slack that overflows (gamma^2 beyond the float
    range) does so with no ``epsilon``.  Failures are recorded per
    subsystem; the run never aborts early.  An error that is not a
    verdict (one of the distance, or one of the Riccati solve that is not
    a ``GascertError``) is raised for the first such subsystem in id order.
    """
    ids = sorted(net.ids)
    # N and Xi2 from the edge table: the weighted bincount sums each id's
    # squared gains in edge order, bit for bit interconnection_energy
    _, dst, gain = _edge_table(net)
    n = len(net.subsystems)
    N = dict(zip(net.ids, np.bincount(dst, minlength=n).tolist()))
    with np.errstate(over="ignore"):  # a gain beyond 1.3e154: its Xi2 is inf, a verdict
        xi2 = dict(zip(net.ids, np.bincount(dst, gain * gain, minlength=n).astype(float).tolist()))
    recs = [net.checked[sid] for sid in ids]
    gamma = dict(zip(ids, _per_shape(_peak_gains, recs)))
    margin, eps, verdict = {}, {}, {}
    for sid in ids:
        if isinstance(gamma[sid], Exception):
            continue
        margin[sid] = gamma[sid] - np.sqrt(N[sid] * xi2[sid])
        if margin[sid] == -np.inf:
            verdict[sid] = "coupling energy overflows: N * Xi2 is beyond the float range"
        elif not margin[sid] > 0.0:
            verdict[sid] = "margin is not positive"
        elif (slack := epsilon_margin(gamma[sid], N[sid], xi2[sid])) == np.inf:
            verdict[sid] = "slack epsilon overflows: gamma^2 is beyond the float range"
        else:
            eps[sid] = slack
    verdict.update(zip(eps, _per_shape(_solve_ares, [net.checked[sid] for sid in eps],
                                       [N[sid] for sid in eps],
                                       [xi2[sid] + eps[sid] for sid in eps])))
    records = []
    for sid in ids:
        if isinstance(gamma[sid], Exception):
            raise gamma[sid]
        sol = verdict[sid]
        ok = isinstance(sol, AreSolution)
        if not (ok or isinstance(sol, (str, GascertError))):
            raise sol
        records.append(SubsystemCertificate(
            sid=sid, n_neighbors=N[sid], distance=gamma[sid], epsilon=eps.get(sid),
            coupling_energy=xi2[sid] if xi2[sid] < np.inf else None,
            margin=margin[sid] if margin[sid] > -np.inf else None, P=sol.P if ok else None,
            are_residual=sol.residual_norm if ok else None, ok=ok,
            reason=None if ok else str(sol)))
    return GasCertificate(subsystems=records,
                          certified=bool(all(c.ok for c in records)))
