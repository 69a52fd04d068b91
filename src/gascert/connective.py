"""Aggregate (connective) stability analysis.

Per-subsystem Lyapunov data is condensed into a comparison system: a
Metzler matrix ``M`` of decay/coupling rates plus an offset vector from
adaptation.  Diagonal dominance of ``M`` and the norm-vs-offset condition
are sufficient for global asymptotic stability of the interconnected
closed loop.  ``analyze`` is the one door to that test: it builds ``M``
and the offsets from the network's own Lyapunov weights and reads no
caller's arrays.  A small-gain diagnostic for coupled pairs lives here
too, since its failure is what motivates the Riccati route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkModel, _edge_table
from .numerics import _peak_gains, _per_shape, eigenvalues

__all__ = [
    "ConnectiveReport",
    "SmallGainResult",
    "analyze",
    "small_gain_check",
]


def _lam_extremes(S):
    """``(lam_min, lam_max)`` of the symmetric ``S``, of which ``eigvalsh``
    reads the lower triangle only; of each member, as the rows of a
    ``(k, 2)`` array, for a stack ``S``."""
    return np.linalg.eigvalsh(S)[..., [0, -1]]


def _extremes(net: NetworkModel, P: dict):
    """``lam_min`` and ``lam_max`` of each ``P_i`` and ``lam_min`` of each
    ``Q_i``: three arrays in ``net.ids`` order.

    ``lam_min(Q_i)`` is the tuning's ``lam_min_Q``, solved when the tuning
    was built.  One symmetric eigensolve per ``P``, shared by the comparison
    matrix and the offsets, run as one stack per size by ``_per_shape``,
    each member's numbers those ``_lam_extremes`` gives it.  Each ``P[sid]``
    is the network's own weight, which ``numerics._lyapunovs`` has made
    exactly symmetric and found positive definite.
    """
    lmin_P, lmax_P = np.array(_per_shape(lambda _, S: _lam_extremes(S),
                                         [net.checked[sid] for sid in net.ids],
                                         [P[sid] for sid in net.ids])).T
    return lmin_P, lmax_P, np.array([net.tuning[sid].lam_min_Q for sid in net.ids])


def _comparison_matrix(lmin_P, lmax_P, lmin_Q, src, dst, gain):
    M = np.diag(-lmin_Q / (2.0 * lmax_P))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the conditions
        M[dst, src] = lmax_P[dst] / (np.sqrt(lmin_P[dst]) * np.sqrt(lmin_P[src])) * gain
    return M


def _adaptation_offsets(net, lmin_P, lmax_P, lmin_Q, src, dst, gain):
    # one edge at a time, in edge order, so each offset rounds as the per-edge sum did
    gamma, tmax = np.array([(t.gamma, t.theta_max) for t in map(net.tuning.get, net.ids)]).T
    term = lmin_Q / (2.0 * gamma * lmax_P)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the conditions
        np.subtract.at(term, src, lmax_P[src] * gain
                       / (gamma[dst] * np.sqrt(lmin_P[src]) * np.sqrt(lmin_P[dst])))
        return tmax * term


def _dominance_rows(M):
    """Row-wise verdicts of ``|M[i][i]| > sum_j!=i M[i][j]`` (strict) of a
    built ``M``: a row with an entry that is not finite fails."""
    off = M - np.diag(np.diag(M))
    return np.abs(np.diag(M)) > np.sum(off, axis=1)


def _conditions(M, offsets):
    """``(rows, cond_diag, cond_norm, M_stable)`` of built arrays: M's
    dominance rows and their conjunction, the induced 1-norm of ``M``
    exceeding the largest offset magnitude, and every eigenvalue of ``M`` in
    the open left half-plane.  An entry of ``M`` or an offset that
    overflowed (not finite) fails each condition that reads it."""
    rows = _dominance_rows(M)
    cond_diag = bool(np.all(rows))
    finite = bool(np.isfinite(M).all())
    norm1 = float(np.max(np.sum(np.abs(M), axis=0)))
    cond_norm = bool(finite and norm1 > np.max(np.abs(offsets)))
    M_stable = bool(finite and np.max(eigenvalues(M).real) < 0.0)
    return rows, cond_diag, cond_norm, M_stable


@dataclass(frozen=True)
class SmallGainResult:
    """Loop-gain verdict of one coupled pair ``(i, j)``, ids in sorted order.
    A product beyond the float range is None, and the pair fails."""

    pair: tuple
    hinf_product: float | None
    raw_gain_product: float | None
    passed: bool


def _path_gains(net: NetworkModel):
    """Peak gain of each edge's coupling path, a list in ``net.edges`` order.

    The path runs through the source's target dynamics: ``hinf_gain(A_ij,
    A_m)`` for an edge with a matrix, and for a bound-only edge the
    submultiplicative bound ``norm_bound * hinf_gain(I, A_m)``.  One
    ``_per_shape`` call runs the level-set iteration over the sources'
    records with each edge's block (the matrix, or I of the source's size)
    as its output matrix: one stack per block shape, each member's gain the
    one ``hinf_gain`` gives it alone; the desired matrices are Hurwitz by
    construction.  An error is raised as the first edge, in edge order,
    meets it.
    """
    recs = [net.checked[e.src] for e in net.edges]
    Ms = [np.eye(r.A.shape[0]) if e.A is None else e.A for e, r in zip(net.edges, recs)]
    peaks = _per_shape(_peak_gains, recs, Ms)
    for peak in peaks:
        if isinstance(peak, Exception):
            raise peak
    return [g if e.A is not None else e.norm_bound * g for e, (g, _) in zip(net.edges, peaks)]


def small_gain_check(net: NetworkModel):
    """Loop-gain product test for every coupled pair of the network.

    Pairs ``(i, j)`` with ``i < j`` in sorted id order and at least one
    edge between them, in that order.  ``hinf_product`` multiplies the
    peak frequency-response gains of the paths j -> i and i -> j (0 for a
    missing direction); ``raw_gain_product`` is the product of the plain
    edge gains (the quick desk check).  A product with a zero factor is 0,
    and one beyond the float range is None.  A pair passes iff its
    ``hinf_product`` is < 1.
    """
    gains = _edge_table(net)[2].tolist()
    paths = {(e.src, e.dst): (h, g) for e, h, g in zip(net.edges, _path_gains(net), gains)}
    results = []
    for i, j in sorted({tuple(sorted(pair)) for pair in paths}):
        (h1, r1), (h2, r2) = (paths.get(key, (0.0, 0.0)) for key in ((j, i), (i, j)))
        h, r = (a * b if a and b else 0.0 for a, b in ((h1, h2), (r1, r2)))
        results.append(SmallGainResult(pair=(i, j), hinf_product=h if h < math.inf else None,
                                       raw_gain_product=r if r < math.inf else None,
                                       passed=h < 1.0))
    return results


@dataclass(eq=False)
class ConnectiveReport:
    """Everything the aggregate test produced, per subsystem and global.
    An entry of ``M`` or ``offsets`` that overflowed is not finite, and
    fails each condition that reads it."""

    ids: list
    P: dict
    lambda_min_P: dict
    lambda_max_P: dict
    lambda_min_Q: dict
    alpha: dict
    M: np.ndarray
    offsets: np.ndarray
    cond_diag_rows: np.ndarray
    cond_diag: bool
    cond_norm: bool
    M_stable: bool
    passed: bool


def analyze(net: NetworkModel) -> ConnectiveReport:
    """Run the full aggregate pipeline on a network: the one door to the
    aggregate test.

    Reads each subsystem's Lyapunov weight (``net.lyapunov``, solved once
    per network), then assembles the comparison matrix, the offset vector,
    and the verdicts.  The comparison matrix is Metzler with a negative
    diagonal::

        M[i][i] = -lam_min(Q_i) / (2 lam_max(P_i))
        M[i][j] = lam_max(P_i) ||A_ij|| / sqrt(lam_min(P_i) lam_min(P_j))

    for each edge j -> i, zero elsewhere.  The offset of subsystem i, with
    ``theta_max`` and ``Gamma`` its tuning's values, is::

        Phi_i = theta_max_i * ( lam_min(Q_i) / (2 Gamma_i lam_max(P_i))
                - sum over out-edges i->j of
                  lam_max(P_i) ||A_ji|| / (Gamma_j sqrt(lam_min(P_i) lam_min(P_j))) )

    so large adaptive gains make every offset arbitrarily small.  An entry
    beyond the float range is not finite and fails the conditions.
    """
    P = {sid: net.lyapunov(sid) for sid in net.ids}
    lmin_P, lmax_P, lmin_Q = ext = _extremes(net, P)
    edges = _edge_table(net)
    M = _comparison_matrix(*ext, *edges)
    offsets = _adaptation_offsets(net, *ext, *edges)
    rows, cond_diag, cond_norm, M_stable = _conditions(M, offsets)
    ids = list(net.ids)
    return ConnectiveReport(
        ids=ids,
        P=P,
        lambda_min_P=dict(zip(ids, lmin_P.tolist())),
        lambda_max_P=dict(zip(ids, lmax_P.tolist())),
        lambda_min_Q=dict(zip(ids, lmin_Q.tolist())),
        alpha=dict(zip(ids, (lmin_Q / lmax_P).tolist())),
        M=M,
        offsets=offsets,
        cond_diag_rows=rows,
        cond_diag=cond_diag,
        cond_norm=cond_norm,
        M_stable=M_stable,
        passed=bool(cond_diag and cond_norm and M_stable),
    )
