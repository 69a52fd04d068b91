"""Aggregate (connective) stability analysis.

Per-subsystem Lyapunov data is condensed into a comparison system: a
Metzler matrix ``M`` of decay/coupling rates plus an offset vector from
adaptation.  Diagonal dominance of ``M`` and the norm-vs-offset condition
are sufficient for global asymptotic stability of the interconnected
closed loop.  A small-gain diagnostic for coupled pairs lives here too,
since its failure is what motivates the Riccati route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .model import NetworkModel, _edge_table
from .numerics import (_peak_gains, _per_shape, as_matrix, eigenvalues, numeric_array,
                       numeric_scalar)

__all__ = [
    "ConnectiveReport",
    "SmallGainResult",
    "adaptation_offsets",
    "analyze",
    "check_conditions",
    "comparison_matrix",
    "homogeneous_condition",
    "small_gain_check",
    "theta_max_bound",
    "transient_bound",
]


def theta_max_bound(theta_l1_bound):
    """Estimate bound ``4 * b**2`` from a 1-norm bound on the uncertainty."""
    b = numeric_scalar(theta_l1_bound, "theta_l1_bound")
    if b < 0.0:
        raise ValueError("the 1-norm bound must be non-negative")
    return 4.0 * b ** 2


def _lam_extremes(S):
    """``(lam_min, lam_max)`` of the symmetric part of ``S``; of each member,
    as the rows of a ``(k, 2)`` array, for a stack ``S``."""
    w = np.linalg.eigvalsh(0.5 * S + 0.5 * np.swapaxes(S, -1, -2))
    return w[..., [0, -1]]


def _extremes(net: NetworkModel, P: dict, read=True):
    """``lam_min`` and ``lam_max`` of each ``P_i`` and ``lam_min`` of each
    ``Q_i``: three arrays in ``net.ids`` order.

    ``lam_min(Q_i)`` is the tuning's ``lam_min_Q``, solved when the tuning
    was built.  One symmetric eigensolve per ``P``, shared by the comparison
    matrix and the offsets, run as one stack per size by ``_per_shape``,
    each member's numbers those ``_lam_extremes`` gives it.  With ``read``,
    each ``P[sid]`` is a caller's value, read as a square matrix; it must be
    of its subsystem's size.  A missing or misshapen ``P`` is raised before
    a ``P`` that is not positive definite.
    """
    Ps = []
    for sid, s in zip(net.ids, net.subsystems):
        if sid not in P:
            raise ValueError(f"subsystem {sid}: missing Lyapunov solution")
        P_i = as_matrix(P[sid], f"P.{sid}", square=True) if read else P[sid]
        if P_i.shape[0] != s.dim:
            raise DimensionError(f"P.{sid} is {P_i.shape}, expected {(s.dim, s.dim)}")
        Ps.append(P_i)
    lmin_P, lmax_P = np.array(_per_shape(lambda _, S: _lam_extremes(S),
                                         [net.checked[sid] for sid in net.ids], Ps)).T
    for sid, lmin in zip(net.ids, lmin_P.tolist()):
        if lmin <= 0.0:
            raise ValueError(f"subsystem {sid}: P is not positive definite")
    return lmin_P, lmax_P, np.array([net.tuning[sid].lam_min_Q for sid in net.ids])


def comparison_matrix(net: NetworkModel, P: dict):
    """Aggregate comparison matrix ``M``.

    ``M[i][i] = -lam_min(Q_i) / (2 lam_max(P_i))`` and, for each edge
    j -> i, ``M[i][j] = lam_max(P_i) ||A_ij|| / sqrt(lam_min(P_i)
    lam_min(P_j))``; zero elsewhere.  Off-diagonals are non-negative, so
    ``M`` is Metzler with negative diagonal; one beyond the float range is
    ``inf``.  Each ``P[sid]`` is read as a square matrix of its subsystem's
    size.
    """
    return _comparison_matrix(*_extremes(net, P), *_edge_table(net))


def _comparison_matrix(lmin_P, lmax_P, lmin_Q, src, dst, gain):
    M = np.diag(-lmin_Q / (2.0 * lmax_P))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the conditions
        M[dst, src] = lmax_P[dst] / (np.sqrt(lmin_P[dst]) * np.sqrt(lmin_P[src])) * gain
    return M


def adaptation_offsets(net: NetworkModel, P: dict):
    """Offset vector (the diagonal of the aggregate offset term).

    For subsystem i::

        Phi_i = theta_max * ( lam_min(Q_i) / (2 Gamma_i lam_max(P_i))
                - sum over out-edges i->j of
                  lam_max(P_i) ||A_ji|| / (Gamma_j sqrt(lam_min(P_i) lam_min(P_j))) )

    with ``theta_max`` the subsystem's tuning value.  Large adaptive gains
    make every entry arbitrarily small.  An entry whose terms overflow is
    not finite.  Each ``P[sid]`` is read as a square matrix of its
    subsystem's size.
    """
    return _adaptation_offsets(net, *_extremes(net, P), *_edge_table(net))


def _adaptation_offsets(net, lmin_P, lmax_P, lmin_Q, src, dst, gain):
    # one edge at a time, in edge order, so each offset rounds as the per-edge sum did
    gamma, tmax = np.array([(t.gamma, t.theta_max) for t in map(net.tuning.get, net.ids)]).T
    term = lmin_Q / (2.0 * gamma * lmax_P)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the conditions
        np.subtract.at(term, src, lmax_P[src] * gain
                       / (gamma[dst] * np.sqrt(lmin_P[src]) * np.sqrt(lmin_P[dst])))
        return tmax * term


def diagonal_dominance_rows(M):
    """Row-wise verdicts of ``|M[i][i]| > sum_j!=i M[i][j]`` (strict)."""
    return _dominance_rows(as_matrix(M, "M"))


def _dominance_rows(M):  # of a built M: a row with an entry that is not finite fails
    off = M - np.diag(np.diag(M))
    return np.abs(np.diag(M)) > np.sum(off, axis=1)


def check_conditions(M, offsets):
    """Evaluate the two sufficiency conditions plus stability of ``M``.

    Returns ``(cond_diag, cond_norm, M_stable)``: row-wise diagonal
    dominance, induced-1-norm of ``M`` exceeding the largest offset
    magnitude, and all eigenvalues of ``M`` in the open left half-plane.
    """
    M = as_matrix(M, "M", square=True)
    offsets = numeric_array(offsets, "offsets").ravel()
    if offsets.shape[0] != M.shape[0]:
        raise DimensionError("offset vector length must match M")
    return _conditions(M, offsets)[1:]


def _conditions(M, offsets):
    """M's dominance rows, then ``check_conditions`` on built arrays: an entry of
    ``M`` or an offset that overflowed (not finite) fails each condition that
    reads it."""
    rows = _dominance_rows(M)
    cond_diag = bool(np.all(rows))
    finite = bool(np.isfinite(M).all())
    norm1 = float(np.max(np.sum(np.abs(M), axis=0))) if M.size else 0.0
    cond_norm = bool(finite and norm1 > np.max(np.abs(offsets))) if offsets.size else finite
    M_stable = bool(finite and np.max(eigenvalues(M).real) < 0.0)
    return rows, cond_diag, cond_norm, M_stable


def homogeneous_condition(lmin_Q, lmax_P, lmin_P, n_neighbors, gain):
    """Shortcut test for identical subsystems:

    ``lam_min(Q) / (2 lam_max(P)) > (lam_max(P)/lam_min(P)) * N * ||A_ij||``
    """
    lmin_Q, lmax_P, lmin_P, n_neighbors, gain = map(
        numeric_scalar, (lmin_Q, lmax_P, lmin_P, n_neighbors, gain),
        ("lmin_Q", "lmax_P", "lmin_P", "n_neighbors", "gain"))
    if min(lmin_Q, lmax_P, lmin_P) <= 0.0:
        raise ValueError("eigenvalue inputs must be positive")
    if n_neighbors < 0 or gain < 0.0:
        raise ValueError("neighbour count and gain must be non-negative")
    return bool(lmin_Q / (2.0 * lmax_P) > (lmax_P / lmin_P) * n_neighbors * gain)


def transient_bound(P, Q, theta_max, gamma, v0, t):
    """Exponential decay rate and transient error bound.

    Returns ``(alpha, rho)`` with ``alpha = lam_min(Q)/lam_max(P)`` and::

        rho(t) = sqrt( (v0 - theta_max/gamma) exp(-alpha t) / lam_min(P)
                       + theta_max / (gamma lam_min(P)) )

    ``t`` may be a scalar or an array.  A negative radicand (possible only
    for inconsistent inputs) raises, since the bound would be complex.
    """
    theta_max, gamma, v0 = map(numeric_scalar, (theta_max, gamma, v0),
                               ("theta_max", "gamma", "v0"))
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    lmin_P, lmax_P = _lam_extremes(as_matrix(P, "P", square=True)).tolist()
    lmin_Q = _lam_extremes(as_matrix(Q, "Q", square=True)).tolist()[0]
    if lmin_P <= 0.0 or lmin_Q <= 0.0:
        raise ValueError("P and Q must be positive definite")
    t = numeric_array(t, "t")
    if np.any(t < 0.0):
        raise ValueError("t must be non-negative")
    alpha = lmin_Q / lmax_P
    tail = theta_max / gamma
    radicand = (v0 - tail) * np.exp(-alpha * t) / lmin_P + tail / lmin_P
    if np.any(radicand < 0.0):
        raise ValueError("transient bound is complex for these inputs")
    rho = np.sqrt(radicand)
    return alpha, rho if rho.ndim else float(rho)


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
    """Run the full aggregate pipeline on a network.

    Reads each subsystem's Lyapunov weight (``net.lyapunov``, solved once
    per network), then assembles the comparison matrix, the offset vector,
    and the verdicts.
    """
    P = {sid: net.lyapunov(sid) for sid in net.ids}
    lmin_P, lmax_P, lmin_Q = ext = _extremes(net, P, read=False)
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
