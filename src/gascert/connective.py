"""Aggregate (connective) stability analysis.

Per-subsystem Lyapunov data is condensed into a comparison system: a
Metzler matrix ``M`` of decay/coupling rates plus an offset vector from
adaptation.  Diagonal dominance of ``M`` and the norm-vs-offset condition
are sufficient for global asymptotic stability of the interconnected
closed loop.  A small-gain diagnostic for coupled pairs lives here too,
since its failure is what motivates the Riccati route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .model import NetworkModel
from .numerics import as_matrix, eigenvalues, hinf_gain, numeric_array

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
    if theta_l1_bound < 0.0:
        raise ValueError("the 1-norm bound must be non-negative")
    return 4.0 * float(theta_l1_bound) ** 2


def _lam_extremes(S):
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(w[0]), float(w[-1])


def _extremes(net: NetworkModel, P: dict):
    """``(lam_min, lam_max)`` of each ``P_i`` and ``lam_min`` of each ``Q_i``.

    One symmetric eigensolve per matrix, shared by the comparison matrix
    and the offsets.
    """
    lam_P, lmin_Q = {}, {}
    for sid in net.ids:
        if sid not in P:
            raise ValueError(f"subsystem {sid}: missing Lyapunov solution")
        lam_P[sid] = _lam_extremes(P[sid])
        if lam_P[sid][0] <= 0.0:
            raise ValueError(f"subsystem {sid}: P is not positive definite")
        lmin_Q[sid] = _lam_extremes(net.tuning[sid].Q)[0]
    return lam_P, lmin_Q


def comparison_matrix(net: NetworkModel, P: dict):
    """Aggregate comparison matrix ``M``.

    ``M[i][i] = -lam_min(Q_i) / (2 lam_max(P_i))`` and, for each edge
    j -> i, ``M[i][j] = lam_max(P_i) ||A_ij|| / sqrt(lam_min(P_i)
    lam_min(P_j))``; zero elsewhere.  Off-diagonals are non-negative, so
    ``M`` is Metzler with negative diagonal.
    """
    return _comparison_matrix(net, *_extremes(net, P))


def _comparison_matrix(net, lam_P, lmin_Q):
    ids, index = net.ids, net.index
    M = np.zeros((len(ids), len(ids)))
    for sid in ids:
        lmin_P, lmax_P = lam_P[sid]
        M[index[sid], index[sid]] = -lmin_Q[sid] / (2.0 * lmax_P)
        for e in net.in_edges(sid):
            lmin_Pj = lam_P[e.src][0]
            M[index[sid], index[e.src]] += (
                lmax_P / np.sqrt(lmin_P * lmin_Pj) * e.gain()
            )
    return M


def adaptation_offsets(net: NetworkModel, P: dict):
    """Offset vector (the diagonal of the aggregate offset term).

    For subsystem i::

        Phi_i = theta_max * ( lam_min(Q_i) / (2 Gamma_i lam_max(P_i))
                - sum over out-edges i->j of
                  lam_max(P_i) ||A_ji|| / (Gamma_j sqrt(lam_min(P_i) lam_min(P_j))) )

    with ``theta_max`` the subsystem's tuning value.  Large adaptive gains
    make every entry arbitrarily small.
    """
    return _adaptation_offsets(net, *_extremes(net, P))


def _adaptation_offsets(net, lam_P, lmin_Q):
    out = np.zeros(len(net.ids))
    for k, sid in enumerate(net.ids):
        lmin_P, lmax_P = lam_P[sid]
        gamma_i = net.tuning[sid].gamma
        tmax = net.tuning[sid].theta_max
        term = lmin_Q[sid] / (2.0 * gamma_i * lmax_P)
        for e in net.out_edges(sid):
            gamma_j = net.tuning[e.dst].gamma
            lmin_Pj = lam_P[e.dst][0]
            term -= lmax_P * e.gain() / (gamma_j * np.sqrt(lmin_P * lmin_Pj))
        out[k] = tmax * term
    return out


def diagonal_dominance_rows(M):
    """Row-wise verdicts of ``|M[i][i]| > sum_j!=i M[i][j]`` (strict)."""
    M = as_matrix(M, "M")
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


def _conditions(M, offsets):  # M's dominance rows, then check_conditions on read arrays
    rows = diagonal_dominance_rows(M)
    cond_diag = bool(np.all(rows))
    norm1 = float(np.max(np.sum(np.abs(M), axis=0))) if M.size else 0.0
    cond_norm = bool(norm1 > np.max(np.abs(offsets))) if offsets.size else True
    M_stable = bool(np.max(eigenvalues(M).real) < 0.0)
    return rows, cond_diag, cond_norm, M_stable


def homogeneous_condition(lmin_Q, lmax_P, lmin_P, n_neighbors, gain):
    """Shortcut test for identical subsystems:

    ``lam_min(Q) / (2 lam_max(P)) > (lam_max(P)/lam_min(P)) * N * ||A_ij||``
    """
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
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    lmin_P, lmax_P = _lam_extremes(numeric_array(P, "P"))
    lmin_Q = _lam_extremes(numeric_array(Q, "Q"))[0]
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
    """Loop-gain verdict of one coupled pair ``(i, j)``, ids in sorted order."""

    pair: tuple
    hinf_product: float
    raw_gain_product: float
    passed: bool


def _path_gain(net: NetworkModel, e):
    """(peak gain, spectral norm) of one coupling path, (0, 0) without an edge.

    The path runs through the source's target dynamics; a bound-only edge
    gives the submultiplicative bound ``norm_bound * ||(sI - A_m)^-1||``.
    """
    if e is None:
        return 0.0, 0.0
    Am = net.checked[e.src]
    if e.A is not None:
        return hinf_gain(e.checked, Am), e.gain()
    return e.norm_bound * hinf_gain(np.eye(Am.A.shape[0]), Am), e.gain()


def small_gain_check(net: NetworkModel):
    """Loop-gain product test for every coupled pair of the network.

    Pairs ``(i, j)`` with ``i < j`` in sorted id order and at least one
    edge between them, in that order.  ``hinf_product`` multiplies the
    peak frequency-response gains of the paths j -> i and i -> j (0 for a
    missing direction); ``raw_gain_product`` is the product of the plain
    edge gains (the quick desk check).  A pair passes iff its
    ``hinf_product`` is < 1.
    """
    edges = {(e.src, e.dst): e for e in net.edges}
    ids = sorted(net.ids)
    results = []
    for a, i in enumerate(ids):
        for j in ids[a + 1:]:
            fwd, back = edges.get((j, i)), edges.get((i, j))
            if fwd is None and back is None:
                continue
            h1, r1 = _path_gain(net, fwd)
            h2, r2 = _path_gain(net, back)
            results.append(SmallGainResult(pair=(i, j), hinf_product=h1 * h2,
                                           raw_gain_product=r1 * r2,
                                           passed=bool(h1 * h2 < 1.0)))
    return results


@dataclass
class ConnectiveReport:
    """Everything the aggregate test produced, per subsystem and global."""

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
    lam_P, lam_min_Q = _extremes(net, P)
    M = _comparison_matrix(net, lam_P, lam_min_Q)
    offsets = _adaptation_offsets(net, lam_P, lam_min_Q)
    rows, cond_diag, cond_norm, M_stable = _conditions(M, offsets)
    return ConnectiveReport(
        ids=list(net.ids),
        P=P,
        lambda_min_P={sid: lo for sid, (lo, _) in lam_P.items()},
        lambda_max_P={sid: hi for sid, (_, hi) in lam_P.items()},
        lambda_min_Q=lam_min_Q,
        alpha={sid: lam_min_Q[sid] / hi for sid, (_, hi) in lam_P.items()},
        M=M,
        offsets=offsets,
        cond_diag_rows=rows,
        cond_diag=cond_diag,
        cond_norm=cond_norm,
        M_stable=M_stable,
        passed=bool(cond_diag and cond_norm and M_stable),
    )
