"""Independent reference values for checking gascert's outputs.

Nothing here imports gascert: distances and peak gains come from dense
frequency sweeps with local refinement, and the aggregate (connective)
quantities of generated networks come from the closed forms their
construction allows (see ``gen``).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar


def _sweep_extremum(f, A, sign):
    """Optimise ``sign * f(w)`` over ``w >= 0``: grid, then local refinement."""
    lam = np.linalg.eigvals(A)
    scale = max(float(np.max(np.abs(lam))), 1e-12)
    grid = np.unique(np.concatenate([
        [0.0], np.abs(lam.imag), np.geomspace(1e-6 * scale, 1e2 * scale, 400)]))
    vals = np.array([sign * f(w) for w in grid])
    best = float(np.min(vals))
    for k in np.argsort(vals)[:3]:
        lo = grid[k - 1] if k > 0 else 0.0
        hi = grid[k + 1] if k + 1 < grid.size else 2.0 * grid[k] + 1.0
        res = minimize_scalar(lambda w: sign * f(w), bounds=(lo, hi),
                              method="bounded",
                              options={"xatol": 1e-13 * max(hi, 1.0)})
        best = min(best, float(res.fun))
    return sign * best


def sweep_distance(A):
    """``min over w of sigma_min(A - jwI)`` by a frequency sweep."""
    A = np.asarray(A, dtype=float)
    eye = np.eye(A.shape[0])
    return _sweep_extremum(
        lambda w: np.linalg.svd(A - 1j * w * eye, compute_uv=False)[-1], A, 1.0)


def sweep_hinf(M, A):
    """``sup over w of sigma_max(M (jwI - A)^-1)`` by a frequency sweep."""
    M = np.asarray(M, dtype=float)
    A = np.asarray(A, dtype=float)
    eye = np.eye(A.shape[0])
    return _sweep_extremum(
        lambda w: np.linalg.svd(M @ np.linalg.solve(1j * w * eye - A, eye),
                                compute_uv=False)[0], A, -1.0)


def distance_ok(reported, reference, norm_A):
    """Within the documented bisection accuracy ``1e-12 * max(1, ||A||)``
    (twice, for the bracket midpoint) plus 1e-6 relative for the sweep."""
    tol = 2e-12 * max(1.0, norm_A) + 1e-6 * abs(reference)
    return abs(reported - reference) <= tol


def connective_expected(facts, edges):
    """Comparison matrix, offsets and verdict of a generated network.

    With ``Q = I`` and a normal desired matrix, ``lambda_min(P) = 1 /
    (2 a_max)`` and ``lambda_max(P) = 1 / (2 a_min)``; the formulas below
    follow the aggregate test's definitions with those values.
    ``edges`` lists ``(src, dst, gain)``.
    """
    subs = facts["subsystems"]
    ids = sorted(subs, key=lambda s: int(s[1:]))
    index = {sid: k for k, sid in enumerate(ids)}
    lmin = {sid: 1.0 / (2.0 * subs[sid]["a_max"]) for sid in ids}
    lmax = {sid: 1.0 / (2.0 * subs[sid]["a_min"]) for sid in ids}
    gamma = facts["tuning"]["gamma"]
    theta_max = facts["tuning"]["theta_max"]
    n = len(ids)
    M = np.zeros((n, n))
    offsets = np.zeros(n)
    for sid in ids:
        M[index[sid], index[sid]] = -1.0 / (2.0 * lmax[sid])
        offsets[index[sid]] = 1.0 / (2.0 * gamma * lmax[sid])
    for src, dst, g in edges:
        M[index[dst], index[src]] += lmax[dst] / np.sqrt(lmin[dst] * lmin[src]) * g
        offsets[index[src]] -= lmax[src] * g / (gamma * np.sqrt(lmin[src] * lmin[dst]))
    offsets *= theta_max
    off = M - np.diag(np.diag(M))
    diag = bool(np.all(np.abs(np.diag(M)) > off.sum(axis=1)))
    norm = bool(np.max(np.abs(M).sum(axis=0)) > np.max(np.abs(offsets)))
    stable = bool(np.max(np.linalg.eigvals(M).real) < 0.0)
    return M, offsets, diag and norm and stable
