"""The scalar control laws, one subsystem and one call at a time: the
adaptive control law, the state predictor, the adaptation laws and the
convex-set projection operator that bounds parameter estimates.  The
simulator's stacked kernel runs the same laws for a whole network; these
are its test oracle and the worked example of demo 04.

Sign convention: the prediction error passed to the update laws is
predictor-state minus plant-state.  With that orientation the update
laws below make the tracking Lyapunov function non-increasing.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, SolverError

__all__ = [
    "boundary_function",
    "mrac_control",
    "predictor_rate",
    "project",
    "project_columns",
    "update_normalized",
    "update_projection",
]

# regularization of the normalized law at zero error, shared with sim
ERR_FLOOR = 1e-12


def mrac_control(theta_hat, x):
    """Adaptive control law ``u = -theta_hat' x``."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    x = np.asarray(x, dtype=float)
    return -(theta_hat.T @ x)


def predictor_rate(A_m, B, x_pred, u, theta_hat, x_plant, forced,
                   mode="decentralized", neighbor_terms=None):
    """Time derivative of the state predictor.

    Decentralized form::

        x_pred_dot = A_m x_pred + B (u + theta_hat' x_plant) + forced

    where ``forced`` is the already-assembled exogenous term (the
    reference in the integral rows, zero elsewhere).  The distributed
    form adds the coupling replica ``sum_j A_ij x_pred_j`` from the
    neighbours' predictors, supplied as
    ``neighbor_terms = [(A_ij, x_pred_j), ...]``.
    """
    A_m = np.asarray(A_m, dtype=float)
    B = np.asarray(B, dtype=float)
    rate = A_m @ x_pred + B @ (np.asarray(u, dtype=float) + theta_hat.T @ x_plant)
    rate = rate + forced
    if mode == "distributed":
        if neighbor_terms is None:
            raise ValueError("distributed predictor needs neighbour predictor states")
        for A_ij, xj in neighbor_terms:
            rate = rate + A_ij @ xj
    elif mode != "decentralized":
        raise ValueError(f"unknown predictor mode {mode!r}")
    return rate


def update_normalized(err, P, B, regressor, gain):
    """Normalized adaptation law.

    Returns::

        -gain * outer(regressor, err' P B) / (2 sqrt(err' P err))

    The rate is zero whenever ``err' P err <= ERR_FLOOR**2``; the raw law
    is 0/0 at zero error, and the floor is the regularization of that
    singularity.  Away from the floor the rate is homogeneous of degree
    zero in ``err`` (scaling the error does not scale the rate), which is
    why adaptation under this law never slows down on its own.
    """
    err = np.asarray(err, dtype=float)
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    regressor = np.asarray(regressor, dtype=float)
    w = float(err @ P @ err)
    m = B.shape[1] if B.ndim == 2 else 1
    if w <= ERR_FLOOR * ERR_FLOOR:
        return np.zeros((regressor.shape[0], m))
    return -gain * np.outer(regressor, err @ P @ B) / (2.0 * np.sqrt(w))


def boundary_function(theta, theta_max, eps0):
    """Convex boundary function of the admissible estimate set.

    ``g(theta) = ((eps0+1) theta' theta - theta_max^2) / (eps0 theta_max^2)``

    ``g < 0`` is the interior (no scaling), ``g = 1`` the outer boundary
    ``||theta|| = theta_max``; scaling starts at ``g = 0``.
    """
    if theta_max <= 0.0:
        raise ValueError("theta_max must be positive (the set is degenerate otherwise)")
    if eps0 <= 0.0:
        raise ValueError("eps0 must be positive")
    theta = np.asarray(theta, dtype=float)
    return ((eps0 + 1.0) * float(theta.ravel() @ theta.ravel()) - theta_max**2) / (
        eps0 * theta_max**2
    )


def _boundary_gradient(theta, theta_max, eps0):
    # analytic: 2 (eps0+1) theta / (eps0 theta_max^2)
    return 2.0 * (eps0 + 1.0) * theta / (eps0 * theta_max**2)


def project(theta, y, theta_max, eps0):
    """Projection operator on a candidate update direction ``y``.

    Three cases on ``g = boundary_function(theta)``:

    * ``g < 0``: interior, ``y`` is returned unchanged;
    * ``g >= 0`` and ``grad(g)' y <= 0``: ``y`` points inward, unchanged;
    * ``g >= 0`` and ``grad(g)' y > 0``: the outward-normal component is
      removed, scaled by ``g``, so the flow can never leave ``g <= 1``.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if theta.shape != y.shape:
        raise DimensionError(f"theta and y differ in shape: {theta.shape} vs {y.shape}")
    g = boundary_function(theta, theta_max, eps0)
    if g < 0.0:
        return y.copy()
    grad = _boundary_gradient(theta, theta_max, eps0)
    gy = float(grad @ y)
    if gy <= 0.0:
        return y.copy()
    norm = float(np.linalg.norm(grad))
    if norm == 0.0:
        raise SolverError("projection hit g >= 0 with zero gradient (theta == 0)")
    unit = grad / norm
    return y - unit * (float(unit @ y) * g)


def project_columns(theta_mat, y_mat, theta_max, eps0):
    """Column-wise projection for matrix-valued estimates.

    The operator is defined for vectors; a matrix estimate (one column per
    input channel) is projected per column against the shared bound.
    """
    theta_mat = np.atleast_2d(np.asarray(theta_mat, dtype=float))
    y_mat = np.atleast_2d(np.asarray(y_mat, dtype=float))
    if theta_mat.shape != y_mat.shape:
        raise DimensionError(
            f"estimate and update shapes differ: {theta_mat.shape} vs {y_mat.shape}"
        )
    out = np.empty_like(y_mat)
    for k in range(theta_mat.shape[1]):
        out[:, k] = project(theta_mat[:, k], y_mat[:, k], theta_max, eps0)
    return out


def update_projection(x_err, P, B, regressor, gain, theta_hat, theta_max, eps0):
    """Projection-based adaptation law.

    The raw drive is ``-outer(regressor, x_err' P B)`` (shaped like the
    estimate); the projected drive is scaled by the adaptive gain.
    """
    x_err = np.asarray(x_err, dtype=float)
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    regressor = np.asarray(regressor, dtype=float)
    drive = -np.outer(regressor, x_err @ P @ B)
    return gain * project_columns(theta_hat, drive, theta_max, eps0)
