"""Dense real-matrix kernels that the rest of the package builds on.

Spectra, norms, Lyapunov and Riccati solves, one imaginary-axis crossing
test for the Riccati Hamiltonian (shared with the Riccati solve), and one
level-set Hamiltonian iteration that gives both the H-infinity gain and
the distance to instability.  Acceptance bounds are fixed; the distance
accuracy is the one tolerance a caller sets.  All functions are pure:
they keep no state and are safe to call concurrently on shared read-only
inputs.  Intended problem sizes are small (n up to a few tens).  Caller arrays
and derived matrices are read and checked by ``numeric_array``; ``Checked`` records are not.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.linalg as sla

from .exceptions import DimensionError, GascertError, NonFiniteError, SolverError, StabilityError

__all__ = [
    "AreSolution",
    "Checked",
    "as_matrix",
    "distance_to_instability",
    "eigenvalues",
    "hamiltonian",
    "hinf_gain",
    "is_hurwitz",
    "is_hyperbolic",
    "numeric_array",
    "numeric_scalar",
    "solve_are",
    "solve_lyapunov",
    "spectral_norm",
]


def as_matrix(M, name="matrix", square=False):
    """``M`` read by ``numeric_array`` (a ``Checked`` record's ``A`` as is) as a 2-D array.

    Scalars become 1x1 matrices, 1-D arrays become row vectors.
    """
    A = M.A if isinstance(M, Checked) else numeric_array(M, name)
    if A.ndim < 2:
        A = A.reshape(1, -1)
    elif A.ndim > 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={A.ndim}")
    if square and A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def _has_bool(value, ndim):  # numpy would read a boolean among numbers as 0 or 1
    for _ in range(ndim - 1):
        value = chain.from_iterable(value)
    kinds = set(map(type, value))
    return bool in kinds or np.bool_ in kinds


def numeric_array(value, name="array"):
    """The one reader of caller numbers: ``value`` as a float array with
    finite entries, if numpy reads it (no dtype forced) as integers or
    floats and a list or tuple holds no boolean; else a ``GascertError``
    naming ``name``, a ``NonFiniteError`` for NaN or infinity.  Integers
    beyond int64 arrive as an object array."""
    try:
        A = np.asarray(value)
        if A.dtype == object and all(isinstance(x, (int, float)) for x in A.flat):
            A = A.astype(float)
    except (ValueError, OverflowError) as exc:
        raise GascertError(f"{name}: not a numeric array ({exc})") from None
    if A.dtype.kind not in "iuf" or isinstance(value, (list, tuple)) and _has_bool(value, A.ndim):
        raise GascertError(f"{name}: not a numeric array")
    A = A.astype(float, copy=False)
    if np.count_nonzero(np.isfinite(A)) != A.size:  # cheaper than .all() on small arrays
        raise NonFiniteError(f"{name}: non-finite entries")
    return A


def numeric_scalar(value, name="value"):
    """``numeric_array``'s reading of ``value`` as a float, if it is one number."""
    A = numeric_array(value, name)
    if A.ndim:
        raise DimensionError(f"{name}: expected a number, got ndim={A.ndim}")
    return float(A)


@dataclass(frozen=True, eq=False)
class Checked:
    """A matrix read once (``A``, read-only) and its ``spectrum``, solved on first use."""

    A: np.ndarray
    name: InitVar[str] = "matrix"
    square: InitVar[bool] = False

    def __post_init__(self, name, square):
        object.__setattr__(self, "A", as_matrix(self.A, name, square).copy())
        self.A.flags.writeable = False

    @cached_property
    def spectrum(self):
        w = eigenvalues(self.A)
        w.flags.writeable = False
        return w


def eigenvalues(A):
    """Full spectrum of a square matrix, with multiplicity.

    Parameters
    ----------
    A : (n, n) array_like
        Real square matrix.

    Returns
    -------
    (n,) complex ndarray
        Eigenvalues sorted deterministically by (real part, imag part).

    Raises
    ------
    DimensionError
        If ``A`` is not square.
    SolverError
        If the underlying QR iteration fails to converge.
    """
    A = as_matrix(A, "A", square=True)
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigenvalue iteration did not converge: {exc}") from exc
    return w[np.lexsort((w.imag, w.real))]


def _spectrum(M):  # a record's kept spectrum, solved for anything else
    return M.spectrum if isinstance(M, Checked) else eigenvalues(M)


def _square(M, name):  # M read as a square array, and a record or that array to hand on
    A = as_matrix(M, name, square=True)
    return A, (M if isinstance(M, Checked) else A)


def spectral_norm(A):
    """Largest singular value of ``A`` (induced 2-norm)."""
    A = as_matrix(A, "A")
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def is_hurwitz(A):
    """True iff every eigenvalue of ``A`` has strictly negative real part."""
    return bool(np.max(_spectrum(A).real) < 0.0)


def solve_lyapunov(A, Q):
    """Solve the continuous Lyapunov equation ``A'P + PA + Q = 0``.

    Accepted when the Frobenius residual is at most
    ``1e-10 * (||A||_F ||P||_F + ||Q||_F)``.

    Parameters
    ----------
    A : (n, n) array_like
        Hurwitz matrix.
    Q : (n, n) array_like
        Symmetric positive definite weight.

    Returns
    -------
    (n, n) ndarray
        The symmetric positive definite solution.

    Raises
    ------
    StabilityError
        If ``A`` is not Hurwitz (no positive definite solution exists).
    SolverError
        If the computed solution violates the residual bound or fails the
        definiteness check.
    """
    A, given = _square(A, "A")
    Q = as_matrix(Q, "Q", square=True)
    if Q.shape != A.shape:
        raise DimensionError(f"Q must match A: {Q.shape} vs {A.shape}")
    if np.abs(Q - Q.T).max() > 1e-12 * max(1.0, float(np.abs(Q).max())):
        raise ValueError("Q must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) <= 0.0:
        raise ValueError("Q must be positive definite")
    if not is_hurwitz(given):
        raise StabilityError(
            "A is not Hurwitz: the Lyapunov equation has no positive definite solution"
        )
    P = sla.solve_continuous_lyapunov(A.T, -Q)
    P = 0.5 * (P + P.T)
    scale = np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(Q)
    residual = np.linalg.norm(A.T @ P + P @ A + Q)
    if residual > 1e-10 * scale:
        raise SolverError(
            f"Lyapunov residual {residual:.3e} exceeds 1e-10 * scale ({1e-10 * scale:.3e})"
        )
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise SolverError("Lyapunov solution is not positive definite")
    return P


def hamiltonian(Am, N, q):
    """Assemble the 2n x 2n block matrix ``[[Am, N*I], [-q*I, -Am']]``.

    ``N`` is the neighbour count entering the quadratic term and ``q`` the
    scalar weight of the constant term (coupling energy, optionally plus a
    margin).  ``N = 0`` is accepted and gives the block-triangular
    degenerate form.
    """
    Am = as_matrix(Am, "Am", square=True)
    if N < 0:
        raise ValueError("N must be a non-negative count")
    if q < 0.0:
        raise ValueError("q must be non-negative")
    eye = np.eye(Am.shape[0])
    return _hamiltonian(Am, float(N) * eye, float(q) * eye)


def _hamiltonian(A, G, Q):
    """``[[A, G], [-Q, -A']]``, assembled by slice assignment."""
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = G
    H[n:, :n] = -Q
    H[n:, n:] = -A.T
    return H


# Crossing and level-set kernel settings.  A Hamiltonian eigenvalue within
# _AXIS_PREFILTER * ||H||_F of the imaginary axis is a candidate crossing;
# a candidate is confirmed when the level is reached at its frequency up
# to a relative _LEVEL_SLACK.  _HINF_RTOL is the relative accuracy of the
# H-infinity gain, _DIST_RTOL a floor under the level step of the distance.
_AXIS_PREFILTER = 1e-6
_LEVEL_SLACK = 1e-6
_HINF_RTOL = 1e-12
_DIST_RTOL = 1e-13
_MAX_LEVELS = 50


def _axis_frequencies(H):
    """Frequencies ``|Im lambda|`` of the eigenvalues of ``H`` near the axis.

    Near is within ``_AXIS_PREFILTER * ||H||_F``; returned ascending and
    unique.  Only candidates: callers confirm each one directly.
    """
    lam = eigenvalues(H)
    cut = _AXIS_PREFILTER * np.linalg.norm(H)
    return np.unique(np.abs(lam.imag[np.abs(lam.real) <= cut]))


def _smin_shifted(Am, ws):
    """``sigma_min(Am - jwI)`` for each ``w`` in ``ws``.

    Computed from the real form ``[[Am, wI], [-wI, Am]]``, which has the
    singular values of ``Am - jwI``, each twice.
    """
    n = Am.shape[0]
    R = np.empty((len(ws), 2 * n, 2 * n))
    R[:, :n, :n] = R[:, n:, n:] = Am
    R[:, :n, n:] = np.asarray(ws)[:, None, None] * np.eye(n)
    R[:, n:, :n] = -R[:, :n, n:]
    return np.linalg.svd(R, compute_uv=False)[:, -1]


def is_hyperbolic(Am, N, q):
    """True iff ``hamiltonian(Am, N, q)`` has no imaginary-axis eigenvalue.

    ``jw`` is an eigenvalue exactly when ``sqrt(N q)`` is a singular value
    of ``Am - jwI``, so for a Hurwitz ``Am`` the verdict is the distance
    condition ``gamma > sqrt(N q)`` (Byers 1988), under which the Riccati
    equation of ``solve_are`` has its stabilizing solution.  Eigenvalues
    near the axis (``_axis_frequencies``) are only candidates; one is a
    crossing when ``sigma_min(Am - jwI) <= sqrt(N q)`` at its frequency
    ``w = |Im lambda|`` (up to ``_LEVEL_SLACK``), so slow modes of a badly
    scaled ``Am`` are not mistaken for axis eigenvalues.
    """
    A, Am = _square(Am, "Am")
    ws = _axis_frequencies(hamiltonian(Am, N, q))
    return not np.any(_smin_shifted(A, ws) <= (1.0 + _LEVEL_SLACK) * math.sqrt(float(N) * q))


@dataclass(frozen=True)
class AreSolution:
    """Stabilizing Riccati solution with its quality figures.

    Attributes
    ----------
    P : (n, n) ndarray
        Symmetric positive definite solution.
    residual_norm : float
        Frobenius norm of ``A'P + PA + N P^2 + q I``.
    closed_loop_spectrum : (n,) complex ndarray
        Eigenvalues of ``A + N P`` (all in the open left half-plane),
        sorted by (real, imag).
    """

    P: np.ndarray
    residual_norm: float
    closed_loop_spectrum: np.ndarray


def solve_are(Am, N, q):
    """Solve ``Am'P + P Am + N P^2 + q I = 0`` for the stabilizing P.

    The solution is extracted from the stable invariant subspace of the
    Hamiltonian ``[[Am, N*I], [-q*I, -Am']]``: with an ordered real Schur
    form putting the left-half-plane eigenvalues first, the leading block
    columns ``[U; V]`` span that subspace and ``P = V U^{-1}``.

    Parameters
    ----------
    Am : (n, n) array_like
        Hurwitz matrix.
    N : int
        Non-negative count scaling the quadratic term.
    q : float
        Non-negative constant-term weight.

    Raises
    ------
    StabilityError
        If ``Am`` is not Hurwitz, or ``is_hyperbolic`` finds an
        imaginary-axis eigenvalue (distance condition violated: no
        solution exists).
    SolverError
        If the invariant subspace is ill-conditioned or the result
        violates the residual/definiteness contract.
    """
    A, Am = _square(Am, "Am")
    n = A.shape[0]
    if not is_hurwitz(Am):
        raise StabilityError("Am is not Hurwitz")
    if not is_hyperbolic(Am, N, q):
        raise StabilityError(
            "Hamiltonian has imaginary-axis eigenvalues: the distance "
            "condition is violated and the Riccati equation has no "
            "stabilizing solution"
        )
    T, Z, sdim = sla.schur(hamiltonian(Am, N, q), output="real", sort="lhp")
    if sdim != n:
        raise SolverError(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    U = Z[:n, :n]
    V = Z[n:, :n]
    try:
        P = np.linalg.solve(U.T, V.T).T
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"invariant-subspace basis is singular: {exc}") from exc
    P = 0.5 * (P + P.T)
    residual = float(np.linalg.norm(A.T @ P + P @ A + float(N) * P @ P + q * np.eye(n)))
    bound = 1e-8 * max(1.0, float(np.linalg.norm(P)) ** 2)
    if residual > bound:
        raise SolverError(
            f"Riccati residual {residual:.3e} exceeds tolerance {bound:.3e} "
            "(ill-conditioned invariant subspace)"
        )
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise SolverError("Riccati solution is not positive definite")
    closed = eigenvalues(A + float(N) * P)
    if np.max(closed.real) >= 0.0:
        raise SolverError("closed-loop matrix Am + N*P is not stable")
    return AreSolution(P=P, residual_norm=residual, closed_loop_spectrum=closed)


def _gains(Am, M, ws):
    """``sigma_max(M (jwI - Am)^{-1})`` for each ``w``; ``M = None`` stands for I."""
    if M is None:
        return 1.0 / _smin_shifted(Am, ws)
    Z = 1j * np.asarray(ws)[:, None, None] * np.eye(Am.shape[0]) - Am
    return np.linalg.svd(M @ np.linalg.inv(Z), compute_uv=False)[:, 0]


def _peak_gain(Am, M, lam, rtol, dtol=0.0):
    """Level-set iteration for ``sup_w sigma_max(M (jwI - Am)^{-1})``.

    The quadratically convergent scheme of Boyd and Balakrishnan (1990)
    and Bruinsma and Steinbuch (1990).  ``Am`` is Hurwitz with spectrum
    ``lam``; ``M = None`` stands for the identity.  The estimate ``g``
    starts as the largest gain at ``w = 0`` and at the moduli and
    imaginary parts of ``lam``.  At each level above ``g`` the
    imaginary-axis eigenvalues ``jw`` of the Hamiltonian

        [[Ab, B B' / level], [-C'C / level, -Ab']]

    (``Ab = T^{-1} Am T`` balanced, ``B = T^{-1}``, ``C = M T``: the same
    transfer function) are the frequencies where ``level`` is a singular
    value of the response.  Eigenvalues near the axis are only candidates
    (``_axis_frequencies``); one counts as a crossing when the gain at
    ``|Im lambda|`` reaches the level up to ``_LEVEL_SLACK``, so slow modes
    of a badly scaled ``Am`` are not taken for crossings.  Because every
    gain is evaluated directly, a wrong candidate costs an evaluation but
    never lifts ``g`` above an attained gain.  ``g`` moves to the largest
    gain at the candidates and at the midpoints between consecutive
    crossings.  The iteration stops when none of them exceeds the level
    ``g (1 + rtol) / (1 - dtol g)``: the peak is then within ``rtol``
    relative of ``g`` and its reciprocal within ``dtol`` of ``1 / g``.

    Returns ``(g, w)`` with ``g`` the gain attained at ``w``.
    """
    Ab, T = sla.matrix_balance(Am)
    B = np.linalg.inv(T)   # exact: T is a permuted diagonal of powers of two
    C = T if M is None else M @ T
    BB, CC = B @ B.T, C.T @ C
    ws = np.unique(np.concatenate(([0.0], np.abs(lam), np.abs(lam.imag))))
    gains = _gains(Am, M, ws)
    k = int(np.argmax(gains))
    g, w = float(gains[k]), float(ws[k])
    for _ in range(_MAX_LEVELS):
        if dtol * g >= 1.0:
            return g, w
        level = g * (1.0 + rtol) / (1.0 - dtol * g)
        H = _hamiltonian(Ab, BB / level, CC / level)
        cand = _axis_frequencies(H)
        if cand.size == 0:
            return g, w
        gains = _gains(Am, M, cand)
        cross = cand[gains >= (1.0 - _LEVEL_SLACK) * level]
        mids = 0.5 * (cross[:-1] + cross[1:])
        if mids.size:
            cand = np.concatenate((cand, mids))
            gains = np.concatenate((gains, _gains(Am, M, mids)))
        k = int(np.argmax(gains))
        if gains[k] > g:
            g, w = float(gains[k]), float(cand[k])
        if g <= level:
            return g, w
    raise SolverError(f"level-set iteration did not converge in {_MAX_LEVELS} levels")


def hinf_gain(M, Am):
    """Peak frequency-response gain ``sup_w sigma_max(M (jwI - Am)^{-1})``.

    Computed by the level-set iteration of ``_peak_gain`` to 1e-12
    relative accuracy; the returned value is the gain attained at the
    maximising frequency.  A zero ``M`` gives 0.0.

    Raises
    ------
    StabilityError
        If ``Am`` is not Hurwitz (the gain is unbounded).
    """
    A, Am = _square(Am, "Am")
    M = as_matrix(M, "M")
    if M.shape[1] != A.shape[0]:
        raise DimensionError(f"M has {M.shape[1]} columns, expected {A.shape[0]}")
    lam = _spectrum(Am)
    if np.max(lam.real) >= 0.0:
        raise StabilityError("Am is not Hurwitz: the H-infinity gain is unbounded")
    if not np.any(M):
        return 0.0
    return _peak_gain(A, M, lam, rtol=_HINF_RTOL)[0]


def distance_to_instability(Am, tol=1e-9):
    """Distance from a Hurwitz matrix to the nearest marginally unstable one.

    The distance ``min over real w of sigma_min(Am - j w I)`` equals
    ``1 / hinf_gain(I, Am)``.  The level-set iteration of ``_peak_gain``
    finds the maximising frequency ``w*`` of that gain, and the distance
    is reported as ``sigma_min(Am - j w* I)`` evaluated there: an attained
    value, within ``tol`` (absolute) above the true distance.
    """
    A, Am = _square(Am, "Am")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lam = _spectrum(Am)
    if np.max(lam.real) >= 0.0:
        raise StabilityError("Am is not Hurwitz: the distance to instability is zero")
    _, w = _peak_gain(A, None, lam, rtol=_DIST_RTOL, dtol=tol)
    return float(_smin_shifted(A, [w])[0])
