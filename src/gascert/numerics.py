"""Dense real-matrix kernels that the rest of the package builds on.

Spectra, norms, Lyapunov and Riccati solves, one imaginary-axis crossing
test for the Riccati Hamiltonian (shared with the Riccati solve), and one
level-set Hamiltonian iteration that gives both the H-infinity gain and
the distance to instability.  Acceptance bounds are fixed; the distance
accuracy is the one tolerance a caller sets.  All functions are pure:
they keep no state and are safe to call concurrently on shared read-only
inputs.  Intended problem sizes are small (n up to a few tens).  Caller arrays
and matrices derived inside the kernels are read and checked by
``numeric_array``; ``Checked`` records are not, and neither are the blocks
``AugmentedSubsystem.from_raw`` builds from the raw blocks it has read.

The crossing test, the level-set iteration and the Riccati solve each run
on a stack of records of one size, one LAPACK call per step for the whole
stack, except the Riccati Schur factorisation and the solve of the basis
it yields, which run per member; every member's numbers are those it gets
alone, and a member's error is its own.  The public kernels are stacks of
one, each finished by ``_alone``.  The stacked
kernels keep their members by one rule: the stacks hold only the members
still standing, and one ``live`` list holds their record ids; a step that
decides a member's outcome writes it to ``out`` once; and the stacks are
cut (``_standing``) only after a step at which some member has left.
"""

from __future__ import annotations

import math
import sys
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
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:  # read without an array
        return float(value)
    A = numeric_array(value, name)
    if A.ndim:
        raise DimensionError(f"{name}: expected a number, got ndim={A.ndim}")
    return float(A)


@dataclass(frozen=True, eq=False)
class Checked:
    """A matrix read once (``A``, read-only), its ``spectrum`` and its balancing
    ``balanced``, each solved on first use and kept read-only."""

    A: np.ndarray
    name: InitVar[str] = "matrix"
    square: InitVar[bool] = False

    def __post_init__(self, name, square):
        object.__setattr__(self, "A", as_matrix(self.A, name, square).copy())
        self.A.flags.writeable = False

    @cached_property
    def spectrum(self):
        w = eigenvalues(self)
        w.flags.writeable = False
        return w

    @cached_property
    def balanced(self):
        """``(Ab, T, T^{-1})`` with ``Ab = T^{-1} A T`` from ``scipy.linalg.matrix_balance``;
        the inverse is exact, ``T`` being a permuted diagonal of powers of two."""
        Ab, T = sla.matrix_balance(self.A)
        out = (Ab, T, np.linalg.inv(T))
        for X in out:
            X.flags.writeable = False
        return out


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


def _record(M, name):  # M as a square record: itself if it is one, else read into one
    if isinstance(M, Checked):
        as_matrix(M, name, square=True)
        return M
    return Checked(M, name, square=True)


def spectral_norm(A):
    """Largest singular value of ``A`` (induced 2-norm)."""
    A = as_matrix(A, "A")
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def is_hurwitz(A):
    """True iff every eigenvalue of ``A`` has strictly negative real part."""
    return bool(_record(A, "A").spectrum.real.max() < 0.0)


def solve_lyapunov(A, Q):
    """Solve the continuous Lyapunov equation ``A'P + PA + Q = 0``.

    Accepted when the Frobenius residual is at most
    ``1e-10 * (||A||_F ||P||_F + ||Q||_F)``, with P and Q scaled by one power
    of two so that no norm overflows.

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
    given = _record(A, "A")
    A = given.A
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
    # the test on P and Q scaled by one power of two, which is exact: no norm overflows
    k = -int(np.frexp(max(np.abs(P).max(), np.abs(Q).max()))[1])
    Ps, Qs = np.ldexp(P, k), np.ldexp(Q, k)
    scale = np.linalg.norm(A) * np.linalg.norm(Ps) + np.linalg.norm(Qs)
    residual = np.linalg.norm(A.T @ Ps + Ps @ A + Qs)
    if not residual <= 1e-10 * scale:
        raise SolverError(f"Lyapunov residual {np.ldexp(residual, -k):.3e} exceeds "
                          f"1e-10 * scale ({np.ldexp(1e-10 * scale, -k):.3e})")
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise SolverError("Lyapunov solution is not positive definite")
    return P


def _check_weights(N, q):  # the two weights, read by numeric_scalar, as floats
    N, q = numeric_scalar(N, "N"), numeric_scalar(q, "q")
    if N < 0.0:
        raise ValueError("N must be a non-negative count")
    if q < 0.0:
        raise ValueError("q must be non-negative")
    return N, q


def hamiltonian(Am, N, q):
    """Assemble the 2n x 2n block matrix ``[[Am, N*I], [-q*I, -Am']]``.

    ``N`` is the non-negative weight of the quadratic term (a number, not
    only a neighbour count) and ``q`` the non-negative weight of the
    constant term (coupling energy, optionally plus a margin).  ``N = 0``
    is accepted and gives the block-triangular degenerate form.
    """
    Am = as_matrix(Am, "Am", square=True)
    N, q = _check_weights(N, q)
    eye = np.eye(Am.shape[0])
    return _hamiltonian(Am, N * eye, q * eye)


def _hamiltonian(A, G, Q):
    """``[[A, G], [-Q, -A']]``, assembled by slice assignment; for a stack of
    ``A``, ``G`` and ``Q``, one such matrix per member."""
    n = A.shape[-1]
    H = np.empty(A.shape[:-2] + (2 * n, 2 * n))
    H[..., :n, :n] = A
    H[..., :n, n:] = G
    H[..., n:, :n] = -Q
    H[..., n:, n:] = -np.swapaxes(A, -1, -2)
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
_BLOCK_BYTES = 1 << 18


def _eigvals(H):
    """Unsorted eigenvalues of each matrix in the stack ``H`` and ``{member: error}``.

    One LAPACK call for the stack; each row holds what ``np.linalg.eigvals``
    gives that member alone.  If numpy refuses the stack (a non-finite
    entry, an iteration that fails), each member is solved by
    ``eigenvalues``, and a member it refuses gets a row of NaN and the
    error it raises.
    """
    try:
        return np.linalg.eigvals(H), {}
    except np.linalg.LinAlgError:
        pass
    lam, errors = np.full(H.shape[:2], np.nan, dtype=complex), {}
    for i, h in enumerate(H):
        try:
            lam[i] = eigenvalues(h)
        except GascertError as exc:
            errors[i] = exc
    return lam, errors


def _unique_rows(W):
    """``(owner, ws)``: the finite entries of each row of ``W``, unique and
    ascending as ``np.unique`` gives them, in one array, with the row of each."""
    W = np.sort(W, axis=1)
    keep = np.isfinite(W)
    keep[:, 1:] &= W[:, 1:] != W[:, :-1]
    return np.nonzero(keep)[0], W[keep]


def _axis_frequencies(H):
    """Frequencies ``|Im lambda|`` of the eigenvalues near the axis, for each
    Hamiltonian of the stack ``H``.

    Near is within ``_AXIS_PREFILTER * ||H||_F`` of that member (its own
    2-D Frobenius norm); each member's are unique and ascending.  Only
    candidates: callers confirm each one directly.  Returns ``(owner, ws,
    errors)`` as ``_unique_rows`` and ``_eigvals`` give them.
    """
    lam, errors = _eigvals(H)
    cut = _AXIS_PREFILTER * np.array([np.linalg.norm(h) for h in H])
    return (*_unique_rows(np.where(np.abs(lam.real) <= cut[:, None], np.abs(lam.imag), np.inf)),
            errors)


def _smin_shifted(A, owner, ws):
    """``sigma_min(A[owner[i]] - j ws[i] I)`` for a stack ``A``, one member and
    frequency per entry.

    Computed from the real form ``[[A, wI], [-wI, A]]``, which has the
    singular values of ``A - jwI``, each twice.  The forms go to the SVD
    in blocks of at most ``_BLOCK_BYTES``, so a large stack needs no more
    memory than a few of its members.
    """
    n = A.shape[-1]
    step = max(1, _BLOCK_BYTES // (32 * n * n))
    smin = np.empty(len(ws))
    for k in range(0, len(ws), step):
        w = ws[k:k + step]
        R = np.empty((len(w), 2 * n, 2 * n))
        R[:, :n, :n] = R[:, n:, n:] = A[owner[k:k + step]]
        R[:, :n, n:] = w[:, None, None] * np.eye(n)
        R[:, n:, :n] = -R[:, :n, n:]
        smin[k:k + step] = np.linalg.svd(R, compute_uv=False)[:, -1]
    return smin


def _crossings(A, H, r):
    """The crossing test for a stack: whether the Hamiltonian ``H[i]`` of
    ``A[i]`` has an imaginary-axis eigenvalue, or the error of its eigensolve.

    ``jw`` is an eigenvalue exactly when ``r[i]`` is a singular value of
    ``A[i] - jwI``.  A candidate of ``_axis_frequencies`` is a crossing when
    ``sigma_min(A[i] - jwI) <= r[i]`` at its frequency (up to
    ``_LEVEL_SLACK``), so slow modes of a badly scaled ``A[i]`` are not
    mistaken for axis eigenvalues.
    """
    owner, ws, errors = _axis_frequencies(H)
    crossed = np.zeros(len(H), dtype=bool)
    if ws.size:
        crossed[owner[_smin_shifted(A, owner, ws) <= (1.0 + _LEVEL_SLACK) * r[owner]]] = True
    return [errors.get(i, c) for i, c in enumerate(crossed.tolist())]


def is_hyperbolic(Am, N, q):
    """True iff ``hamiltonian(Am, N, q)`` has no imaginary-axis eigenvalue.

    ``jw`` is an eigenvalue exactly when ``sqrt(N q)`` is a singular value
    of ``Am - jwI``, so for a Hurwitz ``Am`` the verdict is the distance
    condition ``gamma > sqrt(N q)`` (Byers 1988), under which the Riccati
    equation of ``solve_are`` has its stabilizing solution.  The test is
    ``_crossings``, on a stack of one.
    """
    A = as_matrix(Am, "Am", square=True)
    N, q = _check_weights(N, q)
    return not _alone(_crossings(A[None], hamiltonian(A, N, q)[None],
                                 np.array([math.sqrt(N * q)])))


@dataclass(frozen=True, eq=False)
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


def _alone(results):
    """The result of a stack of one, raised if it is an error."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def _standing(out, live, *stacks):
    """``live`` and each stack cut to the members whose outcome ``out`` holds
    none yet; the stacks stay as given when every member, or none, is left."""
    keep = [j for j, i in enumerate(live) if out[i] is None]
    if 0 < len(keep) < len(live):
        stacks = [X[keep] for X in stacks]
    return ([live[j] for j in keep], *stacks)


def _solve_ares(recs, N, q):
    """``solve_are`` for each square record of one size, with its ``N[i]`` and
    ``q[i]``: per record an ``AreSolution`` or the error ``solve_are`` raises.

    Each step is one call for the members still standing, except the Schur
    factorisation, which scipy runs per matrix, and the solve of the basis
    ``[U; V]`` it yields for ``P = V U^{-1}``, run right after it: a singular
    basis is that member's error where it arises.  The members are kept by
    the module's rule.
    """
    out, live, weights = [None] * len(recs), [], []
    for i, rec in enumerate(recs):
        try:
            if not is_hurwitz(rec):
                raise StabilityError("Am is not Hurwitz")
            weights.append(_check_weights(N[i], q[i]))
            live.append(i)
        except (GascertError, ValueError) as exc:
            out[i] = exc
    if not live:
        return out
    n = recs[0].A.shape[0]
    eye = np.eye(n)
    A = np.array([recs[i].A for i in live])
    Nf, qf = (np.array(w)[:, None, None] for w in zip(*weights))
    H = _hamiltonian(A, Nf * eye, qf * eye)
    P = np.empty_like(A)
    for j, crossed in enumerate(_crossings(A, H, np.sqrt(Nf * qf).ravel())):
        if isinstance(crossed, Exception):
            out[live[j]] = crossed
        elif crossed:
            out[live[j]] = StabilityError(
                "Hamiltonian has imaginary-axis eigenvalues: the distance condition is "
                "violated and the Riccati equation has no stabilizing solution")
        else:
            try:
                _, Z, sdim = sla.schur(H[j], output="real", sort="lhp")
            except np.linalg.LinAlgError as exc:
                out[live[j]] = exc
                continue
            if sdim != n:
                out[live[j]] = SolverError(
                    f"stable invariant subspace has dimension {sdim}, expected {n}")
                continue
            try:  # P = V U^{-1}, solved as U' P' = V'
                P[j] = np.linalg.solve(Z[:n, :n].T, Z[n:, :n].T).T
            except np.linalg.LinAlgError as exc:
                out[live[j]] = SolverError(f"invariant-subspace basis is singular: {exc}")
    live, A, Nf, qf, P = _standing(out, live, A, Nf, qf, P)
    if not live:
        return out
    P = 0.5 * (P + P.transpose(0, 2, 1))
    R = A.transpose(0, 2, 1) @ P + P @ A + Nf * P @ P + qf * eye
    residuals = np.array([np.linalg.norm(r) for r in R])
    for j, residual in enumerate(residuals.tolist()):
        bound = 1e-8 * max(1.0, float(np.linalg.norm(P[j])) ** 2)
        if residual > bound:
            out[live[j]] = SolverError(f"Riccati residual {residual:.3e} exceeds tolerance "
                                       f"{bound:.3e} (ill-conditioned invariant subspace)")
    live, A, Nf, P, residuals = _standing(out, live, A, Nf, P, residuals)
    if not live:
        return out
    definite = (np.linalg.eigvalsh(P)[:, 0] > 0.0).tolist()
    lam, errors = _eigvals(A + Nf * P)
    for j, i in enumerate(live):
        w = lam[j]
        if not np.count_nonzero(w.imag):  # as eigvals gives a member alone
            w = w.real
        if not definite[j]:
            out[i] = SolverError("Riccati solution is not positive definite")
        elif j in errors:
            out[i] = errors[j]
        elif w.real.max() >= 0.0:
            out[i] = SolverError("closed-loop matrix Am + N*P is not stable")
        else:
            out[i] = AreSolution(P=P[j], residual_norm=float(residuals[j]),
                                 closed_loop_spectrum=w[np.lexsort((w.imag, w.real))])
    return out


def solve_are(Am, N, q):
    """Solve ``Am'P + P Am + N P^2 + q I = 0`` for the stabilizing P.

    The solution is extracted from the stable invariant subspace of the
    Hamiltonian ``[[Am, N*I], [-q*I, -Am']]``: with an ordered real Schur
    form putting the left-half-plane eigenvalues first, the leading block
    columns ``[U; V]`` span that subspace and ``P = V U^{-1}``.  The
    Hamiltonian is first put to the crossing test of ``is_hyperbolic``.

    Parameters
    ----------
    Am : (n, n) array_like
        Hurwitz matrix.
    N : float
        Non-negative weight of the quadratic term: a number, not only a
        neighbour count.  ``N = 0`` gives the Lyapunov equation
        ``Am'P + P Am + q I = 0``, solved the same way.
    q : float
        Non-negative constant-term weight.

    Raises
    ------
    GascertError, ValueError
        If a weight is not a finite number (named ``N`` or ``q``), or negative.
    StabilityError
        If ``Am`` is not Hurwitz, or the crossing test finds an
        imaginary-axis eigenvalue (distance condition violated: no
        solution exists).
    SolverError
        If the invariant subspace is ill-conditioned or the result
        violates the residual/definiteness contract.
    """
    return _alone(_solve_ares([_record(Am, "Am")], [N], [q]))


def _gains(A, M, owner, ws):
    """Gain ``sigma_max(M (jwI - A[owner[i]])^{-1})`` at each ``w = ws[i]``, and
    ``sigma_min(A[owner[i]] - jwI)``, the reciprocal of the gain, when
    ``M = None`` stands for I (else the gains again)."""
    if M is None:
        smin = _smin_shifted(A, owner, ws)
        return 1.0 / smin, smin
    Z = 1j * ws[:, None, None] * np.eye(A.shape[-1]) - A[owner]
    gains = np.linalg.svd(M @ np.linalg.inv(Z), compute_uv=False)[:, 0]
    return gains, gains


def _segment_argmax(owner, values):
    """``(members, at)``: each member present in ``owner`` and the index of its
    largest value, the first one on a tie, as ``np.argmax`` picks it."""
    order = np.lexsort((-values, owner))
    o = owner[order]
    first = np.ones(len(o), dtype=bool)
    first[1:] = o[1:] != o[:-1]
    return o[first], order[first]


def _peak_gains(recs, M, rtol, dtols):
    """Level-set iteration for ``sup_w sigma_max(M (jwI - A)^{-1})``, for each
    Hurwitz record ``A`` of one size.

    The quadratically convergent scheme of Boyd and Balakrishnan (1990)
    and Bruinsma and Steinbuch (1990).  ``M = None`` stands for the
    identity; a given ``M`` is shared by the stack.  For each member, the
    estimate ``g`` starts as the largest gain at ``w = 0`` and at the
    moduli and imaginary parts of its spectrum.  At each level above ``g``
    the imaginary-axis eigenvalues ``jw`` of the Hamiltonian

        [[Ab, B B' / level], [-C'C / level, -Ab']]

    (``Ab = T^{-1} A T`` balanced, ``B = T^{-1}``, ``C = M T``: the same
    transfer function) are the frequencies where ``level`` is a singular
    value of the response.  Eigenvalues near the axis are only candidates
    (``_axis_frequencies``); one counts as a crossing when the gain at
    ``|Im lambda|`` reaches the level up to ``_LEVEL_SLACK``, so slow modes
    of a badly scaled ``A`` are not taken for crossings.  Because every
    gain is evaluated directly, a wrong candidate costs an evaluation but
    never lifts ``g`` above an attained gain.  ``g`` moves to the largest
    gain at the candidates and at the midpoints between consecutive
    crossings.  A member stops when none of them exceeds its level
    ``g (1 + rtol) / (1 - dtol g)``: the peak is then within ``rtol``
    relative of ``g`` and its reciprocal within ``dtol`` of ``1 / g``.

    Every step is one stacked call for the members still iterating; each
    member meets the same frequencies in the same order as alone, and the
    members are kept by the module's rule.  Returns, per record,
    ``(g, w, s)`` with ``g`` the gain attained at ``w`` and
    ``s = sigma_min(A - jwI)`` (None for a given ``M``), or the error that
    stopped its iteration.
    """
    A = np.array([r.A for r in recs])
    Ab, T, B = (np.array(X) for X in zip(*(r.balanced for r in recs)))
    C = T if M is None else M @ T
    BB, CC = B @ B.transpose(0, 2, 1), C.transpose(0, 2, 1) @ C
    lam = np.array([r.spectrum for r in recs])
    owner, ws = _unique_rows(np.concatenate(
        (np.zeros((len(recs), 1)), np.abs(lam), np.abs(lam.imag)), axis=1))
    gains, smin = _gains(A, M, owner, ws)
    _, at = _segment_argmax(owner, gains)
    # each member's estimate g, attained at w, with s = sigma_min there
    g, w, s, dtol = gains[at], ws[at], smin[at], np.asarray(dtols)
    out, live = [None] * len(recs), list(range(len(recs)))
    done, errors = np.zeros(len(recs), dtype=bool), {}
    for levels in range(_MAX_LEVELS + 1):
        if levels < _MAX_LEVELS:  # 1 / g within dtol of 0: no finite level above g
            done |= dtol * g >= 1.0
        if np.count_nonzero(done):
            for p in np.flatnonzero(done).tolist():
                out[live[p]] = errors.get(p) or (float(g[p]), float(w[p]),
                                                 None if M is not None else float(s[p]))
            live, A, Ab, BB, CC, dtol, g, w, s = _standing(out, live, A, Ab, BB, CC, dtol,
                                                           g, w, s)
        if not live or levels == _MAX_LEVELS:
            break
        level = g * (1.0 + rtol) / (1.0 - dtol * g)
        scale = level[:, None, None]
        pos, cand, errors = _axis_frequencies(_hamiltonian(Ab, BB / scale, CC / scale))
        done = np.ones(len(live), dtype=bool)  # without a candidate the level is not reached
        if pos.size:
            gains, smin = _gains(A, M, pos, cand)
            cross = gains >= (1.0 - _LEVEL_SLACK) * level[pos]
            cpos, cw = pos[cross], cand[cross]
            pair = cpos[1:] == cpos[:-1]
            if np.count_nonzero(pair):  # midpoints between consecutive crossings of one member
                mpos, mids = cpos[1:][pair], 0.5 * (cw[:-1] + cw[1:])[pair]
                mg, ms = _gains(A, M, mpos, mids)
                pos, cand = np.concatenate((pos, mpos)), np.concatenate((cand, mids))
                gains, smin = np.concatenate((gains, mg)), np.concatenate((smin, ms))
            members, at = _segment_argmax(pos, gains)
            up = gains[at] > g[members]
            if np.count_nonzero(up):
                m, a = members[up], at[up]
                g[m], w[m], s[m] = gains[a], cand[a], smin[a]
            done[members] = g[members] <= level[members]
    for i in live:
        out[i] = SolverError(f"level-set iteration did not converge in {_MAX_LEVELS} levels")
    return out


def hinf_gain(M, Am):
    """Peak frequency-response gain ``sup_w sigma_max(M (jwI - Am)^{-1})``.

    Computed by the level-set iteration of ``_peak_gains`` (a stack of
    one) to 1e-12 relative accuracy; the returned value is the gain
    attained at the maximising frequency.  A zero ``M`` gives 0.0.

    Raises
    ------
    StabilityError
        If ``Am`` is not Hurwitz (the gain is unbounded).
    """
    rec = _record(Am, "Am")
    M = as_matrix(M, "M")
    if M.shape[1] != rec.A.shape[0]:
        raise DimensionError(f"M has {M.shape[1]} columns, expected {rec.A.shape[0]}")
    if not is_hurwitz(rec):
        raise StabilityError("Am is not Hurwitz: the H-infinity gain is unbounded")
    if not np.any(M):
        return 0.0
    return _alone(_peak_gains([rec], M, _HINF_RTOL, np.zeros(1)))[0]


def _distances(recs, tols):
    """``distance_to_instability`` of each square record of one size, with
    its tolerance ``tols[i]``: per record the distance or the error it raises."""
    out = [None if is_hurwitz(r) else
           StabilityError("Am is not Hurwitz: the distance to instability is zero")
           for r in recs]
    live = [i for i, o in enumerate(out) if o is None]
    if live:
        peaks = _peak_gains([recs[i] for i in live], None, _DIST_RTOL, np.asarray(tols)[live])
        for i, peak in zip(live, peaks):
            out[i] = peak if isinstance(peak, Exception) else peak[2]
    return out


def distance_to_instability(Am, tol=1e-9):
    """Distance from a Hurwitz matrix to the nearest marginally unstable one.

    The distance ``min over real w of sigma_min(Am - j w I)`` equals
    ``1 / hinf_gain(I, Am)``.  The level-set iteration of ``_peak_gains``
    finds the maximising frequency ``w*`` of that gain, and the distance
    is reported as ``sigma_min(Am - j w* I)`` evaluated there: an attained
    value, within ``tol`` (absolute) above the true distance.
    """
    rec = _record(Am, "Am")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return _alone(_distances([rec], [tol]))
