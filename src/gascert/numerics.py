"""Dense real-matrix kernels that the rest of the package builds on.

Spectra, norms, Lyapunov and Riccati solves, one imaginary-axis crossing
test for the Riccati Hamiltonian (shared with the Riccati solve), and one
level-set Hamiltonian iteration, entered only by ``_peak_gains``, that
gives both the H-infinity gain and the distance to instability.  This
module owns every accuracy rule: acceptance bounds are fixed, the
level-set kernel sets its own accuracy, and only the public
``distance_to_instability`` lets a caller set one (its ``tol``).  The
Riccati solve works in units where its matrix, weight and solution are of
order one, so its verdict does not depend on the time unit.  All
functions are pure: they keep no state and are safe to call concurrently
on shared read-only inputs.  Intended problem sizes are small (n up to a
few tens).  The read rule: caller arrays are read once, by
``numeric_array``, into read-only copies, and matrices derived inside the
kernels are read and checked by it too; ``Checked`` records are not read
again (``_held`` takes a record's array as it is), and neither are the
arrays the package derives from numbers it has read by zero-padding,
halving and adding, or filling with zeros (a tuning's symmetrized weight,
an edge block, a zero baseline gain, ``from_raw``'s blocks) or by
assembling blocks checked to be finite (a gain-block reference model):
such an array is made read-only in place (``_frozen``), and ``_own``
makes a record of it where a record is wanted (an edge block, a
gain-block reference model, the rows of ``B`` the PBH test takes).  Each
check of a Lyapunov weight has one owner: ``model.Tuning`` checks its
``Q`` (and keeps ``lam_min(Q)``), ``solve_lyapunov`` a caller's at its
door, and the stacked kernel takes weights so checked, as the Riccati
kernel takes its weights.

Spectra are solved in stacks: ``_spectra`` solves same-size records by
one ``_eigvals`` call, each row sorted and typed as ``eigenvalues`` gives
that member alone, and keeps each as its record's ``spectrum``;
``Checked.spectrum`` is a stack of one, and a network's Hurwitz test
solves every desired record without a spectrum in one ``_per_shape``
call.

The crossing test, the level-set iteration, the Riccati solve and the
Lyapunov solve each run on a stack of records of one size, one LAPACK call
per step for the whole stack, except the Schur factorisations (Riccati and
Lyapunov), the solve of the Riccati basis and the triangular Lyapunov
solve, which run per member; every member's numbers are those it gets
alone, and a member's error is its own.  The per-matrix LAPACK routines
(``dgees``, ``dgebal``, ``dtrsyl``) are called directly, without scipy's
per-call layer, in scipy's arithmetic, so each result is the one
``scipy.linalg.schur``, ``matrix_balance`` or ``solve_continuous_lyapunov``
gives, bit for bit.  The public kernels are stacks of one, each finished
by ``_alone``.  The level-set iteration takes one
output matrix per member and starts each member from ``w = 0`` and the
distinct ``|Im lambda|`` of its spectrum.  The stacked kernels keep their
members by one rule: the stacks hold only the members still standing, and
one ``live`` list holds their record ids; a step that decides a member's
outcome writes it to ``out`` once; and the stacks are cut (``_standing``)
only after a step at which some member has left.

Stacks are formed by one rule, ``_per_shape``, and nowhere else: the work
items (records, or edges: anything with a matrix ``A``) are grouped by
the shape of that matrix and of their entry in each per-member column,
each group goes to a same-shape kernel in one call, in order of first
appearance, and every result, an error value too, is put back at its
item's place.  ``_norms`` is the spectral norm on that rule.  ``certify``,
``small_gain_check``, the edge table, the network's Lyapunov weights and
the comparison system's extremes of ``P`` ask these two for their
stacks; the stacked kernels take numbers their callers have read and
checked.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import InitVar, dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.linalg.lapack import dgebal, dgees, dtrsyl

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
    # an int or a float, numpy's default ones too (never a bool), read without an array
    if type(value) in (int, float, np.int64, np.float64) and abs(value) <= sys.float_info.max:
        return float(value)
    A = numeric_array(value, name)
    if A.ndim:
        raise DimensionError(f"{name}: expected a number, got ndim={A.ndim}")
    return float(A)


def _frozen(A):  # A made read-only in place
    A.flags.writeable = False
    return A


def _held(M, name, square=False):  # a record's array as is, else M read into a read-only copy
    A = as_matrix(M, name, square)
    return A if isinstance(M, Checked) else _frozen(A.copy())


def _own(A):
    """A ``Checked`` record of ``A``, a 2-D float array the package built from
    numbers it has read (finite by construction, or checked finite), made
    read-only in place and not read again."""
    rec = object.__new__(Checked)
    object.__setattr__(rec, "A", _frozen(A))
    return rec


def _rebuilt(value):  # a frozen dataclass's __reduce__: its constructor on its init fields
    return type(value), tuple(getattr(value, f.name) for f in fields(value) if f.init)


@dataclass(frozen=True, eq=False)
class Checked:
    """A matrix read once (``A``, read-only), its ``spectrum`` and its balancing
    ``balanced``, each solved on first use and kept read-only."""

    A: np.ndarray
    name: InitVar[str] = "matrix"
    square: InitVar[bool] = False

    def __post_init__(self, name, square):
        object.__setattr__(self, "A", _held(self.A, name, square))

    __reduce__ = _rebuilt  # a copy is read and checked again; its spectrum solved on use

    @cached_property
    def spectrum(self):
        return _alone(_spectra([self]))

    @cached_property
    def balanced(self):
        """``(Ab, T, T^{-1})`` with ``Ab = T^{-1} A T`` from LAPACK's ``dgebal``
        (permuting and scaling), ``T`` built as ``scipy.linalg.matrix_balance``
        builds it; the inverse is exact, ``T`` being a permuted diagonal of
        powers of two."""
        Ab, lo, hi, ps, _ = dgebal(self.A, scale=1, permute=1)
        n = len(ps)
        scaling = np.ones(n)
        scaling[lo:hi + 1] = ps[lo:hi + 1]
        perm = np.arange(n)
        # dgebal's row and column swaps: positions n-1 down to hi+1, then 0 up to lo-1
        for k in chain(range(n - 1, hi, -1), range(lo)):
            j = int(ps[k]) - 1
            perm[[j, k]] = perm[[k, j]]
        T = np.diag(scaling)[np.argsort(perm)]
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


def _exponents(X):
    """The binary exponent ``e`` of each member's largest ``|entry|`` (``frexp``'s),
    for a stack ``X``: ``2^-e X[i]`` has every entry below 1."""
    return np.frexp(np.abs(X).max(axis=(-2, -1)))[1]


def _scales(X):
    """``c = 2^-e`` for each member of the stack ``X`` whose largest ``|entry|``
    has a binary exponent ``e`` above 500, else ``c = 1``: the squares of the
    entries of ``c X[i]`` stay finite, and the other members keep their bits."""
    e = _exponents(X)
    return np.ldexp(1.0, np.where(e > 500, -e, 0))


def _frobenius(X):
    """``np.linalg.norm`` of each member of the stack ``X``, bit for bit: the
    square root of the dot product of each flattened member with itself."""
    f = X.reshape(len(X), 1, X.shape[1] * X.shape[2])
    return np.sqrt((f @ f.transpose(0, 2, 1))[:, 0, 0])


def _gees_lwork(n):
    """The workspace ``dgees`` asks for an ``n x n`` matrix, queried as
    ``scipy.linalg.schur`` queries it; it depends on ``n`` alone."""
    return int(dgees(_unsorted, np.zeros((n, n)), lwork=-1)[-2][0])


def _unsorted(x, y=None):
    return None


def _lhp(x, y=None):
    return x.real < 0.0


def _schur(a, lwork, lhp=False):
    """``scipy.linalg.schur(a, output="real")`` by one ``dgees`` call with the
    workspace ``lwork``, with its ``sort="lhp"`` when ``lhp``: ``(T, Z, sdim)``.
    Raises ``np.linalg.LinAlgError``, with scipy's message, where scipy does."""
    t, sdim, _, _, z, _, info = dgees(_lhp if lhp else _unsorted, a, lwork=lwork,
                                      sort_t=int(lhp))
    if info == len(a) + 1:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    if info == len(a) + 2:
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
    if info:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, z, sdim


def _bartels_stewart(a, q, lwork):
    """``scipy.linalg.solve_continuous_lyapunov(a, q)``, the ``X`` with
    ``a X + X a' = q``, by scipy's arithmetic (Bartels and Stewart 1972): the
    real Schur form ``a = u r u'``, then ``dtrsyl`` on ``u' q u``."""
    r, u, _ = _schur(a, lwork)
    f = u.T.dot(q.dot(u))
    y, scale, info = dtrsyl(r, r, f, tranb="T")
    if info == 1:
        warnings.warn('Input "a" has an eigenvalue pair whose sum is very close to or '
                      'exactly zero. The solution is obtained via perturbing the '
                      'coefficients.', RuntimeWarning)
    y *= scale
    return u.dot(y).dot(u.T)


def _lyapunovs(recs, Q):
    """``solve_lyapunov`` for each square record of one size, with its weight
    ``Q[i]`` (``Q`` one stack of weights the caller has checked, as
    ``solve_lyapunov`` does at its door): per record the solution or the
    error ``solve_lyapunov`` raises past that door.

    The Hurwitz test, the Schur factorisation and the triangular solve run
    per member, and a failing one is that member's error.  The members are
    kept by the module's rule.
    """
    out = [None if is_hurwitz(r) else StabilityError(
        "A is not Hurwitz: the Lyapunov equation has no positive definite solution")
        for r in recs]
    live = [i for i, o in enumerate(out) if o is None]
    if not live:
        return out
    A, Q = np.array([recs[i].A for i in live]), Q[live]
    P = np.empty_like(A)
    lwork = _gees_lwork(A.shape[1])
    for j, i in enumerate(live):
        try:  # A'P + PA = -Q
            P[j] = _bartels_stewart(A[j].T, -Q[j], lwork)
        except np.linalg.LinAlgError as exc:
            out[i] = exc
    live, A, Q, P = _standing(out, live, A, Q, P)
    if not live:
        return out
    P = 0.5 * (P + P.transpose(0, 2, 1))
    # the test on 2^a A, 2^k P and 2^(a+k) Q, whose residual is 2^(a+k) times
    # the true one: exact, and every entry is below 1, so no norm overflows
    a = -_exponents(A)
    k = -np.maximum(_exponents(P), _exponents(Q) + a)
    As, Ps, Qs = (np.ldexp(X, e[:, None, None]) for X, e in ((A, a), (P, k), (Q, a + k)))
    scale = _frobenius(As) * _frobenius(Ps) + _frobenius(Qs)
    residual = _frobenius(As.transpose(0, 2, 1) @ Ps + Ps @ As + Qs)
    for j, i in enumerate(live):
        if not residual[j] <= 1e-10 * scale[j]:
            out[i] = SolverError(
                f"Lyapunov residual {np.ldexp(residual[j], -a[j] - k[j]):.3e} exceeds "
                f"1e-10 * scale ({np.ldexp(1e-10 * scale[j], -a[j] - k[j]):.3e})")
    live, P = _standing(out, live, P)
    if not live:
        return out
    for i, p, w in zip(live, P, np.linalg.eigvalsh(P).min(axis=1).tolist()):
        out[i] = SolverError("Lyapunov solution is not positive definite") if w <= 0.0 else p
    return out


def solve_lyapunov(A, Q):
    """Solve the continuous Lyapunov equation ``A'P + PA + Q = 0``.

    Accepted when the Frobenius residual is at most
    ``1e-10 * (||A||_F ||P||_F + ||Q||_F)``, with A, P and Q scaled by powers
    of two (A by its own, P and Q by one shared) so that no norm overflows.
    The kernel ``_lyapunovs``, on a stack of one.

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
    rec = _record(A, "A")
    Q = as_matrix(Q, "Q", square=True)
    if Q.shape != rec.A.shape:
        raise DimensionError(f"Q must match A: {Q.shape} vs {rec.A.shape}")
    if np.abs(Q - Q.T).max() > 1e-12 * max(1.0, np.abs(Q).max()):
        raise ValueError("Q must be symmetric")
    if np.linalg.eigvalsh(0.5 * Q + 0.5 * Q.T).min() <= 0.0:
        raise ValueError("Q must be positive definite")
    return _alone(_lyapunovs([rec], Q[None]))


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


def _spectra(recs):
    """``eigenvalues`` of each square record of one size, read-only and kept
    as the record's ``spectrum``, or the error it raises: one ``_eigvals``
    call for the stack, each row sorted and typed as ``np.linalg.eigvals``
    gives that member alone."""
    lam, errors = _eigvals(np.array([r.A for r in recs]))
    lam = _frozen(np.take_along_axis(lam, np.lexsort((lam.imag, lam.real)), axis=-1))
    real = ~lam.imag.any(axis=-1)
    for i, rec in enumerate(recs):
        if i not in errors:  # kept where the cached property keeps it
            vars(rec)["spectrum"] = lam[i].real if real[i] else lam[i]
    return [errors.get(i) or vars(r)["spectrum"] for i, r in enumerate(recs)]


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
    candidates: callers confirm each one directly.  The norm would overflow
    for entries beyond about 1e154, so each member's is taken as
    ``||c H||_F / c`` with its power of two ``c`` from ``_scales``.
    Returns ``(owner, ws, errors)`` as ``_unique_rows`` and ``_eigvals``
    give them.
    """
    lam, errors = _eigvals(H)
    c = _scales(H)
    cut = _AXIS_PREFILTER * _frobenius(c[:, None, None] * H) / c
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
    eye = np.eye(A.shape[0])
    return not _alone(_crossings(A[None], _hamiltonian(A, N * eye, q * eye)[None],
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


def _per_shape(kernel, items, *cols):
    """``kernel`` run once per shape group of ``items``: its results, one per
    item, in ``items`` order.

    Each column of ``cols`` holds one entry per item.  The items whose
    matrix ``A``, and whose entry in each column, have the same shapes form
    one group, and ``kernel(group, *stacks)`` runs once per group, in order
    of first appearance, with the group's entries of each column stacked as
    one array.  It returns one result per member, an error value too.
    """
    groups = {}
    for k, item in enumerate(items):
        groups.setdefault((item.A.shape, *(np.shape(c[k]) for c in cols)), []).append(k)
    out = {}
    for ks in groups.values():
        out.update(zip(ks, kernel([items[k] for k in ks],
                                  *(np.array([c[k] for k in ks]) for c in cols))))
    return [out[k] for k in range(len(items))]


def _norms(items):
    """``sigma_max`` of each item's matrix ``A``, an array in ``items`` order:
    one SVD per shape, each bit for bit ``spectral_norm``."""
    return np.array(_per_shape(
        lambda group: np.linalg.svd(np.array([x.A for x in group]), compute_uv=False)[:, 0],
        items))


def _standing(out, live, *stacks):
    """``live`` and each stack cut to the members whose outcome ``out`` holds
    none yet; the stacks stay as given when every member, or none, is left,
    and a ``None`` stack (no stack at all) stays ``None``."""
    keep = [j for j, i in enumerate(live) if out[i] is None]
    if 0 < len(keep) < len(live):
        stacks = [X if X is None else X[keep] for X in stacks]
    return ([live[j] for j in keep], *stacks)


def _solve_ares(recs, N, q):
    """``solve_are`` for each square record of one size, with its weights
    ``N[i]`` and ``q[i]`` (two stacks of numbers the caller has read and
    checked, as ``solve_are`` does at its door): per record an
    ``AreSolution`` or the error ``solve_are`` raises past that door.

    Each member is solved in units where ``Am``, ``q`` and ``P`` are of
    order one, so the verdict does not depend on the time unit: ``Am / c``,
    ``N d / c`` and ``q / (c d)`` give ``P / d``, for the power of two ``c``
    of the largest ``|entry|`` of ``Am`` and ``d`` of ``q / (2 min |Re
    lambda|)``, the size of ``P``; ``P``, the residual (times ``c d``) and
    the closed-loop spectrum are reported in the caller's units.  A member
    whose ``c`` and ``d`` both lie within ``2^±8`` keeps ``c = d = 1``.

    Each step is one call for the members still standing, except the Schur
    factorisation (``_schur``, one ``dgees`` call per matrix) and the solve
    of the basis ``[U; V]`` it yields for ``P = V U^{-1}``, run right after
    it: a singular basis is that member's error where it arises.  The
    members are kept by the module's rule.
    """
    out = [None if is_hurwitz(r) else StabilityError("Am is not Hurwitz") for r in recs]
    live = [i for i, o in enumerate(out) if o is None]
    if not live:
        return out
    n = recs[0].A.shape[0]
    eye = np.eye(n)
    A = np.array([recs[i].A for i in live])
    Nf, qf = (np.asarray(w)[live, None, None] for w in (N, q))
    a = _exponents(A)  # c = 2^a, d = 2^b
    b = np.frexp(qf.ravel())[1] - np.frexp([-2.0 * recs[i].spectrum.real.max() for i in live])[1]
    a, b = (np.where((np.abs(a) > 8) | (np.abs(b) > 8), e, 0) for e in (a, b))
    A, Nf, qf = (np.ldexp(X, e[:, None, None]) for X, e in ((A, -a), (Nf, b - a), (qf, -a - b)))
    H = _hamiltonian(A, Nf * eye, qf * eye)
    P = np.empty_like(A)
    lwork = _gees_lwork(2 * n)
    for j, crossed in enumerate(_crossings(A, H, np.sqrt(Nf * qf).ravel())):
        if isinstance(crossed, Exception):
            out[live[j]] = crossed
        elif crossed:
            out[live[j]] = StabilityError(
                "Hamiltonian has imaginary-axis eigenvalues: the distance condition is "
                "violated and the Riccati equation has no stabilizing solution")
        else:
            try:
                _, Z, sdim = _schur(H[j], lwork, lhp=True)
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
    live, A, Nf, qf, P, a, b = _standing(out, live, A, Nf, qf, P, a, b)
    if not live:
        return out
    P = 0.5 * (P + P.transpose(0, 2, 1))
    R = A.transpose(0, 2, 1) @ P + P @ A + Nf * P @ P + qf * eye
    residuals = np.ldexp(_frobenius(R), a + b)
    for j, (residual, norm) in enumerate(zip(residuals.tolist(), _frobenius(P).tolist())):
        bound = math.ldexp(1e-8 * max(1.0, norm ** 2), int(a[j] + b[j]))
        if residual > bound:
            out[live[j]] = SolverError(f"Riccati residual {residual:.3e} exceeds tolerance "
                                       f"{bound:.3e} (ill-conditioned invariant subspace)")
    live, A, Nf, P, residuals, a, b = _standing(out, live, A, Nf, P, residuals, a, b)
    if not live:
        return out
    definite = (np.linalg.eigvalsh(P)[:, 0] > 0.0).tolist()
    lam, errors = _eigvals(np.ldexp(A + Nf * P, a[:, None, None]))
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
            out[i] = AreSolution(P=np.ldexp(P[j], b[j]), residual_norm=float(residuals[j]),
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
    rec = _record(Am, "Am")
    N, q = _check_weights(N, q)
    return _alone(_solve_ares([rec], [N], [q]))


def _gains(A, M, owner, ws):
    """Gain ``sigma_max(M[owner[i]] (jwI - A[owner[i]])^{-1})`` at each
    ``w = ws[i]``, and ``sigma_min(A[owner[i]] - jwI)``, the reciprocal of the
    gain, when ``M = None`` stands for I (else the gains again)."""
    if M is None:
        smin = _smin_shifted(A, owner, ws)
        return 1.0 / smin, smin
    Z = 1j * ws[:, None, None] * np.eye(A.shape[-1]) - A[owner]
    gains = np.linalg.svd(M[owner] @ np.linalg.inv(Z), compute_uv=False)[:, 0]
    return gains, gains


def _segment_argmax(owner, values):
    """``(members, at)``: each member present in ``owner`` and the index of its
    largest value, the first one on a tie, as ``np.argmax`` picks it."""
    order = np.lexsort((-values, owner))
    o = owner[order]
    first = np.ones(len(o), dtype=bool)
    first[1:] = o[1:] != o[:-1]
    return o[first], order[first]


def _peak_gains(recs, M=None, dtols=None):
    """Level-set iteration for ``sup_w sigma_max(M[i] (jwI - A)^{-1})``, for
    each square record ``A = recs[i]`` of one size: the one entry to it.

    The quadratically convergent scheme of Boyd and Balakrishnan (1990)
    and Bruinsma and Steinbuch (1990).  ``M = None`` stands for the
    identity and gives the distance to instability; a given ``M`` is a
    stack of shape ``(k, p, n)``, one output matrix per record (a shared
    one passed as a broadcast stack), and gives the H-infinity gain.  A
    record that is not Hurwitz gets the ``StabilityError`` of
    ``distance_to_instability`` or ``hinf_gain``.  The kernel sets its own
    accuracy: relative ``_HINF_RTOL`` for a gain; for a distance relative
    ``_DIST_RTOL`` and absolute ``dtols[i]``, which only the public
    ``distance_to_instability`` gives, else ``1e-12 * ||A||_2``, so a
    distance scales with the matrix (no absolute floor: the time unit does
    not move the relative accuracy).  For each member, the estimate ``g``
    starts as the largest gain at ``w = 0`` and at the distinct
    ``|Im lambda|`` of its spectrum.  Since
    ``sigma_min(A - jwI) <= |lambda - jw|``, which is ``|Re lambda|`` at
    ``w = Im lambda``, these are where a lightly damped pole lifts the
    gain; the moduli ``|lambda|`` of Bruinsma and Steinbuch lie next to
    them for such a pole and are not added.  The iteration converges from
    any start below the peak, under the same stopping rule.  At each level
    above ``g`` the imaginary-axis eigenvalues ``jw`` of the Hamiltonian

        [[Ab, B B' / level], [-C'C / level, -Ab']]

    (``Ab = T^{-1} A T`` balanced, ``B = T^{-1}``, ``C = M T``: the same
    transfer function) are the frequencies where ``level`` is a singular
    value of the response.  ``C'C`` would overflow for an entry of ``C``
    beyond about 1.3e154, so each member takes ``c C`` and ``c level`` in
    place of ``C`` and ``level``, with its power of two ``c`` from
    ``_scales`` (``2^-e`` for the binary exponent ``e`` of an entry of at
    least ``2^500``, else 1): a diagonal similarity, so the eigenvalues
    are the same.  The gains are evaluated with ``M`` as given.  Eigenvalues
    near the axis are only candidates (``_axis_frequencies``); one counts
    as a crossing when the gain at ``|Im lambda|`` reaches the level up to
    ``_LEVEL_SLACK``, so slow modes of a badly scaled ``A`` are not taken
    for crossings.  Because every gain is evaluated directly, a wrong
    candidate costs an evaluation but never lifts ``g`` above an attained
    gain.  ``g`` moves to the largest gain at the candidates and at the
    midpoints between consecutive crossings.  A member stops when none of
    them exceeds its level ``g (1 + rtol) / (1 - dtol g)``: the peak is
    then within ``rtol`` relative of ``g`` and its reciprocal within
    ``dtol`` of ``1 / g``.  A zero ``M[i]`` (``g = 0`` at ``w = 0``) stops
    at once with the gain 0.

    Every step is one stacked call for the members still iterating; each
    member meets the same frequencies in the same order as alone, and the
    members are kept by the module's rule.  Returns, per record, the
    distance ``sigma_min(A - jwI)`` attained at ``w`` for ``M = None``,
    else ``(g, w)`` with ``g`` the gain attained at ``w``; or the error
    that stopped its iteration.
    """
    why = "distance to instability is zero" if M is None else "H-infinity gain is unbounded"
    out = [None if is_hurwitz(r) else StabilityError(f"Am is not Hurwitz: the {why}") for r in recs]
    live = [i for i, o in enumerate(out) if o is None]
    if not live:
        return out
    A = np.array([recs[i].A for i in live])
    if M is not None:
        M, rtol, dtol = M[live], _HINF_RTOL, np.zeros(len(live))
    elif dtols is None:
        rtol, dtol = _DIST_RTOL, 1e-12 * np.linalg.svd(A, compute_uv=False)[:, 0]
    else:
        rtol, dtol = _DIST_RTOL, np.asarray(dtols)[live]
    Ab, T, B = (np.array(X) for X in zip(*(recs[i].balanced for i in live)))
    C = T if M is None else M @ T
    c = _scales(C)
    C = c[:, None, None] * C
    BB, CC = B @ B.transpose(0, 2, 1), C.transpose(0, 2, 1) @ C
    lam = np.array([recs[i].spectrum for i in live])
    owner, ws = _unique_rows(np.concatenate((np.zeros((len(live), 1)), np.abs(lam.imag)),
                                            axis=1))
    gains, smin = _gains(A, M, owner, ws)
    _, at = _segment_argmax(owner, gains)
    # each member's estimate g, attained at w, with s = sigma_min there
    g, w, s = gains[at], ws[at], smin[at]
    done, errors = np.zeros(len(live), dtype=bool), {}
    for levels in range(_MAX_LEVELS + 1):
        if levels < _MAX_LEVELS:  # 1 / g within dtol of 0, or a zero M: no level above g
            done |= (dtol * g >= 1.0) | (g == 0.0)
        if np.count_nonzero(done):
            for p in np.flatnonzero(done).tolist():
                out[live[p]] = errors.get(p) or (float(s[p]) if M is None
                                                 else (float(g[p]), float(w[p])))
            live, A, M, Ab, BB, CC, c, dtol, g, w, s = _standing(out, live, A, M, Ab, BB, CC,
                                                                 c, dtol, g, w, s)
        if not live or levels == _MAX_LEVELS:
            break
        level = g * (1.0 + rtol) / (1.0 - dtol * g)
        scale = (c * level)[:, None, None]
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
    one), which tests ``Am`` and sets the accuracy (1e-12 relative); the
    returned value is the gain attained at the maximising frequency.  A
    zero ``M`` gives 0.0, after that test.

    Raises
    ------
    StabilityError
        If ``Am`` is not Hurwitz (the gain is unbounded).
    """
    rec = _record(Am, "Am")
    M = as_matrix(M, "M")
    if M.shape[1] != rec.A.shape[0]:
        raise DimensionError(f"M has {M.shape[1]} columns, expected {rec.A.shape[0]}")
    return _alone(_peak_gains([rec], M[None]))[0]


def distance_to_instability(Am, tol=1e-9):
    """Distance from a Hurwitz matrix to the nearest marginally unstable one.

    The distance ``min over real w of sigma_min(Am - j w I)`` equals
    ``1 / hinf_gain(I, Am)``.  The level-set iteration of ``_peak_gains``
    finds the maximising frequency ``w*`` of that gain, and the distance
    is reported as ``sigma_min(Am - j w* I)`` evaluated there: an attained
    value, within ``tol`` (absolute) above the true distance.
    """
    rec = _record(Am, "Am")
    tol = numeric_scalar(tol, "tol")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return _alone(_peak_gains([rec], None, [tol]))
