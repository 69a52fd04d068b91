"""Network data model: subsystem blocks, integral augmentation,
interconnection edges, and the closed-loop global matrix.

A raw subsystem is the usual state-space quintuple (A, B, C, D, E).  For
reference tracking it is augmented with one integral state per controlled
output, and only the blocks something reads are kept:

    B_aug = [[B], [0]]      C_aug = [[C, 0], [0, I]]

This module owns that layout: ``_reference_model`` builds the desired
dynamics ``[[A_nom - B K_x, B K_xi], [-C, 0]]`` from gain blocks, and
``_augment_edge`` pads a raw coupling block to augmented coordinates;
``config`` is the one caller of both.

The plant is integrated in uncertainty form (desired dynamics plus
``B theta'``), so nothing reads an augmented ``A`` or ``D``.  The
reference enters the q integral rows directly; the disturbance, ``r``
wide as ``E`` gives it, is assumed rejected by the baseline loop and
enters no dynamics.  ``AugmentedSubsystem.from_raw`` is the one subsystem
constructor: it reads and checks each raw block once (a ``B`` with at
least one column, the shapes of ``D`` and ``E``, the controllability of a
given ``(A, B)``), builds nothing in place of an absent ``D`` or ``E``,
and makes the blocks it builds read-only; the PBH test takes a record of
the raw rows of its ``B`` block.  Values are immutable after construction
and, holding arrays, compare by identity.  An edge joins two distinct
subsystems and has a coupling matrix or a declared bound on its norm,
never both.  A tuning owns its weight ``Q``: it symmetrizes it and
eigen-solves it once, for the definiteness check and the ``lam_min_Q``
the comparison system reads.  A network first eigen-solves the desired
records it keeps that have no spectrum yet, in one stack per size (a
record shared by subsystems once for all), then reads and checks each
subsystem in turn, its desired record's Hurwitz test included: the one
test the stacked kernels rely on for a network's records.  It solves
every Lyapunov weight, in one stack per size, on the first read of any;
that solve is the one definiteness test of a weight ``P``.  It derives
nothing from its edges.
``_edge_table`` is the one derivation of edge data (positions, and gains
from ``numerics._norms``), built by each pipeline that reads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy.linalg import block_diag

from .exceptions import DimensionError, NonFiniteError, StabilityError
from .numerics import (Checked, _frozen, _held, _lyapunovs, _norms, _own, _per_shape, _rebuilt,
                       _record, _spectra, as_matrix, is_hurwitz, numeric_scalar, spectral_norm)

__all__ = [
    "AugmentedSubsystem",
    "Interconnection",
    "NetworkModel",
    "Tuning",
    "check_controllability",
    "closed_loop_global",
]


def check_controllability(A, B):
    """PBH test: ``[A - lam I, B]`` has full row rank at every eigenvalue of A.

    Rank is judged by the smallest singular value against ``1e-10 *
    max(||A||_2, ||B||_2)``, so the verdict does not depend on how the
    pair is scaled and no power of ``A`` is formed.  A ``Checked`` record
    is taken as read.
    """
    A, B = _record(A, "A"), Checked(B, "B")
    n = A.A.shape[0]
    if B.A.shape[0] != n:
        raise DimensionError(f"B has {B.A.shape[0]} rows, expected {n}")
    pencil = np.empty((n, n, n + B.A.shape[1]), dtype=complex)
    pencil[:, :, :n] = A.A - A.spectrum[:, None, None] * np.eye(n)
    pencil[:, :, n:] = B.A
    smin = np.linalg.svd(pencil, compute_uv=False)[:, -1]
    return bool(np.all(smin > 1e-10 * max(spectral_norm(A), spectral_norm(B))))


@dataclass(frozen=True, init=False, eq=False)
class AugmentedSubsystem:
    """Integral-augmented input and output blocks, built only by ``from_raw``.

    ``B`` is the (n+q, m) augmented input block and ``C`` the (2q, n+q)
    output block (the raw outputs, then the integral states); both are
    read-only.  ``n``, ``q``, ``m`` and ``r`` are the raw state, output,
    input and disturbance widths.  Analysis and simulation need only the
    desired dynamics and these blocks.
    """

    sid: str
    B: np.ndarray
    C: np.ndarray
    n: int
    q: int
    m: int
    r: int

    def __init__(self, *args, **kwargs):
        raise TypeError("build an AugmentedSubsystem with AugmentedSubsystem.from_raw")

    @property
    def dim(self):
        """Augmented state dimension n + q."""
        return self.n + self.q

    @classmethod
    def from_raw(cls, sid, B, C, A=None, D=None, E=None):
        """Build the augmented ``B`` and ``C`` from raw (A, B, C, D, E).

        ``A`` is (n, n), ``B`` (n, m) with m >= 1, ``C`` (q, n), ``D``
        (q, m), ``E`` (n, r).  A given ``A`` must make (A, B) controllable;
        ``A`` may be omitted for an unknown plant, which leaves nothing to
        test but the input count.  Each given block is read and checked
        once; ``A``, ``D`` and ``E`` are not kept.  The blocks built are new
        arrays, made read-only in place; the PBH test takes a record of the
        raw rows of ``B_aug``.
        """
        B = as_matrix(B, f"subsystem {sid}: B")
        C = as_matrix(C, f"subsystem {sid}: C")
        n, m = B.shape
        if m == 0:
            raise DimensionError(f"subsystem {sid}: B has no columns (a subsystem needs an input)")
        q = C.shape[0]
        if C.shape[1] != n:
            raise DimensionError(f"subsystem {sid}: C has {C.shape[1]} cols, expected {n}")
        D, E = (X if X is None else as_matrix(X, f"subsystem {sid}: {name}")
                for X, name in ((D, "D"), (E, "E")))
        if D is not None and D.shape != (q, m):
            raise DimensionError(f"subsystem {sid}: D has shape {D.shape}, expected {(q, m)}")
        if E is not None and E.shape[0] != n:
            raise DimensionError(f"subsystem {sid}: E has {E.shape[0]} rows, expected {n}")
        B_aug = np.zeros((n + q, m))
        B_aug[:n] = B
        if A is not None:
            A = Checked(A, f"subsystem {sid}: A", square=True)
            if A.A.shape[0] != n:
                raise DimensionError(f"subsystem {sid}: A is {A.A.shape[0]}x{A.A.shape[0]}, "
                                     f"expected {n}x{n}")
            if not check_controllability(A, _own(B_aug[:n])):
                raise ValueError(f"subsystem {sid}: (A, B) is not controllable")
        C_aug = np.zeros((2 * q, n + q))
        C_aug[:q, :n] = C
        C_aug[q:, n:] = np.eye(q)
        self = object.__new__(cls)
        self.__setstate__(dict(sid=sid, B=B_aug, C=C_aug, n=n, q=q, m=m,
                               r=0 if E is None else E.shape[1]))
        return self

    def __setstate__(self, fields):  # from_raw's, and a copy's: the blocks made read-only
        vars(self).update(fields)
        for X in fields.values():
            if isinstance(X, np.ndarray):
                X.flags.writeable = False


def _augment_edge(A_ij, q_to, q_from):
    """A raw coupling block read and zero-padded to augmented coordinates.

    ``A_ij`` maps the source's raw state into the destination's raw state
    equations; integral states neither couple nor are coupled, so the block
    lands in the top-left corner of an (n_i+q_i) x (n_j+q_j) zero matrix.
    The counts are the subsystems' own ``q``.
    """
    A_ij = as_matrix(A_ij, "A")
    ni, nj = A_ij.shape
    out = np.zeros((ni + q_to, nj + q_from))
    out[:ni, :nj] = A_ij
    return out


def _reference_model(A_nom, B, C, K_x, K_xi):
    """The desired dynamics ``[[A_nom - B K_x, B K_xi], [-C, 0]]`` of the
    integral-augmented model, from gain blocks and raw ``B`` and ``C`` read
    already, as a ``Checked`` record whose spectrum its Hurwitz test solved;
    a network keeps it as it is.  The record is not read again: only its
    entries' finiteness is checked, since the products of the blocks can
    overflow."""
    n = A_nom.shape[0]
    q = C.shape[0]
    if B.shape[0] != n or C.shape[1] != n:
        raise DimensionError("B/C rows and columns must match A_nom")
    if K_x.shape != (B.shape[1], n) or K_xi.shape != (B.shape[1], q):
        raise DimensionError("gain blocks do not match (m, n) / (m, q)")
    Am = np.zeros((n + q, n + q))
    Am[:n, :n] = A_nom - B @ K_x
    Am[:n, n:] = B @ K_xi
    Am[n:, :n] = -C
    if np.count_nonzero(np.isfinite(Am)) != Am.size:
        raise NonFiniteError("A: non-finite entries")
    Am = _own(Am)
    if not is_hurwitz(Am):
        raise StabilityError("constructed reference model is not Hurwitz")
    return Am


@dataclass(frozen=True, eq=False)
class Interconnection:
    """Directed coupling edge: the state of ``src`` enters subsystem ``dst``,
    another subsystem.

    It has exactly one of ``A``, the augmented coupling block (dim_dst x
    dim_src, stored as a read-only copy, or as it is from a ``Checked``
    record, such as ``config`` makes of ``_augment_edge``'s block), or
    ``norm_bound``, a declared finite bound on its spectral norm; only the
    aggregate bounds can use a bound-only edge (``A is None``).  ``gain()``
    is computed when called; the pipelines take every gain from
    ``_edge_table`` instead.
    """

    src: str
    dst: str
    A: np.ndarray | None = None
    norm_bound: float | None = None

    def __post_init__(self):
        name = f"edge {self.src}->{self.dst}"
        if self.src == self.dst:
            raise ValueError(f"{name}: a subsystem cannot be coupled to itself")
        if (self.A is None) == (self.norm_bound is None):
            raise ValueError(f"{name}: give a coupling matrix A or a norm_bound, not "
                             + ("both" if self.A is not None else "neither"))
        if self.A is None:
            bound = numeric_scalar(self.norm_bound, f"{name}: norm_bound")
            if bound < 0.0:
                raise ValueError(f"{name}: norm_bound must be >= 0")
            object.__setattr__(self, "norm_bound", bound)
        else:
            object.__setattr__(self, "A", _held(self.A, f"{name}: A"))
            if not self.A.any():
                raise ValueError(f"{name}: coupling matrix is zero; omit the edge")

    __reduce__ = _rebuilt

    def gain(self):
        """``norm_bound``, or ``||A||_2`` computed on each call."""
        return self.norm_bound if self.A is None else spectral_norm(self.A)


@dataclass(frozen=True, eq=False)
class Tuning:
    """Per-subsystem analysis/adaptation tuning; ``Q`` is read once and stored
    symmetrized and read-only, and ``lam_min_Q``, its smallest eigenvalue, is
    solved once by its definiteness check: no other module checks ``Q`` or
    eigen-solves it.  ``gamma``, ``eps0`` > 0 and ``theta_max`` >= 0 are
    numbers."""

    Q: np.ndarray
    gamma: float
    theta_max: float
    eps0: float
    lam_min_Q: float = field(default=None, init=False, repr=False)

    def __post_init__(self):
        Q = as_matrix(self.Q, "Q", square=True)
        object.__setattr__(self, "Q", _frozen(0.5 * Q + 0.5 * Q.T))
        object.__setattr__(self, "lam_min_Q", float(np.linalg.eigvalsh(self.Q).min()))
        if self.lam_min_Q <= 0.0:
            raise ValueError("Q must be symmetric positive definite")
        for name in ("gamma", "theta_max", "eps0"):
            object.__setattr__(self, name, numeric_scalar(getattr(self, name), name))
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.theta_max < 0.0:
            raise ValueError("theta_max must be non-negative")
        if self.eps0 <= 0.0:
            raise ValueError("eps0 must be positive")

    __reduce__ = _rebuilt


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Subsystems, coupling edges, desired dynamics, and tuning.

    ``desired`` maps each subsystem id to its Hurwitz target dynamics;
    ``baseline`` to its state-feedback gain (defaults to zero).
    ``subsystems`` and ``edges`` are stored as tuples and checked once;
    ``index`` maps each id to its position in ``subsystems``.  The desired
    records kept as they are (below) that have no spectrum yet are first
    eigen-solved in one ``_per_shape`` call of ``numerics._spectra`` (a
    shared record once); then each subsystem is read and checked in turn,
    and the first error in subsystem order is raised.  Nothing is
    derived from the edges at construction: ``in_edges`` and ``out_edges``
    filter ``edges`` when called, and the gains come from ``_edge_table``.
    The checked per-id values (and ``checked``, the desired matrices'
    records) are stored in new read-only mappings, matrices as read-only copies
    (a ``Checked`` record's matrix, and a zero baseline gain, as they are);
    a desired matrix given as a square ``Checked`` record of the right size
    is kept as that record.  Each record in ``checked`` has passed the
    Hurwitz test, so the stacked kernels take it untested.
    The first ``lyapunov(sid)`` call solves every subsystem's Lyapunov
    weight through one ``numerics._per_shape`` call (one stack per size),
    makes each solution read-only in place and keeps it (``_solved``), or
    keeps the error of a member that fails; a call returns its id's
    solution, or raises its id's error, and solves nothing more.
    A copy (``pickle``, ``copy.deepcopy``) is rebuilt through the
    constructors, so it passes the same checks and holds read-only arrays.
    """

    subsystems: tuple
    edges: tuple
    desired: Mapping
    tuning: Mapping
    baseline: Mapping = field(default_factory=dict)
    index: dict = field(init=False, repr=False)
    checked: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        object.__setattr__(self, "edges", tuple(self.edges))
        ids = [s.sid for s in self.subsystems]
        if len(set(ids)) != len(ids):
            raise ValueError("subsystem ids must be unique")
        if not ids:
            raise ValueError("network has no subsystems")
        object.__setattr__(self, "index", {sid: k for k, sid in enumerate(ids)})
        pairs = set()
        for e in self.edges:
            if (e.src, e.dst) in pairs:
                raise ValueError(f"edge {e.src}->{e.dst}: repeated edge; declare each pair once")
            pairs.add((e.src, e.dst))
            if e.src not in self.index:
                raise ValueError(f"edge {e.src}->{e.dst}: unknown source id")
            if e.dst not in self.index:
                raise ValueError(f"edge {e.src}->{e.dst}: unknown destination id")
            if e.A is not None:
                want = (self.subsystem(e.dst).dim, self.subsystem(e.src).dim)
                if e.A.shape != want:
                    raise DimensionError(
                        f"edge {e.src}->{e.dst}: block is {e.A.shape}, expected {want}"
                    )
        # the desired records the loop keeps as they are, if they have no spectrum
        # yet, are eigen-solved first, in one stack per size (a shared one once)
        _per_shape(_spectra, list({id(r): r for s in self.subsystems if s.sid in self.desired
                                   and isinstance(r := self.desired[s.sid], Checked)
                                   and r.A.shape == (s.dim, s.dim)
                                   and "spectrum" not in vars(r)}.values()))
        desired, tuning, baseline, checked = {}, {}, {}, {}
        for sid, s in zip(ids, self.subsystems):
            if sid not in self.desired:
                raise ValueError(f"subsystem {sid}: missing desired dynamics")
            Am = self.desired[sid]
            if not (isinstance(Am, Checked) and Am.A.shape == (s.dim, s.dim)):
                Am = Checked(Am, f"subsystem {sid}: desired dynamics", square=True)
            if Am.A.shape[0] != s.dim:
                raise DimensionError(f"subsystem {sid}: desired dynamics is "
                                     f"{Am.A.shape[0]}x{Am.A.shape[0]}, expected {s.dim}")
            if not is_hurwitz(Am):
                raise StabilityError(f"subsystem {sid}: desired dynamics is not Hurwitz")
            checked[sid], desired[sid] = Am, Am.A
            if sid not in self.tuning:
                raise ValueError(f"subsystem {sid}: missing tuning")
            tuning[sid] = self.tuning[sid]
            Q = tuning[sid].Q
            if Q.shape[0] != s.dim:
                raise DimensionError(
                    f"subsystem {sid}: Q is {Q.shape[0]}x{Q.shape[0]}, expected {s.dim}"
                )
            K = self.baseline.get(sid)
            K = (_frozen(np.zeros((s.m, s.dim))) if K is None
                 else _held(K, f"subsystem {sid}: baseline gain"))
            if K.shape != (s.m, s.dim):
                raise DimensionError(
                    f"subsystem {sid}: baseline gain is {K.shape}, expected {(s.m, s.dim)}"
                )
            baseline[sid] = K
        for name, value in (("desired", desired), ("tuning", tuning), ("baseline", baseline),
                            ("checked", checked)):
            object.__setattr__(self, name, MappingProxyType(value))

    def __reduce__(self):  # rebuilt through the constructor, which keeps the desired records
        return NetworkModel, (self.subsystems, self.edges, dict(self.checked), dict(self.tuning),
                              dict(self.baseline))

    @property
    def ids(self):
        return [s.sid for s in self.subsystems]

    def subsystem(self, sid) -> AugmentedSubsystem:
        return self.subsystems[self.index[sid]]

    def in_edges(self, sid):
        """Edges whose coupling enters subsystem ``sid`` (its neighbour set),
        filtered from ``edges``."""
        return tuple(e for e in self.edges if e.dst == sid)

    def out_edges(self, sid):
        """Edges whose coupling leaves subsystem ``sid``, filtered from ``edges``."""
        return tuple(e for e in self.edges if e.src == sid)

    def neighbor_count(self, sid):
        return len(self.in_edges(sid))

    @cached_property
    def _solved(self):
        """Every subsystem's Lyapunov solution, made read-only in place, or its
        error, by id: one ``_per_shape`` call of ``numerics._lyapunovs`` on the
        ``checked`` records, which are Hurwitz by construction."""
        solved = _per_shape(_lyapunovs, [self.checked[i] for i in self.ids],
                            [self.tuning[i].Q for i in self.ids])
        return {sid: P if isinstance(P, Exception) else _frozen(P)
                for sid, P in zip(self.ids, solved)}

    def lyapunov(self, sid):
        """``P_i`` solving ``A_m' P + P A_m + Q_i = 0`` for the desired dynamics
        and tuning weight of ``sid``, as ``solve_lyapunov`` gives it; the error
        ``solve_lyapunov`` raises is raised here.  The first call solves every
        subsystem's (``_solved``, kept as ``Checked.spectrum`` keeps a
        spectrum)."""
        P = self._solved[sid]
        if isinstance(P, Exception):
            raise P
        return P


def _edge_table(net: NetworkModel):
    """Source position, destination position (by ``net.index``) and gain of
    each edge, three arrays in ``net.edges`` order.

    A matrix edge's gain is ``numerics._norms``' (one SVD per block shape,
    bit for bit ``np.linalg.norm(A, 2)``); a bound-only edge's is its bound.
    """
    pos = np.array([(net.index[e.src], net.index[e.dst]) for e in net.edges], dtype=np.intp)
    gain = np.array([e.norm_bound if e.A is None else 0.0 for e in net.edges])
    matrix = [k for k, e in enumerate(net.edges) if e.A is not None]
    gain[matrix] = _norms([net.edges[k] for k in matrix])
    return *pos.reshape(-1, 2).T, gain


def closed_loop_global(net: NetworkModel):
    """Global matrix of the converged closed loop.

    Block-diagonal desired dynamics plus the off-diagonal coupling blocks;
    the decomposition into those two parts is exact by construction.
    """
    out = block_diag(*(net.desired[sid] for sid in net.ids))
    offsets = np.cumsum([0] + [s.dim for s in net.subsystems])
    for e in net.edges:
        if e.A is None:
            raise ValueError(f"edge {e.src}->{e.dst}: bound-only edge cannot be assembled")
        i, j = net.index[e.dst], net.index[e.src]
        out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = e.A
    return out
