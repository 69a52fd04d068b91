"""Network data model: subsystem blocks, integral augmentation,
interconnection edges, and the closed-loop global matrix.

A raw subsystem is the usual state-space quintuple (A, B, C, D, E).  For
reference tracking it is augmented with one integral state per controlled
output; the augmented blocks follow the fixed layout

    A_aug = [[A, 0], [-C, 0]]      B_aug = [[B], [0]]
    C_aug = [[C, 0], [0, I]]       D_aug = [[D], [0]]
    E_aug = [[E, 0], [0, I]]       F     = diag(0_n, I_q)

so the stacked exogenous input is [d; r] and ``F @ E_aug`` keeps only the
reference rows (the baseline loop is assumed to reject the physical
disturbance).  ``AugmentedSubsystem.from_raw`` is the one subsystem
constructor: it reads each raw block once and makes the blocks it builds
read-only.  Values are immutable after construction and, holding arrays,
compare by identity.  An edge joins two distinct subsystems and has a
coupling matrix or a declared bound on its norm, never both.  A network
eigen-solves each desired record once (a record shared by subsystems
once for all), takes its edge gains from one SVD per block shape, and
solves each Lyapunov weight on its first read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy.linalg import block_diag

from .exceptions import DimensionError, StabilityError
from .numerics import (Checked, as_matrix, is_hurwitz, numeric_scalar, solve_lyapunov,
                       spectral_norm)

__all__ = [
    "AugmentedSubsystem",
    "Interconnection",
    "NetworkModel",
    "Tuning",
    "augment_edge",
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
    A, B = Checked(A, "A", square=True), Checked(B, "B")
    n = A.A.shape[0]
    if B.A.shape[0] != n:
        raise DimensionError(f"B has {B.A.shape[0]} rows, expected {n}")
    if n == 0:
        return True
    pencil = np.empty((n, n, n + B.A.shape[1]), dtype=complex)
    pencil[:, :, :n] = A.A - A.spectrum[:, None, None] * np.eye(n)
    pencil[:, :, n:] = B.A
    smin = np.linalg.svd(pencil, compute_uv=False)[:, -1]
    return bool(np.all(smin > 1e-10 * max(spectral_norm(A), spectral_norm(B))))


@dataclass(frozen=True, init=False, eq=False)
class AugmentedSubsystem:
    """Integral-augmented subsystem blocks, built only by ``from_raw``.

    The blocks are read-only.  ``A`` may be None when the plant state
    matrix is unknown: analysis and simulation only need the desired
    dynamics and the input/output blocks.
    """

    sid: str
    A: np.ndarray | None
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
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
        """Build the augmented blocks from raw (A, B, C, D, E).

        ``A`` is (n, n), ``B`` (n, m), ``C`` (q, n), ``D`` (q, m), ``E``
        (n, r).  A given ``A`` must make (A, B) controllable; ``A`` may be
        omitted for an unknown plant, which leaves nothing to test.  Each
        given block is read once; the blocks built from them are new
        arrays, made read-only in place.
        """
        B = Checked(B, f"subsystem {sid}: B")  # a record: the PBH test reads it no more
        C = as_matrix(C, f"subsystem {sid}: C")
        n, m = B.A.shape
        q = C.shape[0]
        if C.shape[1] != n:
            raise DimensionError(f"subsystem {sid}: C has {C.shape[1]} cols, expected {n}")
        D = np.zeros((q, m)) if D is None else as_matrix(D, f"subsystem {sid}: D")
        E = np.zeros((n, 0)) if E is None else as_matrix(E, f"subsystem {sid}: E")
        if D.shape != (q, m):
            raise DimensionError(f"subsystem {sid}: D has shape {D.shape}, expected {(q, m)}")
        if E.shape[0] != n:
            raise DimensionError(f"subsystem {sid}: E has {E.shape[0]} rows, expected {n}")
        r = E.shape[1]
        p = n + q
        A_aug = None
        if A is not None:
            A = Checked(A, f"subsystem {sid}: A", square=True)
            if A.A.shape[0] != n:
                raise DimensionError(f"subsystem {sid}: A is {A.A.shape[0]}x{A.A.shape[0]}, "
                                     f"expected {n}x{n}")
            if not check_controllability(A, B):
                raise ValueError(f"subsystem {sid}: (A, B) is not controllable")
            A_aug = np.zeros((p, p))
            A_aug[:n, :n] = A.A
            A_aug[n:, :n] = -C
        B_aug = np.zeros((p, m))
        B_aug[:n] = B.A
        C_aug = np.zeros((2 * q, p))
        C_aug[:q, :n] = C
        C_aug[q:, n:] = np.eye(q)
        D_aug = np.zeros((2 * q, m))
        D_aug[:q] = D
        E_aug = np.zeros((p, r + q))
        E_aug[:n, :r] = E
        E_aug[n:, r:] = np.eye(q)
        F = np.zeros((p, p))
        F[n:, n:] = np.eye(q)
        blocks = {"A": A_aug, "B": B_aug, "C": C_aug, "D": D_aug, "E": E_aug, "F": F}
        for X in blocks.values():
            if X is not None:
                X.flags.writeable = False
        self = object.__new__(cls)
        vars(self).update(sid=sid, **blocks, n=n, q=q, m=m, r=r)
        return self


def augment_edge(A_ij, q_to, q_from):
    """Zero-pad a raw coupling block to augmented coordinates.

    ``A_ij`` maps the source's raw state into the destination's raw state
    equations; integral states neither couple nor are coupled, so the block
    lands in the top-left corner of an (n_i+q_i) x (n_j+q_j) zero matrix.
    """
    A_ij = as_matrix(A_ij, "A")
    if q_to < 0 or q_from < 0:
        raise ValueError("integral-state counts must be non-negative")
    ni, nj = A_ij.shape
    out = np.zeros((ni + q_to, nj + q_from))
    out[:ni, :nj] = A_ij
    return out


@dataclass(frozen=True, eq=False)
class Interconnection:
    """Directed coupling edge: the state of ``src`` enters subsystem ``dst``,
    another subsystem.

    It has exactly one of ``A``, the augmented coupling block (dim_dst x
    dim_src, stored as ``checked.A``), or ``norm_bound``, a declared
    finite bound on its spectral norm; only the aggregate bounds can use a
    bound-only edge (``A is None``).
    """

    src: str
    dst: str
    A: np.ndarray | None = None
    norm_bound: float | None = None
    checked: Checked | None = field(default=None, init=False, repr=False)
    _gain: float | None = field(default=None, init=False, repr=False)

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
            object.__setattr__(self, "_gain", bound)
        else:
            object.__setattr__(self, "checked", Checked(self.A, f"{name}: A"))
            object.__setattr__(self, "A", self.checked.A)
            if not np.any(self.A):
                raise ValueError(f"{name}: coupling matrix is zero; omit the edge")

    def gain(self):
        """``norm_bound``, or ``||A||_2`` computed once (by a network it is in)."""
        if self._gain is None:
            object.__setattr__(self, "_gain", spectral_norm(self.checked))
        return self._gain


@dataclass(frozen=True, eq=False)
class Tuning:
    """Per-subsystem analysis/adaptation tuning; ``Q`` is stored symmetrized,
    as ``checked.A``.  ``gamma``, ``eps0`` > 0 and ``theta_max`` >= 0 are numbers."""

    Q: np.ndarray
    gamma: float
    theta_max: float
    eps0: float
    checked: Checked = field(default=None, init=False, repr=False)

    def __post_init__(self):
        Q = as_matrix(self.Q, "Q", square=True)
        object.__setattr__(self, "checked", Checked(0.5 * (Q + Q.T), "Q"))
        object.__setattr__(self, "Q", self.checked.A)
        if np.min(np.linalg.eigvalsh(self.Q)) <= 0.0:
            raise ValueError("Q must be symmetric positive definite")
        for name in ("gamma", "theta_max", "eps0"):
            object.__setattr__(self, name, numeric_scalar(getattr(self, name), name))
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.theta_max < 0.0:
            raise ValueError("theta_max must be non-negative")
        if self.eps0 <= 0.0:
            raise ValueError("eps0 must be positive")


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Subsystems, coupling edges, desired dynamics, and tuning.

    ``desired`` maps each subsystem id to its Hurwitz target dynamics;
    ``baseline`` to its state-feedback gain (defaults to zero).
    ``subsystems`` and ``edges`` are stored as tuples and checked once;
    ``index`` maps each id to its position in ``subsystems``; the in- and
    out-edges of every id and the edge gains are tabulated at construction.
    The checked per-id values (and ``checked``, the desired matrices'
    records) are stored in new read-only mappings, matrices as read-only copies;
    a desired matrix given as a square ``Checked`` record of the right size
    is kept as that record.
    ``lyapunov(sid)`` solves that subsystem's Lyapunov weight on its first
    call and returns the same read-only array after.
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
        incoming = {sid: [] for sid in ids}
        outgoing = {sid: [] for sid in ids}
        pairs, shapes = set(), {}
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
                shapes.setdefault(want, []).append(e)
            incoming[e.dst].append(e)
            outgoing[e.src].append(e)
        object.__setattr__(self, "_in", {sid: tuple(v) for sid, v in incoming.items()})
        object.__setattr__(self, "_out", {sid: tuple(v) for sid, v in outgoing.items()})
        for group in shapes.values():  # bit for bit np.linalg.norm(A, 2) of each
            gains = np.linalg.svd(np.stack([e.A for e in group]), compute_uv=False)[:, 0]
            for e, g in zip(group, gains.tolist()):
                object.__setattr__(e, "_gain", g)
        object.__setattr__(self, "_lyapunov", {})
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
            K = Checked(np.zeros((s.m, s.dim)) if K is None else K,
                        f"subsystem {sid}: baseline gain").A
            if K.shape != (s.m, s.dim):
                raise DimensionError(
                    f"subsystem {sid}: baseline gain is {K.shape}, expected {(s.m, s.dim)}"
                )
            baseline[sid] = K
        for name, value in (("desired", desired), ("tuning", tuning), ("baseline", baseline),
                            ("checked", checked)):
            object.__setattr__(self, name, MappingProxyType(value))

    @property
    def ids(self):
        return [s.sid for s in self.subsystems]

    def subsystem(self, sid) -> AugmentedSubsystem:
        return self.subsystems[self.index[sid]]

    def in_edges(self, sid):
        """Edges whose coupling enters subsystem ``sid`` (its neighbour set)."""
        return self._in.get(sid, ())

    def out_edges(self, sid):
        return self._out.get(sid, ())

    def neighbor_count(self, sid):
        return len(self.in_edges(sid))

    def lyapunov(self, sid):
        """``P_i`` solving ``A_m' P + P A_m + Q_i = 0`` for the desired dynamics
        and tuning weight of ``sid``; solved on the first call only."""
        P = self._lyapunov.get(sid)
        if P is None:
            P = Checked(solve_lyapunov(self.checked[sid], self.tuning[sid].checked), "P").A
            self._lyapunov[sid] = P
        return P


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
