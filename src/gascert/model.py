"""Network data model: subsystem blocks, integral augmentation,
interconnection edges, and global block assembly.

A raw subsystem is the usual state-space quintuple (A, B, C, D, E).  For
reference tracking it is augmented with one integral state per controlled
output; the augmented blocks follow the fixed layout

    A_aug = [[A, 0], [-C, 0]]      B_aug = [[B], [0]]
    C_aug = [[C, 0], [0, I]]       D_aug = [[D], [0]]
    E_aug = [[E, 0], [0, I]]       F     = diag(0_n, I_q)

so the stacked exogenous input is [d; r] and ``F @ E_aug`` keeps only the
reference rows (the baseline loop is assumed to reject the physical
disturbance).  Values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .exceptions import DimensionError, StabilityError
from .numerics import as_matrix, is_hurwitz, spectral_norm

__all__ = [
    "AugmentedSubsystem",
    "Interconnection",
    "NetworkModel",
    "Tuning",
    "assemble_global",
    "augment_edge",
    "check_controllability",
    "closed_loop_global",
]


def check_controllability(A, B):
    """Kalman rank test: rank([B, AB, ..., A^(n-1) B]) == n.

    Rank is measured by singular values with a relative tolerance of
    1e-10 against the largest one, so verdicts are reproducible.
    """
    A = as_matrix(A, "A", square=True)
    B = as_matrix(B, "B")
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return n == 0
    return bool(np.sum(sv > 1e-10 * sv[0]) == n)


@dataclass(frozen=True)
class AugmentedSubsystem:
    """Integral-augmented subsystem blocks; build them with ``from_raw``.

    ``A`` may be None when the plant state matrix is unknown (analysis and
    simulation only need the desired dynamics and the input/output blocks);
    global open-loop assembly then refuses to run.
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

    def __post_init__(self):
        p = self.n + self.q
        B = as_matrix(self.B, f"subsystem {self.sid}: augmented B")
        if B.shape != (p, self.m):
            raise DimensionError(
                f"subsystem {self.sid}: augmented B has shape {B.shape}, expected {(p, self.m)}"
            )
        if self.q and np.any(B[self.n:, :] != 0.0):
            raise ValueError(f"subsystem {self.sid}: augmented B must have zero integral rows")
        if self.A is not None:
            A = as_matrix(self.A, f"subsystem {self.sid}: augmented A", square=True)
            if A.shape[0] != p:
                raise DimensionError(
                    f"subsystem {self.sid}: augmented A is {A.shape[0]}x{A.shape[0]}, expected {p}x{p}"
                )
            if self.q:
                Craw = self.C[: self.q, : self.n]
                if not np.array_equal(A[self.n:, : self.n], -Craw):
                    raise ValueError(
                        f"subsystem {self.sid}: augmented A integral rows must equal -C"
                    )
                if np.any(A[:, self.n:] != 0.0):
                    raise ValueError(
                        f"subsystem {self.sid}: augmented A integral columns must be zero"
                    )
            object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self):
        """Augmented state dimension n + q."""
        return self.n + self.q

    @classmethod
    def from_raw(cls, sid, B, C, A=None, D=None, E=None):
        """Build the augmented blocks from raw (A, B, C, D, E).

        ``A`` is (n, n), ``B`` (n, m), ``C`` (q, n), ``D`` (q, m), ``E``
        (n, r).  A given ``A`` must make (A, B) controllable; ``A`` may be
        omitted for an unknown plant, which leaves nothing to test.
        """
        B = as_matrix(B, f"subsystem {sid}: B")
        C = as_matrix(C, f"subsystem {sid}: C")
        n, m = B.shape
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
            A = as_matrix(A, f"subsystem {sid}: A", square=True)
            if A.shape[0] != n:
                raise DimensionError(f"subsystem {sid}: A is {A.shape[0]}x{A.shape[0]}, expected {n}x{n}")
            if not check_controllability(A, B):
                raise ValueError(f"subsystem {sid}: (A, B) is not controllable")
            A_aug = np.zeros((p, p))
            A_aug[:n, :n] = A
            A_aug[n:, :n] = -C
        B_aug = np.zeros((p, m))
        B_aug[:n] = B
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
        return cls(sid=sid, A=A_aug, B=B_aug, C=C_aug, D=D_aug, E=E_aug, F=F,
                   n=n, q=q, m=m, r=r)


def augment_edge(A_ij, q_to, q_from):
    """Zero-pad a raw coupling block to augmented coordinates.

    ``A_ij`` maps the source's raw state into the destination's raw state
    equations; integral states neither couple nor are coupled, so the block
    lands in the top-left corner of an (n_i+q_i) x (n_j+q_j) zero matrix.
    """
    A_ij = as_matrix(A_ij, "A_ij")
    if q_to < 0 or q_from < 0:
        raise ValueError("integral-state counts must be non-negative")
    ni, nj = A_ij.shape
    out = np.zeros((ni + q_to, nj + q_from))
    out[:ni, :nj] = A_ij
    return out


@dataclass(frozen=True)
class Interconnection:
    """Directed coupling edge: the state of ``src`` enters subsystem ``dst``.

    ``A`` is the augmented coupling block (dim_dst x dim_src).  An edge can
    be declared bound-only, with a worst-case spectral-norm bound instead
    of (or in addition to) an explicit matrix.
    """

    src: str
    dst: str
    A: np.ndarray | None = None
    bound_only: bool = False
    norm_bound: float | None = None
    _gain: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.A is None and not self.bound_only:
            raise ValueError(f"edge {self.src}->{self.dst}: matrix required unless bound_only")
        if self.bound_only and self.norm_bound is None:
            raise ValueError(f"edge {self.src}->{self.dst}: bound_only edge needs norm_bound")
        if self.norm_bound is not None and self.norm_bound < 0.0:
            raise ValueError(f"edge {self.src}->{self.dst}: norm_bound must be >= 0")
        if self.A is not None:
            A = as_matrix(self.A, f"edge {self.src}->{self.dst}: A")
            if not np.any(A):
                raise ValueError(
                    f"edge {self.src}->{self.dst}: coupling matrix is zero; omit the edge"
                )
            object.__setattr__(self, "A", A)

    def gain(self):
        """Spectral norm used in the aggregate bounds (declared bound wins).

        The edge is frozen, so the norm is computed once and kept.
        """
        if self.bound_only:
            return float(self.norm_bound)
        if self._gain is None:
            object.__setattr__(self, "_gain", spectral_norm(self.A))
        return self._gain


@dataclass(frozen=True)
class Tuning:
    """Per-subsystem analysis/adaptation tuning."""

    Q: np.ndarray
    gamma: float
    theta_max: float
    eps0: float

    def __post_init__(self):
        Q = as_matrix(self.Q, "Q", square=True)
        if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) <= 0.0:
            raise ValueError("Q must be symmetric positive definite")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.theta_max < 0.0:
            raise ValueError("theta_max must be non-negative")
        if self.eps0 <= 0.0:
            raise ValueError("eps0 must be positive")
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))


@dataclass
class NetworkModel:
    """Subsystems, coupling edges, desired dynamics, and tuning.

    ``desired`` maps each subsystem id to its Hurwitz target dynamics;
    ``baseline`` to its state-feedback gain (defaults to zero).
    """

    subsystems: list
    edges: list
    desired: dict
    tuning: dict
    baseline: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [s.sid for s in self.subsystems]
        if len(set(ids)) != len(ids):
            raise ValueError("subsystem ids must be unique")
        if not ids:
            raise ValueError("network has no subsystems")
        self._by_id = {s.sid: s for s in self.subsystems}
        pairs = set()
        for e in self.edges:
            if (e.src, e.dst) in pairs:
                raise ValueError(f"edge {e.src}->{e.dst}: repeated edge; declare each pair once")
            pairs.add((e.src, e.dst))
            if e.src not in self._by_id:
                raise ValueError(f"edge {e.src}->{e.dst}: unknown source id")
            if e.dst not in self._by_id:
                raise ValueError(f"edge {e.src}->{e.dst}: unknown destination id")
            if e.A is not None:
                want = (self._by_id[e.dst].dim, self._by_id[e.src].dim)
                if e.A.shape != want:
                    raise DimensionError(
                        f"edge {e.src}->{e.dst}: block is {e.A.shape}, expected {want}"
                    )
        for sid in ids:
            if sid not in self.desired:
                raise ValueError(f"subsystem {sid}: missing desired dynamics")
            Am = as_matrix(self.desired[sid], f"subsystem {sid}: desired dynamics", square=True)
            if Am.shape[0] != self._by_id[sid].dim:
                raise DimensionError(
                    f"subsystem {sid}: desired dynamics is {Am.shape[0]}x{Am.shape[0]}, "
                    f"expected {self._by_id[sid].dim}"
                )
            if not is_hurwitz(Am):
                raise StabilityError(f"subsystem {sid}: desired dynamics is not Hurwitz")
            self.desired[sid] = Am
            if sid not in self.tuning:
                raise ValueError(f"subsystem {sid}: missing tuning")
            Q = self.tuning[sid].Q
            if Q.shape[0] != self._by_id[sid].dim:
                raise DimensionError(
                    f"subsystem {sid}: Q is {Q.shape[0]}x{Q.shape[0]}, expected {self._by_id[sid].dim}"
                )
            s = self._by_id[sid]
            K = self.baseline.get(sid)
            K = np.zeros((s.m, s.dim)) if K is None else as_matrix(K, f"subsystem {sid}: baseline gain")
            if K.shape != (s.m, s.dim):
                raise DimensionError(
                    f"subsystem {sid}: baseline gain is {K.shape}, expected {(s.m, s.dim)}"
                )
            self.baseline[sid] = K

    @property
    def ids(self):
        return [s.sid for s in self.subsystems]

    def subsystem(self, sid) -> AugmentedSubsystem:
        return self._by_id[sid]

    def in_edges(self, sid):
        """Edges whose coupling enters subsystem ``sid`` (its neighbour set)."""
        return [e for e in self.edges if e.dst == sid]

    def out_edges(self, sid):
        return [e for e in self.edges if e.src == sid]

    def neighbor_count(self, sid):
        return len(self.in_edges(sid))


def _coupled_block_diag(net: NetworkModel, diag):
    """Block-diagonal ``diag`` with each edge's block at (destination, source)."""
    out = block_diag(*diag)
    offsets = np.cumsum([0] + [s.dim for s in net.subsystems])
    index = {sid: k for k, sid in enumerate(net.ids)}
    for e in net.edges:
        if e.A is None:
            raise ValueError(f"edge {e.src}->{e.dst}: bound-only edge cannot be assembled")
        i, j = index[e.dst], index[e.src]
        out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = e.A
    return out


def assemble_global(net: NetworkModel):
    """Assemble the open-loop global matrices (A, B, C, D, E).

    ``A`` carries the subsystem state blocks on the diagonal and the
    coupling blocks off-diagonal; ``B, C, D, E`` are block-diagonal.
    Subsystem order follows ``net.subsystems``.
    """
    subs = net.subsystems
    for s in subs:
        if s.A is None:
            raise ValueError(
                f"subsystem {s.sid}: state matrix unknown; open-loop assembly needs it"
            )
    A = _coupled_block_diag(net, [s.A for s in subs])
    B = block_diag(*[s.B for s in subs])
    C = block_diag(*[s.C for s in subs])
    D = block_diag(*[s.D for s in subs])
    E = block_diag(*[s.E for s in subs])
    return A, B, C, D, E


def closed_loop_global(net: NetworkModel):
    """Global matrix of the converged closed loop.

    Block-diagonal desired dynamics plus the off-diagonal coupling blocks;
    the decomposition into those two parts is exact by construction.
    """
    return _coupled_block_diag(net, [net.desired[sid] for sid in net.ids])
