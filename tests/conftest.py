"""Shared test helpers: random stable matrices and networks, and
independent oracles.

The oracles here deliberately avoid the code paths they check: the
distance and peak-gain oracles scan dense frequency grids, the Hurwitz
oracle for 3x3 matrices runs the Routh conditions on cofactor-expanded
characteristic-polynomial coefficients, and ranks cross-check against
numpy's own heuristic.
"""

import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from gascert import AugmentedSubsystem, Interconnection, NetworkModel, Tuning

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def random_hurwitz(rng, n, scale=1.0):
    """Random Hurwitz matrix: shift a random matrix left of the axis."""
    A = rng.normal(size=(n, n)) * scale
    margin = rng.uniform(0.2, 2.0) * scale
    shift = np.max(np.linalg.eigvals(A).real)
    return A - (shift + margin) * np.eye(n)


def mixed_net(rng, sizes, per_size, coupling, spread=0.0):
    """Subsystems of each state size in ``sizes``, ``per_size`` of each in
    shuffled id order, with random desired dynamics (entries scaled by up
    to ``10**spread``) and random couplings of scale ``coupling``; about
    one edge in ten is bound-only."""
    dims = rng.permutation(np.repeat(sizes, per_size)).tolist()
    ids = [f"s{k:02d}" for k in range(len(dims))]
    dim = dict(zip(ids, dims))
    subs = [AugmentedSubsystem.from_raw(sid, B=np.eye(n)[:, :1], C=np.zeros((0, n)))
            for sid, n in dim.items()]
    desired = {sid: random_hurwitz(rng, n, 10.0 ** rng.uniform(-spread, spread))
               for sid, n in dim.items()}
    edges = []
    for i in ids:
        for j in ids:
            if i != j and rng.uniform() < 0.15:
                if rng.uniform() < 0.1:
                    edges.append(Interconnection(src=j, dst=i,
                                                 norm_bound=coupling * rng.uniform()))
                else:
                    edges.append(Interconnection(src=j, dst=i,
                                                 A=coupling * rng.normal(size=(dim[i], dim[j]))))
    tuning = {sid: Tuning(Q=np.eye(n), gamma=1.0, theta_max=1.0, eps0=0.1)
              for sid, n in dim.items()}
    return NetworkModel(subsystems=subs, edges=edges, desired=desired, tuning=tuning)


def graph_edges(rng, kind, n):
    """``(src, dst, gain)`` edges of a ring, a grid mesh (both ways) or a random
    graph with one-way edges, on ids ``s0``.. whose string order is not numeric."""
    if kind == "ring":
        pairs = [(k, (k + 1) % n) for k in range(n)]
    elif kind == "mesh":
        side = math.isqrt(n)
        pairs = [(k, k + d) for k in range(n) for d in (1, side)
                 if k + d < n and (d == side or (k + 1) % side)]
    else:
        pairs = [(k, int(j)) for k in range(n)
                 for j in rng.choice([j for j in range(n) if j != k], 2, replace=False)]
    both = kind != "random"
    edges = {(f"s{a}", f"s{b}") for a, b in pairs} | {(f"s{b}", f"s{a}") for a, b in pairs if both}
    return [(src, dst, float(rng.uniform(0.1, 2.0))) for src, dst in sorted(edges)]


def graph_net(rng, kind, n):
    """A ring, mesh or random graph (``graph_edges``) of subsystems of 1 to 3
    states, about one edge in five bound-only."""
    dim = {f"s{k}": int(rng.integers(1, 4)) for k in rng.permutation(n)}
    edges = [Interconnection(src=src, dst=dst, norm_bound=g) if rng.uniform() < 0.2
             else Interconnection(src=src, dst=dst, A=g * rng.normal(size=(dim[dst], dim[src])))
             for src, dst, g in graph_edges(rng, kind, n)]
    return NetworkModel(
        subsystems=[AugmentedSubsystem.from_raw(sid, B=np.eye(k)[:, :1], C=np.zeros((0, k)))
                    for sid, k in dim.items()],
        edges=edges, desired={sid: random_hurwitz(rng, k) for sid, k in dim.items()},
        tuning={sid: Tuning(Q=np.eye(k), gamma=1.0, theta_max=1.0, eps0=0.1)
                for sid, k in dim.items()})


def _sweep_extremum(f, A, sign, points=2000):
    """Minimise ``sign * f(w)`` over ``w >= 0``: log grid, then local refinement.

    The grid holds ``w = 0``, the imaginary parts of the eigenvalues of
    ``A`` and ``points`` frequencies from six decades below the smallest
    eigenvalue modulus to two decades above the largest, so the slow modes
    of badly scaled matrices are resolved.  The three best grid points are
    refined between their neighbours.
    """
    lam = np.linalg.eigvals(A)
    mags = np.maximum(np.abs(lam), 1e-12)
    grid = np.unique(np.concatenate([
        [0.0], np.abs(lam.imag), np.geomspace(1e-6 * mags.min(), 1e2 * mags.max(), points)]))
    vals = np.array([sign * f(w) for w in grid])
    best = float(vals.min())
    for k in np.argsort(vals)[:3]:
        lo = grid[k - 1] if k > 0 else 0.0
        hi = grid[k + 1] if k + 1 < grid.size else 2.0 * grid[k] + 1.0
        res = minimize_scalar(lambda w: sign * f(w), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-13 * max(hi, 1.0)})
        best = min(best, float(res.fun))
    return sign * best


def sweep_distance_oracle(A):
    """Brute-force min over w of sigma_min(A - jwI) on a log-spaced grid."""
    A = np.asarray(A, dtype=float)
    eye = np.eye(A.shape[0])
    return _sweep_extremum(
        lambda w: np.linalg.svd(A - 1j * w * eye, compute_uv=False)[-1], A, 1.0)


def sweep_hinf_oracle(M, A):
    """Brute-force sup over w of sigma_max(M (jwI - A)^{-1}) on a log-spaced grid."""
    M = np.asarray(M, dtype=float)
    A = np.asarray(A, dtype=float)
    eye = np.eye(A.shape[0])
    return _sweep_extremum(
        lambda w: np.linalg.svd(M @ np.linalg.solve(1j * w * eye - A, eye),
                                compute_uv=False)[0], A, -1.0)


def spread_normal(rng):
    """Normal Hurwitz matrix whose eigenvalues span 1e-2 to 1e6 in modulus.

    The slowest pair is -1e-2 +- 5j, so the distance to instability is
    exactly 1e-2 and is attained at w = 5, not at w = 0.  A random
    orthogonal similarity hides the block structure.
    """
    D = np.zeros((9, 9))
    D[0, 0] = -1e-1
    D[1:3, 1:3] = [[-1e-2, 5.0], [-5.0, -1e-2]]
    D[3:5, 3:5] = [[-10.0, 1e2], [-1e2, -10.0]]
    D[5, 5] = -1e3
    D[6:8, 6:8] = [[-1e4, 1e5], [-1e5, -1e4]]
    D[8, 8] = -1e6
    Q = np.linalg.qr(rng.normal(size=(9, 9)))[0]
    return Q @ D @ Q.T


def assert_same_bits(got, want):
    """``got`` and ``want`` are the same array to the bit (so -0.0 != 0.0)."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got, want)


def char_poly_3x3(A):
    """Characteristic polynomial s^3 + a2 s^2 + a1 s + a0 by cofactors."""
    A = np.asarray(A, dtype=float)
    tr = A[0, 0] + A[1, 1] + A[2, 2]
    minors = (
        A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
        + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
    )
    det = (
        A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
        - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
        + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
    )
    return -tr, minors, -det


def routh_hurwitz_3x3(A):
    """Routh verdict for a 3x3 matrix: a2 > 0, a0 > 0, a2*a1 > a0."""
    a2, a1, a0 = char_poly_3x3(A)
    return a2 > 0.0 and a0 > 0.0 and a2 * a1 > a0


# The strong-coupling benchmark pair.  The desired-dynamics matrix has its
# (1,3) entry adjusted in the last printed digit (1.13e6 -> 1.132e6) so it
# is Hurwitz, which every analysis here requires; see the fixture config.
DC_AM = np.array([
    [-3.51e6, 4.0e3, 1.132e6],
    [5.12e6, -9.0e4, -1.65e6],
    [0.0, -1.0, 0.0],
])
DC_AM_PRINTED = np.array([
    [-3.51e6, 4.0e3, 1.13e6],
    [5.12e6, -9.0e4, -1.65e6],
    [0.0, -1.0, 0.0],
])
DC_A12 = np.zeros((3, 3))
DC_A12[1, 1] = 5.32e4
DC_A21 = np.zeros((3, 3))
DC_A21[1, 1] = 3.87e4
DC_B1 = np.array([[1.34e7], [-8.12e5], [0.0]])
