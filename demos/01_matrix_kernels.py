#!/usr/bin/env python3
"""Tour of the dense-matrix kernels everything else is built on.

Covers spectra, Lyapunov solves, the Hamiltonian hyperbolicity test, the
Riccati solve via the stable invariant subspace, and the level-set
iteration behind both the distance to instability and the peak gain.
"""

import numpy as np

from gascert import (
    distance_to_instability,
    eigenvalues,
    hamiltonian,
    hinf_gain,
    is_hyperbolic,
    solve_are,
    solve_lyapunov,
    spectral_norm,
)

# ---------------------------------------------------------------------------
# Spectra and norms
# ---------------------------------------------------------------------------
A = np.array([[-2.0, 1.0], [-1.0, 0.0]])
print("A =\n", A)
print("eigenvalues:", eigenvalues(A))          # double pole at -1
print("spectral norm:", spectral_norm(A))

# ---------------------------------------------------------------------------
# Lyapunov: A'P + PA + Q = 0 with Q = I
# ---------------------------------------------------------------------------
P = solve_lyapunov(A, np.eye(2))
print("\nLyapunov solution P =\n", P)
print("residual:", np.linalg.norm(A.T @ P + P @ A + np.eye(2)))
print("P eigenvalues:", np.linalg.eigvalsh(P))

# ---------------------------------------------------------------------------
# Hamiltonian hyperbolicity: the solvability test for the Riccati equation
# ---------------------------------------------------------------------------
# scalar example a = -2, one neighbour, unit coupling energy: eigenvalues
# come out at +-sqrt(3), safely off the imaginary axis
H = hamiltonian([[-2.0]], 1, 1.0)
print("\nH =\n", H)
print("H eigenvalues:", eigenvalues(H))
print("hyperbolic:", is_hyperbolic([[-2.0]], 1, 1.0))

# the same construction at a = -1 puts a double eigenvalue at the origin:
# the coupling level exactly matches the distance to instability
print("marginal case hyperbolic:", is_hyperbolic([[-1.0]], 1, 1.0))

# ---------------------------------------------------------------------------
# Riccati: A'P + PA + N P^2 + q I = 0, stabilizing root
# ---------------------------------------------------------------------------
sol = solve_are([[-2.0]], 1, 1.0)
print("\nscalar Riccati: p =", sol.P[0, 0], " (analytic 2 - sqrt(3) =",
      2.0 - np.sqrt(3.0), ")")
print("closed-loop eigenvalue:", sol.closed_loop_spectrum)
print("residual:", sol.residual_norm)

# ---------------------------------------------------------------------------
# Distance to instability: level-set iteration vs a brute-force frequency scan
# ---------------------------------------------------------------------------
M = np.array([[-1.0, 10.0], [0.0, -1.0]])
d = distance_to_instability(M, 1e-10)
ws = np.linspace(0.0, 25.0, 20001)
brute = min(np.linalg.svd(M - 1j * w * np.eye(2), compute_uv=False)[-1] for w in ws)
print("\nshear matrix distance:", d, " brute force:", brute)
print("note how far it sits from the eigenvalues (both at -1):",
      "non-normality shrinks the distance")

# ---------------------------------------------------------------------------
# Peak frequency-response gain
# ---------------------------------------------------------------------------
print("\npeak gain of 1/(s+2):", hinf_gain([[1.0]], [[-2.0]]), "(exact 0.5)")
w0, zeta = 2.0, 0.05
osc = np.array([[0.0, 1.0], [-w0 * w0, -2.0 * zeta * w0]])
print("peak gain of a lightly damped oscillator:",
      hinf_gain(np.array([[1.0, 0.0]]), osc))
