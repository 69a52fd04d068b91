#!/usr/bin/env python3
"""Per-subsystem Riccati certificates: margins, slack picks, and what the
certificate is monotone in.

Each subsystem is certified on its own: its incoming coupling energy is
summed, the distance from the target dynamics to instability is found by
a level-set Hamiltonian iteration, and a positive margin buys a slack term that keeps the Riccati equation
solvable with a definite solution.  Communication mirrors the coupling
graph, so the test scales with the number of neighbours, not the network.
"""

from pathlib import Path

import numpy as np

from gascert import (
    NetworkModel,
    certify,
    distance_to_instability,
    epsilon_margin,
    interconnection_energy,
)
from gascert.config import load_config

configs = Path(__file__).resolve().parent / "configs"

# ---------------------------------------------------------------------------
# The coupled pair the aggregate test refused (coupling 0.1 each way)
# ---------------------------------------------------------------------------
net, scenario, _ = load_config(configs / "toy_pair.json")
gamma = distance_to_instability(net.desired["a"], 1e-12)
print("distance to instability of the target dynamics:", gamma)
print("coupling energy into 'a':", interconnection_energy(net, "a"))

cert = certify(net)
print("certified:", cert.certified)
for c in cert.subsystems:
    print(f"  {c.sid}: neighbours={c.n_neighbors}  energy={c.coupling_energy:.4f}  "
          f"distance={c.distance:.6f}  margin={c.margin:.6f}  "
          f"slack={c.epsilon:.6f}  residual={c.are_residual:.2e}")
print("P for 'a':\n", cert.P("a"))

# compare: the aggregate test fails on this very network
from gascert import analyze

print("aggregate test on the same pair:", "pass" if analyze(net).passed else "fail")

# ---------------------------------------------------------------------------
# Margins are monotone in the declared coupling
# ---------------------------------------------------------------------------
print("\nmargin as the coupling energy grows (a = -2 scalar target):")
gamma2 = distance_to_instability([[-2.0]], 1e-12)
for xi2 in (0.0, 0.5, 1.0, 2.0, 4.0):
    m = gamma2 - np.sqrt(xi2)
    tag = ""
    if m > 0:
        eps = epsilon_margin(gamma2, 1, xi2)
        tag = f" -> slack {eps:.4f}"
    print(f"  energy {xi2:4.1f}: margin {m:+.4f}{tag}")

# ---------------------------------------------------------------------------
# A six-subsystem mesh, certified the same way
# ---------------------------------------------------------------------------
mesh, _, _ = load_config(configs / "mesh6.json")
mcert = certify(mesh)
print("\nsix-subsystem mesh certified:", mcert.certified)
for c in mcert.subsystems:
    print(f"  {c.sid}: N={c.n_neighbors}  margin={c.margin:.4f}")

# deleting any edge only shrinks coupling energies, so the certificate
# survives edge removal
smaller = NetworkModel(subsystems=mesh.subsystems, edges=mesh.edges[2:],
                       desired=mesh.desired, tuning=mesh.tuning,
                       baseline=mesh.baseline)
print("after deleting two edges, still certified:", certify(smaller).certified)
