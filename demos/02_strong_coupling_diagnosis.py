#!/usr/bin/env python3
"""Why aggregate methods give up on strongly coupled converter pairs.

Two DC power subsystems with coupling gains around 5e4 (demos/configs/
dc_pair.json; the target-dynamics matrix carries a last-digit adjustment
so it is Hurwitz, which any of these analyses requires).  Both classic
sufficiency routes fail loudly:

* the small-gain loop product is ~2e9 instead of < 1;
* the aggregate comparison matrix is nowhere near diagonally dominant.
"""

from pathlib import Path

import numpy as np

from gascert import analyze, hinf_gain, small_gain_check, spectral_norm
from gascert.config import load_config

cfg = Path(__file__).resolve().parent / "configs" / "dc_pair.json"
net, _, _ = load_config(cfg)

A12 = net.in_edges("dgu1")[0].A
A21 = net.in_edges("dgu2")[0].A
Am = net.desired["dgu1"]

# ---------------------------------------------------------------------------
# Small-gain diagnostic
# ---------------------------------------------------------------------------
(res,) = small_gain_check(net)  # one coupled pair: (dgu1, dgu2)
print("coupling norms:", spectral_norm(A12), spectral_norm(A21))
print("raw gain product:   %.6g   (needs < 1)" % res.raw_gain_product)
print("hinf gain product:  %.6g" % res.hinf_product)
print("small-gain verdict:", "pass" if res.passed else "fail")
# the integrator row of the target dynamics pins the w=0 resolvent gain of
# the coupling path at exactly the coupling norm:
print("single path gain:", hinf_gain(A12, Am))

# ---------------------------------------------------------------------------
# Aggregate (connective) test
# ---------------------------------------------------------------------------
rep = analyze(net)
print("\naggregate comparison matrix:\n", rep.M)
print("diagonal decay vs row coupling, subsystem dgu1: %.3e vs %.3e"
      % (abs(rep.M[0, 0]), rep.M[0, 1]))
print("ratio: %.3e  (dominance misses by ~15 orders of magnitude)"
      % (abs(rep.M[0, 0]) / rep.M[0, 1]))
print("aggregate matrix stable:", rep.M_stable)
print("connective verdict:", "pass" if rep.passed else "fail")

# ---------------------------------------------------------------------------
# Why no Q rescaling can save it
# ---------------------------------------------------------------------------
# the Lyapunov solve is linear in Q, so scaling Q scales P and both sides
# of the dominance test by the same factor; the ratio is invariant
print("\nlambda extremes of P:", rep.lambda_min_P["dgu1"], rep.lambda_max_P["dgu1"])
from gascert import solve_lyapunov

P10 = solve_lyapunov(Am, 10.0 * np.eye(3))
print("with 10x Q, P scales linearly: ratio of lambda_max =",
      np.linalg.eigvalsh(P10)[-1] / rep.lambda_max_P["dgu1"])
