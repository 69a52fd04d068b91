"""Seeded generator of gascert network documents with known verdicts.

Every desired matrix is normal: ``A_m = U D U'`` with ``U`` a random
orthogonal matrix and ``D`` block diagonal with real blocks ``-a`` and
rotation blocks ``[[-a, b], [-b, -a]]``.  For a normal matrix
``sigma_min(A_m - jwI) = min_k |lambda_k - jw|``, so the distance to
instability is exactly ``min_k a_k`` and the Lyapunov solution for
``Q = I`` is ``U diag(1 / (2 a_k)) U'``.  Coupling blocks are random
matrices rescaled so that every incoming edge of subsystem ``i`` has
spectral norm ``rho_i * gamma_i / N_i``; the Riccati margin
``gamma_i - sqrt(N_i * Xi_i^2)`` is then ``gamma_i (1 - rho_i)``, so the
verdict is known by construction: certified iff every ``rho_i < 1``.

Only numpy is used here; nothing is computed by gascert.
"""

from __future__ import annotations

import numpy as np

TUNING = {"gamma": 20.0, "theta_max": 1.5, "eps0": 0.1}

# Raw state counts are drawn from this fixed multiset (in a seeded order),
# so the cost of a network of a given size barely moves with the seed.
STATE_PATTERN = (1, 2, 1, 3, 1, 2, 5, 1, 2, 8, 1, 3, 13, 2, 20, 1)

# random-sparse networks: a random cycle plus this many extra edges per node
RANDOM_EXTRA_PER_NODE = 2


def _orthogonal(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def normal_hurwitz(rng, p, n_pairs):
    """Random normal Hurwitz ``p x p`` matrix with ``n_pairs`` complex pairs.

    Returns ``(A_m, real_parts)`` where ``real_parts`` lists ``a_k > 0``
    for every eigenvalue (``-a_k`` is its real part).
    """
    D = np.zeros((p, p))
    parts = []
    k = 0
    for _ in range(n_pairs):
        a, b = rng.uniform(0.5, 4.0), rng.uniform(0.5, 3.0)
        D[k:k + 2, k:k + 2] = [[-a, b], [-b, -a]]
        parts += [a, a]
        k += 2
    while k < p:
        a = rng.uniform(0.5, 4.0)
        D[k, k] = -a
        parts.append(a)
        k += 1
    U = _orthogonal(rng, p)
    return U @ D @ U.T, np.array(parts)


def _unit_norm(rng, rows, cols):
    M = rng.standard_normal((rows, cols))
    return M / np.linalg.norm(M, 2)


def topology(rng, kind, N):
    """Directed edge list ``[(src, dst), ...]`` over nodes ``0..N-1``.

    ``ring`` links neighbours both ways; ``mesh`` is a near-square grid
    with both-way links; ``random`` is a random Hamiltonian cycle plus a
    fixed number of extra random edges, so the edge count depends only
    on ``N``.
    """
    if N < 2:
        raise ValueError("networks need at least two subsystems")
    edges = set()
    if kind == "ring":
        for i in range(N):
            j = (i + 1) % N
            edges.add((i, j))
            edges.add((j, i))
    elif kind == "mesh":
        cols = int(np.ceil(np.sqrt(N)))
        for i in range(N):
            c = i % cols
            for j in (i + 1 if c + 1 < cols else None, i + cols):
                if j is not None and j < N:
                    edges.add((i, j))
                    edges.add((j, i))
    elif kind == "random":
        order = rng.permutation(N)
        for k in range(N):
            edges.add((int(order[k]), int(order[(k + 1) % N])))
        target = min(N * (N - 1), N + RANDOM_EXTRA_PER_NODE * N)
        while len(edges) < target:
            i, j = rng.integers(0, N, size=2)
            if i != j:
                edges.add((int(i), int(j)))
    else:
        raise ValueError(f"unknown topology {kind!r}")
    return sorted(edges)


def network(rng, kind, N, rho_ok, rho_fail=None, n_fail=0, inputs=(1,),
            states=None, scenario=None):
    """Build one network document plus the facts known by construction.

    ``n_fail`` subsystems (seeded choice) get ``rho_fail`` and fail the
    Riccati test; the rest get ``rho_ok < 1``.  ``states`` fixes the raw
    state counts; by default they cycle through ``STATE_PATTERN``.
    Returns ``(doc, facts)``.
    """
    if states is None:
        states = [STATE_PATTERN[k % len(STATE_PATTERN)] for k in range(N)]
    states = [int(s) for s in rng.permutation(states)]
    fail = set(int(k) for k in rng.choice(N, size=n_fail, replace=False)) if n_fail else set()
    edges = topology(rng, kind, N)
    in_deg = [0] * N
    for _, dst in edges:
        in_deg[dst] += 1
    ids = [f"s{k:03d}" for k in range(N)]
    subs, facts_subs = [], {}
    for k in range(N):
        n = states[k]
        p = n + 1
        m = int(inputs[k % len(inputs)])
        A_m, parts = normal_hurwitz(rng, p, n_pairs=int(rng.integers(0, p // 2 + 1)))
        rho = rho_fail if k in fail else rho_ok
        gamma = float(parts.min())
        subs.append({
            "id": ids[k],
            "A": None,
            "B": rng.uniform(-1.0, 1.0, size=(n, m)).tolist(),
            "C": _unit_norm(rng, 1, n).tolist(),
            "reference_model": A_m.tolist(),
            "tuning": dict(TUNING, Q=np.eye(p).tolist()),
        })
        facts_subs[ids[k]] = {
            "p": p, "m": m, "rho": rho, "distance": gamma,
            "a_min": gamma, "a_max": float(parts.max()),
            "neighbors": in_deg[k],
            "edge_gain": rho * gamma / in_deg[k] if in_deg[k] else 0.0,
        }
    doc_edges = []
    for src, dst in edges:
        g = facts_subs[ids[dst]]["edge_gain"]
        A = g * _unit_norm(rng, states[dst], states[src])
        doc_edges.append({"from": ids[src], "to": ids[dst], "A": A.tolist()})
    doc = {"subsystems": subs, "edges": doc_edges}
    if scenario is not None:
        doc["scenario"] = draw_scenario(rng, doc, **scenario)
    failing = sorted(ids[k] for k in fail)
    facts = {"kind": kind, "N": N, "edges": len(edges), "failing": failing,
             "certified": not failing, "subsystems": facts_subs,
             "tuning": TUNING}
    return doc, facts


def draw_scenario(rng, doc, horizon, dt, theta_scale=0.3):
    """Seeded scenario: reference steps, true uncertainty and initial states."""
    refs, theta, x0 = {}, {}, {}
    for sub in doc["subsystems"]:
        sid = sub["id"]
        p = len(sub["B"]) + len(sub["C"])
        m = len(sub["B"][0])
        t_step = float(rng.uniform(0.2, 0.8) * horizon)
        refs[sid] = {"times": [0.0, t_step],
                     "values": [[float(rng.uniform(0.5, 1.5))],
                                [float(rng.uniform(0.5, 1.5))]]}
        theta[sid] = (theta_scale * rng.uniform(-1.0, 1.0, size=(p, m))).tolist()
        x0[sid] = rng.uniform(-0.5, 0.5, size=p).tolist()
    return {"horizon": horizon, "dt": dt, "references": refs,
            "theta": theta, "x0": x0}
