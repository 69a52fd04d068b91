import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIG_DIR, DC_AM, DC_A12, DC_A21, random_hurwitz
from gascert import connective
from gascert import (
    AugmentedSubsystem,
    GascertError,
    Interconnection,
    NetworkModel,
    NonFiniteError,
    Tuning,
    adaptation_offsets,
    analyze,
    check_conditions,
    comparison_matrix,
    homogeneous_condition,
    small_gain_check,
    solve_lyapunov,
    theta_max_bound,
    transient_bound,
)
from gascert.config import load_config, parse_config


def scalar_sub(sid):
    return AugmentedSubsystem.from_raw(sid, B=[[1.0]], C=np.zeros((0, 1)), A=[[-2.0]])


def pair_net(coupling, gamma=1.0, theta_max=1.0):
    tun = Tuning(Q=np.eye(1), gamma=gamma, theta_max=theta_max, eps0=0.1)
    edges = []
    if coupling:
        edges = [Interconnection(src="s2", dst="s1", A=[[coupling]]),
                 Interconnection(src="s1", dst="s2", A=[[coupling]])]
    return NetworkModel(subsystems=[scalar_sub("s1"), scalar_sub("s2")],
                        edges=edges,
                        desired={"s1": [[-2.0]], "s2": [[-2.0]]},
                        tuning={"s1": tun, "s2": tun})


# fabricated Lyapunov data with lam_min = 1, lam_max = 2 for plug-in checks
P_FAB = {"s1": np.diag([1.0, 2.0]), "s2": np.diag([1.0, 2.0])}


def fab_net(coupling=0.1, gamma=1.0, theta_max=1.0):
    def sub(sid):
        # the input reaches both modes, so (A, B) is controllable
        return AugmentedSubsystem.from_raw(sid, B=[[1.0], [1.0]], C=np.zeros((0, 2)),
                                           A=[[-1.0, 0.0], [0.0, -2.0]])

    tun = Tuning(Q=np.eye(2), gamma=gamma, theta_max=theta_max, eps0=0.1)
    edges = [Interconnection(src="s2", dst="s1", A=coupling * np.eye(2)),
             Interconnection(src="s1", dst="s2", A=coupling * np.eye(2))]
    return NetworkModel(subsystems=[sub("s1"), sub("s2")], edges=edges,
                        desired={"s1": np.diag([-1.0, -2.0]), "s2": np.diag([-1.0, -2.0])},
                        tuning={"s1": tun, "s2": tun})


class TestThetaMaxBound:
    def test_half(self):
        assert theta_max_bound(0.5) == pytest.approx(1.0)

    def test_zero(self):
        assert theta_max_bound(0.0) == 0.0

    def test_one(self):
        assert theta_max_bound(1.0) == pytest.approx(4.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            theta_max_bound(-0.1)


class TestComparisonMatrix:
    def test_plug_in(self):
        # lam_min(Q)=1, lam_max(P)=2, lam_min(P)=1, coupling gain 0.1
        M = comparison_matrix(fab_net(0.1), P_FAB)
        assert np.allclose(M, [[-0.25, 0.2], [0.2, -0.25]])

    def test_no_edges_diagonal(self):
        net = pair_net(0.0)
        P = {sid: solve_lyapunov(net.desired[sid], net.tuning[sid].Q) for sid in net.ids}
        M = comparison_matrix(net, P)
        assert np.all(np.diag(M) < 0.0)
        assert np.all(M - np.diag(np.diag(M)) == 0.0)

    def test_benchmark_orders(self):
        # the aggregate matrix of the strong-coupling pair: diagonal decay
        # rates are dwarfed by the coupling entries, and the matrix is
        # unstable by many orders of magnitude
        P1 = solve_lyapunov(DC_AM, np.eye(3))
        net = _dc_net()
        M = comparison_matrix(net, {"dgu1": P1, "dgu2": P1})
        assert np.all(np.diag(M) < 0.0)
        assert M[0, 1] > 0.0 and M[1, 0] > 0.0
        assert M[0, 1] / abs(M[0, 0]) > 1e6
        assert np.max(np.linalg.eigvals(M).real) > 0.0

    def test_metzler_property_random(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            coupling = rng.uniform(0.01, 1.0)
            net = pair_net(coupling)
            P = {sid: solve_lyapunov(net.desired[sid], net.tuning[sid].Q)
                 for sid in net.ids}
            M = comparison_matrix(net, P)
            off = M - np.diag(np.diag(M))
            assert np.all(off >= 0.0)
            assert np.all(np.diag(M) < 0.0)


def _dc_net():
    subs = [AugmentedSubsystem.from_raw("dgu1", B=[[1.34e7], [-8.12e5]], C=[[0.0, 1.0]]),
            AugmentedSubsystem.from_raw("dgu2", B=[[4.25e6], [-5.6e5]], C=[[0.0, 1.0]])]
    edges = [Interconnection(src="dgu2", dst="dgu1", A=DC_A12),
             Interconnection(src="dgu1", dst="dgu2", A=DC_A21)]
    tun = Tuning(Q=np.eye(3), gamma=1e6, theta_max=1.0, eps0=0.1)
    return NetworkModel(subsystems=subs, edges=edges,
                        desired={"dgu1": DC_AM, "dgu2": DC_AM},
                        tuning={"dgu1": tun, "dgu2": tun})


class TestOffsets:
    def test_large_gain_vanishes(self):
        phi = adaptation_offsets(fab_net(0.1, gamma=1e12), P_FAB)
        assert np.all(np.abs(phi) < 1e-9)

    def test_zero_theta_max(self):
        phi = adaptation_offsets(fab_net(0.1, theta_max=0.0), P_FAB)
        assert np.array_equal(phi, np.zeros(2))

    def test_plug_in(self):
        # 1/(2*1*2) - 2*0.1/(1*sqrt(1*1)) = 0.25 - 0.2
        phi = adaptation_offsets(fab_net(0.1, gamma=1.0, theta_max=1.0), P_FAB)
        assert np.allclose(phi, [0.05, 0.05])

    def test_missing_or_indefinite_P_rejected(self):
        # the same checks as comparison_matrix, from the shared extremes
        with pytest.raises(ValueError, match="missing"):
            adaptation_offsets(fab_net(0.1), {"s1": P_FAB["s1"]})
        with pytest.raises(ValueError, match="positive definite"):
            adaptation_offsets(fab_net(0.1), {"s1": P_FAB["s1"], "s2": -np.eye(2)})


class TestCheckConditions:
    def test_passing_instance(self):
        M = np.array([[-0.25, 0.2], [0.2, -0.25]])
        cond_diag, cond_norm, M_stable = check_conditions(M, np.zeros(2))
        assert (cond_diag, cond_norm, M_stable) == (True, True, True)
        # eigenvalue oracle: symmetric M has eigs diag +- off
        assert np.allclose(sorted(np.linalg.eigvals(M).real), [-0.45, -0.05])

    def test_failing_instance(self):
        M = np.array([[-0.25, 0.3], [0.3, -0.25]])
        cond_diag, _, M_stable = check_conditions(M, np.zeros(2))
        assert not cond_diag
        assert not M_stable
        assert np.max(np.linalg.eigvals(M).real) == pytest.approx(0.05)

    def test_benchmark_fails_by_orders(self):
        rep = analyze(_dc_net())
        lhs = abs(rep.M[0, 0])
        rhs = rep.M[0, 1]
        assert lhs / rhs < 1e-6
        assert not rep.cond_diag
        assert not rep.passed

    def test_diag_dominance_implies_stable_random(self):
        # Metzler + strict row dominance => Hurwitz
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            off = rng.uniform(0.0, 1.0, size=(n, n))
            np.fill_diagonal(off, 0.0)
            row = off.sum(axis=1)
            d = -(row + rng.uniform(0.01, 2.0, size=n))
            M = off + np.diag(d)
            cond_diag, _, M_stable = check_conditions(M, np.zeros(n))
            if cond_diag:
                assert M_stable

    def test_verdict_monotone_in_coupling(self):
        # growing any coupling gain never turns a failing dominance test
        # into a passing one
        net_small = fab_net(0.2)
        net_large = fab_net(0.5)
        small = check_conditions(comparison_matrix(net_small, P_FAB), np.zeros(2))[0]
        large = check_conditions(comparison_matrix(net_large, P_FAB), np.zeros(2))[0]
        assert not small  # 0.2*2 = 0.4 > 0.25 already fails
        assert not large


class TestScalingInvariance:
    def test_q_scaling_cancels(self):
        # solving with c*Q scales P by c and leaves the dominance ratios
        # unchanged (linear-system property)
        rng = np.random.default_rng(37)
        A = random_hurwitz(rng, 3)
        Q = np.eye(3)
        c = 250.0
        P1 = solve_lyapunov(A, Q)
        P2 = solve_lyapunov(A, c * Q)
        assert np.allclose(P2, c * P1, rtol=1e-10)
        lmin1, lmax1 = np.linalg.eigvalsh(P1)[[0, -1]]
        lmin2, lmax2 = np.linalg.eigvalsh(P2)[[0, -1]]
        gain = 0.37
        lhs1, rhs1 = 1.0 / (2 * lmax1), lmax1 / lmin1 * gain
        lhs2, rhs2 = c / (2 * lmax2), lmax2 / lmin2 * gain
        assert lhs1 / rhs1 == pytest.approx(lhs2 / rhs2, rel=1e-10)


class TestQScale:
    # the aggregate test is invariant under Q -> cQ; the products
    # lam_min(P_i) lam_min(P_j) overflowed or underflowed at |k| >= 160
    @pytest.mark.parametrize("k", [-200, -170, -100, -10, 10, 100, 160, 200])
    @pytest.mark.parametrize("name", ["toy_pair", "mesh6", "weak_pair"])
    def test_verdict_and_aggregate_unchanged(self, name, k):
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        base = analyze(parse_config(doc)[0])
        doc["tuning"]["Q"] = (np.array(doc["tuning"]["Q"]) * 10.0 ** k).tolist()
        with np.errstate(all="raise"):
            got = analyze(parse_config(doc)[0])
        verdicts = [(r.passed, r.cond_diag, r.cond_norm, r.M_stable) for r in (got, base)]
        assert verdicts[0] == verdicts[1]
        np.testing.assert_allclose(got.M, base.M, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.offsets, base.offsets, rtol=1e-12, atol=0.0)


# each scalar argument of the three formulas, and its valid value
FORMULA_SCALARS = {
    "theta_max_bound": (theta_max_bound, {"theta_l1_bound": 0.5}),
    "homogeneous_condition": (homogeneous_condition, {
        "lmin_Q": 1.0, "lmax_P": 1.0, "lmin_P": 1.0, "n_neighbors": 1, "gain": 0.1}),
    "transient_bound": (lambda **kw: transient_bound(np.eye(2), np.eye(2), t=0.5, **kw),
                        {"theta_max": 1.0, "gamma": 2.0, "v0": 1.0}),
}


class TestFormulaScalars:
    @pytest.mark.parametrize("value,error,fault", [
        (math.nan, NonFiniteError, "non-finite entries"),
        (math.inf, NonFiniteError, "non-finite entries"),
        ("1", GascertError, "not a numeric array"),
        (True, GascertError, "not a numeric array"),
    ], ids=["nan", "inf", "string", "bool"])
    @pytest.mark.parametrize("formula,arg", [(f, a) for f, (_, kw) in FORMULA_SCALARS.items()
                                             for a in kw])
    def test_read_by_the_number_reader(self, formula, arg, value, error, fault):
        # NaN returned False or nan, and a string raised a raw TypeError
        fn, kwargs = FORMULA_SCALARS[formula]
        with pytest.raises(error, match=f"^{arg}: {fault}$"):
            fn(**{**kwargs, arg: value})

    def test_range_texts_kept(self):
        with pytest.raises(ValueError, match="^neighbour count and gain must be non-negative$"):
            homogeneous_condition(1.0, 1.0, 1.0, -1, 0.1)
        with pytest.raises(ValueError, match="^gamma must be positive$"):
            transient_bound(np.eye(2), np.eye(2), 1.0, 0.0, 1.0, 0.5)


class TestHomogeneous:
    def test_passing(self):
        assert homogeneous_condition(1.0, 2.0, 1.0, 1, 0.1)

    def test_benchmark_failure(self):
        # 1/(2*2.28e4) vs (2.28e4/723.2)*1.1e5
        assert not homogeneous_condition(1.0, 2.28e4, 723.2, 1, 1.1e5)

    def test_zero_gain_always_passes(self):
        assert homogeneous_condition(1.0, 5.0, 0.1, 3, 0.0)


class TestTransientBound:
    def test_long_run_limit(self):
        P = np.diag([1.0, 2.0])
        alpha, rho_inf = transient_bound(P, np.eye(2), theta_max=0.8, gamma=4.0,
                                         v0=10.0, t=1e9)
        assert rho_inf == pytest.approx(np.sqrt(0.8 / (4.0 * 1.0)))

    def test_no_uncertainty_pure_decay(self):
        P = np.diag([1.0, 2.0])
        v0 = 3.0
        t = 1.7
        alpha, rho = transient_bound(P, np.eye(2), theta_max=0.0, gamma=1.0, v0=v0, t=t)
        assert rho == pytest.approx(np.sqrt(v0 / 1.0) * np.exp(-alpha * t / 2.0))

    def test_decay_rate(self):
        alpha, _ = transient_bound(np.diag([1.0, 2.0]), np.eye(2), 0.0, 1.0, 1.0, 0.0)
        assert alpha == pytest.approx(0.5)

    def test_array_time(self):
        alpha, rho = transient_bound(np.eye(2), np.eye(2), 0.1, 1.0, 1.0,
                                     np.array([0.0, 1.0, 10.0]))
        assert rho.shape == (3,)
        assert np.all(np.diff(rho) < 0.0)


def path_net(*edges, subsystems=("s1", "s2")):
    """Scalar subsystems with desired dynamics -1 and edges ``(src, dst, gain)``."""
    tun = Tuning(Q=np.eye(1), gamma=1.0, theta_max=1.0, eps0=0.1)
    return NetworkModel(
        subsystems=[scalar_sub(sid) for sid in subsystems],
        edges=[Interconnection(src=src, dst=dst, A=[[g]]) for src, dst, g in edges],
        desired={sid: [[-1.0]] for sid in subsystems},
        tuning={sid: tun for sid in subsystems})


class TestSmallGain:
    def test_benchmark_products(self):
        net, _, _ = load_config(CONFIG_DIR / "dc_pair.json")
        # the config holds the fixture's matrices
        assert np.array_equal(net.in_edges("dgu1")[0].A, DC_A12)
        assert np.array_equal(net.in_edges("dgu2")[0].A, DC_A21)
        assert np.array_equal(net.desired["dgu1"], DC_AM)
        assert np.array_equal(net.desired["dgu2"], DC_AM)
        (res,) = small_gain_check(net)
        assert res.pair == ("dgu1", "dgu2")
        assert res.raw_gain_product == pytest.approx(5.32e4 * 3.87e4, rel=1e-12)
        assert res.raw_gain_product == pytest.approx(2.0588e9, rel=1e-3)
        assert not res.passed

    def test_zero_coupling(self):
        # one direction only: the missing path has gain 0
        (res,) = small_gain_check(path_net(("s2", "s1", 0.5)))
        assert res.hinf_product == 0.0
        assert res.raw_gain_product == 0.0
        assert res.passed

    def test_scalar_quarter(self):
        # first-order paths peak at w=0 with gain 0.5 each
        (res,) = small_gain_check(path_net(("s2", "s1", 0.5), ("s1", "s2", 0.5)))
        assert res.hinf_product == pytest.approx(0.25, rel=1e-6)
        assert res.raw_gain_product == 0.25
        assert res.passed

    def test_bound_only_path(self):
        # norm_bound * ||(sI + 1)^-1||_inf = 0.5 * 1
        net = path_net(("s2", "s1", 0.5))
        bound = Interconnection(src="s1", dst="s2", norm_bound=0.5)
        net = NetworkModel(subsystems=net.subsystems, edges=(*net.edges, bound),
                           desired=net.desired, tuning=net.tuning)
        (res,) = small_gain_check(net)
        assert res.hinf_product == pytest.approx(0.25, rel=1e-6)
        assert res.raw_gain_product == 0.25

    def test_uncoupled_network_has_no_pairs(self):
        assert small_gain_check(path_net()) == []

    def test_pairs_in_sorted_id_order(self):
        net = path_net(("c", "a", 0.5), ("b", "c", 2.0), ("c", "b", 1.0),
                       subsystems=("c", "b", "a"))
        res = small_gain_check(net)
        assert [r.pair for r in res] == [("a", "c"), ("b", "c")]
        # (b, c): path c -> b times path b -> c
        assert res[1].raw_gain_product == 2.0
        assert res[1].hinf_product == pytest.approx(2.0, rel=1e-6)
        assert [r.passed for r in res] == [True, False]


def nested_small_gain(net):
    """The oracle of the pair walk: every id pair i < j probed, in sorted order."""
    edges = {(e.src, e.dst): e for e in net.edges}
    ids = sorted(net.ids)
    out = []
    for a, i in enumerate(ids):
        for j in ids[a + 1:]:
            fwd, back = edges.get((j, i)), edges.get((i, j))
            if fwd is not None or back is not None:
                h1, r1 = connective._path_gain(net, fwd)
                h2, r2 = connective._path_gain(net, back)
                out.append(((i, j), h1 * h2, r1 * r2))
    return out


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


class TestSmallGainWalk:
    @pytest.mark.parametrize("kind,n", [("ring", 12), ("mesh", 16), ("random", 12)])
    def test_pairs_and_products_as_the_nested_loop_gives(self, kind, n):
        rng = np.random.default_rng([41, n])
        ids = [f"s{k}" for k in rng.permutation(n)]
        net = path_net(*graph_edges(rng, kind, n), subsystems=ids)
        if kind == "random":  # some pairs are coupled one way only
            assert any((e.dst, e.src) not in {(f.src, f.dst) for f in net.edges}
                       for e in net.edges)
        want = nested_small_gain(net)
        assert want
        assert [(r.pair, r.hinf_product, r.raw_gain_product)
                for r in small_gain_check(net)] == want


class TestAnalyzePipeline:
    @pytest.mark.parametrize("theta_max", [None, 0.5])
    def test_extremes_once_per_matrix(self, theta_max, monkeypatch):
        net, _, _ = load_config(CONFIG_DIR / "mesh6.json")
        if theta_max is not None:
            tuning = {sid: replace(t, theta_max=theta_max) for sid, t in net.tuning.items()}
            net = NetworkModel(subsystems=net.subsystems, edges=net.edges,
                               desired=net.desired, tuning=tuning, baseline=net.baseline)
        seen = []

        def counted(S):
            seen.append(S)
            return lam_extremes(S)

        lam_extremes = connective._lam_extremes
        monkeypatch.setattr(connective, "_lam_extremes", counted)
        rep = analyze(net)
        assert len(seen) == 2 * len(net.ids)
        monkeypatch.undo()
        # the shared extremes give what the public functions give
        M = comparison_matrix(net, rep.P)
        offsets = adaptation_offsets(net, rep.P)
        assert M.tobytes() == rep.M.tobytes()
        assert offsets.tobytes() == rep.offsets.tobytes()
        for sid in net.ids:
            w = np.linalg.eigvalsh(rep.P[sid])
            assert (rep.lambda_min_P[sid], rep.lambda_max_P[sid]) == (w[0], w[-1])
            assert rep.lambda_min_Q[sid] == np.linalg.eigvalsh(net.tuning[sid].Q)[0]
            assert rep.alpha[sid] == rep.lambda_min_Q[sid] / rep.lambda_max_P[sid]

    def test_dominance_rows_once(self, monkeypatch):
        # analyze computes M's dominance rows once and does not read back, through
        # check_conditions, the M and offsets it has just built
        net, _, _ = load_config(CONFIG_DIR / "mesh6.json")
        calls = []
        rows = connective.diagonal_dominance_rows
        monkeypatch.setattr(connective, "diagonal_dominance_rows",
                            lambda M: calls.append(M) or rows(M))
        monkeypatch.setattr(connective, "check_conditions", None)
        rep = analyze(net)
        assert len(calls) == 1 and calls[0] is rep.M
        monkeypatch.undo()
        assert check_conditions(rep.M, rep.offsets) == (rep.cond_diag, rep.cond_norm,
                                                       rep.M_stable)
        assert rep.cond_diag_rows.tolist() == rows(rep.M).tolist()

    def test_weak_coupling_passes(self):
        rep = analyze(pair_net(0.02))
        assert rep.passed
        assert rep.cond_diag and rep.cond_norm and rep.M_stable

    def test_benchmark_p_magnitudes(self):
        # the solved P of the benchmark matrix: positive definite, but its
        # extremes are set by the fast (~3.5e6) and slow (~0.015) modes
        rep = analyze(_dc_net())
        assert rep.lambda_max_P["dgu1"] == pytest.approx(37.58, rel=1e-2)
        assert rep.lambda_min_P["dgu1"] == pytest.approx(1.4e-7, rel=0.05)
