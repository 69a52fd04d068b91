import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIG_DIR, DC_AM, DC_A12, DC_A21, graph_edges, mixed_net, random_hurwitz
from gascert import connective
from gascert import (
    AugmentedSubsystem,
    DimensionError,
    GascertError,
    Interconnection,
    NetworkModel,
    NonFiniteError,
    Tuning,
    adaptation_offsets,
    analyze,
    check_conditions,
    comparison_matrix,
    hinf_gain,
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



def loop_comparison(net, P):
    """The oracle of the edge table: ``M`` filled one in-edge at a time."""
    ids, index = net.ids, net.index
    lam = {sid: np.linalg.eigvalsh(P[sid])[[0, -1]].tolist() for sid in ids}
    M = np.zeros((len(ids), len(ids)))
    for sid in ids:
        lmin_P, lmax_P = lam[sid]
        M[index[sid], index[sid]] = -np.linalg.eigvalsh(net.tuning[sid].Q)[0] / (2.0 * lmax_P)
        for e in net.in_edges(sid):
            M[index[sid], index[e.src]] += (
                lmax_P / (np.sqrt(lmin_P) * np.sqrt(lam[e.src][0])) * e.gain())
    return M


def loop_offsets(net, P):
    """The oracle of the edge table: each offset summed over its out-edges."""
    lam = {sid: np.linalg.eigvalsh(P[sid])[[0, -1]].tolist() for sid in net.ids}
    out = np.zeros(len(net.ids))
    for k, sid in enumerate(net.ids):
        lmin_P, lmax_P = lam[sid]
        t = net.tuning[sid]
        term = np.linalg.eigvalsh(t.Q)[0] / (2.0 * t.gamma * lmax_P)
        for e in net.out_edges(sid):
            term -= lmax_P * e.gain() / (net.tuning[e.dst].gamma * np.sqrt(lmin_P)
                                         * np.sqrt(lam[e.dst][0]))
        out[k] = t.theta_max * term
    return out


class TestEdgeTable:
    @pytest.mark.parametrize("kind,n", [("ring", 9), ("mesh", 16), ("random", 12)])
    def test_as_the_edge_loops_give(self, kind, n):
        # M and the offsets come from one edge table; every entry is the one the
        # per-edge loops give, bit for bit, with each source's out-edge terms
        # subtracted in edge order
        rng = np.random.default_rng([43, n])
        ids = [f"s{k}" for k in rng.permutation(n)]
        base = path_net(*graph_edges(rng, kind, n), subsystems=ids)
        tuning = {sid: Tuning(Q=[[rng.uniform(0.5, 2.0)]], gamma=rng.uniform(0.5, 5.0),
                              theta_max=rng.uniform(0.0, 2.0), eps0=0.1) for sid in ids}
        desired = {sid: [[-rng.uniform(0.5, 3.0)]] for sid in ids}
        net = NetworkModel(subsystems=base.subsystems, edges=base.edges, desired=desired,
                           tuning=tuning)
        rep = analyze(net)
        assert rep.M.tobytes() == loop_comparison(net, rep.P).tobytes()
        assert rep.offsets.tobytes() == loop_offsets(net, rep.P).tobytes()

    @pytest.mark.parametrize("name", ["toy_pair", "dc_pair", "mesh6", "weak_pair",
                                      "unstable_pair"])
    def test_demos_as_the_edge_loops_give(self, name):
        net, _, _ = load_config(CONFIG_DIR / f"{name}.json")
        P = {sid: net.lyapunov(sid) for sid in net.ids}
        assert comparison_matrix(net, P).tobytes() == loop_comparison(net, P).tobytes()
        assert adaptation_offsets(net, P).tobytes() == loop_offsets(net, P).tobytes()

    def test_no_edges(self):
        net = pair_net(0.0)
        P = {sid: net.lyapunov(sid) for sid in net.ids}
        assert comparison_matrix(net, P).tobytes() == loop_comparison(net, P).tobytes()
        assert adaptation_offsets(net, P).tobytes() == loop_offsets(net, P).tobytes()


PUBLIC_FORMULAS = {"comparison_matrix": comparison_matrix,
                   "adaptation_offsets": adaptation_offsets}


class TestCallerP:
    """``comparison_matrix`` and ``adaptation_offsets`` read the caller's ``P``."""

    @pytest.mark.parametrize("formula", PUBLIC_FORMULAS.values(), ids=PUBLIC_FORMULAS.keys())
    def test_nested_lists_read(self, formula):
        # a list raised AttributeError: 'list' object has no attribute 'T'
        want = formula(fab_net(0.1), P_FAB)
        got = formula(fab_net(0.1), {sid: P.tolist() for sid, P in P_FAB.items()})
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("P,error,fault", [
        (np.full((2, 2), np.nan), NonFiniteError, "P.s2: non-finite entries"),
        ([["1", 0], [0, "2"]], GascertError, "P.s2: not a numeric array"),
        (np.eye(3), DimensionError, "P.s2 is (3, 3), expected (2, 2)"),
        (np.ones((2, 3)), DimensionError, "P.s2 must be square, got shape (2, 3)"),
    ], ids=["nan", "strings", "wrong_size", "not_square"])
    @pytest.mark.parametrize("formula", PUBLIC_FORMULAS.values(), ids=PUBLIC_FORMULAS.keys())
    def test_bad_P_rejected(self, formula, P, error, fault):
        # an all-NaN P gave an all-NaN M, and a P of the wrong size was used as it was
        with pytest.raises(error, match=f"^{re.escape(fault)}$"):
            formula(fab_net(0.1), {"s1": P_FAB["s1"], "s2": P})

    def test_analyze_does_not_read_the_weights_again(self, monkeypatch):
        # analyze passes the network's own Lyapunov weights, read-only arrays it
        # solved: they are not read again
        net, _, _ = load_config(CONFIG_DIR / "mesh6.json")
        names = []
        real = connective.as_matrix
        monkeypatch.setattr(connective, "as_matrix",
                            lambda M, name="matrix", square=False:
                            names.append(name) or real(M, name, square))
        analyze(net)
        assert not [name for name in names if name.startswith("P.")]

    def test_huge_symmetric_P_does_not_overflow(self):
        # P + P' overflowed to infinity for entries above about 9e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, rho = transient_bound([[1e308]], [[1.0]], 0.0, 1.0, 1.0, 0.0)
        assert alpha == 1.0 / 1e308
        assert rho == math.sqrt(1.0 / 1e308)


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

    @pytest.mark.parametrize("field", ["P", "Q"])
    @pytest.mark.parametrize("value,message", [
        ([[1.0, 2.0, 3.0]], r"must be square, got shape \(1, 3\)"),
        ([1.0, 2.0], r"must be square, got shape \(1, 2\)"),
        (np.ones((2, 2, 2)), r"must be 2-D, got ndim=3"),
    ], ids=["1x3", "flat", "3-D"])
    def test_weights_read_as_square_matrices(self, field, value, message):
        # a 1x3 weight broadcast to 3x3 and read as indefinite, a flat one
        # raised a raw LinAlgError and a 3-D one a raw TypeError
        args = {"P": np.eye(2), "Q": np.eye(2), field: value}
        with pytest.raises(DimensionError, match=f"^{field} {message}$"):
            transient_bound(args["P"], args["Q"], 0.1, 1.0, 1.0, 0.5)


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

    @pytest.mark.parametrize("edge", [{"norm_bound": 1e200}, {"A": [[1e308]]}],
                             ids=["bound_only", "matrix"])
    def test_overflowing_products_fail(self, edge):
        # both paths huge: the products were inf, which no report can hold;
        # each is None now, and the pair fails
        tun = Tuning(Q=np.eye(1), gamma=1.0, theta_max=1.0, eps0=0.1)
        net = NetworkModel(subsystems=[scalar_sub("s1"), scalar_sub("s2")],
                           edges=[Interconnection(src="s2", dst="s1", **edge),
                                  Interconnection(src="s1", dst="s2", **edge)],
                           desired={"s1": [[-1.0]], "s2": [[-1.0]]}, tuning={"s1": tun, "s2": tun})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (res,) = small_gain_check(net)
        assert (res.pair, res.hinf_product, res.raw_gain_product, res.passed) == \
            (("s1", "s2"), None, None, False)

    def test_overflowing_path_without_return_is_zero(self):
        # one direction only: its path gain 1e308 * 4 overflows, and inf * 0
        # made the product NaN; the loop gain is 0 whatever the path's gain
        tun = Tuning(Q=np.eye(1), gamma=1.0, theta_max=1.0, eps0=0.1)
        net = NetworkModel(subsystems=[scalar_sub("s1"), scalar_sub("s2")],
                           edges=[Interconnection(src="s2", dst="s1", norm_bound=1e308)],
                           desired={"s1": [[-0.25]], "s2": [[-0.25]]},
                           tuning={"s1": tun, "s2": tun})
        assert connective._path_gains(net) == [math.inf]
        (res,) = small_gain_check(net)
        assert (res.hinf_product, res.raw_gain_product, res.passed) == (0.0, 0.0, True)

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


def path_gain(net, e):
    """(peak gain, spectral norm) of one coupling path by one ``hinf_gain`` call,
    (0, 0) without an edge; a bound-only edge gives ``norm_bound * ||(sI - A_m)^-1||``."""
    if e is None:
        return 0.0, 0.0
    Am = net.checked[e.src]
    if e.A is not None:
        return hinf_gain(e.A, Am), e.gain()
    return e.norm_bound * hinf_gain(np.eye(Am.A.shape[0]), Am), e.gain()


def nested_small_gain(net):
    """The oracle of the pair walk: every id pair i < j probed, in sorted order,
    each path gain from its own ``hinf_gain`` call."""
    edges = {(e.src, e.dst): e for e in net.edges}
    ids = sorted(net.ids)
    out = []
    for a, i in enumerate(ids):
        for j in ids[a + 1:]:
            fwd, back = edges.get((j, i)), edges.get((i, j))
            if fwd is not None or back is not None:
                h1, r1 = path_gain(net, fwd)
                h2, r2 = path_gain(net, back)
                out.append(((i, j), h1 * h2, r1 * r2))
    return out


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

    def test_one_stack_per_block_shape(self, monkeypatch):
        # sources of sizes 1-3, one-way and bound-only edges: the path gains run
        # as one level-set stack per block shape (a bound-only edge's block is I
        # of its source's size), and every product is the per-edge hinf_gain one
        net = mixed_net(np.random.default_rng(53), (1, 2, 3), 3, coupling=0.5)
        pairs = {(e.src, e.dst) for e in net.edges}
        assert any((e.dst, e.src) not in pairs for e in net.edges)
        assert {e.A is None for e in net.edges} == {True, False}
        assert len({net.desired[e.src].shape for e in net.edges}) == 3
        shapes = {e.A.shape if e.A is not None else net.desired[e.src].shape
                  for e in net.edges}
        stacks = []
        real = connective._peak_gains

        def counted(recs, M):
            stacks.append((M.shape[1:], len(recs)))
            return real(recs, M)

        monkeypatch.setattr(connective, "_peak_gains", counted)
        got = [(r.pair, r.hinf_product, r.raw_gain_product) for r in small_gain_check(net)]
        assert sorted(shape for shape, _ in stacks) == sorted(shapes)
        assert sum(k for _, k in stacks) == len(net.edges)
        assert max(k for _, k in stacks) > 1
        monkeypatch.undo()
        assert got == nested_small_gain(net)


class TestAnalyzePipeline:
    def test_overflowing_entries_fail_the_conditions(self):
        # M[i][j] = lam_max(P_i) ||A_ij|| / lam_min(P) = 2 * 1e308 overflows:
        # analyze raised "M: non-finite entries" (a RuntimeWarning first).
        # Now the entries are inf and fail every condition they enter
        net = fab_net(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = analyze(net)
        assert np.isinf(rep.M[0, 1]) and np.isinf(rep.M[1, 0])
        assert np.isfinite(np.diag(rep.M)).all() and np.isneginf(rep.offsets).all()
        assert rep.cond_diag_rows.tolist() == [False, False]
        assert (rep.cond_diag, rep.cond_norm, rep.M_stable, rep.passed) == (False,) * 4
        # the public check reads its arguments, and refuses them as before
        with pytest.raises(NonFiniteError, match="^M: non-finite entries$"):
            check_conditions(rep.M, rep.offsets)

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
        # one stack of P per size: each P solved once, and no Q (the tuning's
        # lam_min_Q was solved when it was built)
        assert sum(len(S) for S in seen) == len(net.ids)
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
        # check_conditions or diagonal_dominance_rows, the M and offsets it has
        # just built (a reader would refuse an entry that overflowed)
        net, _, _ = load_config(CONFIG_DIR / "mesh6.json")
        calls = []
        rows = connective._dominance_rows
        monkeypatch.setattr(connective, "_dominance_rows", lambda M: calls.append(M) or rows(M))
        monkeypatch.setattr(connective, "check_conditions", None)
        monkeypatch.setattr(connective, "diagonal_dominance_rows", None)
        rep = analyze(net)
        assert len(calls) == 1 and calls[0] is rep.M
        monkeypatch.undo()
        assert check_conditions(rep.M, rep.offsets) == (rep.cond_diag, rep.cond_norm,
                                                       rep.M_stable)
        assert rep.cond_diag_rows.tolist() == \
            connective.diagonal_dominance_rows(rep.M).tolist()

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
