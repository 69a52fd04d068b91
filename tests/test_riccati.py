import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from conftest import CONFIG_DIR, graph_net, mixed_net, random_hurwitz
from gascert import (
    AugmentedSubsystem,
    DimensionError,
    GasCertificate,
    GascertError,
    Interconnection,
    NetworkModel,
    NonFiniteError,
    Scenario,
    SolverError,
    StabilityError,
    Tuning,
    analyze,
    certify,
    cli,
    connective,
    distance_to_instability,
    epsilon_margin,
    interconnection_energy,
    model,
    numerics,
    riccati,
    simulate,
    small_gain_check,
    solve_are,
    solve_lyapunov,
    spectral_norm,
)
from gascert.config import load_config


def scalar_sub(sid, a=-2.0):
    return AugmentedSubsystem.from_raw(sid, B=[[1.0]], C=np.zeros((0, 1)), A=[[a]])


def scalar_net(couplings, a=-2.0, n_subs=2):
    """couplings: dict {(src, dst): gain or Interconnection kwargs}."""
    ids = [f"s{k+1}" for k in range(n_subs)]
    subs = [scalar_sub(sid, a) for sid in ids]
    edges = []
    for (src, dst), spec in couplings.items():
        if isinstance(spec, dict):
            edges.append(Interconnection(src=src, dst=dst, **spec))
        else:
            edges.append(Interconnection(src=src, dst=dst, A=[[spec]]))
    tun = Tuning(Q=np.eye(1), gamma=1.0, theta_max=1.0, eps0=0.1)
    return NetworkModel(subsystems=subs, edges=edges,
                        desired={sid: [[a]] for sid in ids},
                        tuning={sid: tun for sid in ids})


class TestInterconnectionEnergy:
    def test_single_large_edge(self):
        net = scalar_net({("s2", "s1"): 5.32e4})
        assert interconnection_energy(net, "s1") == pytest.approx(5.32e4 ** 2, rel=1e-12)
        assert interconnection_energy(net, "s1") == pytest.approx(2.8302e9, rel=1e-4)

    def test_no_neighbors(self):
        net = scalar_net({})
        assert interconnection_energy(net, "s1") == 0.0

    def test_two_unit_neighbors(self):
        net = scalar_net({("s2", "s1"): 1.0, ("s3", "s1"): 1.0}, n_subs=3)
        assert interconnection_energy(net, "s1") == pytest.approx(2.0)

    def test_bound_only_edge_uses_declared_bound(self):
        net = scalar_net({("s2", "s1"): {"norm_bound": 3.0}})
        assert interconnection_energy(net, "s1") == pytest.approx(9.0)

    def test_reverse_edge_not_counted(self):
        net = scalar_net({("s2", "s1"): 0.1, ("s1", "s2"): 0.4})
        assert interconnection_energy(net, "s1") == pytest.approx(0.01)


def walk_incoming(net, sid):
    """The oracle of the edge table: ``(N, Xi2)`` of one id by a walk over
    its in-edges, each gain computed alone."""
    N, xi2 = 0, 0.0
    for e in net.edges:
        if e.dst == sid:
            gain = e.norm_bound if e.A is None else float(np.linalg.norm(e.A, 2))
            N, xi2 = N + 1, xi2 + gain * gain
    return N, xi2


class TestHurwitzOwnership:
    """The network tests each desired record for Hurwitz at load; the stacked
    kernels trust it and test no member again."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind,n", [("ring", 9), ("mesh", 16), ("random", 12)])
    def test_kernels_receive_only_hurwitz_records(self, kind, n, seed, monkeypatch):
        received = []
        for module, name in ((riccati, "_peak_gains"), (riccati, "_solve_ares"),
                             (connective, "_peak_gains"), (model, "_lyapunovs")):
            def hurwitz_only(recs, *args, real=getattr(module, name), at=(module, name)):
                for r in recs:  # the oracle solves the spectrum afresh
                    assert np.linalg.eigvals(r.A).real.max() < 0.0
                received.append((at, len(recs)))
                return real(recs, *args)

            monkeypatch.setattr(module, name, hurwitz_only)
        rng = np.random.default_rng([59, seed, n])
        net = graph_net(rng, kind, n)
        # weakly coupled, so that subsystems reach the Riccati solve
        weak = NetworkModel(subsystems=net.subsystems, desired=net.checked, tuning=net.tuning,
                            edges=[dataclasses.replace(e, norm_bound=0.01 * e.norm_bound)
                                   if e.A is None else dataclasses.replace(e, A=0.01 * e.A)
                                   for e in net.edges])
        for each in (net, weak):
            certify(each)
            small_gain_check(each)
        # a network of its own: analyze and the simulator solve its weights afresh
        for run in (analyze, lambda net: simulate(net, Scenario(horizon=0.003, dt=1e-3),
                                                  mode="decentralized"),
                    lambda net: simulate(net, Scenario(horizon=0.003, dt=1e-3))):
            run(NetworkModel(subsystems=net.subsystems,
                             edges=[e for e in net.edges if e.A is not None],
                             desired=net.checked, tuning=net.tuning))
        members = {at: 0 for at, _ in received}
        for at, k in received:
            members[at] += k
        assert members[riccati, "_solve_ares"] > 0
        assert members[riccati, "_peak_gains"] == 2 * n
        assert members[connective, "_peak_gains"] == 2 * len(net.edges)
        assert members[model, "_lyapunovs"] == 3 * n


class TestIncomingTable:
    """``certify`` takes N and Xi2 of every subsystem from one edge table."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind,n", [("ring", 9), ("mesh", 16), ("random", 12)])
    def test_as_the_per_id_walk_gives(self, kind, n, seed):
        rng = np.random.default_rng([47, seed, n])
        net = graph_net(rng, kind, n)
        assert any(e.A is None for e in net.edges) and any(e.A is not None for e in net.edges)
        cert = certify(net)
        for sid in net.ids:
            c = cert.record(sid)
            N, xi2 = walk_incoming(net, sid)
            assert type(c.n_neighbors) is int and type(c.coupling_energy) is float
            assert (c.n_neighbors, bits(c.coupling_energy)) == (N, bits(xi2))
            assert bits(interconnection_energy(net, sid)) == bits(xi2)

    def test_no_edges(self):
        # an empty edge list counts integer zeros; the energies are float zeros
        net = graph_net(np.random.default_rng(5), "ring", 4)
        net = NetworkModel(subsystems=net.subsystems, edges=[], desired=net.checked,
                           tuning=net.tuning)
        for c in certify(net).subsystems:
            assert type(c.n_neighbors) is int and c.n_neighbors == 0
            assert type(c.coupling_energy) is float and c.coupling_energy == 0.0
            assert type(interconnection_energy(net, c.sid)) is float

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown subsystem id 'nope'"):
            interconnection_energy(graph_net(np.random.default_rng(5), "ring", 4), "nope")


class TestStabilityMargin:
    """The margin ``gamma - sqrt(N * Xi2)`` that ``certify`` records."""

    @staticmethod
    def margin(a, gain):
        net = scalar_net({("s2", "s1"): {"norm_bound": gain}}, a=a)
        return certify(net).record("s1").margin

    def test_positive(self):
        assert self.margin(-2.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_negative(self):
        assert self.margin(-2.0, 3.0) == pytest.approx(-1.0, abs=1e-9)

    def test_boundary_is_not_positive(self):
        assert not self.margin(-1.0, 1.0) > 0.0

    def test_not_hurwitz_rejected(self):
        with pytest.raises(StabilityError):
            self.margin(0.2, np.sqrt(0.5))


class TestEpsilonMargin:
    def test_half_gap(self):
        eps = epsilon_margin(distance_to_instability([[-2.0]], 1e-12), 1, 1.0)
        assert eps == pytest.approx(1.5, abs=1e-9)

    def test_small_gap(self):
        eps = epsilon_margin(distance_to_instability([[-2.0]], 1e-12), 1, 3.9)
        assert eps == pytest.approx(0.05, abs=1e-9)

    def test_decoupled_convention(self):
        # N = 0: no gap to split, eps = gamma^2 / 2
        assert epsilon_margin(2.0, 0, 0.0) == 2.0

    def test_no_margin_rejected(self):
        with pytest.raises(StabilityError):
            epsilon_margin(distance_to_instability([[-2.0]]), 1, 9.0)

    def test_real_neighbour_weight(self):
        # N is read as a number, not truncated to an integer
        assert epsilon_margin(2.0, 2.5, 0.1) == pytest.approx(0.75, abs=1e-15)
        assert epsilon_margin(2.0, 2.5, 0.1) == 0.5 * (4.0 / 2.5 - 0.1)

    def test_integer_neighbour_count_keeps_its_bits(self):
        for N in (1, 2, 3, 7):
            assert epsilon_margin(2.3, N, 0.01) == 0.5 * (2.3 * 2.3 / N - 0.01)
        assert epsilon_margin(2.3, np.int64(3), 0.01) == 0.5 * (2.3 * 2.3 / 3 - 0.01)

    @pytest.mark.parametrize("N", [-1, -0.5])
    def test_negative_neighbour_weight_rejected(self, N):
        with pytest.raises(ValueError, match="^N must be a non-negative count$"):
            epsilon_margin(2.0, N, 0.1)

    @pytest.mark.parametrize("N", [np.nan, "1", True])
    def test_bad_neighbour_weight_is_named(self, N):
        with pytest.raises(GascertError, match="^N: "):
            epsilon_margin(2.0, N, 0.1)

    @pytest.mark.parametrize("args,error,fault", [
        ((1.0, 1, np.nan), NonFiniteError, "coupling_energy: non-finite entries"),
        ((np.nan, 1, 0.1), NonFiniteError, "distance: non-finite entries"),
        ((np.inf, 1, 0.1), NonFiniteError, "distance: non-finite entries"),
        ((1.0, 1, -5.0), ValueError, "distance and coupling_energy must be non-negative"),
        ((-1.0, 0, 0.0), ValueError, "distance and coupling_energy must be non-negative"),
        (("1", 1, 0.1), GascertError, "distance: not a numeric array"),
        ((True, 1, 0.1), GascertError, "distance: not a numeric array"),
        ((1.0, 1, [0.1]), DimensionError, "coupling_energy: expected a number, got ndim=1"),
    ], ids=["nan_energy", "nan_distance", "inf_distance", "negative_energy",
            "negative_distance", "string_distance", "bool_distance", "array_energy"])
    def test_distance_and_energy_read_by_the_number_reader(self, args, error, fault):
        # these returned nan, inf, 3.0 (with a RuntimeWarning), 0.5 and 0.45,
        # or raised a raw UFuncTypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{re.escape(fault)}$"):
                epsilon_margin(*args)

    def test_margin_text_kept(self):
        with pytest.raises(StabilityError, match="^margin is not positive: no admissible "
                                                 "slack exists$"):
            epsilon_margin(1.0, 1, 1.0)

    def test_keeps_hyperbolicity(self):
        from gascert import is_hyperbolic

        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            A = random_hurwitz(rng, n)
            N = int(rng.integers(1, 4))
            gamma = distance_to_instability(A, 1e-10)
            xi2 = rng.uniform(0.05, 0.95) * gamma * gamma / N
            eps = epsilon_margin(gamma, N, xi2)
            assert is_hyperbolic(A, N, xi2 + eps)


class TestCertify:
    @pytest.mark.parametrize("name", ["toy_pair", "mesh6"])
    def test_verdict_does_not_depend_on_the_time_unit(self, name, tmp_path, capsys):
        # the reference model and every edge block times 2^k: the riccati
        # command certifies every k, and P 2^-k is the same to the bit
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        Ps = []
        for k in (-60, -20, 20, 60, 200):
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(dict(
                doc, reference_model=np.ldexp(doc["reference_model"], k).tolist(),
                edges=[dict(e, A=np.ldexp(e["A"], k).tolist()) for e in doc["edges"]])))
            assert cli.main(["riccati", str(path)]) == 0
            cert = certify(load_config(path)[0])
            assert cert.certified
            Ps.append([bits(np.ldexp(c.P, -k)) for c in cert.subsystems])
        assert Ps[1:] == Ps[:1] * 4

    def test_mutually_coupled_scalar_pair(self):
        net = scalar_net({("s2", "s1"): 0.5, ("s1", "s2"): 0.5})
        cert = certify(net)
        assert cert.certified
        c = cert.record("s1")
        assert c.n_neighbors == 1
        assert c.coupling_energy == pytest.approx(0.25)
        assert c.margin == pytest.approx(1.5, abs=1e-9)
        assert c.epsilon == pytest.approx(1.875, abs=1e-9)
        # quadratic: p^2 - 4p + 2.125 = 0, stabilizing root 2 - sqrt(1.875)
        assert c.P[0, 0] == pytest.approx(2.0 - np.sqrt(1.875), abs=1e-9)

    @pytest.mark.parametrize("coupled", [True, False])
    def test_overflowing_slack_is_not_certified(self, coupled):
        # gamma = 1e160: the margin is finite, the slack gamma^2 / N - Xi2 is
        # not; the record says so, with no epsilon and no Riccati solve
        tun = Tuning(Q=np.eye(1), gamma=1.0, theta_max=1.0, eps0=0.1)
        net = NetworkModel(
            subsystems=[AugmentedSubsystem.from_raw(sid, B=[[1.0]], C=np.zeros((0, 1)))
                        for sid in ("s1", "s2")],
            edges=[Interconnection(src="s2", dst="s1", A=[[0.1]])] if coupled else [],
            desired={"s1": [[-1e160]], "s2": [[-1e160]]}, tuning={"s1": tun, "s2": tun})
        cert = certify(net)
        assert not cert.certified and cert.failing == ["s1", "s2"]
        for c in cert.subsystems:
            assert (c.distance, c.epsilon, c.P, c.are_residual) == (1e160, None, None, None)
            assert c.margin > 0.0 and np.isfinite(c.coupling_energy)
            assert c.reason == "slack epsilon overflows: gamma^2 is beyond the float range"

    def test_overflowing_coupling_energy_is_not_certified(self):
        # s1: two in-edges whose Xi2 = 1.62e308 is finite but N Xi2 is not;
        # s2: one in-edge whose gain^2 overflows.  Each record keeps what is
        # finite and names the overflow; s3 is certified as without them
        net = scalar_net({("s2", "s1"): {"norm_bound": 9e153},
                          ("s3", "s1"): {"norm_bound": 9e153},
                          ("s1", "s2"): 1e155}, n_subs=3)
        cert = certify(net)
        assert not cert.certified and cert.failing == ["s1", "s2"]
        s1, s2, s3 = cert.subsystems
        assert s1.coupling_energy == interconnection_energy(net, "s1") == 2 * 9e153 ** 2
        assert s2.coupling_energy is None and interconnection_energy(net, "s2") == np.inf
        for c in (s1, s2):
            assert (c.margin, c.epsilon, c.P, c.are_residual) == (None, None, None, None)
            assert c.distance == 2.0
            assert c.reason == "coupling energy overflows: N * Xi2 is beyond the float range"
        assert s3.ok and s3.coupling_energy == 0.0

    def test_decoupled_reduces_to_lyapunov(self):
        net = scalar_net({})
        cert = certify(net)
        assert cert.certified
        c = cert.record("s1")
        assert c.n_neighbors == 0
        assert c.coupling_energy == 0.0
        # eps = gamma^2/2 = 2 for a = -2; then -4p + 2 = 0
        assert c.epsilon == pytest.approx(2.0, abs=1e-8)
        assert c.P[0, 0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("name", ["toy_pair", "dc_pair", "mesh6", "weak_pair",
                                      "unstable_pair"])
    def test_decoupled_record_is_the_riccati_solve(self, name):
        # with its edges dropped, every subsystem of a demo is decoupled: its
        # record is solve_are(A_m, 0, eps), within 1e-8 relative of the
        # Lyapunov solution of A_m'P + P A_m + eps I = 0
        net = load_config(CONFIG_DIR / f"{name}.json")[0]
        alone = NetworkModel(subsystems=net.subsystems, edges=[], desired=net.checked,
                             tuning=net.tuning)
        for c in certify(alone).subsystems:
            rec = net.checked[c.sid]
            eye = np.eye(rec.A.shape[0])
            assert c.n_neighbors == 0 and c.epsilon == epsilon_margin(c.distance, 0, 0.0)
            sol = solve_are(rec, 0, c.epsilon)
            assert c.ok and (bits(c.P), bits(c.are_residual)) == (
                bits(sol.P), bits(sol.residual_norm))
            P = solve_lyapunov(rec, c.epsilon * eye)
            assert np.linalg.norm(c.P - P) <= 1e-8 * np.linalg.norm(P)

    def test_failing_subsystem_reported(self):
        net = scalar_net({("s2", "s1"): 9.0, ("s1", "s2"): 0.5})
        cert = certify(net)
        assert not cert.certified
        assert cert.failing == ["s1"]
        assert cert.record("s1").reason == "margin is not positive"
        # the other subsystem still gets a full record
        assert cert.record("s2").ok

    def test_monotone_margin_in_coupling(self):
        margins = []
        for xi2 in (0.0, 0.5, 1.0, 2.0, 4.0):
            margins.append(TestStabilityMargin.margin(-2.0, np.sqrt(xi2)))
        assert all(np.diff(margins) < 0.0)

    def test_edge_deletion_keeps_certificate(self):
        net = scalar_net({("s2", "s1"): 0.5, ("s1", "s2"): 0.5})
        assert certify(net).certified
        smaller = scalar_net({("s2", "s1"): 0.5})
        assert certify(smaller).certified

    def test_certificate_soundness_random(self):
        rng = np.random.default_rng(47)
        count = 0
        for _ in range(15):
            n = int(rng.integers(1, 4))
            A = random_hurwitz(rng, n)
            gamma = distance_to_instability(A, 1e-10)
            gain = np.sqrt(rng.uniform(0.05, 0.8)) * gamma
            subs = [AugmentedSubsystem.from_raw(sid, B=np.eye(n)[:, :1],
                                                C=np.zeros((0, n)), A=None)
                    for sid in ("a", "b")]
            edges = [Interconnection(src="b", dst="a", A=gain * np.eye(n)),
                     Interconnection(src="a", dst="b", A=gain * np.eye(n))]
            tun = Tuning(Q=np.eye(n), gamma=1.0, theta_max=1.0, eps0=0.1)
            net = NetworkModel(subsystems=subs, edges=edges,
                               desired={"a": A, "b": A}, tuning={"a": tun, "b": tun})
            cert = certify(net)
            assert cert.certified
            for c in cert.subsystems:
                assert np.min(np.linalg.eigvalsh(c.P)) > 0.0
                resid = np.linalg.norm(
                    A.T @ c.P + c.P @ A + c.n_neighbors * c.P @ c.P
                    + (c.coupling_energy + c.epsilon) * np.eye(n))
                assert resid <= 1e-8 * max(1.0, np.linalg.norm(c.P) ** 2)
            count += 1
        assert count == 15

    def test_records_sorted_by_id(self):
        net = scalar_net({}, n_subs=3)
        cert = certify(net)
        assert [c.sid for c in cert.subsystems] == ["s1", "s2", "s3"]

    def test_records_indexed_by_id(self):
        net = scalar_net({("s1", "s2"): 0.1}, n_subs=3)
        cert = certify(net)
        for c in cert.subsystems:
            assert cert.record(c.sid) is c
            assert cert.P(c.sid) is c.P
        with pytest.raises(KeyError):
            cert.record("nope")

    def test_records_fixed_after_construction(self):
        # the index cannot fall out of step with the records: the fields
        # cannot be reassigned, the records cannot be edited in place, and
        # editing the caller's list changes nothing
        records = list(certify(scalar_net({("s1", "s2"): 0.1}, n_subs=3)).subsystems)
        cert = GasCertificate(subsystems=records, certified=True)
        first = records[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.subsystems = records[:1]
        with pytest.raises(TypeError):
            cert.subsystems[0] = records[1]
        with pytest.raises(AttributeError):
            cert.subsystems.append(records[1])
        records[0] = records[1]
        records.append(dataclasses.replace(first, sid="s4"))
        assert cert.subsystems == (first, *records[1:3])
        assert cert.record("s1") is first
        with pytest.raises(KeyError):
            cert.record("s4")
        # on a repeated id the first record is found, as a scan would find it
        twice = GasCertificate(subsystems=[first, dataclasses.replace(first, P=None)],
                               certified=False)
        assert twice.record("s1") is first


class TestDecouplingInequality:
    def test_psd_random_pairs(self):
        # X'X + Y'Y - X'Y - Y'X = (X - Y)'(X - Y) is positive semi-definite
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            X = rng.normal(size=(m, n)) * rng.uniform(0.1, 100.0)
            Y = rng.normal(size=(m, n)) * rng.uniform(0.1, 100.0)
            S = X.T @ X + Y.T @ Y - X.T @ Y - Y.T @ X
            scale = max(np.linalg.norm(X), np.linalg.norm(Y)) ** 2
            assert np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) >= -1e-10 * scale


def bits(x):
    return None if x is None else np.asarray(x).tobytes()


def record_bits(c):
    return (c.sid, c.n_neighbors, bits(c.coupling_energy), bits(c.distance), bits(c.margin),
            bits(c.epsilon), bits(c.P), bits(c.are_residual), c.ok, c.reason)


class TestStackedCertify:
    """``certify`` runs the subsystems of one size as one stack; each record
    is what the public single-matrix kernels give that subsystem alone."""

    @pytest.mark.parametrize("seed", range(6))
    def test_records_equal_the_single_kernels(self, seed):
        rng = np.random.default_rng(seed)
        net = mixed_net(rng, (1, 2, 3, 5, 8), 3, coupling=10.0 ** rng.uniform(-1.5, 0.5),
                        spread=(0.0, 1.0, 2.0)[seed % 3])
        cert = certify(net)
        assert [c.sid for c in cert.subsystems] == sorted(net.ids)
        verdicts = set()
        for c in cert.subsystems:
            rec = net.checked[c.sid]
            N, xi2 = net.neighbor_count(c.sid), interconnection_energy(net, c.sid)
            gamma = distance_to_instability(rec, 1e-12 * spectral_norm(rec))
            margin = gamma - np.sqrt(N * xi2)
            assert (c.n_neighbors, bits(c.coupling_energy)) == (N, bits(xi2))
            assert (bits(c.distance), bits(c.margin)) == (bits(gamma), bits(margin))
            if margin <= 0.0:
                want = (None, None, None, False, "margin is not positive")
            else:
                eps = epsilon_margin(gamma, N, xi2)
                try:
                    # a decoupled subsystem (N = 0, Xi2 = 0) is solve_are(rec, 0, eps)
                    sol = solve_are(rec, N, xi2 + eps)
                    want = (bits(eps), bits(sol.P), bits(sol.residual_norm), True, None)
                except GascertError as exc:
                    want = (bits(eps), None, None, False, str(exc))
            got = (bits(c.epsilon), bits(c.P), bits(c.are_residual), c.ok, c.reason)
            assert got == want

    def test_verdicts_of_both_kinds_are_covered(self):
        # the seeds above hold, for every size, coupled subsystems that pass
        # (through the Riccati stack) and coupled ones that fail, and a
        # decoupled subsystem (N = 0) in one Riccati stack with coupled ones
        seen, shared = {}, set()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            net = mixed_net(rng, (1, 2, 3, 5, 8), 3, coupling=10.0 ** rng.uniform(-1.5, 0.5),
                            spread=(0.0, 1.0, 2.0)[seed % 3])
            stacks = {}
            for c in certify(net).subsystems:
                n = net.desired[c.sid].shape[0]
                if c.n_neighbors:
                    seen.setdefault(n, set()).add(c.ok)
                if c.margin > 0.0:  # the members of the Riccati stack of size n
                    stacks.setdefault(n, set()).add(c.n_neighbors == 0)
            shared.update(n for n, kinds in stacks.items() if kinds == {True, False})
        assert seen == {n: {True, False} for n in (1, 2, 3, 5, 8)}
        assert shared == {1, 2, 3, 5, 8}

    def test_failing_members_leave_the_others_alone(self, monkeypatch):
        # one stack of six 3x3 subsystems: one fails its margin, one has its
        # Schur factorisation report the wrong subspace dimension; every other
        # record is the one it gets without the forced failure
        rng = np.random.default_rng(17)
        ids = [f"s{k:02d}" for k in range(6)]
        victim, weak = "s01", "s04"
        edges = [Interconnection(src=j, dst=i, A=0.05 * rng.normal(size=(3, 3)))
                 for j, i in zip(ids, ids[1:] + ids[:1]) if i != weak]
        edges.append(Interconnection(src="s00", dst=weak, A=1e3 * np.eye(3)))
        net = NetworkModel(
            subsystems=[AugmentedSubsystem.from_raw(sid, B=np.eye(3)[:, :1], C=np.zeros((0, 3)))
                        for sid in ids],
            edges=edges, desired={sid: random_hurwitz(rng, 3) for sid in ids},
            tuning={sid: Tuning(Q=np.eye(3), gamma=1.0, theta_max=1.0, eps0=0.1) for sid in ids})
        clean = certify(net)
        assert clean.record(weak).reason == "margin is not positive"
        assert clean.record(victim).ok
        schur, stacks = numerics._schur, []

        def forced(H, *args, **kw):
            T, Z, sdim = schur(H, *args, **kw)
            return T, Z, sdim - 1 if np.array_equal(H[:3, :3], net.desired[victim]) else sdim

        real = riccati._solve_ares
        monkeypatch.setattr(numerics, "_schur", forced)
        monkeypatch.setattr(riccati, "_solve_ares",
                            lambda recs, N, q: stacks.append(recs) or real(recs, N, q))
        cert = certify(net)
        assert len(stacks) == 1 and net.checked[weak] not in stacks[0]
        assert len(stacks[0]) == 5
        assert cert.record(victim).reason == "stable invariant subspace has dimension 2, expected 3"
        assert cert.record(weak).reason == "margin is not positive"
        assert cert.failing == [victim, weak]
        assert ([record_bits(c) for c in cert.subsystems if c.sid != victim]
                == [record_bits(c) for c in clean.subsystems if c.sid != victim])

    def test_escaping_error_is_the_first_in_id_order(self, monkeypatch):
        # an error that is not a verdict leaves certify as it did one
        # subsystem at a time: the first failing subsystem's, in id order
        net = mixed_net(np.random.default_rng(19), (2, 3), 3, coupling=0.05)
        first = {2: None, 3: None}
        for sid in sorted(net.ids):
            first[net.desired[sid].shape[0]] = first[net.desired[sid].shape[0]] or sid
        assert first[2] != first[3]
        real = riccati._peak_gains

        def failing(recs, *cols):
            out = real(recs, *cols)
            out[0] = SolverError(f"forced {recs[0].A.shape[0]}")
            return out

        monkeypatch.setattr(riccati, "_peak_gains", failing)
        size = net.desired[min(first.values())].shape[0]
        with pytest.raises(SolverError, match=f"^forced {size}$"):
            certify(net)

    def test_one_stack_per_size_in_one_pass(self, monkeypatch):
        # sizes interleaved in id order (3, 2, 3, 2): one distance stack and
        # one Riccati stack per size, in order of first appearance
        rng = np.random.default_rng(29)
        dims = {"s0": 3, "s1": 2, "s2": 3, "s3": 2}
        ids = list(dims)
        net = NetworkModel(
            subsystems=[AugmentedSubsystem.from_raw(sid, B=np.eye(n)[:, :1], C=np.zeros((0, n)))
                        for sid, n in dims.items()],
            edges=[Interconnection(src=j, dst=i, A=0.05 * rng.normal(size=(dims[i], dims[j])))
                   for j, i in zip(ids, ids[1:] + ids[:1])],
            desired={sid: random_hurwitz(rng, n) for sid, n in dims.items()},
            tuning={sid: Tuning(Q=np.eye(n), gamma=1.0, theta_max=1.0, eps0=0.1)
                    for sid, n in dims.items()})
        clean = certify(net)
        assert clean.certified
        calls = []
        for name in ("_peak_gains", "_solve_ares"):
            def counted(recs, *cols, _real=getattr(riccati, name), _name=name):
                calls.append((_name, [r.A.shape[0] for r in recs]))
                return _real(recs, *cols)
            monkeypatch.setattr(riccati, name, counted)
        cert = certify(net)
        assert calls == [("_peak_gains", [3, 3]), ("_peak_gains", [2, 2]),
                         ("_solve_ares", [3, 3]), ("_solve_ares", [2, 2])]
        assert [record_bits(c) for c in cert.subsystems] == [record_bits(c)
                                                            for c in clean.subsystems]

    def test_lapack_calls_grow_with_shapes_not_subsystems(self, monkeypatch):
        # 64 subsystems of two sizes: the eigensolves and SVDs of certify
        # are counted per stack, a few per level-set level, not per subsystem
        net = mixed_net(np.random.default_rng(23), (2, 3), 32, coupling=0.02)
        counts = {"eigvals": 0, "svd": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, _name=name, **kw):
                counts[_name] += 1
                return _real(a, *args, **kw)

            monkeypatch.setattr(np.linalg, name, counted)
        cert = certify(net)
        assert sum(c.ok for c in cert.subsystems) >= 48
        shapes, levels = 2, 10   # at most 10 levels per distance (test_eigensolves_per_call)
        assert 2 * shapes <= counts["eigvals"] <= shapes * (levels + 2) < 64
        assert 2 * shapes <= counts["svd"] <= shapes * (2 * levels + 3) < 64


class TestLocality:
    """A subsystem's certificate rests on its own data and its incoming
    edges only (the paper's local-information claim): an edge can be
    plugged in or out without moving any record but those of its ends."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind,n", [("ring", 9), ("mesh", 16), ("random", 12)])
    def test_one_edge_moves_only_its_ends(self, kind, n, seed):
        # two edges j -> i removed and two added (a matrix edge and a
        # bound-only one), one at a time: every record but i's and j's keeps
        # its bits
        rng = np.random.default_rng([61, seed, n])
        net = graph_net(rng, kind, n)
        want = {c.sid: record_bits(c) for c in certify(net).subsystems}
        cases = [([e for e in net.edges if e is not net.edges[k]], net.edges[k])
                 for k in rng.choice(len(net.edges), 2, replace=False).tolist()]
        present = {(e.src, e.dst) for e in net.edges}
        absent = [(j, i) for j in net.ids for i in net.ids if j != i and (j, i) not in present]
        for bound in (False, True):
            j, i = absent[int(rng.integers(len(absent)))]
            shape = (net.subsystem(i).dim, net.subsystem(j).dim)
            e = (Interconnection(src=j, dst=i, norm_bound=float(rng.uniform(0.1, 2.0)))
                 if bound else Interconnection(src=j, dst=i, A=rng.normal(size=shape)))
            cases.append(([*net.edges, e], e))
        compared = 0
        for edges, moved in cases:
            other = NetworkModel(subsystems=net.subsystems, edges=edges, desired=net.checked,
                                 tuning=net.tuning)
            got = {c.sid: record_bits(c) for c in certify(other).subsystems}
            assert got[moved.dst] != want[moved.dst]  # its neighbour count moved
            for sid in net.ids:
                if sid not in (moved.src, moved.dst):
                    assert got[sid] == want[sid], (moved.src, moved.dst, sid)
                    compared += 1
        assert compared == len(cases) * (n - 2)
