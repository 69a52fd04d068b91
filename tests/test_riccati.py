import dataclasses

import numpy as np
import pytest

from conftest import random_hurwitz
from gascert import (
    AugmentedSubsystem,
    GasCertificate,
    GascertError,
    Interconnection,
    NetworkModel,
    SolverError,
    StabilityError,
    Tuning,
    certify,
    distance_to_instability,
    epsilon_margin,
    interconnection_energy,
    numerics,
    riccati,
    solve_are,
    solve_lyapunov,
    spectral_norm,
)


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
            gamma = distance_to_instability(rec, 1e-12 * max(1.0, spectral_norm(rec)))
            margin = gamma - np.sqrt(N * xi2)
            assert (c.n_neighbors, bits(c.coupling_energy)) == (N, bits(xi2))
            assert (bits(c.distance), bits(c.margin)) == (bits(gamma), bits(margin))
            if margin <= 0.0:
                want = (None, None, None, False, "margin is not positive")
            else:
                eps = epsilon_margin(gamma, N, xi2)
                try:
                    if N == 0:
                        P = solve_lyapunov(rec, eps * np.eye(rec.A.shape[0]))
                        residual = float(np.linalg.norm(rec.A.T @ P + P @ rec.A
                                                        + eps * np.eye(rec.A.shape[0])))
                    else:
                        sol = solve_are(rec, N, xi2 + eps)
                        P, residual = sol.P, sol.residual_norm
                    want = (bits(eps), bits(P), bits(residual), True, None)
                except GascertError as exc:
                    want = (bits(eps), None, None, False, str(exc))
            got = (bits(c.epsilon), bits(c.P), bits(c.are_residual), c.ok, c.reason)
            assert got == want

    def test_verdicts_of_both_kinds_are_covered(self):
        # the seeds above hold, for every size, coupled subsystems that pass
        # (through the Riccati stack) and coupled ones that fail
        seen = {}
        for seed in range(6):
            rng = np.random.default_rng(seed)
            net = mixed_net(rng, (1, 2, 3, 5, 8), 3, coupling=10.0 ** rng.uniform(-1.5, 0.5),
                            spread=(0.0, 1.0, 2.0)[seed % 3])
            for c in certify(net).subsystems:
                if c.n_neighbors:
                    seen.setdefault(net.desired[c.sid].shape[0], set()).add(c.ok)
        assert seen == {n: {True, False} for n in (1, 2, 3, 5, 8)}

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
        schur, stacks = numerics.sla.schur, []

        def forced(H, **kw):
            T, Z, sdim = schur(H, **kw)
            return T, Z, sdim - 1 if np.array_equal(H[:3, :3], net.desired[victim]) else sdim

        real = riccati._solve_ares
        monkeypatch.setattr(numerics.sla, "schur", forced)
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
        real = numerics._peak_gains

        def failing(recs, M, rtol, dtols):
            out = real(recs, M, rtol, dtols)
            out[0] = SolverError(f"forced {recs[0].A.shape[0]}")
            return out

        monkeypatch.setattr(numerics, "_peak_gains", failing)
        size = net.desired[min(first.values())].shape[0]
        with pytest.raises(SolverError, match=f"^forced {size}$"):
            certify(net)

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
