import copy
import dataclasses
import json
import pickle
import re
import warnings

import numpy as np
import pytest

from conftest import CONFIG_DIR, DC_AM, DC_B1, assert_same_bits, graph_edges, random_hurwitz
from gascert import model, numerics, sim
from gascert import (
    AugmentedSubsystem,
    ConfigError,
    DimensionError,
    GascertError,
    Interconnection,
    NetworkModel,
    NonFiniteError,
    StabilityError,
    Tuning,
    augment_edge,
    analyze,
    check_controllability,
    certify,
    closed_loop_global,
    eigenvalues,
    small_gain_check,
    solve_are,
)
from gascert.cli import main
from gascert.config import load_config, parse_config


def toy_tuning(dim):
    return Tuning(Q=np.eye(dim), gamma=1.0, theta_max=1.0, eps0=0.1)


class TestControllability:
    def test_double_integrator(self):
        assert check_controllability([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])

    def test_unreachable_mode(self):
        assert not check_controllability(np.diag([-1.0, -2.0]), [[1.0], [0.0]])

    def test_benchmark_pair(self):
        # the unscaled Krylov matrix of the 1e6-scale benchmark is
        # rank-deficient at 1e-10 relative (singular-value ratios ~1, 3e-9,
        # 7e-19), but the pair is controllable: the eigenvector test
        # rank[lam I - A, B] keeps a ~7e-8 margin at every eigenvalue, and
        # that is the test check_controllability makes
        ctrb = np.hstack([DC_B1, DC_AM @ DC_B1, DC_AM @ DC_AM @ DC_B1])
        assert np.linalg.matrix_rank(ctrb) == 2
        assert check_controllability(DC_AM, DC_B1)
        for lam in np.linalg.eigvals(DC_AM):
            M = np.hstack([lam * np.eye(3) - DC_AM, DC_B1.astype(complex)])
            sv = np.linalg.svd(M, compute_uv=False)
            assert sv[-1] / sv[0] > 1e-8

    def test_entries_near_overflow(self):
        # A @ B would overflow; no power of A is formed
        A, B = np.diag([2e300, 1e300]), [[1e300], [1e300]]
        assert check_controllability(A, B)
        assert not check_controllability(A, [[1e300], [0.0]])

    def test_scale_invariant(self):
        A, B = np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]])
        for c in (1e-200, 1e-6, 1.0, 1e6, 1e200):
            assert check_controllability(c * A, c * B)
            assert not check_controllability(c * A, c * np.array([[1.0], [0.0]]))


class TestAugment:
    def test_state_block_placement(self):
        # the plant matrix is checked (size, controllability) but not kept:
        # the plant is integrated in uncertainty form
        aug = AugmentedSubsystem.from_raw("s", B=[[1.0], [1.0]], C=[[1.0, 0.0]],
                                          A=np.diag([-1.0, -2.0]))
        assert (aug.n, aug.q, aug.dim) == (2, 1, 3)
        assert not hasattr(aug, "A")
        with pytest.raises(DimensionError, match=r"^subsystem s: A is 3x3, expected 2x2$"):
            AugmentedSubsystem.from_raw("s", B=[[1.0], [1.0]], C=[[1.0, 0.0]], A=np.eye(3))

    def test_input_zero_padding(self):
        aug = AugmentedSubsystem.from_raw("s", B=[[1.0], [1.0]], C=[[1.0, 0.0]],
                                          A=np.diag([-1.0, -2.0]))
        assert np.array_equal(aug.B, np.array([[1.0], [1.0], [0.0]]))

    def test_disturbance_block(self):
        # E gives the disturbance width r and is checked, but not kept: the
        # disturbance enters no dynamics
        E = np.array([[2.0], [3.0]])
        aug = AugmentedSubsystem.from_raw("s", B=[[1.0], [1.0]], C=[[1.0, 0.0]],
                                          A=np.diag([-1.0, -2.0]), E=E)
        assert aug.r == 1
        assert not [b for b in "DEF" if hasattr(aug, b)]
        with pytest.raises(DimensionError, match=r"^subsystem s: E has 3 rows, expected 2$"):
            AugmentedSubsystem.from_raw("s", B=[[1.0], [1.0]], C=[[1.0, 0.0]], E=np.ones((3, 1)))

    def test_output_block(self):
        aug = AugmentedSubsystem.from_raw("s", B=[[1.0], [1.0]], C=[[1.0, 0.0]],
                                          A=np.diag([-1.0, -2.0]))
        assert np.array_equal(aug.C, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_structural_invariants_random(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            q = int(rng.integers(1, 3))
            A = random_hurwitz(rng, n)
            B = rng.normal(size=(n, m))
            C = rng.normal(size=(q, n))
            try:
                aug = AugmentedSubsystem.from_raw("s", B, C, A=A)
            except ValueError:
                continue  # rare non-controllable draw
            assert np.array_equal(aug.B[:n], B)
            assert np.all(aug.B[n:, :] == 0.0)
            assert np.array_equal(aug.C[:q, :n], C)
            assert np.all(aug.C[:q, n:] == 0.0)
            assert np.array_equal(aug.C[q:], np.hstack([np.zeros((q, n)), np.eye(q)]))

    def test_uncontrollable_rejected(self):
        with pytest.raises(ValueError, match="controllable"):
            AugmentedSubsystem.from_raw("s", B=[[1.0], [0.0]], C=[[1.0, 0.0]],
                                        A=np.diag([-1.0, -2.0]))

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError, match=r"subsystem s: \(A, B\) is not controllable"):
            AugmentedSubsystem.from_raw("s", B=[[0.0]], C=[[1.0]], A=[[0.0]])

    def test_built_only_by_from_raw(self):
        # the augmented layout exists only as from_raw builds it: there is no
        # second constructor to hand it other blocks, and its blocks are read-only
        aug = AugmentedSubsystem.from_raw("s", B=[[1.0], [1.0]], C=[[1.0, 0.0]],
                                          A=np.diag([-1.0, -2.0]))
        blocks = {b: getattr(aug, b) for b in "BC"}
        refused = "build an AugmentedSubsystem with AugmentedSubsystem.from_raw"
        for call in (lambda: AugmentedSubsystem(sid="s", n=2, q=1, m=1, r=0, **blocks),
                     lambda: AugmentedSubsystem("s"), lambda: AugmentedSubsystem(),
                     lambda: dataclasses.replace(aug, B=np.ones((3, 1))),
                     lambda: dataclasses.replace(aug)):
            with pytest.raises(TypeError, match=f"^{re.escape(refused)}$"):
                call()
        for X in blocks.values():
            assert not X.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            aug.B = np.ones((3, 1))

    @pytest.mark.parametrize("given", ["BC", "ABC", "BCDE", "ABCDE"])
    def test_from_raw_reads_each_given_block_once(self, given, monkeypatch):
        # one numeric_array call per raw block given, and none for the blocks
        # it builds or for the controllability test's arrays
        raw = {"A": [[0.0, 1.0], [-2.0, -3.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]],
               "D": [[0.5]], "E": [[1.0, 0.0], [0.0, 1.0]]}
        read = []
        real = numerics.numeric_array
        monkeypatch.setattr(numerics, "numeric_array",
                            lambda value, name="array": read.append(value) or real(value, name))
        aug = AugmentedSubsystem.from_raw("s", **{b: raw[b] for b in given})
        assert [sum(v is raw[b] for v in read) for b in given] == [1] * len(given)
        assert len(read) == len(given)
        # only the built blocks and the widths are kept, whatever was given
        assert sorted(vars(aug)) == ["B", "C", "m", "n", "q", "r", "sid"]
        assert aug.r == (2 if "E" in given else 0)

    def test_unknown_plant_not_tested(self):
        # without A there is no pair to test, so even B = 0 is accepted
        aug = AugmentedSubsystem.from_raw("s", B=[[0.0]], C=[[1.0]])
        assert aug.B.tolist() == [[0.0], [0.0]]
        assert aug.dim == 2


def _from_raw_by_block(B, C):
    """The augmented blocks as ``np.block``/``np.vstack`` assembled them."""
    n, m = B.shape
    q = C.shape[0]
    B_aug = np.vstack([B, np.zeros((q, m))])
    C_aug = np.block([[C, np.zeros((q, q))], [np.zeros((q, n)), np.eye(q)]])
    return B_aug, C_aug


class TestFromRawBlocks:
    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("r", [0, 2])
    @pytest.mark.parametrize("plant", ["known", "unknown"])
    def test_slice_built_blocks_match_np_block(self, q, r, plant):
        rng = np.random.default_rng(100 * q + 10 * r + len(plant))
        for n in (1, 2, 4):
            for m in (1, 2):
                A = rng.normal(size=(n, n)) if plant == "known" else None
                B = rng.normal(size=(n, m))
                C = rng.normal(size=(q, n))
                C[:, 0] = -0.0  # signed zeros must survive the placement
                D = rng.normal(size=(q, m))
                E = rng.normal(size=(n, r))
                # D and E given, then left to their zero defaults
                for d, e in ((D, E), (None, None)):
                    s = AugmentedSubsystem.from_raw("s", B, C, A=A, D=d, E=e)
                    for got, ref in zip((s.B, s.C), _from_raw_by_block(B, C)):
                        assert_same_bits(got, ref)
                    assert (s.n, s.m, s.q, s.r) == (n, m, q, 0 if e is None else r)


class TestAugmentEdge:
    def test_scalar(self):
        assert np.array_equal(augment_edge([[5.0]], 1, 1),
                              np.array([[5.0, 0.0], [0.0, 0.0]]))

    def test_zero_padding_shape(self):
        out = augment_edge(np.ones((2, 2)), 1, 1)
        assert out.shape == (3, 3)
        assert np.all(out[:2, :2] == 1.0)
        assert np.all(out[2, :] == 0.0)
        assert np.all(out[:, 2] == 0.0)

    def test_benchmark_edge_is_fixed_point(self):
        # the benchmark coupling block has its only entry in the raw part,
        # so augmenting the raw 2x2 reproduces the full 3x3
        raw = np.array([[0.0, 0.0], [0.0, 5.32e4]])
        out = augment_edge(raw, 1, 1)
        expected = np.zeros((3, 3))
        expected[1, 1] = 5.32e4
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("count", [1.5, "1", True, -1, None],
                             ids=["float", "string", "bool", "negative", "none"])
    @pytest.mark.parametrize("field", ["q_to", "q_from"])
    def test_counts_are_non_negative_integers(self, field, count):
        # 1.5 and "1" raised raw TypeErrors, and True was taken as 1
        counts = {"q_to": 1, "q_from": 1, field: count}
        with pytest.raises(ValueError, match=f"^{field}: integral-state counts must be "
                                             "non-negative integers$"):
            augment_edge([[5.0]], **counts)

    def test_numpy_integer_counts(self):
        assert augment_edge([[5.0]], np.int64(1), np.int32(0)).shape == (2, 1)


def two_sub_net(coupling=0.5, heterogeneous=False):
    def scalar_sub(sid, a):
        return AugmentedSubsystem.from_raw(sid, B=[[1.0]], C=np.zeros((0, 1)), A=[[a]])

    a2 = -3.0 if heterogeneous else -2.0
    subs = [scalar_sub("s1", -2.0), scalar_sub("s2", a2)]
    edges = []
    if coupling:
        edges = [Interconnection(src="s2", dst="s1", A=[[coupling]]),
                 Interconnection(src="s1", dst="s2", A=[[coupling]])]
    return NetworkModel(
        subsystems=subs, edges=edges,
        desired={"s1": [[-2.0]], "s2": [[a2]]},
        tuning={"s1": toy_tuning(1), "s2": toy_tuning(1)},
    )


def single_net():
    aug = AugmentedSubsystem.from_raw("only", B=[[2.0]], C=[[1.0]], A=[[-1.0]])
    return NetworkModel(subsystems=[aug], edges=[],
                        desired={"only": [[-2.0, 1.0], [-1.0, 0.0]]},
                        tuning={"only": toy_tuning(2)})


def one_edge_net():
    net = two_sub_net(coupling=0.0)
    return NetworkModel(subsystems=net.subsystems,
                        edges=[Interconnection(src="s2", dst="s1", A=[[0.7]])],
                        desired=net.desired, tuning=net.tuning)


def round_trip_net():
    """Two mixed-shape subsystems and one coupling edge; returns (net, raw edge)."""
    rng = np.random.default_rng(17)
    subs, desired, tuning = [], {}, {}
    for sid, n, m, q in (("x", 2, 1, 1), ("y", 3, 2, 1)):
        while True:
            A = random_hurwitz(rng, n)
            B = rng.normal(size=(n, m))
            if check_controllability(A, B):
                break
        C = rng.normal(size=(q, n))
        E = rng.normal(size=(n, 1))
        subs.append(AugmentedSubsystem.from_raw(sid, B, C, A=A, E=E))
        desired[sid] = random_hurwitz(rng, n + q)
        tuning[sid] = toy_tuning(n + q)
    e_xy = rng.normal(size=(2, 3))
    edge = Interconnection(src="y", dst="x", A=augment_edge(e_xy, 1, 1))
    return NetworkModel(subsystems=subs, edges=[edge], desired=desired, tuning=tuning), e_xy


def benchmark_pair_net():
    from conftest import DC_A12, DC_A21

    subs = [
        AugmentedSubsystem.from_raw("dgu1", B=DC_B1[:2], C=[[0.0, 1.0]]),
        AugmentedSubsystem.from_raw("dgu2", B=[[4.25e6], [-5.6e5]], C=[[0.0, 1.0]]),
    ]
    edges = [Interconnection(src="dgu2", dst="dgu1", A=DC_A12),
             Interconnection(src="dgu1", dst="dgu2", A=DC_A21)]
    return NetworkModel(subsystems=subs, edges=edges,
                        desired={"dgu1": DC_AM, "dgu2": DC_AM},
                        tuning={"dgu1": toy_tuning(3), "dgu2": toy_tuning(3)})


class TestAssembleGlobal:
    """Edge placement of the global assembly, through ``closed_loop_global``."""

    def test_single_subsystem(self):
        net = single_net()
        assert np.array_equal(closed_loop_global(net), net.desired["only"])

    def test_one_directed_edge(self):
        A = closed_loop_global(one_edge_net())
        assert A[0, 1] == 0.7
        assert A[1, 0] == 0.0

    def test_round_trip_exact(self):
        net, e_xy = round_trip_net()
        subs, edge = net.subsystems, net.edges[0]
        A = closed_loop_global(net)
        dx = subs[0].dim
        assert np.array_equal(A[:dx, :dx], net.desired["x"])
        assert np.array_equal(A[dx:, dx:], net.desired["y"])
        assert np.array_equal(A[:dx, dx:], edge.A)
        assert np.array_equal(A[:2, 3:6], e_xy)
        assert np.all(A[dx:, :dx] == 0.0)


class TestClosedLoopGlobal:
    def test_no_edges_block_diag(self):
        net = two_sub_net(coupling=0.0, heterogeneous=True)
        A = closed_loop_global(net)
        assert np.array_equal(A, np.diag([-2.0, -3.0]))

    def test_diag_and_coupling_decomposition(self):
        net = two_sub_net(coupling=0.5)
        A = closed_loop_global(net)
        diag = np.diag([-2.0, -2.0])
        coupling = A - diag
        assert np.all(np.diag(coupling) == 0.0)
        assert coupling[0, 1] == 0.5
        assert coupling[1, 0] == 0.5

    def test_benchmark_pair_spectrum(self):
        from conftest import DC_A12, DC_A21

        A = closed_loop_global(benchmark_pair_net())
        assert A.shape == (6, 6)
        assert np.array_equal(A[:3, 3:], DC_A12)
        assert np.array_equal(A[3:, :3], DC_A21)
        # eigenvalue oracle on an independently assembled block matrix
        oracle = np.linalg.eigvals(np.block([[DC_AM, DC_A12], [DC_A21, DC_AM]]))
        ours = np.linalg.eigvals(A)
        assert np.allclose(np.sort_complex(ours), np.sort_complex(oracle))


def _slice_block_diag(blocks, rows, cols):
    """Block-diagonal placement by explicit slices (the pre-scipy assembly)."""
    out = np.zeros((sum(rows), sum(cols)))
    r0 = c0 = 0
    for blk, r, c in zip(blocks, rows, cols):
        out[r0:r0 + r, c0:c0 + c] = blk
        r0 += r
        c0 += c
    return out


def _slice_assembly(net, diag):
    """Square diagonal blocks, then every edge block at (dst, src), by slices."""
    dims = [s.dim for s in net.subsystems]
    out = _slice_block_diag(diag, dims, dims)
    offsets = np.concatenate([[0], np.cumsum(dims)])
    index = {sid: k for k, sid in enumerate(net.ids)}
    for e in net.edges:
        i, j = index[e.dst], index[e.src]
        out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = e.A
    return out


ASSEMBLY_NETS = {
    "single": single_net,
    "uncoupled": lambda: two_sub_net(coupling=0.0, heterogeneous=True),
    "coupled": lambda: two_sub_net(coupling=0.5),
    "one_edge": one_edge_net,
    "round_trip": lambda: round_trip_net()[0],
    "benchmark_pair": benchmark_pair_net,
}


class TestAssemblyBits:
    """``scipy.linalg.block_diag`` plus edge placement against the slice assembly."""

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_NETS))
    def test_closed_loop(self, name):
        net = ASSEMBLY_NETS[name]()
        want = _slice_assembly(net, [net.desired[sid] for sid in net.ids])
        assert_same_bits(closed_loop_global(net), want)


class TestNetworkValidation:
    def test_unknown_edge_endpoint(self):
        with pytest.raises(ValueError, match="unknown"):
            net = two_sub_net(coupling=0.0)
            NetworkModel(subsystems=net.subsystems,
                         edges=[Interconnection(src="nope", dst="s1", A=[[1.0]])],
                         desired=net.desired, tuning=net.tuning)

    def test_non_hurwitz_desired_rejected(self):
        net = two_sub_net(coupling=0.0)
        with pytest.raises(StabilityError):
            NetworkModel(subsystems=net.subsystems, edges=[],
                         desired={"s1": [[0.5]], "s2": [[-2.0]]},
                         tuning=net.tuning)

    def test_edge_dimension_mismatch(self):
        net = two_sub_net(coupling=0.0)
        with pytest.raises(DimensionError):
            NetworkModel(subsystems=net.subsystems,
                         edges=[Interconnection(src="s2", dst="s1", A=np.ones((2, 2)))],
                         desired=net.desired, tuning=net.tuning)

    def test_repeated_edge_rejected(self):
        net = two_sub_net(coupling=0.5)
        with pytest.raises(ValueError, match=r"edge s1->s2: repeated edge"):
            NetworkModel(subsystems=net.subsystems,
                         edges=(*net.edges, Interconnection(src="s1", dst="s2", A=[[0.2]])),
                         desired=net.desired, tuning=net.tuning)

    @pytest.mark.parametrize("kwargs", [{"A": [[0.1]]}, {"norm_bound": 0.1}],
                             ids=["matrix", "bound"])
    def test_self_edge_rejected(self, kwargs):
        # the paper's interconnections join distinct subsystems; a self-edge
        # was taken as a desired block, a neighbour and nothing by the three tests
        with pytest.raises(ValueError,
                           match="^edge a->a: a subsystem cannot be coupled to itself$"):
            Interconnection(src="a", dst="a", **kwargs)

    def test_zero_edge_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            Interconnection(src="a", dst="b", A=[[0.0]])

    def test_bound_only_edge(self):
        e = Interconnection(src="a", dst="b", norm_bound=2.5)
        assert e.gain() == 2.5

    def test_matrix_and_bound_rejected(self):
        # one gain per edge: a bound next to a matrix would be ignored by
        # the simulator or by the certificates
        with pytest.raises(ValueError, match=r"^edge a->b: .*not both$"):
            Interconnection(src="a", dst="b", A=[[3.0]], norm_bound=0.1)

    def test_neither_matrix_nor_bound_rejected(self):
        with pytest.raises(ValueError, match=r"^edge a->b: .*neither$"):
            Interconnection(src="a", dst="b")

    @pytest.mark.parametrize("field,value,error,fault", [
        ("norm_bound", -1.0, ValueError, "norm_bound must be >= 0"),
        ("norm_bound", float("nan"), NonFiniteError, "norm_bound: non-finite entries"),
        ("norm_bound", float("inf"), NonFiniteError, "norm_bound: non-finite entries"),
        ("norm_bound", True, GascertError, "norm_bound: not a numeric array"),
        ("A", [["0.5"]], GascertError, "A: not a numeric array"),
        ("A", [[True]], GascertError, "A: not a numeric array"),
    ], ids=["-1.0", "nan", "inf", "bool", "A_string", "A_bool"])
    def test_bad_bound_rejected(self, field, value, error, fault):
        # the bound and the coupling matrix are read by numeric_array
        with pytest.raises(error, match=f"^edge a->b: {re.escape(fault)}$"):
            Interconnection(src="a", dst="b", **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True,
                                       [["1", 0], [0, "1"]]],
                             ids=["nan", "inf", "-inf", "bool", "strings"])
    @pytest.mark.parametrize("name", ["gamma", "theta_max", "eps0", "Q"])
    def test_tuning_scalars_finite(self, name, value):
        # every tuning value is read by numeric_array, before any range check
        kwargs = {"Q": np.eye(2), "gamma": 20.0, "theta_max": 1.5, "eps0": 0.1, name: value}
        error, fault = ((NonFiniteError, "non-finite entries") if isinstance(value, float)
                        else (GascertError, "not a numeric array"))
        with pytest.raises(error, match=f"^{name}: {fault}$"):
            Tuning(**kwargs)

    @pytest.mark.parametrize("call,fault", [
        (lambda: Tuning(Q=np.eye(2), gamma=[1.0], theta_max=1.0, eps0=0.1),
         "gamma: expected a number, got ndim=1"),
        (lambda: Interconnection(src="a", dst="b", norm_bound=[0.5]),
         "edge a->b: norm_bound: expected a number, got ndim=1"),
    ], ids=["tuning_gamma", "edge_norm_bound"])
    def test_scalar_given_as_array_names_its_field(self, call, fault):
        # numpy's own refusal of float([1.0]) named no field
        with pytest.raises(DimensionError, match=f"^{re.escape(fault)}$"):
            call()

    def test_maps_read_only(self):
        net = two_sub_net(coupling=0.5)
        for name in ("desired", "tuning", "baseline"):
            with pytest.raises(TypeError):
                getattr(net, name)["s1"] = getattr(net, name)["s2"]
        assert sorted(net.baseline) == ["s1", "s2"]

    def test_caller_dicts_untouched(self):
        net = two_sub_net(coupling=0.0)
        desired = {"s1": [[-1.0]], "s2": [[-2.0]]}
        tuning = dict(net.tuning)
        baseline = {"s1": [[0.5]]}
        built = NetworkModel(subsystems=net.subsystems, edges=[], desired=desired,
                             tuning=tuning, baseline=baseline)
        assert desired == {"s1": [[-1.0]], "s2": [[-2.0]]}
        assert baseline == {"s1": [[0.5]]}
        assert tuning == dict(net.tuning)
        assert isinstance(built.desired["s1"], np.ndarray)
        assert np.array_equal(built.baseline["s2"], np.zeros((1, 1)))

    def test_caller_arrays_copied_read_only(self):
        # a network keeps copies: the caller editing its arrays afterwards
        # changes nothing, and the stored ones refuse in-place writes
        net, _, _ = load_config(CONFIG_DIR / "toy_pair.json")
        desired = {sid: np.array(net.desired[sid]) for sid in net.ids}
        baseline = {sid: np.array(net.baseline[sid]) for sid in net.ids}
        coupling = [np.array(e.A) for e in net.edges]
        edges = [Interconnection(src=e.src, dst=e.dst, A=A) for e, A in zip(net.edges, coupling)]
        built = NetworkModel(subsystems=net.subsystems, edges=edges, desired=desired,
                             tuning=net.tuning, baseline=baseline)
        for a in [*desired.values(), *baseline.values(), *coupling]:
            a[0, 0] = 5.0
        for sid in net.ids:
            assert np.array_equal(built.desired[sid], net.desired[sid])
            assert np.array_equal(built.baseline[sid], net.baseline[sid])
        for got, want in zip(built.edges, net.edges):
            assert np.array_equal(got.A, want.A)
        assert certify(built).certified
        for stored in (built.desired["a"], built.baseline["a"], built.edges[0].A):
            with pytest.raises(ValueError):
                stored[0, 0] = 5.0

    def test_subsystem_blocks_read_only(self):
        # a loaded network's blocks refuse in-place writes, so the simulator
        # cannot integrate a plant other than the one certified
        net, _, _ = load_config(CONFIG_DIR / "toy_pair.json")
        with pytest.raises(ValueError):
            net.subsystem("a").B[:] = 0.0
        B = np.array([[1.0], [0.5]])
        s = AugmentedSubsystem.from_raw("s", B=B, C=[[1.0, 0.0]], A=[[0.0, 1.0], [0.0, 0.0]],
                                        D=[[0.0]], E=[[1.0], [0.0]])
        B[0, 0] = 5.0
        assert s.B[0, 0] == 1.0
        for name in ("B", "C"):
            with pytest.raises(ValueError):
                getattr(s, name)[0, 0] = 5.0

    def test_tuning_Q_read_only_copy(self):
        # the network's Lyapunov memo rests on Q: it must not change under it
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        tu = Tuning(Q=Q, gamma=1.0, theta_max=1.0, eps0=0.1)
        Q[0, 0] = -5.0
        assert np.array_equal(tu.Q, [[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError):
            tu.Q[0, 0] = -5.0

    def test_edges_frozen(self):
        # an edge added after construction would skip every check above
        net = two_sub_net(coupling=0.5)
        extra = Interconnection(src="s1", dst="s2", A=[[0.2]])
        with pytest.raises(AttributeError):
            net.edges.append(extra)
        with pytest.raises(AttributeError):
            net.edges = (*net.edges, extra)
        assert len(net.edges) == 2

    def test_subsystems_frozen(self):
        # the id index is built from the subsystem tuple once
        net = two_sub_net(coupling=0.0)
        with pytest.raises(AttributeError):
            net.subsystems.append(net.subsystems[0])
        assert net.ids == ["s1", "s2"]

    def test_edge_tables(self):
        net = round_trip_net()[0]
        assert net.index == {"x": 0, "y": 1}
        for sid in net.ids:
            assert net.in_edges(sid) == tuple(e for e in net.edges if e.dst == sid)
            assert net.out_edges(sid) == tuple(e for e in net.edges if e.src == sid)
            assert net.neighbor_count(sid) == len(net.in_edges(sid))
        assert net.in_edges("nope") == ()

    def test_lyapunov_kept_as_solved(self, monkeypatch):
        # the solution is made read-only in place: no second read, no copy;
        # the first read solves every subsystem's weight, in one kernel call
        net = two_sub_net(coupling=0.5)
        solved = []
        real = model._lyapunovs
        monkeypatch.setattr(model, "_lyapunovs",
                            lambda recs, Q: solved.append(real(recs, Q)) or solved[-1])
        P = net.lyapunov("s1")
        assert len(solved) == 1 and P is solved[0][net.index["s1"]]
        assert not P.flags.writeable
        assert net.lyapunov("s1") is P
        assert net.lyapunov("s2") is solved[0][net.index["s2"]] and len(solved) == 1

    def test_huge_Q_accepted(self):
        # Q + Q' overflowed, and a finite positive definite weight was rejected
        # as non-finite, with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tu = Tuning(Q=[[1e308, 0.0], [0.0, 1e308]], gamma=1.0, theta_max=1.0, eps0=0.1)
        assert tu.Q.tolist() == [[1e308, 0.0], [0.0, 1e308]]


def _held_arrays(net):
    """Every array a network holds, its subsystems', edges' and tunings' too."""
    out = [*net.desired.values(), *net.baseline.values()]
    out += [rec.A for rec in net.checked.values()]
    for s in net.subsystems:
        out += [s.B, s.C]
    for e in net.edges:
        out += [] if e.A is None else [e.A]
    for t in net.tuning.values():
        out += [t.Q]
    return out + [net.lyapunov(sid) for sid in net.ids]


DEMOS = ["toy_pair", "dc_pair", "mesh6", "weak_pair", "unstable_pair"]
COPIES = {"pickle": lambda net: pickle.loads(pickle.dumps(net)), "deepcopy": copy.deepcopy}


class TestCopies:
    """A copied network is rebuilt through the constructors."""

    @pytest.mark.parametrize("how", COPIES.values(), ids=COPIES.keys())
    @pytest.mark.parametrize("name", DEMOS)
    def test_copy_certifies_as_the_original(self, name, how):
        # pickle and deepcopy raised TypeError: cannot pickle 'mappingproxy' object
        net, _, _ = load_config(CONFIG_DIR / f"{name}.json")
        copied = how(net)
        assert copied is not net and copied.ids == net.ids
        want, got = certify(net), certify(copied)
        assert got.certified == want.certified
        for a, b in zip(want.subsystems, got.subsystems):
            assert (b.sid, b.ok, b.reason, b.n_neighbors) == (a.sid, a.ok, a.reason,
                                                               a.n_neighbors)
            for field in ("coupling_energy", "distance", "margin", "epsilon", "are_residual"):
                assert repr(getattr(b, field)) == repr(getattr(a, field))
            if a.P is None:
                assert b.P is None
            else:
                assert_same_bits(b.P, a.P)
        assert_same_bits(analyze(copied).M, analyze(net).M)

    @pytest.mark.parametrize("how", COPIES.values(), ids=COPIES.keys())
    @pytest.mark.parametrize("name", DEMOS)
    def test_copy_holds_read_only_arrays(self, name, how):
        # an unpickled subsystem B, edge A or tuning Q was writable
        net, _, _ = load_config(CONFIG_DIR / f"{name}.json")
        copied = how(net)
        held = _held_arrays(copied)
        assert len(held) == len(_held_arrays(net))
        assert not [a for a in held if a.flags.writeable]
        for s in net.subsystems:  # a subsystem copied on its own too
            blocks = [X for X in vars(how(s)).values() if isinstance(X, np.ndarray)]
            assert blocks and not [X for X in blocks if X.flags.writeable]
        for mapping in (copied.desired, copied.tuning, copied.baseline, copied.checked):
            with pytest.raises(TypeError):
                mapping[copied.ids[0]] = None

    def test_shared_values_stay_shared(self):
        # mesh6's subsystems share one desired record and one tuning
        net, _, _ = load_config(CONFIG_DIR / "mesh6.json")
        for how in COPIES.values():
            copied = how(net)
            assert len({id(r) for r in copied.checked.values()}) == 1
            assert len({id(t) for t in copied.tuning.values()}) == 1

    @pytest.mark.parametrize("how", COPIES.values(), ids=COPIES.keys())
    def test_copy_goes_through_the_constructors(self, how, monkeypatch):
        # each value is rebuilt by its constructor, whose checks run again
        net, _, _ = load_config(CONFIG_DIR / "toy_pair.json")
        built = []
        for cls in (NetworkModel, Interconnection, Tuning, numerics.Checked):
            def counted(self, *args, _real=cls.__post_init__):
                built.append(type(self).__name__)
                _real(self, *args)
            monkeypatch.setattr(cls, "__post_init__", counted)
        how(net)
        # one network, two edges, one shared tuning and the shared desired
        # record; the tuning's record of its symmetrized Q is built from the
        # Q it read, not by the record's constructor, and an edge's block and
        # a baseline gain are plain read-only copies, not records
        assert sorted(built) == sorted(["NetworkModel", *["Interconnection"] * 2, "Tuning",
                                        "Checked"])


def shapes_net(rng):
    """Five subsystems of dimensions 1, 1, 2, 2, 3, every ordered pair
    coupled (e -> a by a declared bound only): eight block shapes, 1x3 and
    3x1 among them, most of them held by several edges."""
    dims = {"a": 1, "b": 1, "c": 2, "d": 2, "e": 3}
    subs = [AugmentedSubsystem.from_raw(sid, B=rng.normal(size=(n, 1)), C=np.zeros((0, n)))
            for sid, n in dims.items()]
    edges = [Interconnection(src=j, dst=i, norm_bound=0.75) if (j, i) == ("e", "a")
             else Interconnection(src=j, dst=i, A=rng.normal(size=(dims[i], dims[j])))
             for i in dims for j in dims if i != j]
    return NetworkModel(subsystems=subs, edges=edges,
                        desired={sid: random_hurwitz(rng, n) for sid, n in dims.items()},
                        tuning={sid: toy_tuning(n) for sid, n in dims.items()})


class TestStackedGains:
    def test_gain_is_the_two_norm_bit_for_bit(self, monkeypatch):
        # the edge table takes one SVD of the stacked blocks per shape, and
        # every edge's gain is what np.linalg.norm(A, 2) gives that block alone
        net = shapes_net(np.random.default_rng(8))
        stacks = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **k: stacks.append(a.shape) or svd(a, **k))
        monkeypatch.setattr(model, "spectral_norm", None)  # no edge asks for its own
        src, dst, gains = model._edge_table(net)
        monkeypatch.undo()
        shapes = {e.A.shape for e in net.edges if e.A is not None}
        assert {(1, 3), (3, 1)} <= shapes and len(shapes) == 8
        assert sorted(s[1:] for s in stacks) == sorted(shapes)
        assert sum(s[0] for s in stacks) == len(net.edges) - 1
        assert src.tolist() == [net.index[e.src] for e in net.edges]
        assert dst.tolist() == [net.index[e.dst] for e in net.edges]
        for e, g in zip(net.edges, gains.tolist()):
            assert type(e.gain()) is float and g == e.gain()
            if e.A is None:
                assert g == 0.75
            else:
                assert np.float64(g).tobytes() == np.linalg.norm(e.A, 2).tobytes()

    def test_no_edges(self):
        net = shapes_net(np.random.default_rng(8))
        net = NetworkModel(subsystems=net.subsystems, edges=[], desired=net.checked,
                           tuning=net.tuning)
        src, dst, gains = model._edge_table(net)
        assert (src.shape, dst.shape, gains.shape) == ((0,), (0,), (0,))
        assert src.dtype == dst.dtype == np.intp and gains.dtype == np.float64

    @pytest.mark.parametrize("how", ["constructor", "copy", "demos"])
    def test_a_load_derives_nothing_from_the_edges(self, monkeypatch, how):
        # no SVD and no spectral_norm: a network holds no edge gain, and a
        # simulate run, which reads none, pays for none
        net = shapes_net(np.random.default_rng(8))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **k: calls.append("svd") or svd(a, **k))
        for mod in (model, numerics):
            monkeypatch.setattr(mod, "spectral_norm", lambda A: calls.append("norm"))
        if how == "constructor":
            NetworkModel(subsystems=net.subsystems, edges=net.edges, desired=net.checked,
                         tuning=net.tuning)
        elif how == "copy":
            pickle.loads(pickle.dumps(net))
        else:  # each plant matrix dropped, so that no PBH test runs
            for name in ("toy_pair", "dc_pair", "mesh6", "weak_pair", "unstable_pair"):
                doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
                for sec in doc["subsystems"]:
                    sec.pop("A", None)
                assert parse_config(doc)[0].edges
        assert calls == []
        assert not hasattr(net, "_in")
        assert all(not hasattr(e, "_gain") for e in net.edges)

    def test_edge_outside_a_network_answers(self):
        A = np.random.default_rng(9).normal(size=(3, 2))
        e = Interconnection(src="x", dst="y", A=A)
        assert np.float64(e.gain()).tobytes() == np.linalg.norm(A, 2).tobytes()
        assert Interconnection(src="x", dst="y", norm_bound=2).gain() == 2.0


def _number_fields(doc):
    """Every matrix and vector field of a config document outside the
    schedules: the parsed lists that the load must read."""
    fields = [sec[key] for sec in doc["subsystems"] for key in ("A", "B", "C", "D", "E",
                                                                  "baseline_gain")
              if sec.get(key) is not None]
    for sec in [doc, *doc["subsystems"]]:  # reference models and tunings
        ref = sec.get("reference_model")
        fields += ([ref[key] for key in ("A_nominal", "K_x", "K_xi")]
                   if isinstance(ref, dict) else [] if ref is None else [ref])
        fields += [sec["tuning"]["Q"]] if "tuning" in sec else []
    fields += [e["A"] for e in doc.get("edges", []) if e.get("A") is not None]
    scenario = doc.get("scenario") or {}
    for key in ("theta", "theta_hat0", "x0", "xhat0"):
        fields += [v for v in scenario.get(key, {}).values() if v is not None]
    return fields


def ring_doc(n=32, seed=5):
    """A generated ring document of ``n`` subsystems, of 1 to 3 raw states and
    one output each, coupled both ways (every fifth edge by a bound only):
    plants given or not, ``D``, ``E`` and baseline gains on some, explicit
    reference models or gain blocks (own, or the shared top-level section),
    own or shared tunings."""
    rng = np.random.default_rng(seed)
    doc = {"reference_model": {"A_nominal": [[0.5]], "K_x": [[2.5]], "K_xi": [[1.0]]},
           "tuning": {"Q": [[2.0, 0.5], [0.5, 1.0]], "gamma": 5.0, "theta_max": 1.0,
                      "eps0": 0.1}, "subsystems": [], "edges": []}
    dims = {}
    for k in range(n):
        sid = f"s{k}"
        gains = k % 4 == 3  # gain blocks on a plant of one state
        x = dims[sid] = 1 if gains else 1 + k % 3
        sub = {"id": sid, "B": [[1.0]] if gains else rng.normal(size=(x, 1)).tolist(),
               "C": [[1.0]] if gains else rng.normal(size=(1, x)).tolist()}
        if k % 2 == 0:
            sub["A"] = rng.normal(size=(x, x)).tolist()
        if k % 5 == 0:
            sub["D"] = [[0.0]]
        if k % 3 == 0:
            sub["E"] = rng.normal(size=(x, 2)).tolist()
        if k % 6 == 0:
            sub["baseline_gain"] = rng.normal(size=(1, x + 1)).tolist()
        if k % 8 == 3:
            sub["reference_model"] = {"A_nominal": [[-1.0]], "K_x": [[1.0]], "K_xi": [[3.0]]}
        elif not gains:
            sub["reference_model"] = random_hurwitz(rng, x + 1).tolist()
        if k % 2 or x > 1:  # the shared tuning's Q is 2x2
            sub["tuning"] = dict(doc["tuning"], Q=np.diag(rng.uniform(1.0, 2.0, x + 1)).tolist())
        doc["subsystems"].append(sub)
    for k, (src, dst, gain) in enumerate(graph_edges(rng, "ring", n)):
        edge = {"from": src, "to": dst}
        edge.update({"norm_bound": 0.1 * gain} if k % 5 == 4 else
                    {"A": (0.1 * gain * rng.normal(size=(dims[dst], dims[src]))).tolist()})
        doc["edges"].append(edge)
    return doc


def _count_spectra(monkeypatch):
    """The members of every stack of the network's stacked Hurwitz test, as
    they are solved."""
    members = []
    real = model._spectra
    monkeypatch.setattr(model, "_spectra", lambda recs: members.extend(recs) or real(recs))
    return members


class TestReadOnce:
    @pytest.mark.parametrize("name", ["toy_pair", "dc_pair", "mesh6", "weak_pair",
                                      "unstable_pair", "ring32"])
    def test_each_document_field_read_once(self, name, monkeypatch):
        # config reads no numbers: each matrix and vector field of the document
        # reaches numeric_array once, from the value type that holds it, and a
        # shared section is read once for all the subsystems that use it.
        # Without the scenario, whose check reads its values again, that is
        # every read: no array the package builds from them is read again
        # (the symmetrized Q, the padded edge blocks, the zero baseline
        # gains and the gain-block reference models were)
        full = ring_doc() if name == "ring32" else json.loads((CONFIG_DIR / f"{name}.json")
                                                              .read_text())
        read = []
        real = numerics.numeric_array

        def counted(value, name="array"):
            read.append(value)
            return real(value, name)

        monkeypatch.setattr(numerics, "numeric_array", counted)
        monkeypatch.setattr(sim, "numeric_array", counted)
        for doc in (full, {key: v for key, v in full.items() if key != "scenario"}):
            read.clear()
            parse_config(doc)
            fields = _number_fields(doc)
            assert len(fields) >= 3 * len(doc["subsystems"])
            assert [sum(v is f for v in read) for f in fields] == [1] * len(fields)
        assert len(read) == len(fields)

    @pytest.mark.parametrize("name", ["toy_pair", "mesh6", "ring32"])
    def test_each_weight_solved_once_at_load(self, name, monkeypatch):
        # a tuning eigen-solves its Q once, for its definiteness check and its
        # lam_min_Q; the Lyapunov solves, certify and analyze solve no Q
        solved = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kw: solved.append(a) or real(a, *args, **kw))
        doc = ring_doc() if name == "ring32" else json.loads((CONFIG_DIR / f"{name}.json")
                                                             .read_text())
        net = parse_config(doc)[0]
        tunings = list({id(t): t for t in net.tuning.values()}.values())

        def solves(Q):  # alone or as a member of a stack
            return sum(x.shape == Q.shape and np.array_equal(x, Q)
                       for a in solved for x in a.reshape(-1, *a.shape[-2:]))

        assert [solves(t.Q) for t in tunings] == \
            [sum(np.array_equal(u.Q, t.Q) for u in tunings) for t in tunings]
        assert [t.lam_min_Q for t in tunings] == [real(t.Q)[0] for t in tunings]
        solved.clear()
        certify(net)
        analyze(net)
        assert solved and [solves(t.Q) for t in tunings] == [0] * len(tunings)

    def test_shared_desired_record_solved_once(self, monkeypatch):
        # mesh6's six subsystems share one reference model: the network keeps
        # the one record the load hands it and eigen-solves it once, as one
        # member of the load's stacked Hurwitz test
        members = _count_spectra(monkeypatch)
        net, _, _ = load_config(CONFIG_DIR / "mesh6.json")
        shared = net.checked[net.ids[0]]
        assert len(net.ids) == 6
        assert all(net.checked[sid] is shared and net.desired[sid] is shared.A
                   for sid in net.ids)
        assert sum(r.A.shape == shared.A.shape and np.array_equal(r.A, shared.A)
                   for r in members) == 1

    def test_record_of_the_wrong_size_is_read_again(self):
        # only a square record of the subsystem's size is kept as it is
        sub = AugmentedSubsystem.from_raw("a", B=[[1.0]], C=np.zeros((0, 1)))
        for given, error in ((numerics.Checked([[-1.0, 0.0], [0.0, -1.0]]),
                              "subsystem a: desired dynamics is 2x2, expected 1"),
                             (numerics.Checked([[-1.0, 0.0]]),
                              "subsystem a: desired dynamics must be square")):
            with pytest.raises(DimensionError, match=f"^{re.escape(error)}"):
                NetworkModel(subsystems=[sub], edges=[], desired={"a": given},
                             tuning={"a": toy_tuning(1)})

    @pytest.mark.parametrize("name", ["toy_pair", "dc_pair", "mesh6", "weak_pair",
                                      "unstable_pair"])
    def test_each_record_balanced_once(self, name, monkeypatch):
        # certify's distances and small_gain_check's path gains balance each
        # desired record once, on the record, however many edges leave it
        balanced = []
        real = numerics.dgebal
        monkeypatch.setattr(numerics, "dgebal", lambda a, **k: balanced.append(a) or real(a, **k))
        net, _, _ = load_config(CONFIG_DIR / f"{name}.json")
        certify(net)
        small_gain_check(net)
        certify(net)
        records = {id(net.checked[sid]): net.checked[sid] for sid in net.ids}
        assert len(balanced) == len(records)
        assert all(any(a is r.A for a in balanced) for r in records.values())

    @pytest.mark.parametrize("name", ["toy_pair", "dc_pair", "mesh6", "weak_pair",
                                      "unstable_pair"])
    def test_desired_solved_once_and_never_reread(self, name, monkeypatch):
        # the load eigen-solves each desired matrix once, as a member of its
        # stacked Hurwitz test; the pipelines then take the model's records
        # and neither solve a desired matrix, alone or in a stack, nor read
        # any array the model has checked
        members = _count_spectra(monkeypatch)
        net, _, _ = load_config(CONFIG_DIR / f"{name}.json")
        # (a plant equal to its desired matrix is solved for its own test)
        assert [sum(r.A is net.desired[sid] for r in members) for sid in net.ids] == \
            [1] * len(net.ids)
        solved = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(a) or eigvals(a))

        def solves(sid):  # as a stack member, or by eigvals alone or in a stack
            Am = net.desired[sid]
            given = [*(r.A for r in members), *(x for a in solved if a.shape[-2:] == Am.shape
                                                for x in a.reshape(-1, *Am.shape))]
            return sum(x.shape == Am.shape and np.array_equal(x, Am) for x in given)

        checked = [*net.desired.values(), *net.baseline.values(),
                   *(t.Q for t in net.tuning.values()),
                   *(e.A for e in net.edges if e.A is not None),
                   *(getattr(s, b) for s in net.subsystems for b in "BC")]
        read = []
        real = numerics.numeric_array
        monkeypatch.setattr(numerics, "numeric_array",
                            lambda value, name="array": read.append(value) or real(value, name))
        members.clear()
        certify(net)
        analyze(net)
        small_gain_check(net)
        assert [solves(sid) for sid in net.ids] == [0] * len(net.ids)
        assert read and not [v for v in read if any(v is a for a in checked)]


class TestStackedHurwitz:
    def test_first_error_in_id_order(self, tmp_path, capsys):
        # every desired record is read and solved before any check raises; the
        # first error in subsystem order is raised, as when each subsystem was
        # checked in turn: a's target is not Hurwitz, b's Q is of the wrong size
        doc = json.loads((CONFIG_DIR / "toy_pair.json").read_text())
        doc["subsystems"][0]["reference_model"] = [[1.0, 0.0], [0.0, -1.0]]
        doc["subsystems"][1]["tuning"] = dict(doc["tuning"], Q=np.eye(3).tolist())
        cfg = tmp_path / "two_errors.json"
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            "error: config: subsystem a: desired dynamics is not Hurwitz\n"
        doc["subsystems"][0].pop("reference_model")
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config: subsystem b: Q is 3x3, expected 2\n"

    def test_refused_stack_solved_member_by_member(self, monkeypatch):
        # when numpy refuses a stack, each member is solved alone, to the same
        # spectra; a member refused alone is its subsystem's error, in id order
        doc = ring_doc()
        want = parse_config(doc)[0]
        eigvals = np.linalg.eigvals
        refused = want.desired["s5"]

        def refusing(a):
            if a.ndim > 2 or np.array_equal(a, refused):
                raise np.linalg.LinAlgError("refused")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", refusing)
        members = _count_spectra(monkeypatch)
        with pytest.raises(ConfigError, match="^config: eigenvalue iteration did not converge: "
                                              "refused$"):
            parse_config(doc)
        assert len(members) == sum(isinstance(sec.get("reference_model"), list)
                                   for sec in doc["subsystems"])
        refused = None
        members.clear()
        got = parse_config(doc)[0]
        assert len(members) == len(got.ids) - 8  # the gain-block models solved at build
        for sid in want.ids:
            w, v = want.checked[sid].spectrum, got.checked[sid].spectrum
            assert v.dtype == w.dtype and v.tobytes() == w.tobytes()
            assert v.tobytes() == eigenvalues(got.desired[sid]).tobytes()
            assert not v.flags.writeable


# two calls of each give equal values in distinct objects
VALUE_OBJECTS = {
    "AugmentedSubsystem": lambda: AugmentedSubsystem.from_raw("a", B=[[1.0]], C=[[1.0]],
                                                              A=[[0.0]]),
    "Interconnection": lambda: Interconnection(src="a", dst="b", A=[[0.5]]),
    "Tuning": lambda: toy_tuning(2),
    "NetworkModel": lambda: two_sub_net(),
    "AreSolution": lambda: solve_are([[-1.0]], 1.0, 0.5),
    "SubsystemCertificate": lambda: certify(two_sub_net()).subsystems[0],
    "GasCertificate": lambda: certify(two_sub_net()),
    "ConnectiveReport": lambda: analyze(two_sub_net()),
    "Schedule": lambda: sim.Schedule.constant([1.0]),
    "Scenario": lambda: sim.Scenario(horizon=0.002, dt=0.001, x0={"s1": [0.5]}),
    "NetworkState": lambda: sim.NetworkState(xbar={"s1": np.zeros(1)}, xhat={"s1": np.zeros(1)},
                                             theta_hat={"s1": np.zeros((1, 1))}),
    "SimTrace": lambda: sim.simulate(two_sub_net(), sim.Scenario(horizon=0.002, dt=0.001)),
}


class TestIdentityEquality:
    """Value objects holding arrays compare and hash by identity, as ``Checked`` does."""

    @pytest.mark.parametrize("make", VALUE_OBJECTS.values(), ids=VALUE_OBJECTS.keys())
    def test_equal_values_are_distinct_objects(self, make):
        # a generated __eq__ compared the arrays inside a tuple and raised,
        # and a frozen one hashed them
        x, y = make(), make()
        assert x == x and x != y
        assert x in [y, x] and y not in [x]
        assert len({x, y, x}) == 2
