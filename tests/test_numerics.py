import copy
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import block_diag as sla_block_diag

from conftest import (
    DC_AM,
    DC_AM_PRINTED,
    DC_A12,
    assert_same_bits,
    random_hurwitz,
    routh_hurwitz_3x3,
    spread_normal,
    sweep_distance_oracle,
    sweep_hinf_oracle,
)
from gascert import (
    DimensionError,
    GascertError,
    NonFiniteError,
    SolverError,
    StabilityError,
    distance_to_instability,
    eigenvalues,
    hamiltonian,
    hinf_gain,
    is_hurwitz,
    is_hyperbolic,
    solve_are,
    solve_lyapunov,
    spectral_norm,
)
from gascert import numerics
from gascert.numerics import Checked, as_matrix, numeric_array, numeric_scalar


class TestEigenvalues:
    def test_diagonal(self):
        w = eigenvalues(np.diag([-1.0, -2.0]))
        assert np.allclose(w, [-2.0, -1.0])

    def test_rotation(self):
        w = eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(w, [-1j, 1j])

    def test_benchmark_matrix_vs_routh_oracle(self):
        # the Routh oracle and the eigensolver must agree on both variants
        # of the benchmark matrix; the fixture (repaired) one is Hurwitz,
        # the raw printed one is not (its determinant has the wrong sign)
        assert routh_hurwitz_3x3(DC_AM)
        assert is_hurwitz(DC_AM)
        assert np.max(eigenvalues(DC_AM).real) < 0.0
        assert not routh_hurwitz_3x3(DC_AM_PRINTED)
        assert not is_hurwitz(DC_AM_PRINTED)

    def test_sorted_deterministically(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(6, 6))
        w = eigenvalues(A)
        order = np.lexsort((w.imag, w.real))
        assert np.array_equal(order, np.arange(6))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0)

    def test_benchmark_coupling(self):
        assert spectral_norm(DC_A12) == pytest.approx(5.32e4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm([[np.inf, 0.0], [0.0, 1.0]])


class TestLyapunov:
    def test_scalar_identity(self):
        P = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(P, 0.5 * np.eye(2))

    def test_decoupled(self):
        P = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(P, np.diag([0.5, 0.25]))

    def test_benchmark(self):
        # orders of magnitude only: the printed P in the source material is
        # not reproducible from its printed inputs (see the regression notes)
        P = solve_lyapunov(DC_AM, np.eye(3))
        w = np.linalg.eigvalsh(P)
        assert w[0] > 0.0
        residual = np.linalg.norm(DC_AM.T @ P + P @ DC_AM + np.eye(3))
        scale = np.linalg.norm(DC_AM) * np.linalg.norm(P) + np.linalg.norm(np.eye(3))
        assert residual <= 1e-10 * scale

    def test_not_hurwitz_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov([[1.0]], [[1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_lyapunov(-np.eye(2), np.eye(3))

    @pytest.mark.parametrize("A,Q", [([[-1e-100]], [[1e200]]), ([[-0.4]], [[1e308]])],
                             ids=["P_5e299", "P_1.25e308"])
    def test_overflowing_norms_reject_a_wrong_solution(self, A, Q):
        # scipy answers about 5e-101 and 1.25e-308; unscaled, the residual test
        # read inf > 1e-10 * inf and let them pass
        with np.errstate(all="ignore"), pytest.raises(SolverError, match="Lyapunov residual"):
            solve_lyapunov(A, Q)

    def test_huge_A_accepted(self, monkeypatch):
        # ||A||_F overflowed and ||P||_F, scaled with Q, underflowed: the bound
        # read inf * 0 (nan) and refused an accurate solution; a wrong one of
        # the same size is still refused, with finite numbers in its message
        A = [[-1e300, 1e300], [-1e300, -1e300]]
        with np.errstate(over="raise", invalid="raise"):
            P = solve_lyapunov(A, np.eye(2))
        assert np.diag(P).tolist() == pytest.approx([5e-301, 5e-301], rel=1e-12)
        assert np.abs(P[0, 1]) <= 1e-12 * 5e-301
        real = numerics._bartels_stewart
        monkeypatch.setattr(numerics, "_bartels_stewart", lambda *args: 2.0 * real(*args))
        with np.errstate(over="raise", invalid="raise"), \
                pytest.raises(SolverError, match=r"^Lyapunov residual \d\.\d{3}e\+00 exceeds "
                                                 r"1e-10 \* scale \(\d\.\d{3}e-10\)$"):
            solve_lyapunov(A, np.eye(2))

    def test_indefinite_solution_rejected(self, monkeypatch):
        # a solver answer within the residual bound whose small eigenvalue
        # has the wrong sign: only the definiteness check refuses it
        real = numerics._bartels_stewart
        monkeypatch.setattr(numerics, "_bartels_stewart",
                            lambda *args: real(*args) * np.diag([1.0, -1.0]))
        with pytest.raises(SolverError, match="^Lyapunov solution is not positive definite$"):
            solve_lyapunov(-np.eye(2), np.diag([1.0, 1e-12]))

    def test_huge_solution_accepted(self):
        P = solve_lyapunov([[-1.0]], [[1e300]])
        assert P[0, 0] == pytest.approx(5e299, rel=1e-12)

    def test_huge_indefinite_Q_rejected(self):
        # Q + Q' overflowed: this indefinite Q passed the definiteness check and
        # failed later, as "Lyapunov solution is not positive definite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Q must be positive definite$"):
                solve_lyapunov(-np.eye(2), [[1e308, 0.0], [0.0, -1e308]])

    def test_huge_definite_Q_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = solve_lyapunov(-np.eye(2), [[1e308, 0.0], [0.0, 1e308]])
        assert P.tolist() == [[5e307, 0.0], [0.0, 5e307]]

    def test_residual_and_definiteness_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            A = random_hurwitz(rng, n)
            W = rng.normal(size=(n, n))
            Q = W @ W.T + np.eye(n)
            P = solve_lyapunov(A, Q)
            assert np.allclose(P, P.T, atol=1e-10 * max(1.0, np.abs(P).max()))
            assert np.min(np.linalg.eigvalsh(P)) > 0.0
            residual = np.linalg.norm(A.T @ P + P @ A + Q)
            scale = np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(Q)
            assert residual <= 1e-10 * scale


def _as_matrix_atleast_2d(M, name="matrix", square=False):
    """``as_matrix`` as it was written with ``np.atleast_2d``."""
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    if square and A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


_F64 = np.arange(6.0)
AS_MATRIX_INPUTS = {
    "int": 3,
    "float": -0.0,
    "numpy scalar": np.float32(2.5),
    "0-D array": np.array(7.0),
    "bool": True,
    "1-D list": [1, 2, 3],
    "1-D array view": _F64,
    "1-D empty": [],
    "2-D empty rows": np.zeros((0, 3)),
    "2-D empty cols": np.zeros((3, 0)),
    "2-D list": [[1.0, 2.0], [3.0, 4.0]],
    "2-D int array": np.arange(6).reshape(2, 3),
    "2-D float view": _F64.reshape(3, 2),
    "transposed": _F64.reshape(2, 3).T,
    "nan scalar": float("nan"),
    "inf 1-D": [1.0, float("inf")],
    "nan 2-D": [[0.0, float("nan")]],
    "None": None,
    "3-D": np.zeros((2, 2, 2)),
    "3-D empty": np.zeros((0, 2, 2)),
    "3-D non-finite": np.full((1, 1, 1), np.inf),
    "ragged": [[1.0], [2.0, 3.0]],
    "string": "x",
    "non-square": np.zeros((2, 3)),
}
# inputs that the oracle's float cast read (a boolean, None as NaN) or
# refused in its own words, and the reader refuses: (error, message pattern)
AS_MATRIX_REFUSED = {
    "bool": (GascertError, r"X: not a numeric array"),
    "None": (GascertError, r"X: not a numeric array"),
    "ragged": (GascertError, r"X: not a numeric array \(.+\)"),
    "string": (GascertError, r"X: not a numeric array"),
    "nan scalar": (NonFiniteError, r"X: non-finite entries"),
    "inf 1-D": (NonFiniteError, r"X: non-finite entries"),
    "nan 2-D": (NonFiniteError, r"X: non-finite entries"),
    "3-D non-finite": (NonFiniteError, r"X: non-finite entries"),
}


class TestAsMatrix:
    @pytest.mark.parametrize("square", [False, True])
    @pytest.mark.parametrize("name", sorted(AS_MATRIX_INPUTS))
    def test_same_result_and_error_as_atleast_2d(self, name, square):
        M = AS_MATRIX_INPUTS[name]
        if name in AS_MATRIX_REFUSED:
            error, message = AS_MATRIX_REFUSED[name]
            with pytest.raises(error, match=f"^{message}$") as got:
                as_matrix(M, "X", square=square)
            assert type(got.value) is error
            return
        try:
            want = _as_matrix_atleast_2d(M, "X", square=square)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                as_matrix(M, "X", square=square)
            assert str(got.value) == str(exc)
            return
        got = as_matrix(M, "X", square=square)
        assert_same_bits(got, want)
        if isinstance(M, np.ndarray):
            assert np.shares_memory(got, M) == np.shares_memory(want, M)

    def test_shapes(self):
        assert as_matrix(2.0).shape == (1, 1)
        assert as_matrix([1.0, 2.0]).shape == (1, 2)
        assert as_matrix([]).shape == (1, 0)
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([np.nan])
        with pytest.raises(DimensionError, match="ndim=3"):
            as_matrix(np.zeros((1, 1, 1)))


class TestNumericArray:
    @pytest.mark.parametrize("value,want", [
        (3, np.array(3.0)), ([[1, 2.5]], np.array([[1.0, 2.5]])), ([], np.zeros(0)),
        (2 ** 70, np.array(2.0 ** 70)), ([2 ** 64, -(2 ** 70)], np.array([2.0 ** 64, -2.0 ** 70])),
        (np.float32(0.5), np.array(0.5)),
    ], ids=["int", "mixed_matrix", "empty", "beyond_int64", "object_vector", "float32"])
    def test_integers_and_floats_read(self, value, want):
        got = numeric_array(value)
        assert got.dtype == np.float64
        assert_same_bits(got, want)

    def test_float_array_not_copied(self):
        A = np.ones((2, 2))
        assert numeric_array(A) is A

    @pytest.mark.parametrize("value", [
        "1.0", ["1.0"], None, [1.0, None], True, [[True, False]], [[True, 0.0], [0.0, 1.0]],
        [2 ** 70, False], (1.0, np.True_), [[1.0], [1.0, 2.0]],
        10 ** 400, [1.5, -(10 ** 400)], [{}], {}, [1j],
    ], ids=["string", "string_entry", "null", "null_entry", "bool", "bool_matrix",
            "bool_among_numbers", "bool_among_big_ints", "numpy_bool_entry", "ragged",
            "int_beyond_double", "int_beyond_double_entry", "object_entry", "object", "complex"])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(GascertError, match=r"^X: not a numeric array"):
            numeric_array(value, "X")

    @pytest.mark.parametrize("value", [np.nan, [1.0, np.inf], [[-np.inf]]])
    def test_non_finite_rejected(self, value):
        with pytest.raises(NonFiniteError, match=r"^X: non-finite entries$"):
            numeric_array(value, "X")


class TestNumericScalar:
    @pytest.mark.parametrize("value", [3, 2.5, np.float32(0.5), np.array(4.0), 2 ** 70])
    def test_numbers_read(self, value):
        got = numeric_scalar(value, "X")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value,ndim", [([1.0], 1), ([[1.0]], 2), (np.zeros(0), 1)])
    def test_arrays_rejected(self, value, ndim):
        with pytest.raises(DimensionError, match=f"^X: expected a number, got ndim={ndim}$"):
            numeric_scalar(value, "X")

    @pytest.mark.parametrize("value", [
        0, -0.0, 5e-324, 2 ** 53 + 1, 2 ** 63, -(2 ** 64) - 12345, 2 ** 1023,
        1.7976931348623157e308, 2 ** 1024 - 1, -(10 ** 400), np.inf, -np.inf, np.nan, True,
        np.float64(2.5), np.float64(-np.inf), np.float64(np.nan), np.int64(-7),
        np.int64(2 ** 63 - 1), np.bool_(True),
    ])
    def test_plain_numbers_read_as_the_array_reader_reads_them(self, value):
        # ints and floats are read without an array; the outcome is the array reader's
        def outcome(read):
            try:
                return np.float64(read()).tobytes()
            except GascertError as exc:
                return type(exc), str(exc)

        assert outcome(lambda: numeric_scalar(value, "X")) == outcome(
            lambda: float(numeric_array(value, "X")))

    def test_read_by_numeric_array(self):
        with pytest.raises(NonFiniteError, match=r"^X: non-finite entries$"):
            numeric_scalar(np.nan, "X")
        with pytest.raises(GascertError, match=r"^X: not a numeric array$"):
            numeric_scalar("1.0", "X")


class TestChecked:
    def test_read_once_into_a_read_only_copy(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        A_copy = A.copy()
        rec = Checked(A, "Am", square=True)
        A[0, 0] = 5.0
        assert rec.A[0, 0] == -1.0
        assert rec.spectrum is rec.spectrum  # solved once, then kept
        assert_same_bits(rec.spectrum, eigenvalues(A_copy))
        assert_same_bits(eigenvalues(rec), rec.spectrum)
        for stored in (rec.A, rec.spectrum):
            with pytest.raises(ValueError):
                stored[0] = 5.0
        with pytest.raises(AttributeError):
            rec.A = A

    def test_reader_errors_name_the_matrix(self):
        with pytest.raises(DimensionError, match=r"^Am must be square"):
            Checked([[1.0, 2.0]], "Am", square=True)
        with pytest.raises(NonFiniteError, match=r"^Am: non-finite entries$"):
            Checked([[np.nan]], "Am")

    def test_kernels_give_what_the_array_gives(self):
        # a record stands for its array in every kernel, to the bit
        rng = np.random.default_rng(12)
        A = random_hurwitz(rng, 4)
        M = rng.normal(size=(2, 4))
        Q = np.eye(4) + 0.1 * np.ones((4, 4))
        rec, Mrec, Qrec = Checked(A, square=True), Checked(M), Checked(Q)
        g = distance_to_instability(A, 1e-12)
        assert distance_to_instability(rec, 1e-12) == g
        assert hinf_gain(Mrec, rec) == hinf_gain(M, A)
        assert spectral_norm(rec) == spectral_norm(A)
        assert is_hyperbolic(rec, 1, 0.25 * g * g) and is_hyperbolic(A, 1, 0.25 * g * g)
        assert_same_bits(solve_lyapunov(rec, Qrec), solve_lyapunov(A, Q))
        assert_same_bits(hamiltonian(rec, 2, 0.5), hamiltonian(A, 2, 0.5))
        got, want = solve_are(rec, 1, 0.25 * g * g), solve_are(A, 1, 0.25 * g * g)
        assert_same_bits(got.P, want.P)
        assert_same_bits(got.closed_loop_spectrum, want.closed_loop_spectrum)

    def test_record_checks_still_run(self):
        flat = Checked([[1.0, 2.0]], "M")
        for call in (lambda: eigenvalues(flat), lambda: distance_to_instability(flat),
                     lambda: solve_are(flat, 1, 1.0), lambda: hinf_gain(np.eye(2), flat)):
            with pytest.raises(DimensionError, match="must be square"):
                call()
        with pytest.raises(StabilityError, match="not Hurwitz"):
            distance_to_instability(Checked([[1.0]], square=True))
        with pytest.raises(DimensionError, match="M has 2 columns, expected 1"):
            hinf_gain(flat, Checked([[-1.0]]))

    def test_copy_read_again(self):
        # a pickled or deep-copied record is rebuilt through the constructor: a
        # read-only copy of the same bits, whose spectrum is solved again on use
        rec = Checked([[-1.0, 2.0], [0.0, -3.0]], "Am", square=True)
        want = rec.spectrum
        for copied in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
            assert copied is not rec and not copied.A.flags.writeable
            assert_same_bits(copied.A, rec.A)
            assert "spectrum" not in vars(copied)
            assert_same_bits(copied.spectrum, want)


class TestHamiltonian:
    @pytest.mark.parametrize("N,q", [(0, 0.0), (1, 0.0), (2, -0.0), (3, 1e-300), (1, 2.5e9)])
    def test_slice_built_matches_np_block(self, N, q):
        rng = np.random.default_rng(N)
        for n in (1, 2, 5):
            Am = random_hurwitz(rng, n)
            Am[0, -1] = -0.0
            eye = np.eye(n)
            want = np.block([[Am, float(N) * eye], [-float(q) * eye, -Am.T]])
            assert_same_bits(hamiltonian(Am, N, q), want)

    def test_level_set_hamiltonian_matches_np_block(self):
        # the level-set iteration assembles [[Ab, BB/level], [-CC/level, -Ab']]
        rng = np.random.default_rng(5)
        for n in (1, 3, 6):
            Ab = rng.normal(size=(n, n))
            B, C = rng.normal(size=(n, n)), rng.normal(size=(2, n))
            BB, CC = B @ B.T, C.T @ C
            for level in (1e-3, 0.7, 3.0, 1e8):
                want = np.block([[Ab, BB / level], [-CC / level, -Ab.T]])
                assert_same_bits(numerics._hamiltonian(Ab, BB / level, CC / level), want)

    def test_scalar_blocks(self):
        H = hamiltonian([[-2.0]], 1, 1.0)
        assert np.array_equal(H, [[-2.0, 1.0], [-1.0, 2.0]])

    def test_zero_q_block_triangular(self):
        H = hamiltonian([[-1.0]], 1, 0.0)
        assert np.array_equal(H, [[-1.0, 1.0], [0.0, 1.0]])

    def test_block_placement(self):
        Am = np.diag([-1.0, -2.0])
        H = hamiltonian(Am, 2, 3.0)
        assert H.shape == (4, 4)
        assert np.array_equal(H[:2, :2], Am)
        assert np.array_equal(H[:2, 2:], 2.0 * np.eye(2))
        assert np.array_equal(H[2:, :2], -3.0 * np.eye(2))
        assert np.array_equal(H[2:, 2:], np.diag([1.0, 2.0]))


class TestWeights:
    """``hamiltonian``, ``is_hyperbolic`` and ``solve_are`` read both weights
    with the one number reader, named ``N`` and ``q``."""

    @pytest.mark.parametrize("kernel", [hamiltonian, is_hyperbolic, solve_are])
    @pytest.mark.parametrize("weight", ["N", "q"])
    @pytest.mark.parametrize("value, error, message", [
        (np.nan, NonFiniteError, "non-finite entries"),
        (np.inf, NonFiniteError, "non-finite entries"),
        ("1.0", GascertError, "not a numeric array"),
        (True, GascertError, "not a numeric array"),
    ])
    def test_bad_weight_is_named(self, kernel, weight, value, error, message):
        weights = {"N": 1, "q": 1.0, weight: value}
        with pytest.raises(error, match=f"^{weight}: {message}$"):
            kernel([[-2.0]], weights["N"], weights["q"])

    @pytest.mark.parametrize("kernel", [hamiltonian, is_hyperbolic, solve_are])
    def test_negative_weight_texts(self, kernel):
        with pytest.raises(ValueError, match="^N must be a non-negative count$"):
            kernel([[-2.0]], -1, 1.0)
        with pytest.raises(ValueError, match="^q must be non-negative$"):
            kernel([[-2.0]], 1, -1.0)

    def test_real_weight_n(self):
        # N is a weight: 2.5 is not read as 2
        eye = np.eye(2)
        Am = np.diag([-3.0, -4.0])
        assert_same_bits(hamiltonian(Am, 2.5, 0.5),
                         np.block([[Am, 2.5 * eye], [-0.5 * eye, -Am.T]]))
        sol = solve_are([[-3.0]], 2.5, 0.5)
        # 2.5 p^2 - 6 p + 0.5 = 0, stabilizing root (6 - sqrt(31)) / 5
        assert sol.P[0, 0] == pytest.approx((6.0 - np.sqrt(31.0)) / 5.0, abs=1e-12)


class TestHyperbolic:
    def test_clear_case(self):
        # characteristic polynomial s^2 - 3 = 0: eigenvalues +-sqrt(3)
        assert is_hyperbolic([[-2.0]], 1, 1.0)

    def test_boundary_case(self):
        # s^2 = 0: double eigenvalue at the origin
        assert not is_hyperbolic([[-1.0]], 1, 1.0)

    def test_zero_q_hurwitz(self):
        # block-triangular: spectrum of A union -A', off-axis for Hurwitz A
        rng = np.random.default_rng(3)
        A = random_hurwitz(rng, 3)
        assert is_hyperbolic(A, 2, 0.0)

    def test_decoupled(self):
        # N = 0 is block-triangular too, whatever the coupling weight
        rng = np.random.default_rng(4)
        A = random_hurwitz(rng, 3)
        assert is_hyperbolic(A, 0, 5.0)

    def test_badly_scaled_reference_model(self):
        # the slow Hamiltonian eigenvalues of the benchmark model sit far
        # inside 1e-8 * ||H|| of the axis; only the sigma_min check tells
        # them from crossings
        gamma = distance_to_instability(DC_AM, 1e-12)
        for f in (0.1, 0.5, 0.99):
            assert is_hyperbolic(DC_AM, 1, (f * gamma) ** 2)
        for f in (1.01, 2.0):
            assert not is_hyperbolic(DC_AM, 1, (f * gamma) ** 2)

    def test_solve_are_shares_the_test(self, monkeypatch):
        # solve_are puts its Hamiltonian to is_hyperbolic's crossing test
        # (numerics._crossings), once, and a crossing refuses the solve
        calls = []
        real = numerics._crossings
        monkeypatch.setattr(numerics, "_crossings",
                            lambda A, H, r: calls.append(real(A, H, r)) or calls[-1])
        solve_are([[-2.0]], 1, 1.0)
        with pytest.raises(StabilityError, match="imaginary-axis"):
            solve_are([[-1.0]], 1, 1.0)
        assert calls == [[False], [True]]
        assert is_hyperbolic([[-2.0]], 1, 1.0) and not is_hyperbolic([[-1.0]], 1, 1.0)
        assert calls[2:] == [[False], [True]]


class TestSolveAre:
    def test_scalar_golden_a2(self):
        sol = solve_are([[-2.0]], 1, 1.0)
        assert sol.P[0, 0] == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-12)
        assert sol.closed_loop_spectrum[0] == pytest.approx(-np.sqrt(3.0), abs=1e-12)

    def test_scalar_golden_a3(self):
        sol = solve_are([[-3.0]], 1, 1.0)
        assert sol.P[0, 0] == pytest.approx(3.0 - 2.0 * np.sqrt(2.0), abs=1e-12)

    def test_decoupled_diagonal(self):
        sol = solve_are(np.diag([-2.0, -3.0]), 1, 1.0)
        assert np.allclose(sol.P, np.diag([2.0 - np.sqrt(3.0), 3.0 - 2.0 * np.sqrt(2.0)]),
                           atol=1e-12)

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(StabilityError):
            solve_are([[-1.0]], 1, 1.0)

    def test_not_hurwitz_rejected(self):
        with pytest.raises(StabilityError):
            solve_are([[0.5]], 1, 0.1)

    def test_badly_scaled_reference_model(self):
        # the slow Hamiltonian eigenvalues sit at |Re| ~ 0.0146, well inside
        # 1e-8 * ||H||; the direct sigma_min check must tell them from
        # imaginary-axis eigenvalues
        gamma = distance_to_instability(DC_AM, 1e-12)
        q = (0.1 * gamma) ** 2
        sol = solve_are(DC_AM, 1, q)
        resid = np.linalg.norm(DC_AM.T @ sol.P + sol.P @ DC_AM + sol.P @ sol.P
                               + q * np.eye(3))
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(sol.P) ** 2)
        assert resid == pytest.approx(sol.residual_norm)
        assert np.min(np.linalg.eigvalsh(sol.P)) > 0.0
        assert np.max(sol.closed_loop_spectrum.real) < 0.0
        # past the distance the equation has no stabilizing solution
        with pytest.raises(StabilityError):
            solve_are(DC_AM, 1, (1.1 * gamma) ** 2)

    def test_scale_invariant(self):
        # s A is A in another time unit: for s = 1e-150, 1e-140, ..., 1e150
        # the solve succeeds without a warning, and P / s solves A's equation
        # to rounding (q and P scale as s^2 and s)
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        q = (distance_to_instability(A, 1e-12) / 2) ** 2
        worst = 0.0
        for e in range(-150, 151, 10):
            s = 10.0 ** e
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                P = solve_are(s * A, 1, s * s * q).P / s
            terms = (A.T @ P, P @ A, P @ P, q * np.eye(2))
            worst = max(worst, np.linalg.norm(sum(terms)) / sum(map(np.linalg.norm, terms)))
        assert worst <= 1e-14

    def test_random_suite_residual_and_spectrum(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            A = random_hurwitz(rng, n)
            N = int(rng.integers(1, 4))
            gamma = distance_to_instability(A, 1e-10)
            q = rng.uniform(0.05, 0.8) * gamma * gamma / N
            sol = solve_are(A, N, q)
            resid = np.linalg.norm(A.T @ sol.P + sol.P @ A + N * sol.P @ sol.P
                                   + q * np.eye(n))
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(sol.P) ** 2)
            assert np.min(np.linalg.eigvalsh(sol.P)) > 0.0
            # closed loop equals the stable half of the Hamiltonian spectrum
            Hw = eigenvalues(hamiltonian(A, N, q))
            stable = np.sort_complex(Hw[Hw.real < 0.0])
            assert np.allclose(np.sort_complex(sol.closed_loop_spectrum), stable,
                               atol=1e-8 * max(1.0, np.abs(stable).max()))


class TestDistance:
    @pytest.mark.parametrize("tol,error,fault", [
        ("1e-9", GascertError, "tol: not a numeric array"),
        (True, GascertError, "tol: not a numeric array"),
        (np.nan, NonFiniteError, "tol: non-finite entries"),
        ([1e-9], DimensionError, "tol: expected a number, got ndim=1"),
        (0.0, ValueError, "tol must be positive"),
    ], ids=["string", "bool", "nan", "array", "zero"])
    def test_tol_read_by_the_number_reader(self, tol, error, fault):
        # a string raised a raw TypeError, and True was taken as 1.0
        with pytest.raises(error, match=f"^{re.escape(fault)}$"):
            distance_to_instability([[-5.0]], tol)

    def test_integer_tol(self):
        assert distance_to_instability([[-5.0]], np.int64(1)) == distance_to_instability(
            [[-5.0]], 1.0)

    def test_huge_entries_warn_of_no_overflow(self):
        # the axis prefilter took ||H||_F, which overflowed to inf beyond
        # about 1e154 (a RuntimeWarning), and every eigenvalue was a candidate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance_to_instability([[-1e160]]) == 1e160
            assert distance_to_instability([[-1e300, 1e300], [-1e300, -1e300]]) > 0.0

    def test_axis_prefilter_is_the_frobenius_cut(self):
        # the candidates are the eigenvalues within _AXIS_PREFILTER * ||H||_F
        # of the axis, for a member whose norm would overflow too
        rng = np.random.default_rng(87)
        H = rng.normal(size=(4, 6, 6))
        H[0, :, :3] *= 1e-7  # eigenvalues near the axis
        H[2] *= 1e200
        owner, ws, _ = numerics._axis_frequencies(H)
        for k, h in enumerate(H):
            norm = np.linalg.norm(h) if k != 2 else 1e200 * np.linalg.norm(h / 1e200)
            lam = np.linalg.eigvals(h)
            want = np.unique(np.abs(lam.imag[np.abs(lam.real) <= 1e-6 * norm]))
            assert ws[owner == k].tolist() == want.tolist()

    def test_normal_matrix(self):
        d = distance_to_instability(np.diag([-1.0, -2.0]), 1e-10)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_shear_matrix_vs_oracle(self):
        # analytic check at w=0: sigma_min^2 is the small root of
        # x^2 - 102 x + 1, i.e. ~9.902e-2; the sweep oracle confirms the
        # minimum sits at w=0
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        oracle = sweep_distance_oracle(A)
        smin0 = np.sqrt((102.0 - np.sqrt(102.0**2 - 4.0)) / 2.0)
        assert oracle == pytest.approx(smin0, rel=1e-9)
        d = distance_to_instability(A, 1e-8)
        assert d == pytest.approx(oracle, abs=max(1e-8, 1e-4 * oracle))

    def test_scalar(self):
        assert distance_to_instability([[-5.0]], 1e-10) == pytest.approx(5.0, abs=1e-9)

    def test_not_hurwitz_rejected(self):
        with pytest.raises(StabilityError):
            distance_to_instability([[1.0]], 1e-6)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            A = random_hurwitz(rng, n)
            oracle = sweep_distance_oracle(A)
            d = distance_to_instability(A, 1e-8)
            assert abs(d - oracle) <= max(1e-8, 1e-4 * oracle)

    def test_benchmark_matches_sweep(self):
        # slow mode near 1e-2 beside a fast one near 3.5e6
        d = distance_to_instability(DC_AM, 1e-12 * spectral_norm(DC_AM))
        assert d == pytest.approx(sweep_distance_oracle(DC_AM), rel=1e-8)
        assert d == pytest.approx(0.013980367771379707, rel=1e-8)

    def test_kernel_accuracy_has_no_absolute_floor(self):
        # the kernel's distance accuracy was 1e-12 * max(1, ||A||_2): for this
        # lightly damped matrix in slow time units the distance read 2.2e-8
        # relative above s times its value at s = 1
        A0 = np.array([[-0.05, 3.0, 0.2], [-3.0, -0.05, 0.1], [0.3, 0.0, -1.0]])

        def distance(s):
            return numerics._peak_gains([Checked(s * A0, square=True)])[0]

        d1 = distance(1.0)
        for s in (1e-12, 1e-9, 1e-6, 1e6):
            assert abs(distance(s) - s * d1) <= 1e-13 * s * d1, s
        assert distance(2.0 ** -40) == 2.0 ** -40 * d1

    def test_spread_normal_matches_exact(self):
        # normal matrix: the distance is min |Re lambda| = 1e-2, at w = 5
        rng = np.random.default_rng(37)
        for _ in range(3):
            A = spread_normal(rng)
            d = distance_to_instability(A, 1e-14)
            assert d == pytest.approx(1e-2, rel=1e-8)
            assert d == pytest.approx(sweep_distance_oracle(A), rel=1e-8)

    def test_equals_reciprocal_hinf_gain(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            A = random_hurwitz(rng, n)
            d = distance_to_instability(A, 1e-14)
            assert d == pytest.approx(1.0 / hinf_gain(np.eye(n), A), rel=1e-12)

    def test_tol_must_be_positive(self):
        for tol in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                distance_to_instability([[-1.0]], tol)

    def test_eigensolves_per_call(self, monkeypatch):
        # the level-set iteration converges quadratically: the Hurwitz
        # check plus a handful of Hamiltonian eigensolves per call (one
        # member of a stack each, counted at numerics._eigvals)
        calls = []
        real, stacked = numerics.eigenvalues, numerics._eigvals
        monkeypatch.setattr(numerics, "eigenvalues",
                            lambda A: calls.append(1) or real(A))
        monkeypatch.setattr(numerics, "_eigvals",
                            lambda H: calls.extend([1] * len(H)) or stacked(H))
        rng = np.random.default_rng(47)
        cases = [random_hurwitz(rng, int(rng.integers(1, 9))) for _ in range(40)]
        cases += [DC_AM, spread_normal(rng)]
        worst = 0
        for A in cases:
            calls.clear()
            distance_to_instability(A, 1e-12 * max(1.0, spectral_norm(A)))
            assert len(calls) >= 2  # the spectrum and at least one level
            worst = max(worst, len(calls))
        assert worst <= 10

    @pytest.mark.parametrize("output", ["identity", "given"])
    def test_starting_frequencies(self, monkeypatch, output):
        # the first gains evaluated are each member's at w = 0 and at the
        # distinct |Im lambda| of its spectrum (not the moduli |lambda|); a
        # member whose spectrum is all real starts from w = 0 alone
        rng = np.random.default_rng(49)
        rot = np.array([[-0.05, 3.0], [-3.0, -0.05]])
        S = rng.normal(size=(5, 5))
        mats = [random_hurwitz(rng, 5) for _ in range(3)]
        mats.append(S @ sla_block_diag(rot, rot, [[-1.0]]) @ np.linalg.inv(S))
        mats.append(np.triu(rng.normal(size=(5, 5)), 1) - np.diag(rng.uniform(1.0, 4.0, 5)))
        recs = [Checked(A, square=True) for A in mats]
        assert not np.count_nonzero(recs[-1].spectrum.imag)
        M = None if output == "identity" else rng.normal(size=(len(recs), 2, 5))
        calls = []
        real = numerics._gains
        monkeypatch.setattr(numerics, "_gains", lambda A, M, owner, ws: calls.append(
            (owner.copy(), ws.copy())) or real(A, M, owner, ws))
        numerics._peak_gains(recs, M)
        owner, ws = calls[0]
        for k, rec in enumerate(recs):
            want = np.unique(np.abs(np.concatenate(([0.0], rec.spectrum.imag))))
            assert ws[owner == k].tolist() == want.tolist()
        assert ws[owner == len(recs) - 1].tolist() == [0.0]
        assert len(calls) > 1  # then the levels


class TestStackedKernels:
    """The crossing test, the level-set iteration and the Riccati solve run
    on a stack of records of one size; each member gets what it gets alone
    (the public kernels are stacks of one) and keeps its own error."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_members_equal_their_single_calls(self, n):
        rng = np.random.default_rng(60 + n)
        recs = [Checked(random_hurwitz(rng, n, 10.0 ** rng.uniform(-2, 2)), square=True)
                for _ in range(7)]
        recs.append(recs[0])  # a record twice in one stack
        tols = [1e-12 * spectral_norm(r) for r in recs]
        gammas = numerics._peak_gains(recs, None, tols)
        for r, tol, gamma in zip(recs, tols, gammas):
            assert type(gamma) is float and gamma == distance_to_instability(r, tol)
        assert numerics._peak_gains(recs) == gammas  # the kernel's own distance accuracy
        N = rng.integers(1, 4, size=len(recs)).tolist()
        q = [(f * g) ** 2 / k for f, g, k in zip(rng.uniform(0.2, 1.4, size=len(recs)),
                                                   gammas, N)]
        outcomes = numerics._solve_ares(recs, N, q)
        kinds = set()
        for r, k, qi, got in zip(recs, N, q, outcomes):
            try:
                want = solve_are(r, k, qi)
            except GascertError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                kinds.add("error")
                continue
            assert_same_bits(got.P, want.P)
            assert_same_bits(np.float64(got.residual_norm), np.float64(want.residual_norm))
            assert_same_bits(got.closed_loop_spectrum, want.closed_loop_spectrum)
            kinds.add("solved")
        assert kinds == {"error", "solved"}
        M = rng.normal(size=(2, n))
        shared = np.broadcast_to(M, (len(recs), *M.shape))
        for r, (g, w) in zip(recs, numerics._peak_gains(recs, shared)):
            assert g == hinf_gain(M, r)

    def test_scaled_member_leaves_the_others_alone(self):
        # a member whose output matrix passes 2^500 runs at a scaled level;
        # every member's peak is still the one it gets alone
        rng = np.random.default_rng(67)
        recs = [Checked(random_hurwitz(rng, 3)) for _ in range(3)]
        M = rng.normal(size=(3, 2, 3))
        M[1] *= 2.0 ** 600
        stack = numerics._peak_gains(recs, M)
        alone = [numerics._peak_gains([r], M[k:k + 1])[0] for k, r in enumerate(recs)]
        assert stack == alone
        assert stack[1][0] == pytest.approx(2.0 ** 600 * hinf_gain(M[1] / 2.0 ** 600, recs[1]),
                                            rel=1e-11)

    def test_refused_member_gets_its_own_error(self):
        # numpy refuses a stack with a non-finite member: each member is
        # then solved alone, and only the refused one gets an error
        rng = np.random.default_rng(66)
        H = rng.normal(size=(3, 4, 4))
        H[1, 2, 0] = np.inf
        lam, errors = numerics._eigvals(H)
        assert list(errors) == [1] and isinstance(errors[1], NonFiniteError)
        assert str(errors[1]) == "A: non-finite entries"
        for i in (0, 2):
            assert_same_bits(lam[i], eigenvalues(H[i]).astype(complex))
        owner, ws, errors = numerics._axis_frequencies(H)
        assert list(errors) == [1] and 1 not in owner.tolist()

    def test_failed_iteration_stays_with_its_member(self, monkeypatch):
        # an eigensolve that fails for one member in the middle of the
        # level-set iteration stops that member only
        rng = np.random.default_rng(67)
        recs = [Checked(random_hurwitz(rng, 3), square=True) for _ in range(4)]
        alone = [distance_to_instability(r, 1e-12) for r in recs]
        real = numerics._eigvals

        def failing(H):
            lam, errors = real(H)
            if len(H) == len(recs):
                lam[2] = np.nan
                errors[2] = SolverError("forced")
            return lam, errors

        monkeypatch.setattr(numerics, "_eigvals", failing)
        got = numerics._peak_gains(recs, None, [1e-12] * len(recs))
        assert isinstance(got[2], SolverError) and str(got[2]) == "forced"
        assert [got[i] for i in (0, 1, 3)] == [alone[i] for i in (0, 1, 3)]

    @staticmethod
    def assert_alone(got, want):
        # a member's outcome in the stack is its outcome alone: the same
        # error and message, or the same numbers to the bit
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        elif isinstance(want, numerics.AreSolution):
            assert type(got) is numerics.AreSolution
            for x, y in ((got.P, want.P), (got.closed_loop_spectrum, want.closed_loop_spectrum),
                         (np.float64(got.residual_norm), np.float64(want.residual_norm))):
                assert_same_bits(x, y)
        else:  # a distance, or a peak (g, w) for a given output matrix
            assert type(got) is type(want)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("exit_, message", [
        ("singular", r"^invariant-subspace basis is singular: Singular matrix$"),
        ("residual", r"^Riccati residual \S+ exceeds tolerance \S+ "
                     r"\(ill-conditioned invariant subspace\)$"),
        ("indefinite", r"^Riccati solution is not positive definite$"),
        ("unstable", r"^closed-loop matrix Am \+ N\*P is not stable$"),
    ])
    def test_riccati_exit_stays_with_its_member(self, monkeypatch, exit_, message):
        # one member of a stack of four 3x3 records is forced to an exit of
        # the Riccati solve; it gets the message it gets alone, and the
        # others their numbers alone
        rng = np.random.default_rng(71)
        n = 3
        recs = [Checked(random_hurwitz(rng, n), square=True) for _ in range(4)]
        N = [1, 2, 1, 3]
        q = [0.5 * distance_to_instability(r, 1e-12) ** 2 / k for r, k in zip(recs, N)]
        victim = 1
        P = solve_are(recs[victim], N[victim], q[victim]).P
        schur, eigvalsh = numerics._schur, np.linalg.eigvalsh

        def forced_schur(H, *args, **kw):
            if not np.array_equal(H[:n, :n], recs[victim].A):
                return schur(H, *args, **kw)
            if exit_ == "unstable":  # the anti-stabilizing P: definite, unstable closed loop
                return sla.schur(H, output="real", sort="rhp")
            T, Z, sdim = schur(H, *args, **kw)
            Z = Z.copy()
            if exit_ == "singular":
                Z[:n, :n] = 0.0
            elif exit_ == "residual":
                Z[n:, :n] += 1e-3
            return T, Z, sdim

        def forced_eigvalsh(a, *args, **kw):
            w = eigvalsh(a, *args, **kw)
            if exit_ == "indefinite":
                w[[np.array_equal(p, P) for p in a]] *= -1.0
            return w

        monkeypatch.setattr(numerics, "_schur", forced_schur)
        monkeypatch.setattr(np.linalg, "eigvalsh", forced_eigvalsh)
        stack = numerics._solve_ares(recs, N, q)
        alone = [numerics._solve_ares([r], [k], [qi])[0] for r, k, qi in zip(recs, N, q)]
        assert [isinstance(o, Exception) for o in stack] == [False, True, False, False]
        assert isinstance(stack[victim], SolverError)
        assert re.match(message, str(stack[victim]))
        for got, want in zip(stack, alone):
            self.assert_alone(got, want)

    @pytest.mark.parametrize("output", ["identity", "given"])
    def test_unconverged_member_keeps_its_message(self, monkeypatch, output):
        # with two levels allowed, the first of five members is not done;
        # the others converge, each to its numbers alone
        rng = np.random.default_rng(76)
        recs = [Checked(random_hurwitz(rng, 3), square=True) for _ in range(5)]
        M, dtols = None, [1e-12] * len(recs)  # the distance's dtols; a gain has none
        if output == "given":  # one output matrix per member
            M, dtols = rng.normal(size=(5, 2, 3)), None
        monkeypatch.setattr(numerics, "_MAX_LEVELS", 2)
        stack = numerics._peak_gains(recs, M, dtols)
        alone = [numerics._peak_gains([r], None if M is None else M[k:k + 1],
                                      None if M is not None else [dtols[k]])[0]
                 for k, r in enumerate(recs)]
        assert [isinstance(o, Exception) for o in stack] == [True, False, False, False, False]
        assert isinstance(stack[0], SolverError)
        assert str(stack[0]) == "level-set iteration did not converge in 2 levels"
        for got, want in zip(stack, alone):
            self.assert_alone(got, want)


class TestPerShape:
    """``_per_shape`` is the one code that forms stacks."""

    def test_one_call_per_key_in_first_appearance_order(self):
        # the key is the shape of the item's matrix and of each column entry
        shapes = [(2, 2), (3, 3), (2, 2), (2, 3), (2, 2), (3, 3)]
        items = [Checked(np.full(s, k + 1.0)) for k, s in enumerate(shapes)]
        col = [np.zeros(3) if k == 4 else np.zeros(2) for k in range(6)]
        calls = []

        def kernel(group, stack):
            calls.append(([items.index(x) for x in group], stack.shape))
            return [x.A[0, 0] * 10 for x in group]

        got = numerics._per_shape(kernel, items, col)
        assert calls == [([0, 2], (2, 2)), ([1, 5], (2, 2)), ([3], (1, 2)), ([4], (1, 3))]
        assert got == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]

    def test_results_and_errors_in_input_order(self):
        items = [Checked(np.eye(n)) for n in (1, 2, 1, 2, 1)]
        errors = {k: SolverError(f"member {k}") for k in (1, 2)}

        def kernel(group, ks):
            return [errors.get(k, k) for k in ks.tolist()]

        got = numerics._per_shape(kernel, items, list(range(5)))
        assert got[0] == 0 and got[3] == 3 and got[4] == 4
        assert got[1] is errors[1] and got[2] is errors[2]

    def test_empty_input_makes_no_call(self):
        assert numerics._per_shape(lambda *a: pytest.fail("called"), [], []) == []
        norms = numerics._norms([])
        assert norms.shape == (0,) and norms.dtype == np.float64

    def test_norms_are_spectral_norm_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(61)
        items = [Checked(rng.normal(size=s)) for s in [(2, 3), (3, 3), (2, 3), (1, 4), (3, 3)]]
        want = [spectral_norm(x) for x in items]
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **k: svds.append(a.shape) or svd(a, **k))
        got = numerics._norms(items)
        assert svds == [(2, 2, 3), (2, 3, 3), (1, 1, 4)]
        assert got.tobytes() == np.array(want).tobytes()


def scipy_lyapunov(A, Q):
    """The scipy-based ``solve_lyapunov`` body that the stacked kernel
    replaced: the oracle of ``numerics._lyapunovs``."""
    A = as_matrix(A, "A", square=True)
    Q = as_matrix(Q, "Q", square=True)
    if Q.shape != A.shape:
        raise DimensionError(f"Q must match A: {Q.shape} vs {A.shape}")
    if np.abs(Q - Q.T).max() > 1e-12 * max(1.0, float(np.abs(Q).max())):
        raise ValueError("Q must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * Q + 0.5 * Q.T)) <= 0.0:
        raise ValueError("Q must be positive definite")
    if not np.linalg.eigvals(A).real.max() < 0.0:
        raise StabilityError(
            "A is not Hurwitz: the Lyapunov equation has no positive definite solution")
    P = sla.solve_continuous_lyapunov(A.T, -Q)
    P = 0.5 * (P + P.T)
    a = -int(np.frexp(np.abs(A).max())[1])
    k = -max(int(np.frexp(np.abs(P).max())[1]), int(np.frexp(np.abs(Q).max())[1]) + a)
    As, Ps, Qs = np.ldexp(A, a), np.ldexp(P, k), np.ldexp(Q, a + k)
    scale = np.linalg.norm(As) * np.linalg.norm(Ps) + np.linalg.norm(Qs)
    residual = np.linalg.norm(As.T @ Ps + Ps @ As + Qs)
    if not residual <= 1e-10 * scale:
        raise SolverError(f"Lyapunov residual {np.ldexp(residual, -a - k):.3e} exceeds "
                          f"1e-10 * scale ({np.ldexp(1e-10 * scale, -a - k):.3e})")
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise SolverError("Lyapunov solution is not positive definite")
    return P


def assert_outcome(got, want):
    """The same error type and message, or the same array to the bit."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert_same_bits(got, want)


def outcome(call, *args):
    try:
        return call(*args)
    except (GascertError, ValueError) as exc:
        return exc


class TestDirectLapack:
    """The Schur form, the balancing and the Lyapunov solve call LAPACK
    directly, by scipy's arithmetic: each result is scipy's, bit for bit."""

    @staticmethod
    def matrices(rng):
        for n in (1, 2, 3, 4, 6, 9, 14):
            yield rng.normal(size=(n, n))
            yield random_hurwitz(rng, n, 10.0 ** rng.uniform(-100, 100))
            A = random_hurwitz(rng, n)
            W = rng.normal(size=(n, n))
            yield hamiltonian(A, 1, 0.1) + np.block([[np.zeros((n, n)), W @ W.T],
                                                     [np.zeros((n, 2 * n))]])

    @pytest.mark.parametrize("sort", [None, "lhp"])
    def test_schur_is_scipys(self, sort):
        for A in self.matrices(np.random.default_rng(81)):
            T, Z, sdim = numerics._schur(A, numerics._gees_lwork(len(A)), lhp=sort == "lhp")
            want = sla.schur(A, output="real", sort=sort)
            assert_same_bits(T, want[0])
            assert_same_bits(Z, want[1])
            assert sdim == (0 if sort is None else want[2])

    def test_schur_sorts_the_hamiltonian_stable_half_first(self):
        A = random_hurwitz(np.random.default_rng(82), 4)
        _, _, sdim = numerics._schur(hamiltonian(A, 1, 0.01), numerics._gees_lwork(8), lhp=True)
        assert sdim == 4

    @staticmethod
    def permuting(rng, n, scale):
        # upper triangular outside a dense middle block: dgebal isolates the
        # first column's and the last row's eigenvalue, then a random
        # similarity permutation makes its swaps nontrivial
        A = np.triu(rng.normal(size=(n, n)))
        A[1:n - 1, 1:n - 1] = rng.normal(size=(n - 2, n - 2))
        p = rng.permutation(n)
        A = A[np.ix_(p, p)]
        d = 10.0 ** rng.uniform(-scale, scale, size=n)
        return d[:, None] * A / d[None, :]

    @pytest.mark.parametrize("scale", [0.0, 150.0], ids=["plain", "1e+-150"])
    def test_balanced_is_scipys(self, scale):
        rng = np.random.default_rng(83)
        cases = [self.permuting(rng, n, scale) for n in (3, 4, 6, 9) for _ in range(4)]
        cases += [d * rng.normal(size=(n, n)) for n in (1, 2, 5) for d in (1e150, 1e-150, 1.0)]
        permuted = 0
        for A in cases:
            _, lo, hi, _, _ = numerics.dgebal(A, scale=1, permute=1)
            permuted += lo > 0 and hi < len(A) - 1
            Ab, T, Tinv = Checked(A).balanced
            with np.errstate(invalid="ignore"):  # scipy casts every scaling factor to int
                want_Ab, want_T = sla.matrix_balance(A)
            assert_same_bits(Ab, want_Ab)
            assert_same_bits(T, want_T)
            assert_same_bits(Tinv, np.linalg.inv(want_T))
        assert permuted >= 12

    def test_lyapunov_kernel_is_the_scipy_solve(self):
        rng = np.random.default_rng(84)
        recs, Qs = [], []
        for n in range(1, 22):
            for scale in (1.0, 10.0 ** rng.uniform(-150, 150)):
                recs.append(Checked(random_hurwitz(rng, n, scale), square=True))
                W = rng.normal(size=(n, n))
                Qs.append((W @ W.T + 0.1 * np.eye(n)) * 10.0 ** rng.uniform(-50, 50))
        recs.append(Checked([[-1e-100]], square=True))  # its residual test refuses it
        Qs.append(np.array([[1e200]]))
        for k in (0, 5, 40):  # shared records, with their own weights and another's
            recs.append(recs[k])
            Qs.append(Qs[k] if k != 5 else 2.0 * Qs[k])
        with np.errstate(all="ignore"):
            got = numerics._per_shape(numerics._lyapunovs, recs, Qs)
            want = [outcome(scipy_lyapunov, r.A, Q) for r, Q in zip(recs, Qs)]
        assert sum(isinstance(w, Exception) for w in want) == 1
        for g, w in zip(got, want):
            assert_outcome(g, w)

    def test_lyapunov_checks_stay_with_their_members(self):
        rng = np.random.default_rng(85)
        recs = [Checked(random_hurwitz(rng, 3), square=True) for _ in range(4)]
        recs[2] = Checked(-random_hurwitz(rng, 3), square=True)
        Qs = np.array([np.eye(3)] * 4)
        # the kernel takes checked weights: the Hurwitz test is its members' own
        got = numerics._lyapunovs(recs, Qs)
        assert_outcome(got[2], StabilityError(
            "A is not Hurwitz: the Lyapunov equation has no positive definite solution"))
        for k in (0, 1, 3):
            assert_same_bits(got[k], scipy_lyapunov(recs[k].A, Qs[k]))
        # the weights are checked at solve_lyapunov's door, in this order
        Qs[0, 0, 1] = 1e-3
        Qs[3, 1, 1] = -1.0
        for A, Q, want in ((recs[0], np.zeros((2, 2)),
                            DimensionError("Q must match A: (2, 2) vs (3, 3)")),
                           (recs[2], Qs[0], ValueError("Q must be symmetric")),
                           (recs[2], Qs[3], ValueError("Q must be positive definite"))):
            assert_outcome(outcome(solve_lyapunov, A, Q), want)

    @pytest.mark.parametrize("exit_, message", [
        ("residual", r"^Lyapunov residual \S+ exceeds 1e-10 \* scale \(\S+\)$"),
        ("indefinite", r"^Lyapunov solution is not positive definite$"),
    ])
    def test_lyapunov_exit_stays_with_its_member(self, monkeypatch, exit_, message):
        # one member of a stack of four is forced to an exit of the solve; it
        # fails alone, with the message it gets alone, and the others keep
        # their bits
        rng = np.random.default_rng(86)
        recs = [Checked(random_hurwitz(rng, 2), square=True) for _ in range(4)]
        victim = 2
        recs[victim] = Checked(-np.eye(2), square=True)
        Qs = np.array([np.eye(2), np.eye(2), np.diag([1.0, 1e-12]), np.eye(2)])
        real = numerics._bartels_stewart

        def forced(a, q, lwork):
            X = real(a, q, lwork)
            if not np.array_equal(a, recs[victim].A.T):
                return X
            return 2.0 * X if exit_ == "residual" else X * np.diag([1.0, -1.0])

        monkeypatch.setattr(numerics, "_bartels_stewart", forced)
        stack = numerics._lyapunovs(recs, Qs)
        alone = [numerics._lyapunovs([r], Q[None])[0] for r, Q in zip(recs, Qs)]
        assert [isinstance(o, SolverError) for o in stack] == [False, False, True, False]
        assert re.match(message, str(stack[victim]))
        for got, want in zip(stack, alone):
            assert_outcome(got, want)
        for k in (0, 1, 3):
            assert_same_bits(stack[k], scipy_lyapunov(recs[k].A, Qs[k]))


class TestHyperbolicityDistanceEquivalence:
    def test_random_agreement(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(1, 5))
            A = random_hurwitz(rng, n)
            N = int(rng.integers(1, 4))
            gamma = distance_to_instability(A, 1e-10)
            xi2 = rng.uniform(0.0, 2.0) * gamma * gamma / N
            # skip the tolerance band around the boundary
            if abs(np.sqrt(N * xi2) - gamma) <= 1e-6 * max(1.0, gamma):
                continue
            hyp = is_hyperbolic(A, N, xi2)
            assert hyp == (gamma > np.sqrt(N * xi2))
            checked += 1
        assert checked >= 50

    def test_boundary_scalar(self):
        # a = -1, N = 1, coupling level exactly at the distance: both
        # formulations must report failure (the inequality is strict)
        assert not is_hyperbolic([[-1.0]], 1, 1.0)
        d = distance_to_instability([[-1.0]], 1e-10)
        assert not d > 1.0


class TestHinfGain:
    def test_first_order_unity(self):
        assert hinf_gain([[1.0]], [[-1.0]]) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("M", [np.zeros((1, 2)), np.zeros((3, 2)), Checked(np.zeros((2, 2)))],
                             ids=["row", "tall", "record"])
    def test_zero_M_gives_zero(self, M):
        # no path through M: the gain is 0.0, without a level-set iteration
        assert hinf_gain(M, [[-1.0, 3.0], [0.0, -2.0]]) == 0.0

    def test_linear_scaling(self):
        c = 3.7
        assert hinf_gain([[c]], [[-1.0]]) == pytest.approx(c, rel=1e-6)

    def test_first_order_half(self):
        assert hinf_gain([[1.0]], [[-2.0]]) == pytest.approx(0.5, rel=1e-6)

    def test_benchmark_coupling_path(self):
        # the integrator row makes the w=0 gain exactly the coupling norm
        assert hinf_gain(DC_A12, DC_AM) == pytest.approx(5.32e4, rel=1e-3)

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            hinf_gain([[1.0]], [[0.1]])

    def test_resonant_peak(self):
        # lightly damped oscillator: the peak sits near w0, far from the
        # endpoints; cross-check against a dense independent scan
        w0, zeta = 2.0, 0.05
        A = np.array([[0.0, 1.0], [-w0 * w0, -2.0 * zeta * w0]])
        M = np.array([[1.0, 0.0]])

        def g(w):
            return np.linalg.svd(M @ np.linalg.inv(1j * w * np.eye(2) - A),
                                 compute_uv=False)[0]

        oracle = max(g(w) for w in np.linspace(1.8, 2.2, 40001))
        assert hinf_gain(M, A) == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("c", [1e155, 1e300])
    def test_huge_output_matrix(self, c):
        # C'C overflowed for |C| beyond about 1.3e154 and the gain was refused
        # as "A: non-finite entries"; the scaled level keeps it exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hinf_gain([[c]], [[-1.0]]) == c
            M = np.array([[1.0, -2.0], [0.5, 3.0]])
            A = np.array([[-1.0, 4.0], [0.0, -2.0]])
            assert hinf_gain(c * M, A) == pytest.approx(c * hinf_gain(M, A), rel=1e-11)

    def test_badly_scaled_vs_sweep(self):
        rng = np.random.default_rng(53)
        cases = [(DC_A12, DC_AM), (rng.normal(size=(2, 3)), DC_AM)]
        A = spread_normal(rng)
        cases += [(rng.normal(size=(2, 9)), A), (np.eye(9), A)]
        for M, A in cases:
            assert hinf_gain(M, A) == pytest.approx(sweep_hinf_oracle(M, A), rel=1e-8)
