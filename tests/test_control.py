import numpy as np
import pytest

from gascert import (
    StabilityError,
    baseline_control,
    boundary_function,
    build_reference_model,
    mrac_control,
    predictor_rate,
    project,
    project_columns,
    update_normalized,
    update_projection,
)


class TestBaseline:
    def test_zero_gain(self):
        assert np.array_equal(baseline_control(np.zeros((1, 2)), [1.0, 2.0]), [0.0])

    def test_plug_in(self):
        assert baseline_control([[1.0, 2.0]], [1.0, 1.0])[0] == -3.0

    def test_linearity(self):
        K = np.array([[0.4, -1.1]])
        x = np.array([2.0, 5.0])
        assert np.allclose(baseline_control(K, 3.0 * x), 3.0 * baseline_control(K, x))


class TestMracLaw:
    def test_zero_estimate(self):
        assert np.array_equal(mrac_control(np.zeros((2, 1)), [1.0, 2.0]), [0.0])

    def test_plug_in(self):
        assert mrac_control(np.array([[1.0], [0.0]]), [2.0, 5.0])[0] == -2.0

    def test_exact_cancellation(self):
        # with the estimate equal to the truth, the uncertainty channel
        # u + theta' x vanishes identically
        rng = np.random.default_rng(2)
        theta = rng.normal(size=(3, 2))
        x = rng.normal(size=3)
        u = mrac_control(theta, x)
        assert np.allclose(u + theta.T @ x, 0.0, atol=1e-15)


class TestReferenceModel:
    def test_structure(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        C = np.array([[1.0, 0.0]])
        K_x = np.array([[2.0, 3.0]])
        K_xi = np.array([[1.0]])
        Am = build_reference_model(A, B, C, K_x, K_xi)
        assert Am.shape == (3, 3)
        assert np.array_equal(Am[2, :2], -C[0])
        assert Am[2, 2] == 0.0
        assert np.array_equal(Am[:2, :2], A - B @ K_x)
        assert np.array_equal(Am[:2, 2:], B @ K_xi)

    def test_slice_built_matches_np_block(self):
        rng = np.random.default_rng(3)
        for n, m, q in ((1, 1, 1), (3, 2, 1), (4, 2, 2), (2, 2, 0), (3, 3, 2)):
            B = rng.normal(size=(n, m))
            C = rng.normal(size=(q, n))
            K_x = rng.normal(size=(m, n))
            # A_nom - B K_x = -5 I, and K_xi = 0.1 (C B)^+ puts the integral
            # modes near -0.02: Hurwitz by construction
            A_nom = -5.0 * np.eye(n) + B @ K_x
            K_xi = 0.1 * np.linalg.pinv(C @ B)
            want = np.block([[A_nom - B @ K_x, B @ K_xi], [-C, np.zeros((q, q))]])
            Am = build_reference_model(A_nom, B, C, K_x, K_xi)
            assert Am.dtype == want.dtype and Am.shape == want.shape
            assert Am.tobytes() == want.tobytes()

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            build_reference_model([[0.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]])


class TestPredictorRate:
    def test_all_zero(self):
        rate = predictor_rate(np.diag([-1.0, -1.0]), np.array([[1.0], [0.0]]),
                              np.zeros(2), np.zeros(1), np.zeros((2, 1)),
                              np.zeros(2), np.zeros(2))
        assert np.array_equal(rate, np.zeros(2))

    def test_scalar(self):
        rate = predictor_rate([[-1.0]], [[0.0]], np.array([1.0]), np.zeros(1),
                              np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        assert rate[0] == -1.0

    def test_distributed_minus_decentralized_is_coupling(self):
        rng = np.random.default_rng(8)
        A_m = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 1))
        x_pred = rng.normal(size=3)
        x_plant = rng.normal(size=3)
        theta = rng.normal(size=(3, 1))
        u = rng.normal(size=1)
        forced = rng.normal(size=3)
        terms = [(rng.normal(size=(3, 3)), rng.normal(size=3)) for _ in range(2)]
        dec = predictor_rate(A_m, B, x_pred, u, theta, x_plant, forced)
        dist = predictor_rate(A_m, B, x_pred, u, theta, x_plant, forced,
                              mode="distributed", neighbor_terms=terms)
        coupling = sum(A @ x for A, x in terms)
        assert np.allclose(dist - dec, coupling, atol=1e-14)

    def test_distributed_requires_neighbors(self):
        with pytest.raises(ValueError, match="neighbour"):
            predictor_rate([[-1.0]], [[1.0]], np.zeros(1), np.zeros(1),
                           np.zeros((1, 1)), np.zeros(1), np.zeros(1),
                           mode="distributed")


class TestNormalizedLaw:
    def test_zero_error_floored(self):
        rate = update_normalized(np.zeros(2), np.eye(2), np.ones((2, 1)),
                                 np.ones(2), 1.0)
        assert np.array_equal(rate, np.zeros((2, 1)))

    def test_scalar_plug_in(self):
        rate = update_normalized(np.array([1.0]), np.array([[1.0]]),
                                 np.array([[1.0]]), np.array([2.0]), 1.0)
        assert rate[0, 0] == pytest.approx(-1.0)

    def test_scale_invariance_in_error(self):
        # degree-zero homogeneity: the normalization means the update keeps
        # its size no matter how small the error gets (adaptation does not
        # taper off), which is the known convergence obstruction
        rng = np.random.default_rng(21)
        P = np.eye(3) * 2.0
        B = rng.normal(size=(3, 2))
        e = rng.normal(size=3)
        xh = rng.normal(size=3)
        base = update_normalized(e, P, B, xh, 5.0)
        for c in (1e-3, 0.5, 7.0, 1e4):
            assert np.allclose(update_normalized(c * e, P, B, xh, 5.0), base,
                               rtol=1e-12)


class TestBoundaryFunction:
    def test_at_origin(self):
        assert boundary_function(np.zeros(3), 2.0, 0.25) == pytest.approx(-4.0)

    def test_at_bound(self):
        theta = np.array([2.0, 0.0])
        assert boundary_function(theta, 2.0, 0.5) == pytest.approx(1.0)

    def test_zero_level(self):
        eps0 = 0.3
        theta_max = 1.5
        radius = theta_max / np.sqrt(eps0 + 1.0)
        theta = np.array([radius])
        assert boundary_function(theta, theta_max, eps0) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            boundary_function(np.zeros(2), 0.0, 0.1)


class TestProjection:
    def test_interior_unchanged(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            theta = rng.normal(size=4) * 0.1
            y = rng.normal(size=4)
            if boundary_function(theta, 2.0, 0.1) < 0.0:
                assert np.array_equal(project(theta, y, 2.0, 0.1), y)

    def test_boundary_outward_radial_removed(self):
        # at g = 1 an outward-radial update loses its radial component
        theta_max, eps0 = 2.0, 0.5
        theta = np.array([theta_max, 0.0])
        y = np.array([3.0, 1.0])
        out = project(theta, y, theta_max, eps0)
        assert out[0] == pytest.approx(0.0, abs=1e-14)
        assert out[1] == pytest.approx(1.0)

    def test_boundary_inward_unchanged(self):
        theta_max, eps0 = 2.0, 0.5
        theta = np.array([theta_max, 0.0])
        y = np.array([-3.0, 1.0])
        assert np.array_equal(project(theta, y, theta_max, eps0), y)

    def test_property_1_literal(self):
        # g < 0 implies exact pass-through
        rng = np.random.default_rng(9)
        theta_max, eps0 = 1.0, 0.2
        inner = theta_max / np.sqrt(eps0 + 1.0)
        for _ in range(200):
            theta = rng.normal(size=3)
            theta *= rng.uniform(0.0, 0.999) * inner / max(np.linalg.norm(theta), 1e-12)
            y = rng.normal(size=3)
            assert np.array_equal(project(theta, y, theta_max, eps0), y)

    def test_property_2_inner_product(self):
        # (theta - theta*)' (Proj(theta, a) - a) <= 0 whenever both points
        # are admissible
        rng = np.random.default_rng(10)
        theta_max, eps0 = 1.5, 0.3
        admissible_radius = theta_max / np.sqrt(eps0 + 1.0)
        worst = -np.inf
        for _ in range(1000):
            theta = rng.normal(size=4)
            theta *= rng.uniform(0.0, 1.0) * theta_max / max(np.linalg.norm(theta), 1e-12)
            star = rng.normal(size=4)
            star *= rng.uniform(0.0, 1.0) * admissible_radius / max(np.linalg.norm(star), 1e-12)
            a = rng.normal(size=4) * rng.uniform(0.1, 10.0)
            val = float((theta - star) @ (project(theta, a, theta_max, eps0) - a))
            worst = max(worst, val)
            assert val <= 1e-12
        assert worst <= 1e-12


class TestUpdateProjection:
    def test_zero_error(self):
        rate = update_projection(np.zeros(2), np.eye(2), np.ones((2, 1)),
                                 np.ones(2), 3.0, np.zeros((2, 1)), 1.0, 0.1)
        assert np.array_equal(rate, np.zeros((2, 1)))

    def test_interior_raw_drive(self):
        rng = np.random.default_rng(12)
        P = np.eye(2)
        B = rng.normal(size=(2, 1))
        x_err = rng.normal(size=2)
        x = rng.normal(size=2)
        theta = np.zeros((2, 1))  # deep interior
        gain = 4.0
        rate = update_projection(x_err, P, B, x, gain, theta, 1.0, 0.1)
        drive = -np.outer(x, x_err @ P @ B)
        assert np.allclose(rate, gain * drive, atol=1e-14)

    def test_bounded_under_adversarial_drive(self):
        # explicit-Euler flow of the projected update must never leave the
        # g <= 1 set, even when the drive always pushes outward
        theta_max, eps0 = 1.0, 0.1
        gain = 1.0
        dt = 5e-3  # keeps dt*gain*|drive| well under 0.01*theta_max
        theta = np.zeros((2, 1))
        drive_dir = np.array([[1.0], [0.7]])
        drive_dir /= np.linalg.norm(drive_dir)
        worst = -np.inf
        for _ in range(20000):
            rate = gain * project_columns(theta, drive_dir, theta_max, eps0)
            theta = theta + dt * rate
            g = boundary_function(theta[:, 0], theta_max, eps0)
            worst = max(worst, g)
        assert worst <= 1.0 + 1e-6
        # and the drive really was pushing against an active boundary
        assert worst > 0.0
