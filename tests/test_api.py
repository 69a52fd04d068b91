import gascert


def test_public_surface():
    # adding or removing public API shows up as a change to this list
    assert sorted(gascert.__all__) == [
        "AreSolution", "AugmentedSubsystem", "ConfigError", "ConnectiveReport",
        "DimensionError", "GasCertificate", "GascertError", "Interconnection",
        "NetworkModel", "NetworkState", "NonFiniteError", "Scenario", "Schedule", "SimTrace",
        "SmallGainResult", "SolverError", "StabilityError", "SubsystemCertificate", "Tuning",
        "adaptation_offsets", "analyze", "augment_edge", "baseline_control",
        "boundary_function", "build_reference_model", "certify", "check_conditions",
        "check_controllability", "closed_loop_global", "comparison_matrix", "connective",
        "control", "distance_to_instability", "eigenvalues", "epsilon_margin", "exceptions",
        "export_csv", "hamiltonian", "hinf_gain", "homogeneous_condition",
        "interconnection_energy", "is_hurwitz", "is_hyperbolic", "metrics", "model",
        "mrac_control", "numerics", "predictor_rate", "project", "project_columns", "riccati",
        "sim", "simulate", "small_gain_check", "solve_are", "solve_lyapunov", "spectral_norm",
        "theta_max_bound", "transient_bound", "update_normalized", "update_projection",
    ]
