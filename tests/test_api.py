import ast
import importlib.util
from pathlib import Path

import gascert
from gascert import model, numerics

ROOT = Path(__file__).resolve().parent.parent


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


def test_one_reader_of_caller_numbers():
    # numeric_array is the one code that turns caller input into floats; a
    # float cast elsewhere would be a second reader, with rules of its own.
    # control's reference laws are the tests' oracle; the simulator packs
    # tuning values that Tuning has read already.  config walks the document
    # and hands each value on unchanged, so it neither imports nor calls a reader.
    allowed = {("sim.py", "np.array([getattr(tn, a) for tn in tunings], dtype=float)")}
    casts = []
    for path in sorted(Path(gascert.__file__).parent.glob("*.py")):
        if path.name == "control.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.array", "np.asarray")
                    and any(k.arg == "dtype" and ast.unparse(k.value) in ("float", "np.float64")
                            for k in node.keywords)):
                casts.append((path.name, ast.unparse(node)))
    assert [c for c in casts if c not in allowed] == []
    readers = {"numeric_array", "as_matrix", "numeric_scalar"}
    tree = ast.parse((Path(gascert.__file__).parent / "config.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    called = {ast.unparse(node.func).rpartition(".")[2] for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert readers.isdisjoint(imported | called)


def test_benchmark_tracer_installs_and_restores():
    # bench/tracing.py wraps every layer's public functions, the cli entry
    # points and NetworkModel.in_edges, out_edges, neighbor_count and
    # Interconnection.gain by name: a layer, method or function it names
    # that is gone makes install raise, and uninstall puts each one back
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hinf_gain, in_edges = numerics.hinf_gain, model.NetworkModel.__dict__["in_edges"]
    tracer = tracing.Tracer()
    try:
        tracer.install("gascert")
        assert numerics.hinf_gain is not hinf_gain and numerics.hinf_gain.__wrapped__ is hinf_gain
        assert model.NetworkModel.__dict__["in_edges"].__wrapped__ is in_edges
    finally:
        tracer.uninstall()
    assert numerics.hinf_gain is hinf_gain and gascert.hinf_gain is hinf_gain
    assert model.NetworkModel.__dict__["in_edges"] is in_edges
