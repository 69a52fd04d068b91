"""gascert: stability certification and simulation for networks of linear
MIMO subsystems under decentralized/distributed adaptive control.

The package certifies global asymptotic stability of an interconnected
closed loop two ways - the aggregate (connective) sufficiency test and
per-subsystem Riccati certificates built on a distance-to-instability
condition - and simulates the resulting adaptive network to validate
certificates in the time domain.
"""

__version__ = "0.1.0"

from .connective import (
    ConnectiveReport,
    SmallGainResult,
    analyze,
    small_gain_check,
)
from .control import (
    boundary_function,
    mrac_control,
    predictor_rate,
    project,
    project_columns,
    update_normalized,
    update_projection,
)
from .exceptions import (
    ConfigError,
    DimensionError,
    GascertError,
    NonFiniteError,
    SolverError,
    StabilityError,
)
from .model import (
    AugmentedSubsystem,
    Interconnection,
    NetworkModel,
    Tuning,
    check_controllability,
    closed_loop_global,
)
from .numerics import (
    AreSolution,
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
from .riccati import (
    GasCertificate,
    SubsystemCertificate,
    certify,
    epsilon_margin,
    interconnection_energy,
)
from .sim import (
    Scenario,
    Schedule,
    SimTrace,
    export_csv,
    metrics,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
