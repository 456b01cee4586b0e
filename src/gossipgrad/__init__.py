"""Decentralized gradient descent over time-varying gossip networks.

The method runs m rounds of gossip per gradient evaluation, where m is
derived from the contraction factor of the local gradient maps and the
spectral gap of the mixing matrices, and converges at the centralized
gradient-descent rate per gradient evaluation.
"""

from .algorithm import (
    AlgorithmParams,
    centralized_gd,
    comm_rounds,
    run_algorithm,
    sigma0,
)
from .analysis import (
    FixedPoint,
    LyapunovRecord,
    decrease_terms,
    error_bound_constant,
    fit_rate,
    fixed_point,
    lyapunov,
    lyapunov_trace,
)
from .errors import (
    AnalysisError,
    ConfigError,
    DegenerateCurvatureError,
    DegenerateFitError,
    SingularPointError,
)
from .gossip import (
    GossipMatrix,
    GossipSchedule,
    complete_matrix,
    matrix_at,
    ring_matrix,
    round_table,
    spectral_gap,
)
from .localization import (
    LocalizationConfig,
    RangeResidualObjective,
    five_agent_gossip_pair,
    gd_contraction_factor,
    optimal_stepsize,
    target_hessian,
)
from .netsim import AuditReport, locality_audit, run_netsim
from .objective import (
    ContractionParams,
    Problem,
    QuadraticObjective,
    StrongSmoothParams,
    check_contraction,
    params_from_one_point_convexity,
    random_quadratic_problem,
    sample_ball,
)
from .trace import RunTrace

__version__ = "0.1.0"
