"""Decentralized gradient descent over time-varying gossip networks.

The method runs m rounds of gossip per gradient evaluation, where m is
derived from the contraction factor of the local gradient maps and the
spectral gap of the mixing matrices, and converges at the centralized
gradient-descent rate per gradient evaluation.
"""

from .algorithm import (
    AlgorithmParams,
    algorithm_iteration,
    centralized_gd,
    comm_rounds,
    dgd_baseline,
    run_algorithm,
    sigma0,
)
from .analysis import (
    FixedPoint,
    LyapunovRecord,
    average_part,
    decrease_terms,
    disagreement_part,
    error_bound_constant,
    fit_rate,
    fixed_point,
    locate_optimizer,
    lyapunov,
    lyapunov_trace,
)
from .errors import (
    AnalysisError,
    ConfigError,
    DegenerateCurvatureError,
    DegenerateFitError,
    ProtocolError,
    SingularPointError,
)
from .gossip import (
    GossipMatrix,
    GossipSchedule,
    complete_matrix,
    matrix_at,
    product_gap,
    ring_matrix,
    spectral_gap,
    validate_doubly_stochastic,
)
from .localization import (
    LocalizationConfig,
    RangeResidualObjective,
    five_agent_gossip_pair,
    gd_contraction_factor,
    optimal_stepsize,
    target_hessian,
)
from .netsim import AgentNode, AuditReport, locality_audit, run_netsim
from .objective import (
    ContractionParams,
    Problem,
    QuadraticObjective,
    StrongSmoothParams,
    check_contraction,
    finite_difference_gradient,
    params_from_one_point_convexity,
    random_quadratic_problem,
    sample_ball,
)
from .trace import RunTrace

__version__ = "0.1.0"
