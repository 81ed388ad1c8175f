"""Geometry-aware policy optimization for discrete-time LTI feedback:
Lyapunov machinery, certified LQR descent, structured gains, dynamic
output feedback with a similarity-invariant metric, H-infinity descent,
and zeroth-order estimation."""

from .errors import (
    BoundaryError,
    ConfigError,
    ContractError,
    DimensionError,
    GramianSingularError,
    InfeasibleError,
    InternalInvariantError,
    MinimalityLostError,
    NotSchurStableError,
    PolgeoError,
    SingularMatrixError,
    StalledError,
)
from .lyapunov import dlyap, dlyap_diff
from .numerics import (
    hermitian_lambda_max,
    matrix_rank,
    solve_linear,
    spectral_norm,
    spectral_radius,
    sym_lambda_max,
    sym_lambda_min,
)
from .policy_core import (
    ConstraintSubspace,
    DynamicPolicy,
    Frobenius,
    LyapunovMetric,
    Plant,
    StaticGain,
    closed_loop_matrix_dynamic,
    closed_loop_static,
    connectivity_scan,
    is_stabilizing_dynamic,
    is_stabilizing_static,
    landscape_slice,
    lyapunov_step_bound,
    stability_certificate,
    write_grid_csv,
)
from .lqr import (
    CertificateStep,
    FixedStep,
    IterTrace,
    LqrEval,
    dare_solve,
    gd_run,
    hewer_step,
    lqr_eval,
    lqr_grad_euclidean,
    lqr_grad_riemannian,
    lqr_hvp_euclidean,
    lqr_hvp_pseudo,
    s_map,
    write_trace_jsonl,
)
from .structured import structured_gd_run, structured_grad, tangential_project
from .lqg import (
    km_grad,
    km_inner,
    lqg_eval,
    lqg_gd_run,
    lqg_grad,
    gramians,
    is_minimal,
    saddle_policy,
    similarity_transform,
    transform_tangent,
)
from .hinf import HinfEval, hinf_cost, hinf_descent_run, hinf_freq_response
from .zeroth import (
    ZoConfig,
    estimate_gradient,
    sample_sphere,
    zo_gd_run,
    zo_grad_baseline,
    zo_grad_one_point,
    zo_grad_two_point,
)

__version__ = "0.1.0"
