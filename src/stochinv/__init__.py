"""Distributions over combinatorial structures from perturbed recursions.

A structure (subset, permutation, matching, binary tree, spanning tree,
arborescence) is defined as the output of a greedy recursive algorithm run
on exponentially perturbed inputs.  The package computes exact trace
log-probabilities and analytic scores, samples utilities conditioned on a
trace, provides unbiased score-function gradient estimators with variance
reduction, and validates everything against a brute-force enumeration
oracle.
"""

from .core import (
    CondBuildRecord,
    StructureDefinition,
    Trace,
    cond_jacobian_vjp,
    cond_sample,
    replay_conditional,
    run_struct,
    trace_log_prob,
    trace_score,
    value_from_trace,
)
from .errors import (
    InfeasibleGraphError,
    InstanceTooLargeError,
    InvalidArgumentError,
    InvalidControlVariateError,
    InvalidParameterError,
    InvalidTraceError,
    StochinvError,
    StructureDefinitionError,
)
from .estimators import (
    ControlVariate,
    EstimatorReport,
    grad_e_reinforce,
    grad_loo,
    grad_relax,
    grad_t_reinforce,
    quadratic_control_variate,
    utility_score,
    zero_control_variate,
)
from .oracle import (
    DEFAULT_MAX_TRACES,
    EnumeratedDistribution,
    TraceTable,
    chi_square_fit,
    enumerate_distribution,
    exact_gradient,
    ks_exponential,
)
from .perturb import (
    GradientVector,
    KeyedVector,
    ThetaVector,
    Utilities,
    sample_utilities,
    sample_utilities_matrix,
)
from .structures import (
    Argsort,
    Arborescence,
    BinaryTree,
    Matching,
    SpanningTree,
    TopK,
    TreeNode,
    hamming_distance,
)

__version__ = "0.1.0"
