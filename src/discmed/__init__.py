"""Bi-criteria approximation solvers for median clustering with discounts."""

__version__ = "0.1.0"

from .instance import (
    Cardinality,
    ExplicitMatroid,
    Instance,
    InstanceError,
    Knapsack,
    Matroid,
    MetricSpace,
    PartitionMatroid,
    UniformMatroid,
    discounted_cost,
    generate,
    normalize,
    validate,
)
from .iterround import SolveReport, bicriteria_factors, solve_kmeddis, solve_matmeddis
from .knapsack import (
    knapsack_alpha,
    knapsack_est_coefficient,
    solve,
    solve_knapmeddis,
)
from .oracle import brute_opt, brute_stochastic_opt, check_bicriteria
from .stochastic import (
    StochasticInstance,
    StochasticPoint,
    eval_expected_max,
    generate_stochastic,
    realization_probs,
    solve_stochastic_center,
)

__all__ = [
    "Cardinality",
    "ExplicitMatroid",
    "Instance",
    "InstanceError",
    "Knapsack",
    "Matroid",
    "MetricSpace",
    "PartitionMatroid",
    "SolveReport",
    "StochasticInstance",
    "StochasticPoint",
    "UniformMatroid",
    "bicriteria_factors",
    "brute_opt",
    "brute_stochastic_opt",
    "check_bicriteria",
    "discounted_cost",
    "eval_expected_max",
    "generate",
    "generate_stochastic",
    "knapsack_alpha",
    "knapsack_est_coefficient",
    "normalize",
    "realization_probs",
    "solve",
    "solve_kmeddis",
    "solve_knapmeddis",
    "solve_matmeddis",
    "solve_stochastic_center",
    "validate",
]
