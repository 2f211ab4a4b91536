"""diolab: measures of multiplicative Diophantine approximation sets.

A laboratory for experiments around product-form approximation domains:
exact and closed-form region measures, deterministic Monte Carlo estimation
of truncated limsup sets, divergence-sum criteria, second-moment lower
bounds, and exact fiber-triviality checks on finite product spaces.
"""

from .arith import (
    PhiTable,
    coprime_gaps,
    coprime_residues,
    default_phi_table,
    dist_nearest,
    dist_nearest_coprime,
    euler_phi,
    padic_abs,
)
from .errors import (
    ConvergenceError,
    DiolabError,
    ResourceBudgetError,
    UndefinedBoundError,
    UndefinedRatioError,
)
from .borel_cantelli import (
    EventStats,
    bc_lower_bound,
    bc_scan,
    quasi_independence_ratio,
)
from .fibering import (
    DiscreteSpace,
    ProductSet,
    Triviality,
    cross_fibering_check,
    decompose,
    fiber_x,
    fiber_y,
    product_measure,
)
from .harness import (
    Battery,
    BatteryEntry,
    exact_event_stats_1d,
    run_bc_evidence,
    run_dichotomy_scan,
    run_padic,
    theorem2_demo_battery,
)
from .measure import MeasureEstimate
from .psi import (
    CONVERGENT,
    DIVERGENT,
    UNKNOWN,
    ApproxFunction,
    SumCriterion,
    WeightFn,
    adversarial_primorial,
    classify,
    cond1_ratio,
    cond1_scan,
    conditional_psi,
    family_from_spec,
    indicator_support,
    padic_weighted_psi,
    partial_sum,
    partial_sum_scan,
    power_log,
    psi_eval,
    table_psi,
)
from .regions import (
    IntervalUnion,
    PiecewiseCdf,
    RegionSpec,
    coprime_dist_cdf,
    intersection_matrix,
    product_region_measure_coprime,
    product_region_measure_plain,
    region_measure,
    region_measure_1d,
    slice_union,
    truncated_union_1d,
    uniform_product_cdf,
)
from .sampler import (
    GENERATOR_ID,
    ExperimentConfig,
    estimate_pairwise_intersection,
    estimate_union_measure,
    linear_forms_count,
    membership,
    sample_points,
    solution_count,
    solution_counts,
)

__version__ = "0.1.0"
