"""Two-sided assortment optimization with pairwise revenues under MNL choice.

Library layout:

* :mod:`~twosided.instance` -- platform instances, generators, file format
* :mod:`~twosided.mnl` -- choice probabilities and supplier revenue functions
* :mod:`~twosided.cost_assortment` -- assortment optimization with fixed costs
* :mod:`~twosided.simplex` / :mod:`~twosided.lp` -- exact LP machinery
* :mod:`~twosided.ellipsoid` -- constraint-generation solve of the marginal LP
* :mod:`~twosided.rounding` -- marginals to nested assortment distributions
* :mod:`~twosided.policies` -- executable policies and exact oracles
* :mod:`~twosided.evaluate` -- Monte Carlo and structural property checks
* :mod:`~twosided.cli` -- the ``twosided`` command
"""

from .instance import (
    Instance,
    SameOrderCertificate,
    detect_same_order,
    generate,
    load_instance,
    normalize_revenues,
    save_instance,
    validate,
)
from .mnl import (
    SizeLimitError,
    choice_prob,
    expected_revenue,
    g_marginal,
    optimal_revenue,
    optimal_revenue_bruteforce,
)
from .cost_assortment import SubDualOracle, rev_cost
from .simplex import LinearProgram, LpResult, LpSolverError, solve_lp
from .lp import (
    DualPoint,
    LpSolution,
    ViolatedSets,
    build_aux_primal,
    dual_feasibility_report,
    lp1_exact_small,
    lp2_exact_small,
)
from .ellipsoid import EllipsoidResult, run_ellipsoid, solve_restricted
from .rounding import AssortmentDistribution, mnl_distribution, validate_marginals
from .policies import (
    PolicyOutcome,
    PolicyPreconditionError,
    PolicyTable,
    RandomizedStaticPolicy,
    SameOrderGreedyPolicy,
    best_marginal_assortment,
    exact_dp_atar,
    exact_dp_ftar,
    exact_star,
)
from .evaluate import (
    PropertyReport,
    SubsetDistribution,
    correlation_gap_check,
    cost_sharing_check,
    interleaved_partition_check,
    monte_carlo,
    submodular_order_check,
    submodularity_check,
)

__version__ = "0.1.0"
