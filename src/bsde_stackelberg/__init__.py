"""Stackelberg equilibria of linear-quadratic games driven by BSDEs.

Feedback representations via four Riccati equations, pathwise Monte
Carlo reconstruction of the equilibrium trajectories, independent
brute-force optimality oracles, and an optimal-consumption application.
"""

from .model import (
    AffineControl,
    CoefficientPath,
    Dimensions,
    LQGameSpec,
    SpecError,
    TerminalCondition,
    TimeGrid,
    ValidationReport,
    Violation,
    eval_coefficient,
    validate_spec,
)
from .odeint import (
    ConsistencyError,
    DivergenceError,
    OdeDirection,
    SingularityError,
    integrate_matrix_ode,
    matrix_exponential,
)
from .riccati import (
    RiccatiPath,
    StackedSystem,
    UnsolvableError,
    build_stacked_system,
    follower_system,
    pi1_closed_form,
    pi2_closed_form,
    riccati_chain,
    riccati_residual,
    solve_p1,
    solve_p2,
    solve_pi1,
    solve_pi2,
)
from .sampling import MonteCarloConfig, PathBundle, coarsen, sample_brownian
from .stacked import (
    form_samples,
    simulate_tilde_varphi,
    solve_tilde_phi,
    structural_defects,
)
from .follower import (
    follower_cost_table,
    follower_kernel,
    follower_summary,
)
from .leader import (
    StackelbergSolution,
    equilibrium_layer,
    equilibrium_summary,
)
from .oracle import (
    DiscreteLQProblem,
    NonConvexError,
    OracleResult,
    build_discrete_problem,
    deterministic_follower_oracle,
    deterministic_leader_oracle,
)
from .finance import MarketParams, build_finance_spec, consumption_summary
from .scenario import (
    Scenario,
    hand_solvable_scenario,
    load_scenario,
    make_constant_spec,
    stochastic_scenario,
)

__version__ = "0.1.0"
