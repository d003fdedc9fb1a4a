"""Minimax-regret facility location for agents reporting intervals.

A facility must be placed on [0, B] given only interval reports of the
agents' preferred locations.  The package computes minimax-regret-optimal
locations for the average-cost and maximum-cost objectives, runs the
grid-snapping mechanisms that carry additive worst-case guarantees, and
audits mechanisms for profitable deviations.
"""

from .core import (
    Grid,
    Instance,
    Interval,
    InvalidInstanceError,
    SortedEndpoints,
    build_grid,
    sorted_endpoints,
    validate_instance,
)
from .dominance import (
    AdversarialScript,
    DeviationGrid,
    DominanceReport,
    GridAttackTarget,
    check_minimax_dominance,
    check_very_weak_dominance_exact,
    gen_fine_grid_attack,
    gen_finite_range_attack,
    gen_onto_attack,
    gen_vwd_chain,
)
from .mechanisms import (
    MechanismError,
    MechanismKind,
    MechanismOutcome,
    MechanismSpec,
    run_mechanism,
    select_representative,
)
from .optimal import (
    BreakpointState,
    SolveResult,
    breakpoint_state,
    grid_search_minimax,
    solve_minimax_avgcost,
    solve_minimax_maxcost,
)
from .regret import (
    ORACLE_CAP,
    Objective,
    OracleScaleError,
    RegretEvaluation,
    agent_max_regret,
    avgcost_max_regret,
    brute_force_max_regret,
    brute_force_max_regret_batch,
    maxcost_max_regret,
    regret_of,
)
from .cli import (
    ExperimentConfig,
    ExperimentRow,
    load_instance,
    random_instance,
    rows_to_csv,
    run_experiment,
    theoretical_bound,
)

__version__ = "0.1.0"
