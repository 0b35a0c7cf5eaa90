"""Exact solvers for two-player concurrent stochastic games.

Reachability and safety objectives, value iteration, strategy improvement
for both objectives, a convergent k-uniform safety variant, and a two-sided
epsilon certifier.  All arithmetic is exact rational.
"""

from .model import (
    BudgetExceeded,
    GameError,
    GameStructure,
    Selector,
    TurnBasedGame,
    Valuation,
    encode_turn_based_as_concurrent,
    indicator,
    make_absorbing,
    swap_players,
    uniform_selector,
)
from .gamefile import GameFormatError, load_game, parse_game, serialize_game
from .matrix import (
    MatrixGame,
    MatrixSolution,
    enumerate_k_uniform,
    one_step_matrix,
    pre1,
    pre1_k,
    solve_matrix_game,
)
from .mdp import (
    ImproperSelectorError,
    InducedMDP,
    compute_W2,
    induce_mdp,
    max_reach_values,
    strategy_value_reach,
    strategy_value_safety,
    tb_almost_sure_safe,
    tb_attractor,
)
from .value_iter import (
    HypothesisViolation,
    IterationTrace,
    NotAFixpoint,
    eta_achieved_values,
    extract_eta_selector,
    extract_optimal_safety_selector,
    reach_value_iteration,
    safety_value_iteration_upper,
)
from .reach_si import (
    ReachSIRunner,
    Runner,
    STATUS_CAPPED,
    STATUS_EPS,
    STATUS_EXACT,
    TurnBasedReachRunner,
)
from .safety_si import (
    ConvergentSafetyRunner,
    SafetySIRunner,
    SupportPair,
    TBReduction,
    improvement_switches,
    opt_sel_count,
    run_k_uniform_si,
    tb_reduction,
)
from .certify import Certifier

__all__ = [name for name in dir() if not name.startswith("_")]
