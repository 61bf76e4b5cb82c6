"""Cooperative HVAC scheduling with peer-to-peer energy trading.

Each user schedules renewables, grid draw, and HVAC power against a
two-part tariff and a comfort band.  Users then trade energy pairwise
through a consensus loop run by a coordinator that only ever sees trade
quantities, never private parameters or schedules.
"""

from .agent import LocalAgent, build_user_qp, solve_emp
from .coordinator import (
    AdmmConfig,
    CoordinatorState,
    convergence_error,
    dual_update,
    hlp_update,
    relaxed_proposals,
    run,
)
from .errors import (
    DecodeError,
    HvacTradeError,
    InfeasibleError,
    NonConvergenceError,
    ProtocolViolation,
    ScenarioError,
    SynchronizationTimeout,
)
from .model import (
    Schedule,
    Tariff,
    TimeGrid,
    UserParams,
    discomfort_cost,
    grid_cost,
    operating_cost,
    trading_payment,
)
from .protocol import CoordinatorBroadcast, TradeProposal, decode, encode
from .reports import ScenarioReport, UserResult, write_report
from .scenario import (
    ScenarioConfig,
    build_synth_scenario,
    load_scenario,
    save_scenario,
    synth_traces,
)

__version__ = "0.1.0"
