"""Dual-time-scale dynamic traffic assignment with VMS en-route diversion
and day-to-day compliance learning."""

from .network import (
    DepartureProfile,
    Link,
    Network,
    ODPair,
    Path,
    ScenarioError,
    TimeGrid,
    VmsSign,
    affected_ods,
    load_scenario,
    paths_through_vms,
)
from .dnl import (
    DnlError,
    DnlResult,
    revise_turning_ratios,
    run_dnl,
)
from .compliance import (
    ComplianceParams,
    ComplianceState,
    PairContext,
    apply_threshold,
    average_saving,
    average_time,
    build_pair_contexts,
    compliance_logit,
    initial_state,
    step_compliance,
    time_std,
    update_perception,
)
from .daytoday import (
    DayRecord,
    DayToDayError,
    PenaltyFunction,
    RunResult,
    SolverConfig,
    br_cost,
    cost_table,
    min_od_cost,
    phi_table,
    relative_gap,
    run_day_to_day,
    solve_eta,
    travel_cost,
    update_departures,
)
from .scenario import (
    RunConfig,
    ScenarioBundle,
    fig1_config,
    fig1_network,
    load_bundle,
    parse_config,
    run_bundle,
    run_sweep,
    write_fig1_fixture,
    write_outputs,
)

__version__ = "0.1.0"
