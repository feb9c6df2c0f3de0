"""healsim: a deterministic self-healing architecture simulator.

Faults (CF1..CF4) are injected into a component/connector model on a
seeded schedule; a monitor/analyze/plan/execute loop detects them, selects
repairs (AS1..AS4) through a rule engine running in-process or behind a
TCP service, applies them, and validates the result against the blueprint.
"""

from .analyzer import (
    FailureReport,
    RootCauseLedger,
    RootCauseSuspect,
    classify,
    write_suspect_report,
)
from .executor import ExecutionResult, execute
from .faults import FaultInstance, FaultKind, NoEligibleTarget, Rng, draw_fault, draw_interval, inject
from .harness import (
    ConfigError,
    RoundRecord,
    ScenarioConfig,
    ScenarioReport,
    ScenarioRunner,
    emit_reports,
    load_script,
    run_scenario,
    scenario_json,
)
from .model import (
    ArchitectureModel,
    Blueprint,
    Component,
    ComponentState,
    ComponentType,
    ConnectorSpec,
    Violation,
    ViolationKind,
    build_default_model,
    default_blueprint,
    instantiate_blueprint,
    load_blueprint,
    render_subject,
    validate,
)
from .monitor import ChangeEvent, EventKind, Snapshot, observe, observe_changes, take_snapshot
from .planner import (
    InProcessPlanner,
    PlanRequest,
    PlanResponse,
    PlanService,
    RemotePlanner,
    decode,
    encode,
    request_plan,
)
from .rules import (
    Fact,
    NoMatch,
    RepairPlan,
    Rule,
    RuleSet,
    Strategy,
    default_ruleset,
    evaluate,
    parse_rules,
)

__version__ = "0.1.0"
