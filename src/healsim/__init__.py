"""healsim: a deterministic self-healing architecture simulator.

Faults (CF1..CF4) are injected into a component/connector model on a
seeded schedule; a monitor/analyze/plan/execute loop detects them, selects
repairs (AS1..AS4) through a rule engine running in-process or behind a
TCP service, applies them, and validates the result against the blueprint.

The package root holds the names a caller needs to build and run a
scenario; everything else is imported from its module.
"""

from . import harness, planner
from .analyzer import RootCauseLedger
from .faults import FaultKind
from .harness import ScenarioConfig, ScenarioRunner, run_scenario
from .model import ArchitectureModel, default_blueprint, load_blueprint
from .planner import RemotePlanner
from .rules import Fact, default_ruleset

__version__ = "0.1.0"
