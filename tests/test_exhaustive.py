"""Bounded-exhaustive fault sequences: every two-fault script on the bundled
shop, under three policies.

The 37 faults are CF1, CF2 with magnitude 1 (below the exception threshold),
CF2 with magnitude 6 (past it) and CF3 on each of the 7 slots, and CF4 on
each of the 9 intended connectors. Each of the 37² scripts either runs both
rounds or stops with a ModelError; after each round it runs, the round's
violations equal the brute-force recount and the model's representation
invariant holds.
"""

import collections
import itertools
import os

import pytest

from healsim.faults import FaultInstance, FaultKind
from healsim.harness import ScenarioConfig, ScenarioRunner
from healsim.model import DATA_DIR, ModelError, default_blueprint
from healsim.rules import load_rules, parse_rules

from test_oracles import assert_rep_invariant, brute_validate

BLUEPRINT = default_blueprint()
FAULTS = [
    FaultInstance(kind, slot, magnitude)
    for slot, _ in BLUEPRINT.slots
    for kind, magnitude in ((FaultKind.CF1, None), (FaultKind.CF2, 1), (FaultKind.CF2, 6),
                            (FaultKind.CF3, None))
] + [FaultInstance(FaultKind.CF4, spec) for spec in BLUEPRINT.intended_connectors]

with open(os.path.join(DATA_DIR, "default.rules"), encoding="utf-8") as fh:
    BUNDLED_TEXT = fh.read()
DEGRADED_RULES = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "degraded.rules")
ESCALATE = 'rule "escalate" salience 10 when prior_failures_of_subject >= 2 then AS4\n'

# Per policy: how many scripts end with every round healed, with damage left
# standing after a round, or with a ModelError. The degraded policy leaves
# every CF4 unrepaired, so a script that removes one connector twice stops
# with TargetAbsent in its second round.
POLICIES = {
    "bundled": (lambda: parse_rules(BUNDLED_TEXT), {"healed": 1369}),
    "degraded": (lambda: load_rules(DEGRADED_RULES),
                 {"healed": 784, "standing": 576, "TargetAbsent": 9}),
    "escalation": (lambda: parse_rules(BUNDLED_TEXT + ESCALATE), {"healed": 1369}),
}


def test_the_faults_are_37_distinct_ones():
    assert len(FAULTS) == len(set(FAULTS)) == 37


@pytest.mark.parametrize("policy", POLICIES)
def test_every_two_fault_script_heals_or_stops_typed(policy):
    """Every script completes or raises a ModelError, each round's violations
    equal the brute-force recount, the representation invariant holds after
    each round, and under the bundled policy every round ends healed."""
    make_ruleset, expected = POLICIES[policy]
    ruleset = make_ruleset()
    ends = collections.Counter()
    for script in itertools.product(FAULTS, repeat=2):
        runner = ScenarioRunner(ScenarioConfig(seed=0, rounds=2, script=list(script)),
                                ruleset=ruleset, blueprint=BLUEPRINT)
        damaged = False  # whether a round it ran ended with a violation
        try:
            for _ in script:
                record = runner.run_round()
                assert record.post_violations == brute_validate(runner.model), script
                assert_rep_invariant(runner.model)
                damaged = damaged or record.post_violations != ()
                if policy == "bundled":
                    assert not damaged, script
        except ModelError as exc:
            ends[type(exc).__name__] += 1
        else:
            ends["standing" if damaged else "healed"] += 1
        finally:
            runner.close()
    assert ends == expected
