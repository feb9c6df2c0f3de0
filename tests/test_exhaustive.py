"""Bounded-exhaustive fault sequences: every script of DEPTH faults on the
bundled shop, under three policies.

The 37 faults are CF1, CF2 with magnitude 1 (below the exception threshold),
CF2 with magnitude 6 (past it) and CF3 on each of the 7 slots, and CF4 on
each of the 9 intended connectors. Each of the 37^DEPTH scripts either runs
all its rounds or stops with a ModelError; after each round it runs, the
round's violations equal the brute-force recount and the model's
representation invariant holds.

DEPTH is 2, or what the environment variable HEALSIM_EXHAUSTIVE_DEPTH says:
2 or 3, the depths whose ending counts are pinned below. Depth 3 takes about
37 times as long as depth 2, so tier-1 runs depth 2 and CI a step of depth 3:

    HEALSIM_EXHAUSTIVE_DEPTH=3 PYTHONPATH=src python -m pytest -q tests/test_exhaustive.py
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

DEPTH = int(os.environ.get("HEALSIM_EXHAUSTIVE_DEPTH", "2"))

# Per policy and depth: how many scripts end with every round healed, with
# damage left standing after a round, or with a ModelError. The degraded
# policy leaves every CF4 unrepaired, so a script that removes one connector
# twice stops with TargetAbsent. Under the escalation policy, a third CF4 on
# one connector fires "escalate", whose AS4 names the connector as a slot:
# UnknownSlot.
POLICIES = {
    "bundled": (lambda: parse_rules(BUNDLED_TEXT), {2: {"healed": 1369}, 3: {"healed": 50653}}),
    "degraded": (lambda: load_rules(DEGRADED_RULES), {
        2: {"healed": 784, "standing": 576, "TargetAbsent": 9},
        3: {"healed": 21952, "standing": 27756, "TargetAbsent": 945}}),
    "escalation": (lambda: parse_rules(BUNDLED_TEXT + ESCALATE),
                   {2: {"healed": 1369}, 3: {"healed": 50644, "UnknownSlot": 9}}),
}


def test_the_faults_are_37_distinct_ones():
    assert len(FAULTS) == len(set(FAULTS)) == 37


@pytest.mark.parametrize("policy", POLICIES)
def test_every_two_fault_script_heals_or_stops_typed(policy):
    """Every script completes or raises a ModelError, each round's violations
    equal the brute-force recount, the representation invariant holds after
    each round, and under the bundled policy every round ends healed. Each
    script has DEPTH faults, two in tier-1."""
    make_ruleset, expected = POLICIES[policy]
    expected = expected[DEPTH]  # a KeyError at a depth with no pinned counts
    ruleset = make_ruleset()
    ends = collections.Counter()
    for script in itertools.product(FAULTS, repeat=DEPTH):
        runner = ScenarioRunner(ScenarioConfig(seed=0, rounds=DEPTH, script=list(script)),
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
