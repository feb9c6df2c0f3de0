"""Metamorphic relations over whole runs: what must hold between the reports
of two runs with different configs, for any config a test draws.

prefix: a run of N rounds is the first N rounds of the same run with M > N
rounds. Its ``rounds.csv`` is a byte prefix of the longer run's, and the
rounds of its ``scenario.json`` are the first N rounds of the longer run's.

file order: permuting the rule lines of a policy changes no byte of the
three reports. In the bundled policy and in ``bench/degraded.rules`` no two
rules of one kind share a salience, so the first match never depends on
which of them the file lists first.
"""

import json
import os
import tempfile

from hypothesis import assume, given, settings, strategies as st

from healsim.faults import NoEligibleTarget
from healsim.harness import ScenarioConfig, ScenarioRunner, emit_reports, report_stream
from healsim.model import DATA_DIR, ModelError, blueprint_from_json, default_blueprint
from healsim.rules import default_ruleset, load_rules, parse_rules

from test_golden import layered_blueprint_doc

DEGRADED_RULES = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "degraded.rules")
BLUEPRINTS = {
    "shop": default_blueprint(),
    "layered-50": blueprint_from_json(layered_blueprint_doc(50)),
}
POLICIES = {  # name -> (the rules path a run echoes, the rule set)
    "bundled": (None, default_ruleset()),
    "degraded": (DEGRADED_RULES, load_rules(DEGRADED_RULES)),
}


def reports(blueprint: str, policy: str, seed: int, rounds: int,
            out_dir: str) -> tuple[dict, bytes]:
    """The parsed scenario.json and the rounds.csv bytes of one in-process run."""
    rules_path, ruleset = POLICIES[policy]
    config = ScenarioConfig(seed=seed, rounds=rounds, rules_path=rules_path)
    runner = ScenarioRunner(config, ruleset=ruleset, blueprint=BLUEPRINTS[blueprint])
    try:
        report = runner.run()
    finally:
        runner.close()
    paths = emit_reports(report, out_dir)
    with open(paths["scenario"], "rb") as fh:
        scenario = json.load(fh)
    with open(paths["rounds"], "rb") as fh:
        return scenario, fh.read()


@settings(max_examples=30, deadline=None)
@given(blueprint=st.sampled_from(sorted(BLUEPRINTS)), policy=st.sampled_from(sorted(POLICIES)),
       seed=st.integers(0, 2**64 - 1), data=st.data())
def test_a_shorter_run_is_a_prefix_of_a_longer_one(blueprint, policy, seed, data):
    longer = data.draw(st.integers(2, 200), label="M")
    shorter = data.draw(st.integers(1, longer - 1), label="N")
    with tempfile.TemporaryDirectory() as out:
        try:
            long_doc, long_csv = reports(blueprint, policy, seed, longer, os.path.join(out, "long"))
        except (NoEligibleTarget, ModelError):
            assume(False)  # a typed abort: the run has no reports to compare
        short_doc, short_csv = reports(blueprint, policy, seed, shorter, os.path.join(out, "short"))
    assert long_csv.startswith(short_csv) and long_csv.count(b"\n") == longer + 1
    assert short_csv.count(b"\n") == shorter + 1
    assert short_doc["rounds"] == long_doc["rounds"][:shorter]
    assert short_doc["config"] == {**long_doc["config"], "rounds": shorter}


def rule_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.startswith("rule ")]


RULE_LINES = {  # policy -> its rule lines, in file order
    "bundled": rule_lines(os.path.join(DATA_DIR, "default.rules")),
    "degraded": rule_lines(DEGRADED_RULES),
}


def report_text(blueprint: str, policy: str, seed: int, ruleset) -> tuple[str, str, str]:
    """The three reports of a 40-round in-process run under ``ruleset``, which
    echoes the path of ``policy``."""
    config = ScenarioConfig(seed=seed, rounds=40, rules_path=POLICIES[policy][0])
    runner = ScenarioRunner(config, ruleset=ruleset, blueprint=BLUEPRINTS[blueprint])
    try:
        report = runner.run()
    finally:
        runner.close()
    return tuple("".join(pieces) for pieces in zip(*report_stream(report)))


@settings(max_examples=12, deadline=None)
@given(blueprint=st.sampled_from(sorted(BLUEPRINTS)), policy=st.sampled_from(sorted(POLICIES)),
       seed=st.integers(0, 2**64 - 1), data=st.data())
def test_permuting_the_rule_lines_changes_no_report_byte(blueprint, policy, seed, data):
    lines = RULE_LINES[policy]
    permuted = data.draw(st.permutations(lines), label="rule lines")
    try:
        expected = report_text(blueprint, policy, seed, POLICIES[policy][1])
    except (NoEligibleTarget, ModelError):
        assume(False)  # a typed abort: the run has no reports to compare
    assert report_text(blueprint, policy, seed, parse_rules("\n".join(permuted))) == expected
