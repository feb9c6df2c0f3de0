import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from healsim import harness, monitor
from healsim.faults import FaultInstance, FaultKind
from healsim.harness import (
    ConfigError,
    ScenarioConfig,
    ScenarioRunner,
    emit_reports,
    load_script,
    parse_planner_spec,
    run_scenario,
    scenario_json,
)
from healsim.model import ArchitectureModel, ConnectorSpec, blueprint_from_json, default_blueprint
from healsim.rules import NoMatch, Strategy, parse_rules

from test_golden import layered_blueprint_doc

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
REPORTS = ("scenario.json", "rounds.csv", "suspects.csv")
QS_REP = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")


def script_config(faults, **kw):
    return ScenarioConfig(seed=1, rounds=len(faults), script=faults, **kw)


def test_scripted_cf4_round():
    config = script_config([FaultInstance(FaultKind.CF4, QS_REP)])
    runner = ScenarioRunner(config)
    record = runner.run_round()
    assert len(record.reports) == 1
    assert record.reports[0].kind is FaultKind.CF4
    assert record.plans[0].strategy is Strategy.AS3
    assert record.plans[0].fired_rule == "reconnect-on-cf4"
    assert record.post_violations == ()
    assert 100 <= record.fault.injected_at <= 500
    runner.close()


def test_scripted_cf1_leaf_leaves_ledger_alone():
    config = script_config([FaultInstance(FaultKind.CF1, "Persistence Service")])
    runner = ScenarioRunner(config)
    record = runner.run_round()
    assert record.plans[0].strategy is Strategy.AS1
    assert runner.ledger.counters == {}
    assert record.post_violations == ()
    runner.close()


def test_empty_rule_file_fails_closed():
    config = script_config([FaultInstance(FaultKind.CF1, "Query Service")])
    runner = ScenarioRunner(config, ruleset=parse_rules(""))
    record = runner.run_round()
    assert record.plans == (NoMatch(),)
    assert record.executions == ()
    assert record.post_violations != ()
    assert runner.unhandled_failures == 1
    runner.close()


def test_zero_rounds():
    report = run_scenario(ScenarioConfig(seed=5, rounds=0))
    assert report.rounds == []
    assert report.suspects == []
    assert report.unhandled_failures == 0


def test_random_rounds_all_heal():
    report = run_scenario(ScenarioConfig(seed=42, rounds=50))
    assert len(report.rounds) == 50
    assert all(r.post_violations == () for r in report.rounds)
    assert report.unhandled_failures == 0
    # clock strictly increases round over round
    clocks = [r.clock_end for r in report.rounds]
    assert clocks == sorted(clocks) and len(set(clocks)) == 50


def test_same_seed_same_bytes(tmp_path):
    config_a = ScenarioConfig(seed=99, rounds=30, out_dir=str(tmp_path / "a"))
    config_b = ScenarioConfig(seed=99, rounds=30, out_dir=str(tmp_path / "b"))
    run_scenario(config_a)
    run_scenario(config_b)
    for name in ("scenario.json", "rounds.csv", "suspects.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seed_different_run():
    a = run_scenario(ScenarioConfig(seed=1, rounds=10))
    b = run_scenario(ScenarioConfig(seed=2, rounds=10))
    assert scenario_json(a) != scenario_json(b)


def test_report_id_and_history_thread_across_rounds():
    faults = [FaultInstance(FaultKind.CF1, "Query Service") for _ in range(3)]
    runner = ScenarioRunner(script_config(faults))
    records = [runner.run_round() for _ in range(3)]
    assert [r.reports[0].report_id for r in records] == [0, 1, 2]
    assert runner.history == {"Query Service": 3}
    assert runner.ledger.counters == {
        "Last Second Sales Item Filter": 3,
        "Reputation Service": 3,
    }
    runner.close()


def test_ledger_matches_brute_force_recount():
    report = run_scenario(ScenarioConfig(seed=7, rounds=40))
    recount = {}
    for record in report.rounds:
        for failure in record.reports:
            for slot in failure.dependent_slots:
                recount[slot] = recount.get(slot, 0) + 1
    assert report.counters == recount


def test_script_shorter_than_rounds_rejected():
    with pytest.raises(ConfigError, match="script"):
        ScenarioRunner(
            ScenarioConfig(seed=1, rounds=5, script=[FaultInstance(FaultKind.CF1, "Frontend")])
        )


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=1, rounds=-1)
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=1, rounds=1, exception_threshold=0)
    with pytest.raises(ConfigError, match="report directory"):
        ScenarioConfig(seed=1, rounds=1, out_dir="")


def test_parse_planner_spec():
    assert parse_planner_spec("inproc") is None
    assert parse_planner_spec("tcp://127.0.0.1:7464") == ("127.0.0.1", 7464)
    with pytest.raises(ConfigError):
        parse_planner_spec("udp://nope:1")
    with pytest.raises(ConfigError):
        parse_planner_spec("tcp://nohost")
    with pytest.raises(ConfigError):  # would wrap around to port 34463
        parse_planner_spec("tcp://127.0.0.1:99999")


def test_load_script(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps(
            [
                {"kind": "CF1", "target": "Query Service"},
                {"kind": "CF2", "target": "Bid Service", "magnitude": 7},
                {"kind": "CF4", "target": {"from": "Query Service", "to": "Reputation Service"}},
            ]
        ),
        encoding="utf-8",
    )
    faults = load_script(str(path), default_blueprint())
    assert [f.kind for f in faults] == [FaultKind.CF1, FaultKind.CF2, FaultKind.CF4]
    assert faults[1].magnitude == 7
    assert faults[2].target == QS_REP


@pytest.mark.parametrize(
    "entry,fragment",
    [
        ({"kind": "CF7", "target": "Frontend"}, "unknown kind"),
        ({"kind": "CF1", "target": "Nope"}, "unknown slot"),
        ({"kind": "CF2", "target": "Frontend"}, "magnitude"),
        ({"kind": "CF1", "target": "Frontend", "magnitude": 3}, "magnitude"),
        ({"kind": "CF4", "target": "Frontend"}, "CF4 target"),
        ({"kind": "CF4", "target": {"from": "Frontend", "to": "Persistence Service"}},
         "no intended connector"),
        ({"kind": "CF4", "target": {"from": ["Frontend"], "to": "Query Service"}},
         "no intended connector"),
        (["CF1", "Frontend"], "^script entry 0: expected an object$"),
    ],
)
def test_load_script_rejects_bad_entries(tmp_path, entry, fragment):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(ConfigError, match=fragment):
        load_script(str(path), default_blueprint())


def test_load_script_rejects_a_document_that_is_not_a_list(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"kind": "CF1", "target": "Frontend"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="^script must be a JSON list of faults$"):
        load_script(str(path), default_blueprint())


def test_emit_reports_files(tmp_path):
    faults = [
        FaultInstance(FaultKind.CF4, QS_REP),
        FaultInstance(FaultKind.CF2, "Bid Service", magnitude=8),
    ]
    report = run_scenario(script_config(faults, out_dir=str(tmp_path)))
    rounds_csv = (tmp_path / "rounds.csv").read_text(encoding="utf-8").splitlines()
    assert rounds_csv[0] == (
        "round,clock,fault_kind,fault_target,reports,plans,strategies,"
        "post_violations,unhandled"
    )
    assert len(rounds_csv) == 3
    assert rounds_csv[1].startswith("1,")
    assert ",CF4,Query Service->Reputation Service,1,1,AS3,0,0" in rounds_csv[1]
    assert ",CF2,Bid Service,1,1,AS4,0,0" in rounds_csv[2]

    doc = json.loads((tmp_path / "scenario.json").read_text(encoding="utf-8"))
    assert doc["config"]["seed"] == 1
    assert "out_dir" not in doc["config"]
    assert len(doc["rounds"]) == 2
    assert doc["rounds"][0]["plans"][0]["fired_rule"] == "reconnect-on-cf4"
    assert doc["unhandled_failures"] == 0

    suspects_csv = (tmp_path / "suspects.csv").read_text(encoding="utf-8")
    assert suspects_csv == "component,count,implicated_by,first_at,last_at\n"


def test_scenario_json_is_canonical():
    report = run_scenario(ScenarioConfig(seed=11, rounds=3))
    blob = scenario_json(report)
    assert blob.endswith(b"\n")
    parsed = json.loads(blob)
    recoded = json.dumps(parsed, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    assert blob == recoded


def test_report_emission_streams(tmp_path):
    """Writing the reports adds a small fraction of what the run itself keeps:
    scenario.json goes out a round at a time, not as one document."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=2000))
        report = runner.run()
        runner.close()
        retained = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        emit_reports(report, str(tmp_path))
        emission_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (tmp_path / "scenario.json").read_bytes() == scenario_json(report)
    assert emission_peak < retained / 4, (emission_peak, retained)


def test_a_rerun_writes_new_files_and_leaves_a_hard_link_with_the_old_bytes(tmp_path):
    """Each report is written to a new file, never truncated in place: a hard
    link made to the first run's scenario.json keeps that run's bytes."""
    out = tmp_path / "out"
    run_scenario(ScenarioConfig(seed=1, rounds=20, out_dir=str(out)))
    first = {name: (out / name).read_bytes() for name in REPORTS}
    os.link(out / "scenario.json", tmp_path / "kept.json")
    run_scenario(ScenarioConfig(seed=2, rounds=30, out_dir=str(out)))
    assert (tmp_path / "kept.json").read_bytes() == first["scenario.json"]
    assert (out / "scenario.json").read_bytes() != first["scenario.json"]
    assert os.stat(out / "scenario.json").st_nlink == 1


def test_a_rerun_into_the_same_directory_is_byte_identical(tmp_path):
    config = ScenarioConfig(seed=42, rounds=200, out_dir=str(tmp_path))
    runs = []
    for _ in range(3):
        run_scenario(config)
        runs.append({name: (tmp_path / name).read_bytes() for name in REPORTS})
    assert runs[0] == runs[1] == runs[2]
    assert sorted(os.listdir(tmp_path)) == sorted(REPORTS)


def test_a_directory_at_a_report_path_is_a_config_error(tmp_path):
    """So is an --out that is a regular file, or that lies under one."""
    (tmp_path / "reports").mkdir()
    (tmp_path / "reports" / "rounds.csv").mkdir()
    (tmp_path / "plain").write_text("not a directory\n", encoding="utf-8")
    report = run_scenario(ScenarioConfig(seed=1, rounds=5))
    for out in (tmp_path / "reports", tmp_path / "plain", tmp_path / "plain" / "below"):
        with pytest.raises(ConfigError, match=f"^cannot write reports under {re.escape(str(out))}: "):
            emit_reports(report, str(out))
        proc = subprocess.run(
            [sys.executable, "-m", "healsim.cli", "run", "--seed", "1", "--rounds", "5",
             "--out", str(out)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: cannot write reports under {out}: ")
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert (tmp_path / "plain").read_text(encoding="utf-8") == "not a directory\n"


def test_a_symlink_at_a_report_path_is_replaced_and_its_target_kept(tmp_path):
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"not a report\n")
    out = tmp_path / "out"
    out.mkdir()
    os.symlink(target, out / "suspects.csv")
    report = run_scenario(ScenarioConfig(seed=1, rounds=20, out_dir=str(out)))
    assert not os.path.islink(out / "suspects.csv")
    assert (out / "suspects.csv").read_text(encoding="utf-8").startswith("component,count,")
    assert len((out / "suspects.csv").read_text(encoding="utf-8").splitlines()) == (
        1 + len(report.suspects))
    assert target.read_bytes() == b"not a report\n"


def test_compound_damage_is_recorded_not_masked():
    # CF3 with a rule file that cannot handle CF3: damage persists into the
    # next round's validation
    faults = [
        FaultInstance(FaultKind.CF3, "Reputation Service"),
        FaultInstance(FaultKind.CF1, "Frontend"),
    ]
    ruleset = parse_rules('rule "only-cf1" when kind == CF1 then AS1')
    runner = ScenarioRunner(script_config(faults), ruleset=ruleset)
    first = runner.run_round()
    assert first.plans == (NoMatch(),)
    assert first.post_violations != ()
    second = runner.run_round()
    assert second.plans[0].strategy is Strategy.AS1
    assert second.post_violations != ()  # CF3 hole still there
    assert runner.unhandled_failures == 1
    runner.close()


def test_rounds_build_no_whole_blueprint_view(monkeypatch):
    """A round reads only what changed: on a 3200-slot blueprint, 50 rounds
    take no snapshot and list no slots or connectors."""
    def whole_blueprint_view(*args):
        raise AssertionError("a round built a whole-blueprint view")

    for owner, name in [(ArchitectureModel, "slot_views"), (ArchitectureModel, "live_connectors"),
                        (ArchitectureModel, "present_slots"), (harness, "take_snapshot"),
                        (monitor, "take_snapshot")]:
        monkeypatch.setattr(owner, name, whole_blueprint_view)
    blueprint = blueprint_from_json(layered_blueprint_doc(3200))
    runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=50), blueprint=blueprint)
    assert len(runner.run().rounds) == 50
    runner.close()
