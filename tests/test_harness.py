import collections
import gc
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest

from healsim import harness, monitor
from healsim.faults import FaultInstance, FaultKind, inject
from healsim.harness import (
    ConfigError,
    RoundRecord,
    ScenarioConfig,
    ScenarioReport,
    ScenarioRunner,
    emit_reports,
    load_script,
    parse_planner_spec,
    run_scenario,
    scenario_json,
)
from healsim.model import (
    ArchitectureModel,
    ConnectorSpec,
    Violation,
    ViolationKind,
    blueprint_from_json,
    default_blueprint,
)
from healsim.rules import NoMatch, Strategy, load_rules, parse_rules

from test_golden import layered_blueprint_doc
from views import RecordingRunner, run_recorded

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
REPORTS = ("scenario.json", "rounds.csv", "suspects.csv")
QS_REP = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")
DEGRADED_RULES = os.path.join(SRC, os.pardir, "bench", "degraded.rules")


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
    report, records = run_recorded(ScenarioConfig(seed=5, rounds=0))
    assert records == [] and report.batches == [] and report.healed == 0
    assert report.suspects == []
    assert report.unhandled_failures == 0


def test_random_rounds_all_heal():
    report, records = run_recorded(ScenarioConfig(seed=42, rounds=50))
    assert len(records) == 50 == report.healed
    assert all(r.post_violations == () for r in records)
    assert report.unhandled_failures == 0
    # clock strictly increases round over round
    clocks = [r.clock_end for r in records]
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
    report, records = run_recorded(ScenarioConfig(seed=7, rounds=40))
    recount = {}
    for record in records:
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
    for numbers in ((True, 1, 5, 3), (1, 2.0, 5, 3), (1, 1, None, 3), (1, 1, 5, False)):
        with pytest.raises(ConfigError, match="^seed, rounds and thresholds must be integers$"):
            ScenarioConfig(*numbers)


@pytest.mark.parametrize("field, value", [
    ("planner", None), ("planner", b"inproc"), ("rules_path", pathlib.Path("default.rules")),
    ("blueprint_path", 7), ("script_path", pathlib.Path("script.json")),
    ("script", [1]), ("script", "CF1"), ("script", FaultInstance(FaultKind.CF1, "Frontend")),
    ("script", (FaultInstance(FaultKind.CF1, "Frontend"), None)),
])
def test_config_rejects_a_planner_or_path_of_the_wrong_type(field, value, tmp_path):
    """scenario.json echoes the planner and the paths as JSON strings or null,
    and the rounds read the script's faults, so any other type is refused
    before a round runs and no report is begun."""
    with pytest.raises(ConfigError, match=(
            "^the planner must be a string, each path a string or None, "
            "and the script None or a list or tuple of faults$")):
        run_scenario(ScenarioConfig(seed=1, rounds=3, out_dir=str(tmp_path / "out"),
                                    **{field: value}))
    assert not (tmp_path / "out").exists()


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


def test_one_emission_reads_each_round_and_each_suspect_once(tmp_path, monkeypatch):
    """The three reports are one stream over what the run rendered: the
    runner's renderer formats each record exactly once, as its batch fills
    or as the run ends, and emit_reports renders nothing and reads
    report.suspects in one pass."""
    rendered = collections.Counter()

    def counting_renderer(_make=harness.round_renderer):
        render = _make()

        def counted(record):
            rendered[record.index] += 1
            return render(record)
        return counted

    monkeypatch.setattr(harness, "round_renderer", counting_renderer)
    report = run_scenario(ScenarioConfig(seed=42, rounds=150))
    assert rendered == collections.Counter(range(1, 151))
    assert len(report.batches) == 3 and report.suspects
    reads = collections.Counter()

    class Counted(list):
        def __getitem__(self, index):
            reads[index.start if isinstance(index, slice) else index] += 1
            return super().__getitem__(index)

        def __iter__(self):
            reads["iter"] += 1
            return super().__iter__()

    counted = ScenarioReport(report.config, report.batches, report.counters,
                             Counted(report.suspects), report.unhandled_failures, report.healed)
    emit_reports(counted, str(tmp_path))
    assert rendered == collections.Counter(range(1, 151))
    assert reads == {"iter": 1}
    assert (tmp_path / "scenario.json").read_bytes() == scenario_json(report)


def test_a_runner_renders_each_batch_as_it_fills_and_keeps_fewer_records():
    """After each round the runner holds fewer than _EMIT_BATCH records: the
    round that fills a batch renders it into batches and drops its records,
    and run renders the last, partial batch."""
    batch = harness._EMIT_BATCH

    class Checked(ScenarioRunner):
        def run_round(self):
            record = super().run_round()
            assert len(self.records) == record.index % batch
            assert len(self.batches) == record.index // batch
            return record

    runner = Checked(ScenarioConfig(seed=42, rounds=2 * batch + 5))
    report = runner.run()
    runner.close()
    assert runner.records == [] and len(report.batches) == 3
    assert scenario_json(report) == scenario_json(run_scenario(runner.config))


def test_a_run_holds_no_growing_object_graph():
    """Once the collector has run, a 20 000-round run leaves fewer than 500
    more tracked objects alive than a 2000-round run: on the shop under the
    bundled policy, and on a layered blueprint under bench/degraded.rules,
    where damage stands and the violations change thousands of times. The
    runner keeps the text of its rounds, which the collector does not
    track, no record, and of the violations tuples only the last."""
    layered = blueprint_from_json(layered_blueprint_doc(200))
    for name, blueprint, ruleset in (("shop", None, None),
                                     ("layered-200 degraded", layered, load_rules(DEGRADED_RULES))):
        def tracked_after(rounds):
            runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=rounds),
                                    blueprint=blueprint, ruleset=ruleset)
            report = runner.run()
            runner.close()
            gc.collect()
            # the runner and its report are alive here; only the bundled policy heals every round
            assert (report.healed == rounds) == (ruleset is None)
            return len(gc.get_objects())

        tracked_after(2000)  # first-use caches
        small = tracked_after(2000)
        assert tracked_after(20_000) - small < 500, name


def test_taking_snapshots_during_a_run_changes_no_report(tmp_path, monkeypatch):
    """A snapshot only reads the model: a 2000-round run that takes one after
    every injection writes the three reports of a run that takes none."""
    plain, watched = tmp_path / "plain", tmp_path / "watched"
    run_scenario(ScenarioConfig(seed=42, rounds=2000, out_dir=str(plain)))
    snapshots = []

    def inject_and_snapshot(model, fault):
        inject(model, fault)
        snapshots.append(monitor.take_snapshot(model))

    monkeypatch.setattr(harness, "inject", inject_and_snapshot)
    run_scenario(ScenarioConfig(seed=42, rounds=2000, out_dir=str(watched)))
    assert len(snapshots) == 2000
    for name in REPORTS:
        assert (watched / name).read_bytes() == (plain / name).read_bytes(), name


def test_a_memo_entry_keyed_by_id_never_outlives_its_object():
    """The renderer keys its violation memo by id(), and knows the last
    violations tuple it rendered by identity. Once a rendered round's tuple
    and its violation are freed, CPython hands their memory to the next
    objects of their size (tuples of each length have a free list), so the
    next tuple and violation built would take their ids. The renderer holds
    every violation it keys and the last tuple, so each round below renders
    its own violations."""
    render = harness.round_renderer()
    fault = FaultInstance(FaultKind.CF1, "Frontend", None, 0)

    def violations_of(violations):
        text, _ = render(RoundRecord(1, fault, (), (), (), violations, 0, 1))
        return json.loads(text)["post_violations"]

    first = (Violation(ViolationKind.UNKNOWN_STATE, "Frontend"),)
    assert violations_of(first) == [{"kind": "UNKNOWN_STATE", "subject": "Frontend"}]
    freed = {id(first), id(first[0])}
    del first
    built = []  # each kept, so that the next one takes another address
    while len(built) < 1000:
        built.append(other := (Violation(ViolationKind.NOT_STARTED, f"slot {len(built)}"),))
        assert violations_of(other) == [{"kind": "NOT_STARTED", "subject": other[0].subject}]
        if freed & {id(other), id(other[0])}:
            break  # an id came back, and its text was its own


def test_a_failed_open_or_write_ends_typed_and_leaves_no_file_open(tmp_path, monkeypatch):
    """Each open and each write of emit_reports, made to fail in turn, ends in
    the ConfigError that names the directory, with every opened file closed."""
    report = run_scenario(ScenarioConfig(seed=1, rounds=100))
    calls, fail_at, opened = collections.Counter(), {}, []

    class File:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            calls["write"] += 1
            if calls["write"] == fail_at.get("write"):
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    def failing_open(path, mode):
        calls["open"] += 1
        if calls["open"] == fail_at.get("open"):
            raise OSError(13, "Permission denied")
        opened.append(fh := open(path, mode))
        return File(fh)

    monkeypatch.setattr(harness, "open", failing_open, raising=False)
    emit_reports(report, str(tmp_path / "clean"))
    assert (tmp_path / "clean" / "scenario.json").read_bytes() == scenario_json(report)
    counts = dict(calls)
    assert counts["open"] == 3 and counts["write"] >= 7
    out = tmp_path / "out"
    for what, n in counts.items():
        for k in range(1, n + 1):
            calls.clear()
            opened.clear()
            fail_at.clear()
            fail_at[what] = k
            with pytest.raises(ConfigError,
                               match=f"^cannot write reports under {re.escape(str(out))}: "):
                emit_reports(report, str(out))
            assert len(opened) == (k - 1 if what == "open" else 3)
            assert all(fh.closed for fh in opened)


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

    for owner, name in [(ArchitectureModel, "slot_views"),
                        (ArchitectureModel, "live_connector_specs"),
                        (harness, "take_snapshot"), (monitor, "take_snapshot")]:
        monkeypatch.setattr(owner, name, whole_blueprint_view)
    blueprint = blueprint_from_json(layered_blueprint_doc(3200))
    runner = RecordingRunner(ScenarioConfig(seed=42, rounds=50), blueprint=blueprint)
    runner.run()
    assert len(runner.rounds) == 50
    runner.close()
