import pytest

from healsim.analyzer import (
    FailureReport,
    RootCauseLedger,
    classify,
    write_suspect_report,
)
from healsim.faults import FaultInstance, FaultKind, inject
from healsim.model import ConnectorSpec, build_default_model
from healsim.monitor import observe, take_snapshot

QS_REP = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")


def _events_after(model, fault):
    before = take_snapshot(model)
    inject(model, fault)
    return observe(before, take_snapshot(model))


def test_classify_cf1_fills_dependencies():
    model = build_default_model()
    events = _events_after(model, FaultInstance(FaultKind.CF1, "Query Service"))
    reports = classify(events, model, exception_threshold=5)
    assert len(reports) == 1
    report = reports[0]
    assert report.kind is FaultKind.CF1
    assert report.subject == "Query Service"
    assert report.dependent_slots == ("Last Second Sales Item Filter", "Reputation Service")
    assert report.exception_count == 0


def test_reports_of_one_slot_share_its_dependency_tuple():
    """Every report of a slot carries the blueprint's one tuple, which the
    report writer renders once; the public lookup still equals it."""
    model = build_default_model()
    reports = []
    for fault in (FaultInstance(FaultKind.CF1, "Query Service"),
                  FaultInstance(FaultKind.CF2, "Bid Service", magnitude=6),
                  FaultInstance(FaultKind.CF1, "Query Service")):
        reports += classify(_events_after(model, fault), model, exception_threshold=5)
        model.restart(fault.target)
    first, _, second = reports
    assert [first.kind, second.kind] == [FaultKind.CF1, FaultKind.CF1]
    assert first.dependent_slots is second.dependent_slots
    assert first.dependent_slots == tuple(model.blueprint.dependencies_of("Query Service"))


def test_classify_cf2_threshold_boundary():
    model = build_default_model()
    events = _events_after(model, FaultInstance(FaultKind.CF2, "Bid Service", magnitude=6))
    reports = classify(events, model, exception_threshold=5)
    assert [r.kind for r in reports] == [FaultKind.CF2]
    assert reports[0].exception_count == 6

    # a bump that stays at the threshold is not a failure
    model = build_default_model()
    events = _events_after(model, FaultInstance(FaultKind.CF2, "Bid Service", magnitude=5))
    assert classify(events, model, exception_threshold=5) == []


def test_classify_cf3_subsumes_connector_removals():
    model = build_default_model()
    events = _events_after(model, FaultInstance(FaultKind.CF3, "Persistence Service"))
    reports = classify(events, model, exception_threshold=5)
    assert len(reports) == 1
    assert reports[0].kind is FaultKind.CF3
    assert reports[0].subject == "Persistence Service"


def test_classify_cf4():
    model = build_default_model()
    events = _events_after(model, FaultInstance(FaultKind.CF4, QS_REP))
    reports = classify(events, model, exception_threshold=5)
    assert len(reports) == 1
    assert reports[0].kind is FaultKind.CF4
    assert reports[0].subject == QS_REP
    assert reports[0].dependent_slots == ()


def test_classify_ignores_repairs():
    model = build_default_model()
    model.remove_connector(QS_REP)
    before = take_snapshot(model)
    model.add_connector(QS_REP)
    events = observe(before, take_snapshot(model))
    assert events != []
    assert classify(events, model, exception_threshold=5) == []


def test_classify_assigns_sequential_ids():
    model = build_default_model()
    before = take_snapshot(model)
    inject(model, FaultInstance(FaultKind.CF1, "Frontend"))
    inject(model, FaultInstance(FaultKind.CF1, "Bid Service"))
    events = observe(before, take_snapshot(model))
    reports = classify(events, model, exception_threshold=5, first_report_id=7)
    assert [r.report_id for r in reports] == [7, 8]


def _all_single_faults(model):
    for slot in model.blueprint.slot_names():
        yield FaultInstance(FaultKind.CF1, slot)
    for slot in model.blueprint.slot_names():
        yield FaultInstance(FaultKind.CF2, slot, magnitude=6)
    for slot in model.blueprint.slot_names():
        yield FaultInstance(FaultKind.CF3, slot)
    for spec in model.live_connector_specs():
        yield FaultInstance(FaultKind.CF4, spec)


def test_classify_inject_round_trip_exhaustive():
    # one report per injected fault, with matching kind and subject
    for fault in _all_single_faults(build_default_model()):
        model = build_default_model()
        before = take_snapshot(model)
        inject(model, fault)
        events = observe(before, take_snapshot(model))
        reports = classify(events, model, exception_threshold=5)
        assert len(reports) == 1, fault
        assert reports[0].kind is fault.kind
        assert reports[0].subject == fault.target


def _report(rid, kind, subject, deps, at=0):
    return FailureReport(rid, kind, subject, 0, at, tuple(deps))


def test_ledger_records_dependencies():
    ledger = RootCauseLedger(threshold=3)
    ledger.record_failure(
        _report(0, FaultKind.CF1, "Query Service",
                ["Last Second Sales Item Filter", "Reputation Service"])
    )
    assert ledger.counters == {"Last Second Sales Item Filter": 1, "Reputation Service": 1}


def test_ledger_leaf_failure_changes_nothing():
    ledger = RootCauseLedger(threshold=3)
    ledger.record_failure(_report(0, FaultKind.CF2, "Persistence Service", []))
    assert ledger.counters == {}


def test_ledger_rejects_cf4():
    ledger = RootCauseLedger(threshold=3)
    with pytest.raises(ValueError):
        ledger.record_failure(_report(0, FaultKind.CF4, QS_REP, []))


def test_three_failures_reach_threshold():
    ledger = RootCauseLedger(threshold=3)
    deps = ["Last Second Sales Item Filter", "Reputation Service"]
    for rid in range(3):
        ledger.record_failure(_report(rid, FaultKind.CF1, "Query Service", deps, at=rid * 100))
    assert ledger.counters["Last Second Sales Item Filter"] == 3
    assert ledger.counters["Reputation Service"] == 3
    suspects = ledger.suspects()
    # tie on count 3 breaks by name; both dependencies are flagged
    assert [s.slot for s in suspects] == ["Last Second Sales Item Filter", "Reputation Service"]
    top = suspects[0]
    assert top.count == 3
    assert top.implicated_by == ("Query Service",) * 3
    assert (top.first_at, top.last_at) == (0, 200)


def test_suspects_empty_below_threshold():
    ledger = RootCauseLedger(threshold=3)
    assert ledger.suspects() == []
    ledger.record_failure(_report(0, FaultKind.CF1, "Query Service", ["Reputation Service"]))
    ledger.record_failure(_report(1, FaultKind.CF1, "Query Service", ["Reputation Service"]))
    assert ledger.suspects() == []


def test_suspects_sorted_by_count_then_name():
    ledger = RootCauseLedger(threshold=2)
    ledger.record_failure(_report(0, FaultKind.CF1, "Auth Service", ["Persistence Service"]))
    ledger.record_failure(_report(1, FaultKind.CF1, "Bid Service", ["Persistence Service"]))
    ledger.record_failure(_report(2, FaultKind.CF1, "Auth Service", ["Persistence Service"]))
    ledger.record_failure(_report(3, FaultKind.CF1, "Query Service",
                                  ["Last Second Sales Item Filter", "Reputation Service"]))
    ledger.record_failure(_report(4, FaultKind.CF1, "Query Service",
                                  ["Last Second Sales Item Filter", "Reputation Service"]))
    suspects = ledger.suspects()
    assert [s.slot for s in suspects] == [
        "Persistence Service",  # count 3
        "Last Second Sales Item Filter",  # count 2, name tie-break
        "Reputation Service",
    ]


def test_suspects_monotone_under_new_records():
    ledger = RootCauseLedger(threshold=2)
    recorded = []
    for rid in range(6):
        slot = ["Query Service", "Auth Service", "Frontend"][rid % 3]
        deps = build_default_model().blueprint.dependencies_of(slot)
        report = _report(rid, FaultKind.CF1, slot, deps)
        before = {s.slot for s in ledger.suspects()}
        ledger.record_failure(report)
        recorded.append(report)
        assert before <= {s.slot for s in ledger.suspects()}
    # brute-force recount oracle over everything recorded
    for slot, count in ledger.counters.items():
        assert count == sum(1 for r in recorded if slot in r.dependent_slots)


def test_suspect_csv_bytes(tmp_path):
    ledger = RootCauseLedger(threshold=3)
    deps = ["Last Second Sales Item Filter", "Reputation Service"]
    for rid in range(3):
        ledger.record_failure(_report(rid, FaultKind.CF1, "Query Service", deps, at=100 + rid))
    path = tmp_path / "suspects.csv"
    write_suspect_report(ledger.suspects(), str(path))
    content = path.read_bytes().decode("utf-8")
    lines = content.split("\n")
    assert lines[0] == "component,count,implicated_by,first_at,last_at"
    assert lines[1] == (
        "Last Second Sales Item Filter,3,Query Service;Query Service;Query Service,100,102"
    )
    assert "\r" not in content


def test_suspect_csv_header_only(tmp_path):
    path = tmp_path / "suspects.csv"
    write_suspect_report([], str(path))
    assert path.read_text(encoding="utf-8") == "component,count,implicated_by,first_at,last_at\n"
