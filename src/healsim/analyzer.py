"""Analysis stage: classify change events into failure reports and keep the
root-cause counters over dependent components.

Every classified failure of a component bumps a counter for each of its
blueprint dependencies; a dependency whose counter reaches the threshold is
flagged as a root-cause suspect for investigation. The originally reported
component is still repaired either way. The harness writes the suspects
out, as it writes every report.
"""

from __future__ import annotations

from .faults import _CF1, _CF2, _CF3, _CF4, FaultKind
from .model import _UNKNOWN, ArchitectureModel, ConnectorSpec, Frozen, Record, _set
from .monitor import (
    _COMPONENT_REMOVED,
    _CONNECTOR_REMOVED,
    _EXCEPTIONS_CHANGED,
    _STATE_CHANGED,
    ChangeEvent,
)


class FailureReport(Frozen):
    """A classified failure occurrence, the fact fed to the planner."""

    __slots__ = _fields = (
        "report_id", "kind", "subject", "exception_count", "detected_at", "dependent_slots"
    )

    def __init__(self, report_id: int, kind: FaultKind, subject: str | ConnectorSpec,
                 exception_count: int, detected_at: int, dependent_slots: tuple[str, ...]) -> None:
        _set(self, "report_id", report_id)
        _set(self, "kind", kind)
        _set(self, "subject", subject)
        _set(self, "exception_count", exception_count)
        _set(self, "detected_at", detected_at)
        _set(self, "dependent_slots", dependent_slots)


def classify(
    events: list[ChangeEvent],
    model: ArchitectureModel,
    exception_threshold: int,
    first_report_id: int = 0,
) -> list[FailureReport]:
    """Map change events to failure reports, in event order.

    STATE_CHANGED to UNKNOWN is CF1; EXCEPTIONS_CHANGED past the threshold
    is CF2; COMPONENT_REMOVED is CF3; CONNECTOR_REMOVED is CF4 only while
    both endpoints are still present (a connector that vanished with its
    component is part of that CF3, not a separate failure). Additions and
    benign changes yield nothing.
    """
    reports: list[FailureReport] = []
    dependencies = model.blueprint._dependencies  # one shared tuple per slot
    for event in events:
        kind, subject = event.kind, event.subject
        if kind is _STATE_CHANGED and event.new is _UNKNOWN:
            fault, count = _CF1, 0
        elif kind is _EXCEPTIONS_CHANGED and event.new > exception_threshold:
            fault, count = _CF2, event.new
        elif kind is _COMPONENT_REMOVED:
            fault, count = _CF3, 0
        elif kind is _CONNECTOR_REMOVED:
            if model.present(subject.source) and model.present(subject.target):
                reports.append(FailureReport(first_report_id + len(reports), _CF4, subject, 0,
                                             event.at, ()))
            continue
        else:
            continue
        reports.append(FailureReport(first_report_id + len(reports), fault, subject, count,
                                     event.at, dependencies[subject]))
    return reports


class RootCauseSuspect(Frozen):
    __slots__ = _fields = ("slot", "count", "implicated_by", "first_at", "last_at")

    def __init__(self, slot: str, count: int, implicated_by: tuple[str, ...],
                 first_at: int, last_at: int) -> None:
        _set(self, "slot", slot)
        _set(self, "count", count)
        _set(self, "implicated_by", implicated_by)
        _set(self, "first_at", first_at)
        _set(self, "last_at", last_at)


class RootCauseLedger(Record):
    """Cumulative per-run counters: how often each slot's dependents failed.

    A slot's counter is the length of its ``implicated_by`` list, which never
    shrinks and never resets within a run.
    """

    __slots__ = _fields = ("threshold", "implicated_by", "first_at", "last_at")

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        # Per slot: the failed slots that implicated it, in record order, and the
        # first and last of their detection times.
        self.implicated_by: dict[str, list[str]] = {}
        self.first_at: dict[str, int] = {}
        self.last_at: dict[str, int] = {}

    @property
    def counters(self) -> dict[str, int]:
        return {slot: len(failed) for slot, failed in self.implicated_by.items()}

    def record_failure(self, report: FailureReport) -> None:
        """Credit one failure of ``report.subject`` to each of its blueprint
        dependencies. Only component failures feed the ledger; a removed
        connector (CF4) has no failed component to attribute."""
        if report.kind is _CF4:
            raise ValueError("CF4 reports do not feed the root-cause ledger")
        at = report.detected_at
        for slot in report.dependent_slots:
            self.implicated_by.setdefault(slot, []).append(report.subject)
            self.first_at.setdefault(slot, at)
            self.last_at[slot] = at

    def suspects(self) -> list[RootCauseSuspect]:
        """Slots whose counter reached the threshold, highest count first,
        ties broken by name."""
        found = [RootCauseSuspect(slot, len(by), tuple(by), self.first_at[slot], self.last_at[slot])
                 for slot, by in self.implicated_by.items() if len(by) >= self.threshold]
        found.sort(key=lambda s: (-s.count, s.slot))
        return found
