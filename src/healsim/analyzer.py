"""Analysis stage: classify change events into failure reports and keep the
root-cause counters over dependent components.

Every classified failure of a component bumps a counter for each of its
blueprint dependencies; a dependency whose counter reaches the threshold is
flagged as a root-cause suspect for investigation. The originally reported
component is still repaired either way.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .faults import FaultKind
from .model import ArchitectureModel, ComponentState, ConnectorSpec
from .monitor import ChangeEvent, EventKind


@dataclass(frozen=True)
class FailureReport:
    """A classified failure occurrence, the fact fed to the planner."""

    report_id: int
    kind: FaultKind
    subject: str | ConnectorSpec
    exception_count: int
    detected_at: int
    dependent_slots: tuple[str, ...]

    def render_subject(self) -> str:
        return self.subject.render() if isinstance(self.subject, ConnectorSpec) else self.subject


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
    next_id = first_report_id

    def emit(kind: FaultKind, subject, count: int, at: int, deps: tuple[str, ...]) -> None:
        nonlocal next_id
        reports.append(FailureReport(next_id, kind, subject, count, at, deps))
        next_id += 1

    for event in events:
        if event.kind is EventKind.STATE_CHANGED and event.new is ComponentState.UNKNOWN:
            deps = tuple(model.blueprint.dependencies_of(event.subject))
            emit(FaultKind.CF1, event.subject, 0, event.at, deps)
        elif event.kind is EventKind.EXCEPTIONS_CHANGED and event.new > exception_threshold:
            deps = tuple(model.blueprint.dependencies_of(event.subject))
            emit(FaultKind.CF2, event.subject, event.new, event.at, deps)
        elif event.kind is EventKind.COMPONENT_REMOVED:
            deps = tuple(model.blueprint.dependencies_of(event.subject))
            emit(FaultKind.CF3, event.subject, 0, event.at, deps)
        elif event.kind is EventKind.CONNECTOR_REMOVED:
            spec = event.subject
            if model.present(spec.source) and model.present(spec.target):
                emit(FaultKind.CF4, spec, 0, event.at, ())
    return reports


@dataclass(frozen=True)
class RootCauseSuspect:
    slot: str
    count: int
    implicated_by: tuple[str, ...]
    first_at: int
    last_at: int


@dataclass
class RootCauseLedger:
    """Cumulative per-run counters: how often each slot's dependents failed.

    Counters never decrease and never reset within a run.
    """

    threshold: int = 3
    counters: dict[str, int] = field(default_factory=dict)
    # Per slot: the failed slots that implicated it, in record order, and the
    # first and last of their detection times.
    implicated_by: dict[str, list[str]] = field(default_factory=dict, init=False)
    first_at: dict[str, int] = field(default_factory=dict, init=False)
    last_at: dict[str, int] = field(default_factory=dict, init=False)

    def record_failure(self, report: FailureReport) -> None:
        """Credit one failure of ``report.subject`` to each of its blueprint
        dependencies. Only component failures feed the ledger; a removed
        connector (CF4) has no failed component to attribute."""
        if report.kind is FaultKind.CF4:
            raise ValueError("CF4 reports do not feed the root-cause ledger")
        at = report.detected_at
        for slot in report.dependent_slots:
            self.counters[slot] = self.counters.get(slot, 0) + 1
            self.implicated_by.setdefault(slot, []).append(report.subject)
            self.first_at.setdefault(slot, at)
            self.last_at[slot] = at

    def suspects(self) -> list[RootCauseSuspect]:
        """Slots whose counter reached the threshold, highest count first,
        ties broken by name."""
        found = [
            RootCauseSuspect(slot, count, tuple(self.implicated_by[slot]),
                             self.first_at[slot], self.last_at[slot])
            for slot, count in self.counters.items()
            if count >= self.threshold
        ]
        found.sort(key=lambda s: (-s.count, s.slot))
        return found


SUSPECT_CSV_HEADER = ["component", "count", "implicated_by", "first_at", "last_at"]


def write_suspect_report(suspects: list[RootCauseSuspect], path: str) -> None:
    """CSV with one row per suspect, LF line endings, deterministic bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUSPECT_CSV_HEADER)
        for s in suspects:
            writer.writerow([s.slot, s.count, ";".join(s.implicated_by), s.first_at, s.last_at])
