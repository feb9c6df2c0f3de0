"""Analysis stage: classify what the model's change journal holds into
failure reports, and keep the root-cause counters over dependent components.

Every classified failure of a component bumps a counter for each of its
blueprint dependencies; a dependency whose counter reaches the threshold is
flagged as a root-cause suspect for investigation. The originally reported
component is still repaired either way. The harness writes the suspects
out, as it writes every report.
"""

from __future__ import annotations

from .faults import _CF1, _CF2, _CF3, _CF4, FaultKind
from .model import _UNKNOWN, ArchitectureModel, ConnectorSpec, Frozen, Record


class FailureReport(Frozen):
    """A classified failure occurrence, the fact fed to the planner."""

    __slots__ = _fields = (
        "report_id", "kind", "subject", "exception_count", "detected_at", "dependent_slots"
    )

    def __init__(self, report_id: int, kind: FaultKind, subject: str | ConnectorSpec,
                 exception_count: int, detected_at: int, dependent_slots: tuple[str, ...]) -> None:
        (set_report_id, set_kind, set_subject, set_exception_count, set_detected_at,
         set_dependent_slots) = self._setters
        set_report_id(self, report_id)
        set_kind(self, kind)
        set_subject(self, subject)
        set_exception_count(self, exception_count)
        set_detected_at(self, detected_at)
        set_dependent_slots(self, dependent_slots)


def classify(model: ArchitectureModel, exception_threshold: int,
             first_report_id: int = 0) -> list[FailureReport]:
    """The failure reports of what the model's journal holds since its last
    cut, which this cuts; read where the window ends, at ``model.clock``.

    A slot whose state became UNKNOWN is CF1; one whose exception count
    changed to past the threshold is CF2; an emptied slot is CF3; a removed
    connector is CF4 only while both endpoints are present (one that vanished
    with its component is part of that CF3). Slots come in blueprint order,
    CF1 before CF2 within a slot, then CF4s in connector order. Additions and
    benign changes yield nothing. No change event is built.
    """
    since = model.cut_journal()
    reports: list[FailureReport] = []
    removed: list[ConnectorSpec] = []
    components, at, bp = model._components, model.clock, model.blueprint
    names, dependencies = bp._slot_names, bp._dependencies
    # A connector is journalled at ~position, below every slot position, so
    # the ascending keys give connectors in descending position order.
    for key in sorted(since):
        if key < 0:
            if not since[key] and model._ends_present(~key):  # went, not came back
                removed.append(bp.intended_connectors[~key])
            continue
        if (before := since[key]) is None:  # filled, or empty at both ends
            continue
        slot, after, new_id = names[key], components[key], first_report_id + len(reports)
        if after is None:
            reports.append(FailureReport(new_id, _CF3, slot, 0, at, dependencies[slot]))
            continue
        if after.state is _UNKNOWN and before.state is not _UNKNOWN:
            reports.append(FailureReport(new_id, _CF1, slot, 0, at, dependencies[slot]))
            new_id += 1
        count = after.exception_count
        if count > exception_threshold and count != before.exception_count:
            reports.append(FailureReport(new_id, _CF2, slot, count, at, dependencies[slot]))
    for spec in reversed(removed):
        reports.append(FailureReport(first_report_id + len(reports), _CF4, spec, 0, at, ()))
    return reports


class RootCauseSuspect(Frozen):
    __slots__ = _fields = ("slot", "count", "implicated_by", "first_at", "last_at")

    def __init__(self, slot: str, count: int, implicated_by: tuple[str, ...],
                 first_at: int, last_at: int) -> None:
        set_slot, set_count, set_implicated_by, set_first_at, set_last_at = self._setters
        set_slot(self, slot)
        set_count(self, count)
        set_implicated_by(self, implicated_by)
        set_first_at(self, first_at)
        set_last_at(self, last_at)


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
