"""Whole-model and whole-run views that only the tests read.

The simulator itself reads a blueprint's slots, its dependency index and a
model's present slots through their internal tuples and positions; these
copies serve the tests that check those structures against a plain list.
A runner renders its rounds batch by batch and drops the records; the
recording runner here keeps them for the tests that read them.
"""

from healsim.harness import (
    _EMIT_BATCH,
    RoundRecord,
    ScenarioConfig,
    ScenarioReport,
    ScenarioRunner,
    emit_reports,
    render_batch,
    round_renderer,
)
from healsim.model import (
    ArchitectureModel,
    Blueprint,
    UnknownSlot,
    default_blueprint,
    instantiate_blueprint,
)


def build_default_model() -> ArchitectureModel:
    return instantiate_blueprint(default_blueprint())


def slot_names(blueprint: Blueprint) -> list[str]:
    return list(blueprint._slot_names)


def dependencies_of(blueprint: Blueprint, slot: str) -> list[str]:
    """Slots this slot requires, per intended connectors, in declaration
    order, as a fresh list. Reads the blueprint only, so the answer is
    unaffected by any damage to the live graph."""
    try:
        return list(blueprint._dependencies[slot])
    except KeyError:
        raise UnknownSlot(f"no slot named {slot!r}") from None


def present_slots(model: ArchitectureModel) -> list[str]:
    """Slots that hold an instance, in blueprint order."""
    return [slot for slot, comp in model.slot_views() if comp is not None]


class RecordingRunner(ScenarioRunner):
    """A runner that also keeps, in ``rounds``, every record that
    ``run_round`` returns."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rounds: list[RoundRecord] = []

    def run_round(self) -> RoundRecord:
        record = super().run_round()
        self.rounds.append(record)
        return record


def run_recorded(config: ScenarioConfig, **kwargs) -> tuple[ScenarioReport, list[RoundRecord]]:
    """What ``run_scenario`` does (the reports written when ``config.out_dir``
    is set), on a ``RecordingRunner`` made with ``kwargs``: the report, and
    the records of its rounds."""
    runner = RecordingRunner(config, **kwargs)
    try:
        report = runner.run()
    finally:
        runner.close()
    if config.out_dir:
        emit_reports(report, config.out_dir)
    return report, runner.rounds


def rendered_report(report: ScenarioReport, records: list[RoundRecord]) -> ScenarioReport:
    """``report`` with its rounds rendered from ``records`` by one new
    renderer, batch by batch through ``render_batch`` as a runner renders
    them."""
    render = round_renderer()
    batches = [render_batch(render, records[start:start + _EMIT_BATCH])
               for start in range(0, len(records), _EMIT_BATCH)]
    return ScenarioReport(report.config, batches, report.counters, report.suspects,
                          report.unhandled_failures, report.healed)
