"""Scenario harness: drives inject, analyze, plan, execute, validate rounds
and records everything it saw; analysis reads the change journal that
monitoring keeps, so a round builds no change event.

Every round injects exactly one fault (drawn from the seeded generator or
taken from an explicit script), runs one full repair cycle, then validates
the architecture against the blueprint. All randomness flows from the
single splitmix64 seed and the clock is logical, so a config determines
every output byte.

A run ends by writing scenario.json, rounds.csv and suspects.csv, whose
formats this module alone owns. Each is a stream of text chunks that one
loop in ``emit_reports`` encodes and writes; the first two give a chunk per
batch of rounds, so a writer never holds a whole document. Each round's
object in scenario.json is written directly as canonical JSON text by
``round_json``, with no intermediate dicts: its key order is fixed by hand
and guarded by the dict-form oracle in ``tests/test_oracles.py``. CSV rows
are formatted directly too; only a name that needs quoting goes through ``csv``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _str

from .analyzer import FailureReport, RootCauseLedger, RootCauseSuspect, classify
from .executor import ExecutionResult, execute
from .faults import _CF4, FaultInstance, FaultKind, Rng, draw_fault, draw_interval, inject
from .model import (
    Blueprint,
    Record,
    Violation,
    default_blueprint,
    instantiate_blueprint,
    load_blueprint,
    render_subject,
    validate,
)
# observe and take_snapshot stay importable here: bench/tracer.py patches them by these names.
from .monitor import observe, take_snapshot
from .planner import InProcessPlanner, RemotePlanner, canonical_json, request_plan
from .rules import NoMatch, RepairPlan, RuleSet, default_ruleset, load_rules

EXCEPTION_THRESHOLD, ROOTCAUSE_THRESHOLD = 5, 3  # ScenarioConfig's defaults, and the CLI's


class ConfigError(Exception):
    """A scenario cannot start: bad config, script, rules, or blueprint."""


class ScenarioConfig(Record):
    __slots__ = _fields = (
        "seed", "rounds", "exception_threshold", "rootcause_threshold", "planner",
        "rules_path", "blueprint_path", "script_path", "script", "out_dir",
    )

    def __init__(
        self,
        seed: int,
        rounds: int,
        exception_threshold: int = EXCEPTION_THRESHOLD,
        rootcause_threshold: int = ROOTCAUSE_THRESHOLD,
        planner: str = "inproc",  # "inproc" or "tcp://HOST:PORT"
        rules_path: str | None = None,
        blueprint_path: str | None = None,
        script_path: str | None = None,
        script: list[FaultInstance] | None = None,
        out_dir: str | None = None,
    ) -> None:
        if rounds < 0:
            raise ConfigError("rounds must be non-negative")
        if exception_threshold < 1 or rootcause_threshold < 1:
            raise ConfigError("thresholds must be at least 1")
        if out_dir == "":  # None writes no reports; "" would silently do the same
            raise ConfigError("the report directory must be a non-empty path")
        self.seed, self.rounds, self.planner, self.out_dir = seed, rounds, planner, out_dir
        self.exception_threshold = exception_threshold
        self.rootcause_threshold = rootcause_threshold
        self.rules_path, self.blueprint_path = rules_path, blueprint_path
        self.script_path, self.script = script_path, script


class RoundRecord(Record):
    __slots__ = _fields = (
        "index", "fault", "reports", "plans", "executions", "post_violations",
        "clock_start", "clock_end",
    )

    def __init__(
        self,
        index: int,
        fault: FaultInstance,
        reports: tuple[FailureReport, ...],
        plans: tuple[RepairPlan | NoMatch, ...],  # aligned with reports
        executions: tuple[ExecutionResult, ...],
        post_violations: tuple[Violation, ...],
        clock_start: int,
        clock_end: int,
    ) -> None:
        self.index = index
        self.fault = fault
        self.reports = reports
        self.plans = plans
        self.executions = executions
        self.post_violations = post_violations
        self.clock_start = clock_start
        self.clock_end = clock_end


class ScenarioReport(Record):
    __slots__ = _fields = ("config", "rounds", "counters", "suspects", "unhandled_failures")

    def __init__(self, config: ScenarioConfig, rounds: list[RoundRecord], counters: dict[str, int],
                 suspects: list[RootCauseSuspect], unhandled_failures: int) -> None:
        self.config, self.rounds, self.counters = config, rounds, counters
        self.suspects, self.unhandled_failures = suspects, unhandled_failures


def split_host_port(text: str) -> tuple[str, int] | None:
    """(host, port) for ``HOST:PORT`` with PORT 0-65535 (HOST may be empty), else None."""
    host, sep, port_text = text.rpartition(":")
    if sep and port_text.isdecimal() and int(port_text) <= 65535:
        return host, int(port_text)
    return None


def parse_planner_spec(spec: str) -> tuple[str, int] | None:
    """None for in-process mode, (host, port) for tcp://HOST:PORT."""
    if spec == "inproc":
        return None
    address = split_host_port(spec[len("tcp://"):]) if spec.startswith("tcp://") else None
    if address is None or not address[0]:
        raise ConfigError(f"planner must be 'inproc' or 'tcp://HOST:PORT', got {spec!r}")
    return address


def load_script(path: str, blueprint: Blueprint) -> list[FaultInstance]:
    """Parse a scripted fault list: ``[{"kind":"CF1","target":"Query Service"},
    {"kind":"CF2","target":...,"magnitude":N},
    {"kind":"CF4","target":{"from":A,"to":B}}, ...]``. Targets must resolve
    against the blueprint."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read script {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, huge integer
        raise ConfigError(f"script {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ConfigError("script must be a JSON list of faults")
    return [script_fault(entry, blueprint, i) for i, entry in enumerate(raw)]


def script_fault(entry: dict, blueprint: Blueprint, index: int = 0) -> FaultInstance:
    where = f"script entry {index}"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    try:
        kind = FaultKind(entry.get("kind"))
    except ValueError:
        raise ConfigError(f"{where}: unknown kind {entry.get('kind')!r}") from None
    target = entry.get("target")
    if kind is FaultKind.CF4:
        if not isinstance(target, dict) or "from" not in target or "to" not in target:
            raise ConfigError(f"{where}: CF4 target must be {{\"from\":..,\"to\":..}}")
        src, dst = target["from"], target["to"]
        both_str = isinstance(src, str) and isinstance(dst, str)
        spec = blueprint.find_intended(src, dst) if both_str else None
        if spec is None:
            raise ConfigError(
                f"{where}: no intended connector {src}->{dst}"
            )
        resolved: object = spec
    else:
        if not isinstance(target, str) or not blueprint.has_slot(target):
            raise ConfigError(f"{where}: unknown slot {target!r}")
        resolved = target
    magnitude = entry.get("magnitude")
    if kind is FaultKind.CF2:
        if not isinstance(magnitude, int) or isinstance(magnitude, bool) or magnitude <= 0:
            raise ConfigError(f"{where}: CF2 needs a positive integer magnitude")
    elif magnitude is not None:
        raise ConfigError(f"{where}: only CF2 takes a magnitude")
    return FaultInstance(kind=kind, target=resolved, magnitude=magnitude)


class ScenarioRunner:
    """Owns the mutable run state (model, rng, ledger, history) and executes
    rounds one at a time. The single writer of the model. Without
    ``config.script`` it reads the one at ``config.script_path``, if any."""

    def __init__(
        self,
        config: ScenarioConfig,
        *,
        ruleset: RuleSet | None = None,
        blueprint: Blueprint | None = None,
    ) -> None:
        self.config = config
        if blueprint is None:
            path = config.blueprint_path
            blueprint = load_blueprint(path) if path else default_blueprint()
        self.model = instantiate_blueprint(blueprint)
        script = config.script
        if script is None and config.script_path:
            script = load_script(config.script_path, blueprint)
        self._script = None if script is None else list(script)
        if self._script is not None and len(self._script) < config.rounds:
            raise ConfigError(
                f"script has {len(self._script)} faults but the scenario runs "
                f"{config.rounds} rounds"
            )
        if ruleset is None:
            ruleset = load_rules(config.rules_path) if config.rules_path else default_ruleset()
        remote = parse_planner_spec(config.planner)
        self.planner = InProcessPlanner(ruleset) if remote is None else RemotePlanner(*remote)
        self.rng = Rng(config.seed)
        self.ledger = RootCauseLedger(config.rootcause_threshold)
        self.history: dict[str, int] = {}
        self.records: list[RoundRecord] = []
        self.unhandled_failures = 0
        self._next_report_id = 0

    def run_round(self) -> RoundRecord:
        """One full cycle: wait, inject, classify what the injection journalled,
        plan, execute, validate. Returns (and appends) the round's record; a
        round whose violations equal the previous round's shares its tuple."""
        model, threshold = self.model, self.config.exception_threshold
        index = len(self.records) + 1
        clock_start = model.clock
        model.advance_clock(draw_interval(self.rng))
        if self._script is not None:
            scripted = self._script[index - 1]
            fault = FaultInstance(scripted.kind, scripted.target, scripted.magnitude, model.clock)
        else:
            fault = draw_fault(self.rng, model, threshold)
        model.cut_journal()  # the round classifies only what inject changes
        inject(model, fault)
        reports = classify(model, threshold, self._next_report_id)
        self._next_report_id += len(reports)
        for report in reports:
            if report.kind is not _CF4:
                self.ledger.record_failure(report)
        plans: list[RepairPlan | NoMatch] = []
        executions: list[ExecutionResult] = []
        for report in reports:
            outcome = request_plan(self.planner, report, self.history)
            plans.append(outcome)
            if isinstance(outcome, NoMatch):
                # Unless something loaded logging, no handler can print this line.
                if (logging := sys.modules.get("logging")) is not None:
                    logging.getLogger(__name__).info(
                        "round %d: no rule handles %s(%s)", index, report.kind.value,
                        render_subject(report.subject))
                self.unhandled_failures += 1
            else:
                executions.append(execute(model, outcome))
        violations = tuple(validate(model))
        if self.records and violations == (last := self.records[-1].post_violations):
            violations = last  # standing damage: one tuple, rendered once
        record = RoundRecord(index, fault, tuple(reports), tuple(plans), tuple(executions),
                             violations, clock_start, model.clock)
        self.records.append(record)
        return record

    def run(self) -> ScenarioReport:
        for _ in range(self.config.rounds):
            self.run_round()
        return ScenarioReport(
            config=self.config,
            rounds=self.records,
            counters=self.ledger.counters,
            suspects=self.ledger.suspects(),
            unhandled_failures=self.unhandled_failures,
        )

    def close(self) -> None:
        self.planner.close()


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Run a whole scenario; writes report files when out_dir is set."""
    runner = ScenarioRunner(config)
    try:
        report = runner.run()
    finally:
        runner.close()
    if config.out_dir:
        emit_reports(report, config.out_dir)
    return report


# -- report emission ---------------------------------------------------------

def round_json(record: RoundRecord, rendered: dict[int, str]) -> str:
    """The round's object in ``scenario.json``: the text ``canonical_json``
    makes of its dict form, written directly. Keys are in sorted order by
    hand and strings escaped as ``canonical_json`` escapes them; the dict
    form lives on in ``tests/test_oracles.py``, which compares the bytes.

    ``rendered`` maps ``id(violation)`` to the violation's text, and the
    ``id`` of a report's ``dependent_slots`` tuple or a round's
    ``post_violations`` tuple to the text of its items, and is filled as it
    goes; a caller passes one dict for many rounds of one report, and keeps
    every object in it alive for as long as it uses the dict. ``classify``
    gives every report of a slot the blueprint's one tuple, and a round with
    standing damage holds the previous round's tuple, so each is rendered
    once. The empty tuple, one object, renders as empty text in both uses.

    An enum member's text is read as ``_value_``, a plain attribute: ``value``
    is a Python-level descriptor. The values are plain ASCII identifiers, so
    they are written unescaped."""
    fault = record.fault
    magnitude = "" if fault.magnitude is None else f',"magnitude":{fault.magnitude}'
    texts = []
    for r in record.reports:
        if (deps := rendered.get(id(r.dependent_slots))) is None:
            deps = rendered[id(r.dependent_slots)] = ",".join(map(_str, r.dependent_slots))
        texts.append(
            f'{{"dependent_slots":[{deps}],'
            f'"detected_at":{r.detected_at},"exception_count":{r.exception_count},'
            f'"kind":"{r.kind._value_}","report_id":{r.report_id},'
            f'"subject":{_str(render_subject(r.subject))}}}')
    reports = ",".join(texts)
    plans = ",".join([
        f'{{"no_match":true,"report_id":{r.report_id}}}' if isinstance(p, NoMatch) else
        f'{{"fired_rule":{_str(p.fired_rule)},"report_id":{r.report_id},'
        f'"strategy":"{p.strategy._value_}","subject":{_str(p.subject)}}}'
        for r, p in zip(record.reports, record.plans)
    ])
    executions = ",".join([
        f'{{"completed_at":{e.completed_at},'
        f'"mutations":[{",".join(map(_str, e.applied_mutations))}],'
        f'"new_instance_id":{"null" if e.new_instance_id is None else _str(e.new_instance_id)},'
        f'"strategy":"{e.plan.strategy._value_}","subject":{_str(e.plan.subject)}}}'
        for e in record.executions
    ])
    if (violations := rendered.get(id(record.post_violations))) is None:
        texts = []
        for v in record.post_violations:
            if (text := rendered.get(id(v))) is None:
                text = rendered[id(v)] = (
                    f'{{"kind":"{v.kind._value_}","subject":{_str(render_subject(v.subject))}}}'
                )
            texts.append(text)
        violations = rendered[id(record.post_violations)] = ",".join(texts)
    return (
        f'{{"clock_end":{record.clock_end},"clock_start":{record.clock_start},'
        f'"executions":[{executions}],'
        f'"fault":{{"injected_at":{fault.injected_at},"kind":"{fault.kind._value_}"{magnitude},'
        f'"target":{_str(render_subject(fault.target))}}},'
        f'"plans":[{plans}],"post_violations":[{violations}],"reports":[{reports}],'
        f'"round":{record.index}}}'
    )


# Rounds per piece of scenario.json and rounds.csv: few enough that emission
# holds little next to the report, enough that a write is not per round.
_EMIT_BATCH = 64


def scenario_chunks(report: ScenarioReport) -> Iterator[str]:
    """``scenario.json`` as ASCII text in pieces: the head, one piece per
    ``_EMIT_BATCH`` rounds, and the tail, so that a writer never holds the
    whole document.

    ``canonical_json`` encodes the small rest of the document with an empty
    ``rounds`` list; the objects from ``round_json`` go between its halves.
    Each distinct violation object, violations tuple and dependency tuple
    is rendered once per call: ``validate`` shares one object across the
    rounds a deviation stands, ``run_round`` one tuple across the rounds
    the whole list stands, and ``classify`` one tuple across the reports of
    a slot. The memo, keyed by object identity, lives only as long as this
    call, during which ``report`` holds every object it names.
    """
    config = report.config
    doc = canonical_json({
        # out_dir is where the report lands, not part of what it describes;
        # leaving it out keeps equal runs byte-identical wherever they are written.
        "config": {
            "seed": config.seed,
            "rounds": config.rounds,
            "exception_threshold": config.exception_threshold,
            "rootcause_threshold": config.rootcause_threshold,
            "planner": config.planner,
            "rules": config.rules_path,
            "blueprint": config.blueprint_path,
            "script": config.script_path,
        },
        "rounds": [],
        "root_cause": {"threshold": config.rootcause_threshold, "counters": report.counters},
        "suspects": [
            {"component": s.slot, "count": s.count, "implicated_by": list(s.implicated_by),
             "first_at": s.first_at, "last_at": s.last_at}
            for s in report.suspects
        ],
        "unhandled_failures": report.unhandled_failures,
    }).decode("ascii")
    # Only "config" and "root_cause" sort before "rounds", and neither holds a
    # list, so the first '"rounds":[]' is the top-level key.
    head, tail = doc.split('"rounds":[]', 1)
    yield head + '"rounds":['
    rounds, rendered = report.rounds, {}
    for start in range(0, len(rounds), _EMIT_BATCH):
        texts = [round_json(record, rendered) for record in rounds[start:start + _EMIT_BATCH]]
        yield ("," if start else "") + ",".join(texts)
    yield "]" + tail


def scenario_json(report: ScenarioReport) -> bytes:
    """Canonical JSON bytes for a scenario report (sorted keys, LF-terminated)."""
    return "".join(scenario_chunks(report)).encode("ascii")


ROUNDS_CSV_HEADER = [
    "round", "clock", "fault_kind", "fault_target", "reports", "plans",
    "strategies", "post_violations", "unhandled",
]


def _csv_cell(text: str) -> str:
    """``text`` as a cell of a row that ``csv.writer`` writes: as is, unless
    it holds a comma, a quote, a carriage return or a line feed. Only then is
    ``csv`` asked, so the quoting is whatever the running Python's ``csv``
    does (3.11 leaves a carriage return unquoted under a "\\n" terminator)."""
    if "," not in text and '"' not in text and "\r" not in text and "\n" not in text:
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])  # not empty: never the lone ""
    return buffer.getvalue()[:-1]


def _rounds_csv_chunks(rounds: list[RoundRecord]) -> Iterator[str]:
    """``rounds.csv`` as text in pieces: the header, then one piece per
    ``_EMIT_BATCH`` rounds. The bytes are those of ``csv.writer`` with
    ``lineterminator="\\n"``: every cell but the fault target is an integer
    or an enum value, which ``csv`` never quotes."""
    yield ",".join(ROUNDS_CSV_HEADER) + "\n"
    for start in range(0, len(rounds), _EMIT_BATCH):
        lines = []
        for r in rounds[start:start + _EMIT_BATCH]:
            # A round executes exactly the plans that are not NoMatch.
            executions = r.executions
            lines.append(
                f"{r.index},{r.clock_end},{r.fault.kind._value_},"
                f"{_csv_cell(render_subject(r.fault.target))},{len(r.reports)},"
                f"{len(executions)},{';'.join([e.plan.strategy._value_ for e in executions])},"
                f"{len(r.post_violations)},{len(r.plans) - len(executions)}\n")
        yield "".join(lines)


SUSPECT_CSV_HEADER = ["component", "count", "implicated_by", "first_at", "last_at"]


def _suspects_csv_chunks(suspects: list[RootCauseSuspect]) -> Iterator[str]:
    """``suspects.csv`` as text in pieces: the header, then every suspect's
    row. The bytes are those of ``csv.writer`` with ``lineterminator="\\n"``."""
    yield ",".join(SUSPECT_CSV_HEADER) + "\n"
    yield "".join([f"{_csv_cell(s.slot)},{s.count},{_csv_cell(';'.join(s.implicated_by))},"
                   f"{s.first_at},{s.last_at}\n" for s in suspects])


def emit_reports(report: ScenarioReport, out_dir: str) -> dict[str, str]:
    """Write scenario.json, rounds.csv, and suspects.csv, each as a new file
    (an old file or link at its path is removed, never written through);
    byte-stable for equal reports. Returns the written paths."""
    streams = (
        ("scenario", "scenario.json", scenario_chunks(report), "ascii"),
        ("rounds", "rounds.csv", _rounds_csv_chunks(report.rounds), "utf-8"),
        ("suspects", "suspects.csv", _suspects_csv_chunks(report.suspects), "utf-8"),
    )
    paths = {key: os.path.join(out_dir, name) for key, name, _, _ in streams}
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path in paths.values():  # a new file each: truncating a written one waits on writeback
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        # Binary, so that no text codec module is imported; "ascii" still rejects non-ASCII.
        for key, _, chunks, encoding in streams:
            with open(paths[key], "wb") as fh:
                fh.writelines(chunk.encode(encoding) for chunk in chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write reports under {out_dir}: {exc}") from exc
    return paths
