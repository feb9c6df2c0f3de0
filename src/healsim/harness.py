"""Scenario harness: drives inject, analyze, plan, execute, validate rounds
and records everything it saw; analysis reads the model's change journal,
so a round builds no snapshot and no change event.

Every round injects exactly one fault (drawn from the seeded generator or
taken from an explicit script), runs one full repair cycle, then validates
the architecture against the blueprint. The fault changes one slot or one
connector, which ``classify`` reports at most once, so a round has at most
one report, plan and execution. All randomness flows from the single
splitmix64 seed and the clock is logical, so a config determines every
output byte.

A run ends by writing scenario.json, rounds.csv and suspects.csv, whose
formats this module alone owns. ``round_renderer`` makes the one function
that formats a round: it returns the round's scenario.json object and its
rounds.csv row, and renders each recurring name once, and a violations
tuple once while it stands. The runner renders its rounds as they finish, one
batch of ``_EMIT_BATCH`` at a time, keeps each batch's text and drops the
records, so a run holds no record it has rendered. ``report_stream`` is
all three reports as one stream of text pieces: the heads, the kept text
of each batch, and the tails, so a writer never holds a whole document.
``emit_reports`` opens the three files together and writes each piece as
it comes. All of scenario.json is written directly as canonical JSON
text, with no intermediate dicts and no ``json`` encoder. Key order is
fixed by hand and guarded by the dict-form oracle in
``tests/test_oracles.py``, which keeps ``canonical_json`` as the reference.
CSV rows are formatted directly too; only a name that needs quoting goes
through ``csv``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from collections.abc import Callable, Iterator
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
from .planner import InProcessPlanner, RemotePlanner, request_plan
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
        # scenario.json writes these as they print: a bool would print as True, not true.
        numbers = (seed, rounds, exception_threshold, rootcause_threshold)
        if not all(type(n) is int for n in numbers):
            raise ConfigError("seed, rounds and thresholds must be integers")
        if rounds < 0:
            raise ConfigError("rounds must be non-negative")
        if exception_threshold < 1 or rootcause_threshold < 1:
            raise ConfigError("thresholds must be at least 1")
        if out_dir == "":  # None writes no reports; "" would silently do the same
            raise ConfigError("the report directory must be a non-empty path")
        # scenario.json echoes the planner and the paths as JSON strings or null, and
        # the rounds read the script's faults: check them all before any round runs.
        paths = (rules_path, blueprint_path, script_path)
        if not (isinstance(planner, str) and all(p is None or isinstance(p, str) for p in paths)
                and (script is None or isinstance(script, (list, tuple))
                     and all(isinstance(fault, FaultInstance) for fault in script))):
            raise ConfigError("the planner must be a string, each path a string or None, "
                              "and the script None or a list or tuple of faults")
        self.seed, self.rounds, self.planner, self.out_dir = seed, rounds, planner, out_dir
        self.exception_threshold = exception_threshold
        self.rootcause_threshold = rootcause_threshold
        self.rules_path, self.blueprint_path = rules_path, blueprint_path
        self.script_path, self.script = script_path, script


class RoundRecord(Record):
    """One round. ``reports``, ``plans`` and ``executions`` each hold one item
    or none, and ``executions`` none for a NoMatch plan."""

    __slots__ = _fields = (
        "index", "fault", "reports", "plans", "executions", "post_violations",
        "clock_start", "clock_end",
    )

    def __init__(self, index: int, fault: FaultInstance, reports: tuple[FailureReport, ...],
                 plans: tuple[RepairPlan | NoMatch, ...], executions: tuple[ExecutionResult, ...],
                 post_violations: tuple[Violation, ...], clock_start: int, clock_end: int) -> None:
        self.index, self.fault, self.reports, self.plans = index, fault, reports, plans
        self.executions, self.post_violations = executions, post_violations
        self.clock_start, self.clock_end = clock_start, clock_end


class ScenarioReport(Record):
    """A finished run. ``batches`` holds its rounds as text, not records:
    for each batch, the ``scenario.json`` objects and the ``rounds.csv`` rows
    that ``render_batch`` made. ``healed`` counts the rounds that ended with
    no violation."""

    __slots__ = _fields = ("config", "batches", "counters", "suspects", "unhandled_failures",
                           "healed")

    def __init__(self, config: ScenarioConfig, batches: list[tuple[str, str]],
                 counters: dict[str, int], suspects: list[RootCauseSuspect],
                 unhandled_failures: int, healed: int) -> None:
        self.config, self.batches, self.counters = config, batches, counters
        self.suspects, self.unhandled_failures, self.healed = suspects, unhandled_failures, healed


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
    ``config.script`` it reads the one at ``config.script_path``, if any.

    ``records`` holds the rounds not yet rendered, fewer than
    ``_EMIT_BATCH``; ``batches`` holds the text of the rounds rendered, by
    the one ``round_renderer`` the runner owns for its run."""

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
        self.batches: list[tuple[str, str]] = []
        self.unhandled_failures = self.healed = 0
        self._rounds_run = self._next_report_id = 0
        self._render = round_renderer()

    def run_round(self) -> RoundRecord:
        """One full cycle: wait, inject, classify what the injection journalled,
        plan, execute, validate. Returns the round's record and appends it to
        ``records``; the round that fills a batch renders the batch into
        ``batches`` and empties ``records``. A round whose violations equal
        the previous round's holds that round's tuple, as ``validate``
        returns it."""
        model, threshold = self.model, self.config.exception_threshold
        index = self._rounds_run = self._rounds_run + 1
        clock_start = model.clock
        model.advance_clock(draw_interval(self.rng))
        if self._script is not None:
            scripted = self._script[index - 1]
            fault = FaultInstance(scripted.kind, scripted.target, scripted.magnitude, model.clock)
        else:
            fault = draw_fault(self.rng, model, threshold)
        model.cut_journal()  # the round classifies only what inject changes
        inject(model, fault)
        reports = plans = executions = ()
        if found := classify(model, threshold, self._next_report_id):
            (report,) = found  # one fault changes one slot or one connector: one report at most
            self._next_report_id += 1
            if report.kind is not _CF4:
                self.ledger.record_failure(report)
            plan = request_plan(self.planner, report, self.history)
            if type(plan) is NoMatch:
                # Unless something loaded logging, no handler can print this line.
                if (logging := sys.modules.get("logging")) is not None:
                    logging.getLogger(__name__).info(
                        "round %d: no rule handles %s(%s)", index, report.kind.value,
                        render_subject(report.subject))
                self.unhandled_failures += 1
            else:
                executions = (execute(model, plan),)
            reports, plans = (report,), (plan,)
        violations = validate(model)
        self.healed += not violations
        record = RoundRecord(index, fault, reports, plans, executions, violations, clock_start,
                             model.clock)
        self.records.append(record)
        if len(self.records) == _EMIT_BATCH:
            self._render_records()
        return record

    def _render_records(self) -> None:
        self.batches.append(render_batch(self._render, self.records))
        self.records.clear()

    def run(self) -> ScenarioReport:
        """Run the config's rounds and render the last, partial batch."""
        for _ in range(self.config.rounds):
            self.run_round()
        if self.records:
            self._render_records()
        return ScenarioReport(self.config, self.batches, self.ledger.counters,
                              self.ledger.suspects(), self.unhandled_failures, self.healed)

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

class _Names(dict):
    """A name (a fault target, a report or plan subject, a fired rule)
    mapped to its JSON text, escaped the first time the name is looked up."""

    __slots__ = ()

    def __missing__(self, name: str) -> str:
        text = self[name] = _str(name)
        return text


def round_renderer() -> Callable[[RoundRecord], tuple[str, str]]:
    """A renderer for the rounds of one report: called with each round in
    turn, it returns the round's object in ``scenario.json`` and its row of
    ``rounds.csv``, one f-string each, reading the record once. It is the one
    place a round is formatted. A round's one fault changes one slot or one
    connector, which ``classify`` reports at most once, and only a plan that
    is not NoMatch is executed; so the no-report, NoMatch and executed cases
    are written inline, and a record with two reports raises ValueError.

    The object is the canonical JSON encoder's text of the round's dict form,
    written directly: keys sorted by hand, strings escaped by ``json``'s own
    ASCII escaper. ``tests/test_oracles.py`` keeps the dict form, the encoder
    and a ``csv.writer`` loop for the row, and compares the bytes. Every cell
    but the fault target is an integer or an enum value, which ``csv`` never
    quotes.

    Each recurring thing is rendered once. A fault target's JSON text and
    CSV cell, and any other name's JSON text, are made once per name. A
    violation and a report's ``dependent_slots`` tuple are rendered once per
    object, kept by ``id``, and ``held`` keeps each such object, so no id it
    keys is reused; both are bounded by the blueprint, as ``classify`` gives
    every report of a slot its one tuple and ``validate`` one violation per
    deviation. A round's ``post_violations`` tuple is rendered unless it is
    the last one rendered, the only one whose text is kept: ``validate``
    answers with its previous tuple while the whole list stands. The empty
    tuple, one object, renders as empty text in both uses.

    ``ScenarioRunner`` owns one renderer and calls it through ``render_batch``.
    An enum member's text is read as ``_value_``, a plain attribute (``value``
    is a Python-level descriptor), and written unescaped: the values are
    plain ASCII identifiers."""
    rendered: dict[int, str] = {}
    held = []  # every object whose id keys rendered, kept alive as long as the memo
    names = _Names()
    targets: dict[str, tuple[str, str]] = {}
    last, last_text = (), ""  # the last post_violations tuple rendered, and its text

    def render(record: RoundRecord) -> tuple[str, str]:
        nonlocal last, last_text
        fault, post_violations = record.fault, record.post_violations
        if (target := targets.get(name := render_subject(fault.target))) is None:
            # get, not [], as a target is often new here: __missing__ is a Python call
            text = names.get(name) or names.setdefault(name, _str(name))
            target = targets[name] = (text, _csv_cell(name))
        if post_violations is not last:
            texts = []
            for v in post_violations:
                if (text := rendered.get(id(v))) is None:
                    text = rendered[id(v)] = (
                        f'{{"kind":"{v.kind._value_}","subject":{_str(render_subject(v.subject))}}}'
                    )
                    held.append(v)
                texts.append(text)
            last, last_text = post_violations, ",".join(texts)
        if not record.reports:  # nothing reported, so nothing planned or executed
            report = plan = execution = ""
            counts, unhandled = "0,0,,", 0
        else:
            (r,), (p,) = record.reports, record.plans  # a second report raises ValueError
            if (deps := rendered.get(id(r.dependent_slots))) is None:
                deps = rendered[id(r.dependent_slots)] = ",".join(map(_str, r.dependent_slots))
                held.append(r.dependent_slots)
            report = (
                f'{{"dependent_slots":[{deps}],"detected_at":{r.detected_at},'
                f'"exception_count":{r.exception_count},"kind":"{r.kind._value_}",'
                f'"report_id":{r.report_id},"subject":{names[render_subject(r.subject)]}}}')
            if type(p) is NoMatch:  # unhandled: nothing executed
                plan, execution = f'{{"no_match":true,"report_id":{r.report_id}}}', ""
                counts, unhandled = "1,0,,", 1
            else:
                (e,) = record.executions
                plan = (f'{{"fired_rule":{names[p.fired_rule]},"report_id":{r.report_id},'
                        f'"strategy":"{p.strategy._value_}","subject":{names[p.subject]}}}')
                strategy, instance = e.plan.strategy._value_, e.new_instance_id
                execution = (
                    f'{{"completed_at":{e.completed_at},'
                    f'"mutations":[{",".join(map(_str, e.applied_mutations))}],'
                    f'"new_instance_id":{"null" if instance is None else _str(instance)},'
                    f'"strategy":"{strategy}","subject":{names[e.plan.subject]}}}')
                counts, unhandled = f"1,1,{strategy},", 0
        magnitude = "" if fault.magnitude is None else f',"magnitude":{fault.magnitude}'
        return (
            f'{{"clock_end":{record.clock_end},"clock_start":{record.clock_start},'
            f'"executions":[{execution}],'
            f'"fault":{{"injected_at":{fault.injected_at},"kind":"{fault.kind._value_}"{magnitude},'
            f'"target":{target[0]}}},'
            f'"plans":[{plan}],"post_violations":[{last_text}],"reports":[{report}],'
            f'"round":{record.index}}}',
            f"{record.index},{record.clock_end},{fault.kind._value_},{target[1]},{counts}"
            f"{len(post_violations)},{unhandled}\n",
        )

    return render


# Rounds per batch: few enough that a run holds few records, enough that
# rendering and writing are not per round.
_EMIT_BATCH = 64


def render_batch(render: Callable[[RoundRecord], tuple[str, str]],
                 records: list[RoundRecord]) -> tuple[str, str]:
    """One batch of rounds as ``render`` formats them: their ``scenario.json``
    objects joined by commas, and their ``rounds.csv`` rows."""
    objects, rows = zip(*map(render, records))
    return ",".join(objects), "".join(rows)


ROUNDS_CSV_HEADER = [
    "round", "clock", "fault_kind", "fault_target", "reports", "plans",
    "strategies", "post_violations", "unhandled",
]
SUSPECT_CSV_HEADER = ["component", "count", "implicated_by", "first_at", "last_at"]


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


def report_stream(report: ScenarioReport) -> Iterator[tuple[str, str, str]]:
    """The text of the three reports, ``scenario.json`` (ASCII), ``rounds.csv``
    and ``suspects.csv``, in steps of one piece of each (empty where a step
    adds nothing to a file): the heads, one step per batch of rounds, and
    the tails. A writer thus never holds a whole document. The rounds were
    rendered by the runner as they finished, so a step per batch writes
    the text the report keeps and renders nothing; the suspects are read
    once.

    The ``scenario.json`` head (``config`` and ``root_cause``) and tail
    (``suspects`` and ``unhandled_failures``) are written directly in sorted
    key order, as ``round_renderer`` writes a round, and the rounds go
    between them. The CSV files are the bytes of ``csv.writer`` with
    ``lineterminator="\\n"``.
    """
    config = report.config

    def text(value: str | None) -> str:
        return "null" if value is None else _str(value)

    counters = ",".join([f"{_str(slot)}:{n}" for slot, n in sorted(report.counters.items())])
    # out_dir is where the report lands, not part of what it describes;
    # leaving it out keeps equal runs byte-identical wherever they are written.
    yield (f'{{"config":{{"blueprint":{text(config.blueprint_path)},'
           f'"exception_threshold":{config.exception_threshold},"planner":{_str(config.planner)},'
           f'"rootcause_threshold":{config.rootcause_threshold},"rounds":{config.rounds},'
           f'"rules":{text(config.rules_path)},"script":{text(config.script_path)},'
           f'"seed":{config.seed}}},'
           f'"root_cause":{{"counters":{{{counters}}},"threshold":{config.rootcause_threshold}}},'
           '"rounds":[',
           ",".join(ROUNDS_CSV_HEADER) + "\n", ",".join(SUSPECT_CSV_HEADER) + "\n")
    for i, (objects, rows) in enumerate(report.batches):
        yield ("," if i else "") + objects, rows, ""
    objects, rows = [], []
    for s in report.suspects:
        implicated = s.implicated_by
        objects.append(
            f'{{"component":{_str(s.slot)},"count":{s.count},"first_at":{s.first_at},'
            f'"implicated_by":[{",".join(map(_str, implicated))}],"last_at":{s.last_at}}}')
        rows.append(f"{_csv_cell(s.slot)},{s.count},{_csv_cell(';'.join(implicated))},"
                    f"{s.first_at},{s.last_at}\n")
    yield (f'],"suspects":[{",".join(objects)}],'
           f'"unhandled_failures":{report.unhandled_failures}}}\n', "", "".join(rows))


def scenario_json(report: ScenarioReport) -> bytes:
    """Canonical JSON bytes for a scenario report (sorted keys, LF-terminated)."""
    return "".join([scenario for scenario, _, _ in report_stream(report)]).encode("ascii")


def emit_reports(report: ScenarioReport, out_dir: str) -> dict[str, str]:
    """Write scenario.json, rounds.csv, and suspects.csv, each as a new file
    (an old file or link at its path is removed, never written through);
    byte-stable for equal reports. Returns the written paths. The three files
    are open together, and each piece of ``report_stream`` is written as it
    comes."""
    paths = {key: os.path.join(out_dir, f"{key}.{ext}")
             for key, ext in (("scenario", "json"), ("rounds", "csv"), ("suspects", "csv"))}
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path in paths.values():  # a new file each: truncating a written one waits on writeback
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        # Binary, so that no text codec module is imported; "ascii" still rejects non-ASCII.
        with (open(paths["scenario"], "wb") as scenario, open(paths["rounds"], "wb") as rounds,
              open(paths["suspects"], "wb") as suspects):
            for scenario_text, rounds_text, suspects_text in report_stream(report):
                scenario.write(scenario_text.encode("ascii"))
                if rounds_text:
                    rounds.write(rounds_text.encode("utf-8"))
                if suspects_text:
                    suspects.write(suspects_text.encode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot write reports under {out_dir}: {exc}") from exc
    return paths
