"""Span recorder for the traced benchmark run.

It wraps the public functions that ``healsim.harness`` and
``healsim.planner`` look up by module name, and the methods of the classes
they call, so every call into a layer becomes a span: a name, a start, an
end, the span that caused it, and the round it ran in. Spans stay in memory
and are written out at the end. A layer's self time is its spans' time
minus the time of their child spans, so the self times of all layers plus
the harness's own add up to the whole round.

Counts are taken at the same boundaries (change events, entries compared,
reports, plan requests and no-matches, mutations, violations).
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter


def _nearest_rank(ordered: list[int], q: float) -> int:
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, round]
        self.counts: Counter[str] = Counter()
        self.round = 0
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None, is_round: bool = False):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter_ns, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_round:  # ScenarioRunner.run_round numbers rounds from its records
                self.round = len(args[0].records) + 1
            span = [name, 0, 0, stack[-1], self.round]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self, healsim) -> None:
        """Patch the names the harness and the planner client call."""
        harness, planner = healsim.harness, healsim.planner

        def observed(counts, args, events):
            prev, cur = args
            counts["monitor.events"] += len(events)
            counts["monitor.compared"] += len(prev.slots) + len(prev.connectors) + len(cur.connectors)

        def planned(counts, args, outcome):
            counts["planner.requests"] += 1
            counts["planner.no_match"] += isinstance(outcome, planner.NoMatch)

        points = [
            (healsim.ScenarioRunner, "run_round", "harness.round", None),
            (harness, "draw_fault", "faults.draw", None),
            (harness, "inject", "faults.inject", None),
            (harness, "take_snapshot", "monitor.snapshot", None),
            (harness, "observe", "monitor.observe", observed),
            (harness, "classify", "analyzer.classify",
             lambda c, a, r: c.update({"analyzer.reports": len(r)})),
            (healsim.RootCauseLedger, "record_failure", "analyzer.ledger", None),
            (harness, "request_plan", "planner.request", planned),
            (planner, "encode", "planner.codec", None),
            (planner, "decode", "planner.codec", None),
            (planner, "evaluate", "rules.evaluate", None),
            (harness, "execute", "executor.execute",
             lambda c, a, r: c.update({"executor.mutations": len(r.applied_mutations)})),
            (harness, "validate", "model.validate",
             lambda c, a, r: c.update({"model.violations": len(r)})),
            (healsim.ArchitectureModel, "live_connector_specs", "model.live_connector_specs", None),
            (harness, "scenario_json", "harness.scenario_json", None),
            (harness, "emit_reports", "harness.emit", None),
        ]
        for owner, attr, name, count in points:
            fn = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, fn, count, is_round=name == "harness.round"))

    def self_times(self) -> tuple[Counter[str], Counter[str], dict[str, list[int]]]:
        """Per span name: total self time (ns), call count, and the
        inclusive duration of every span."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        durations: dict[str, list[int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            calls[name] += 1
            durations.setdefault(name, []).append(end - start)
        return self_ns, calls, durations

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics; ``_us`` is self time per round in microseconds,
        a bare count is a mean per round."""
        self_ns, calls, durations = self.self_times()
        counts = self.counts
        per_round = max(rounds, 1)

        def us(name: str) -> float:
            return self_ns[name] / per_round / 1e3

        requests = sorted(durations.get("planner.request", []))
        round_ns = sorted(durations.get("harness.round", []))
        return {
            "faults.draw_us": us("faults.draw"),
            "faults.inject_us": us("faults.inject"),
            "monitor.snapshot_us": us("monitor.snapshot"),
            "monitor.observe_us": us("monitor.observe"),
            "monitor.events": counts["monitor.events"] / per_round,
            "monitor.useful_ratio": counts["monitor.events"] / max(counts["monitor.compared"], 1),
            "analyzer.classify_us": us("analyzer.classify"),
            "analyzer.ledger_us": us("analyzer.ledger"),
            "analyzer.reports": counts["analyzer.reports"] / per_round,
            "planner.request_us_p50": _nearest_rank(requests, 0.50) / 1e3,
            "planner.request_us_p99": _nearest_rank(requests, 0.99) / 1e3,
            "planner.codec_us": us("planner.codec"),
            # The request's own time: waiting on the socket for a TCP
            # planner, dispatch for the in-process one.
            "planner.wait_us": us("planner.request"),
            "planner.requests": counts["planner.requests"] / per_round,
            "planner.no_match_ratio": counts["planner.no_match"] / max(counts["planner.requests"], 1),
            "rules.evaluate_us": us("rules.evaluate"),
            "executor.execute_us": us("executor.execute"),
            "executor.mutations": counts["executor.mutations"] / per_round,
            "model.validate_us": us("model.validate"),
            "model.violations": counts["model.violations"] / per_round,
            "model.live_connector_specs_us": us("model.live_connector_specs"),
            "model.live_connector_specs_calls": calls["model.live_connector_specs"] / per_round,
            "harness.round_us_p50": _nearest_rank(round_ns, 0.50) / 1e3,
            "harness.round_us_p99": _nearest_rank(round_ns, 0.99) / 1e3,
            "harness.round_self_us": us("harness.round"),
            "harness.scenario_json_s": self_ns["harness.scenario_json"] / 1e9,
            "harness.emit_s": self_ns["harness.emit"] / 1e9,
        }

    def write(self, path: str) -> None:
        """All spans as CSV: index, name, start_ns, end_ns, parent, round."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,round\n")
            for i, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{rnd}\n")
