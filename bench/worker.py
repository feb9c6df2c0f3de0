"""One scenario run in a fresh interpreter, driven by ``bench/run.py``.

    python3 bench/worker.py '<json spec>'

The spec names the seed, the round count, the planner, the blueprint and
rule files (null for the bundled ones), the report directory, and whether
to trace. The worker times set-up from before ``import healsim`` until the
runner is ready, then the rounds until the three report files are closed,
and prints one JSON line with the timings, its peak RSS and the sha256 of
each report. Before set-up it times the calibration workload, whose figures
``bench/run.py`` uses to scale its times.
"""

import os
import resource
import sys
import time

from calibration import calibration_samples

# Calibrated before set-up, while the heap is nearly empty: its objects are
# freed before healsim allocates, so they do not raise the peak RSS either.
CALIBRATION_S = calibration_samples()

# Set-up starts here. Modules healsim also imports come after this line, so
# that their import counts toward set-up.
T0 = time.perf_counter()

import healsim  # noqa: E402
from healsim import (  # noqa: E402
    Fact,
    FaultKind,
    RemotePlanner,
    ScenarioConfig,
    ScenarioRunner,
    default_blueprint,
    default_ruleset,
    load_blueprint,
)
from healsim.rules import load_rules  # noqa: E402
import json  # noqa: E402

REPORTS = ("scenario.json", "rounds.csv", "suspects.csv")


def _setup(spec: dict) -> tuple[ScenarioRunner, dict]:
    t = time.perf_counter()
    blueprint = load_blueprint(spec["blueprint"]) if spec["blueprint"] else default_blueprint()
    load_blueprint_s = time.perf_counter() - t
    t = time.perf_counter()
    ruleset = load_rules(spec["rules"]) if spec["rules"] else default_ruleset()
    load_rules_s = time.perf_counter() - t
    config = ScenarioConfig(
        seed=spec["seed"],
        rounds=spec["rounds"],
        planner=spec["planner"],
        rules_path=spec["rules"],
        blueprint_path=spec["blueprint"],
    )
    runner = ScenarioRunner(config, ruleset=ruleset, blueprint=blueprint)
    if isinstance(runner.planner, RemotePlanner):
        # The connection is opened lazily; one probe request opens it so that
        # set-up includes the connect. Request ids are not in any report.
        runner.planner.plan(Fact(FaultKind.CF1, blueprint.slots[0][0], 0, 0, 0))
    return runner, {"load_blueprint_s": load_blueprint_s, "load_rules_s": load_rules_s}


def _digests(out_dir: str, planner: str) -> tuple[dict, int]:
    # Imported only now: hashlib maps OpenSSL, which would add megabytes to
    # the peak RSS measured before.
    import hashlib

    digests = {}
    size = 0
    for name in REPORTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        if name == "scenario.json":
            # A TCP run may differ from the in-process run only in the
            # echoed planner address; "config" sorts first, so the first
            # occurrence is the one in the config.
            echo = b'"planner":' + json.dumps(planner).encode()
            if echo not in data:
                raise RuntimeError(f"scenario.json does not echo planner {planner!r}")
            normal = data.replace(echo, b'"planner":"inproc"', 1)
            digests["scenario.json@inproc"] = hashlib.sha256(normal).hexdigest()
        size += len(data)
    return digests, size


def main(spec: dict) -> dict:
    runner, result = _setup(spec)
    result["setup_s"] = time.perf_counter() - T0
    result["calibration_s"] = CALIBRATION_S
    if spec.get("setup_only"):
        runner.close()
        return result

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(healsim)
    t = time.perf_counter()
    report = runner.run()
    # Looked up at call time so that the traced run gets the wrapped name.
    healsim.harness.emit_reports(report, spec["out"])
    result["rounds_s"] = time.perf_counter() - t
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.close()
    result["digests"], result["report_bytes"] = _digests(spec["out"], spec["planner"])
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(spec["rounds"])
        if spec.get("spans"):
            tracer.write(spec["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
