"""healsim benchmark: end-to-end throughput, set-up time and peak memory of
seeded scenarios, and a traced run that splits the round into layers.

    python3 bench/run.py --workload shop-inproc --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 42
    python3 bench/run.py --write-spec          # regenerate BENCHMARK.json

Run it from the repository root; it imports healsim from ``src/``. Every
scenario runs in a fresh interpreter (``bench/worker.py``), so set-up is
measured cold and peak RSS belongs to that one scenario. This script starts
workers one at a time and, for ``shop-tcp``, one ``healsim serve-planner``
child, and waits for each of them to end. All of them share one CPU, so a
TCP round trip does not wait for the host to wake a second one.

Times are reported in reference seconds: a fixed calibration workload
(``bench/calibration.py``) is timed just before each worker's set-up and
just after the worker exits, and every time is scaled by how much slower or faster than
``REFERENCE_CALIBRATION_S`` the host ran it (see ``speed_factor``). On a
shared host this takes most of the host's drift out of the figures;
result.json keeps the unscaled medians beside them.

``--seed`` is the scenario seed; the layered blueprint and the rule files
do not depend on it. With ``--trace 0`` it prints the end-to-end metrics: ``rounds_per_s``
(rounds from the first round until the three report files are closed),
``setup_s`` (import, blueprint and rules loaded, runner built, planner
connected) and ``peak_rss_mb``, each the median over the runs made in
``--seconds``. With ``--trace 1`` it alternates untraced and traced runs of
the same scenario and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Every run is checked. Reports must equal the pinned sha256 at the default
seed, every rerun in one invocation must be byte-identical, traced reports
must equal untraced ones, and ``shop-tcp`` must equal ``shop-inproc`` apart
from the echoed planner address. The CLI must still reproduce the golden
``scenario.json`` of ``healsim run --seed 42 --rounds 2000``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from calibration import calibration_samples
from layered import write_layered_blueprint

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # relative to ROOT; workers run there
RUN_SECONDS = 25
WORKER_TIMEOUT_S = 120
SETUP_SAMPLES = 5  # set-up-only workers per invocation, besides one per timed run
DEFAULT_SEED = 42
LAYERED_BLUEPRINT = f"{WORK}/layered-200.json"
LAYERED_SLOTS = 200

# Host seconds one calibration sample took, median over several minutes on
# the host the benchmark was defined on (a shared 2-vCPU Intel Xeon VM at
# 2.1 GHz, Python 3.11.7).
REFERENCE_CALIBRATION_S = 0.015


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, also written to BENCHMARK.json
    stresses: str
    rounds: int
    pin: str  # key into PINNED
    blueprint: str | None = None  # None: the bundled 7-slot shop
    rules: str | None = None  # None: the bundled policy
    tcp: bool = False

    @property
    def planner_rules(self) -> str:
        return self.rules or "src/healsim/data/default.rules"


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "shop-inproc",
            "bundled 7-slot shop, bundled policy, in-process planner: per-round fixed "
            "cost and report emission dominate; bypass case for scale-dependent work",
            "harness, monitor, executor, report emission",
            rounds=2000, pin="shop",
        ),
        Workload(
            "shop-tcp",
            "shop-inproc over one TCP connection to a serve-planner child: the request "
            "round trip dominates; must equal shop-inproc byte for byte",
            "planner (codec and socket wait)",
            rounds=2000, tcp=True, pin="shop",
        ),
        Workload(
            "layered-200",
            "generated 200-slot blueprint, slot i requires i+1 and i+2 (397 connectors): "
            "the O(slots+connectors) snapshot, observe, validate and draw scans dominate",
            "monitor, model, faults",
            rounds=200, blueprint=LAYERED_BLUEPRINT, pin="layered-200",
        ),
        Workload(
            "layered-degraded",
            "layered-200 with CF4 unhandled and a salience-10 escalation rule: damage "
            "persists, so validate, no-match and salience run on a broken model",
            "model (validate on a damaged model), rules, planner no-match path",
            rounds=200, blueprint=LAYERED_BLUEPRINT, rules="bench/degraded.rules",
            pin="layered-degraded",
        ),
    ]
}

# sha256 of the reports at DEFAULT_SEED and each workload's round count.
# "scenario.json@inproc" is scenario.json with the planner echo set to
# "inproc", so shop-tcp shares the shop-inproc pin.
PINNED = {
    "shop": {
        "scenario.json@inproc": "3a90c1c42f029520fa6aa0a55ee969a7ff65facf9ea36688e387045f517fef9f",
        "rounds.csv": "cb6169992010e20bc1bdb551282d852f163c4c365b4ce14402c904c62ffd5cf4",
        "suspects.csv": "adda82549a816ff6e0beb90dd39a2ba909fae9391a0798ed9dea2caccb784896",
    },
    "layered-200": {
        "scenario.json@inproc": "f50dc992a230f3b17c39a68855ad24d61569e786f26c53f78c674dc7ba6626ef",
        "rounds.csv": "57353e21e443e54add3b091e09938f9053cf9d684732bec7dfdc90cb17e282c7",
        "suspects.csv": "0e727b8d6cf30042fc2b706989104fd9fa701198c45bcf6edcfe273514c512cd",
    },
    "layered-degraded": {
        "scenario.json@inproc": "935f0389bf3b8998b2d15cb3091601f17d3553043ba92d0c60affbafaf06054f",
        "rounds.csv": "538e3f6ba59067bd5b4a12d5a3dbb77046fcdd43d497e25686c1e658deafb738",
        "suspects.csv": "4c157a7c7c12c3e8d2efe1d7db914b686ae3b2e203ac78f48bd3a43e8d9d1aea",
    },
}
CHECKED = ("scenario.json@inproc", "rounds.csv", "suspects.csv")
# ROADMAP's golden value: `healsim run --seed 42 --rounds 2000` on the bundled
# set-up, which is also the shop workloads' scenario at the default seed.
GOLDEN_SCENARIO = PINNED["shop"]["scenario.json@inproc"]

END_TO_END = [
    # name, unit, better, bound
    ("rounds_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

_LAYER_UNITS = {"_us": "us", "_s": "s", "_mb": "MB", "_ratio": "ratio", "_p50": "us",
                "_p99": "us"}
PER_LAYER_NAMES = [
    "faults.draw_us", "faults.inject_us",
    "monitor.snapshot_us", "monitor.observe_us", "monitor.events", "monitor.useful_ratio",
    "analyzer.classify_us", "analyzer.ledger_us", "analyzer.reports",
    "planner.request_us_p50", "planner.request_us_p99", "planner.codec_us",
    "planner.wait_us", "planner.requests", "planner.no_match_ratio", "planner.server_rss_mb",
    "rules.evaluate_us", "rules.load_s",
    "executor.execute_us", "executor.mutations",
    "model.validate_us", "model.violations", "model.live_connector_specs_us",
    "model.live_connector_specs_calls", "model.load_blueprint_s",
    "harness.round_us_p50", "harness.round_us_p99", "harness.round_self_us",
    "harness.scenario_json_s", "harness.emit_s", "harness.report_bytes",
    "trace.overhead_ratio",
]


def layer_unit(name: str) -> str:
    if name == "harness.report_bytes":
        return "bytes"
    for suffix, unit in _LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def layer_better(name: str) -> str:
    return "higher" if name == "monitor.useful_ratio" else "lower"


def spec_document() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": layer_unit(n), "better": layer_better(n)}
            for n in PER_LAYER_NAMES
        ],
    }


def speed_factor(result: dict) -> float:
    """Scale from a worker's host seconds to reference seconds: the
    reference calibration time over the worker's own, below 1 when the
    host ran slower than the reference. Every reported time is scaled by
    it; the unscaled medians go to result.json beside them."""
    return REFERENCE_CALIBRATION_S / statistics.median(result["calibration_s"])


# -- processes ---------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC  # the checkout's source, never an installed copy
    return env


class Tally:
    """Runs attempted and failed in one invocation, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


def _run(tally: Tally, argv: list[str]) -> subprocess.CompletedProcess | None:
    """Run a child to completion; one that times out is killed, reaped and
    counted as failed."""
    tally.attempted += 1
    try:
        return subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.fail(f"{argv[1:]} did not finish within {WORKER_TIMEOUT_S}s")
        return None


def run_cli(tally: Tally, *args: str) -> subprocess.CompletedProcess | None:
    proc = _run(tally, [sys.executable, "-m", "healsim.cli", *args])
    if proc is None:
        return None
    if proc.returncode != 0:
        tally.fail(f"healsim {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    return proc


def run_worker(tally: Tally, spec: dict) -> dict | None:
    """One ``bench/worker.py`` run. The worker calibrates the host before
    its set-up, and this process does just after the worker exits."""
    proc = _run(tally, [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)])
    after = calibration_samples()
    if proc is None:
        return None
    if proc.returncode != 0:
        tally.fail(f"worker {spec} exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["calibration_s"] += after
    return result


class PlannerChild:
    """``healsim serve-planner`` on 127.0.0.1 port 0, for one invocation."""

    def __init__(self, rules: str, err_path: str) -> None:
        self._err = open(err_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "healsim.cli", "serve-planner", "--rules", rules,
             "--bind", "127.0.0.1:0"],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=self._err,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 30)
            line = self.proc.stdout.readline().decode() if ready else ""
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"planner child did not report its port: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.address = f"tcp://{match.group(1)}:{match.group(2)}"

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in the planner child's status")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


# -- one workload ------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        head = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "git_head": head,
    }


def check_inputs(tally: Tally, workload: Workload) -> None:
    """The CLI still gives the golden scenario, and the workload's rule file
    passes ``healsim validate-rules``. The blueprint is checked by
    ``Blueprint``'s own validation when each worker loads it."""
    if workload.blueprint == LAYERED_BLUEPRINT:
        write_layered_blueprint(LAYERED_SLOTS, os.path.join(ROOT, LAYERED_BLUEPRINT))
    out = f"{WORK}/golden"
    if run_cli(tally, "run", "--seed", "42", "--rounds", "2000", "--out", out) is not None:
        with open(os.path.join(ROOT, out, "scenario.json"), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != GOLDEN_SCENARIO:
                tally.fail("healsim run --seed 42 --rounds 2000 lost its golden scenario.json")
    if workload.rules is not None:
        proc = run_cli(tally, "validate-rules", workload.rules)
        if proc is not None and not proc.stdout.startswith("OK:"):
            tally.fail(f"validate-rules {workload.rules}: {proc.stdout.strip()}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    env = environment()
    work = os.path.join(ROOT, WORK, workload.name)
    os.makedirs(work, exist_ok=True)
    check_inputs(tally, workload)
    child = PlannerChild(workload.planner_rules, os.path.join(work, "planner.err")) \
        if workload.tcp else None
    try:
        planner = child.address if child else "inproc"

        def spec(run_seed: int, out: str, **extra) -> dict:
            return {"seed": run_seed, "rounds": workload.rounds, "planner": planner,
                    "blueprint": workload.blueprint, "rules": workload.rules,
                    "out": f"{WORK}/{workload.name}/{out}", **extra}

        def verified(result: dict | None, *wants: tuple[dict, str]) -> bool:
            """A run that exited 0 and matches every wanted digest; a run
            that does not counts as one failure."""
            if result is None:
                return False
            for want, what in wants:
                got = {k: result["digests"][k] for k in want}
                if got != want:
                    tally.fail(f"{workload.name} seed {seed}: {what}: {got} != {want}")
                    return False
            return True

        # Warm-up: the first import writes the bytecode caches.
        run_worker(tally, spec(seed, "setup", setup_only=True))
        pinned = {k: PINNED[workload.pin][k] for k in CHECKED}
        if seed == DEFAULT_SEED:
            reference = pinned
        else:
            verified(run_worker(tally, spec(DEFAULT_SEED, "pinned")), (pinned, "pinned digests"))
            reference = None
            if workload.tcp:  # the inproc twin of this seed is the oracle
                twin = run_worker(tally, dict(spec(seed, "inproc"), planner="inproc"))
                if twin is not None:
                    reference = {k: twin["digests"][k] for k in CHECKED}

        setups = []
        for _ in range(SETUP_SAMPLES):
            result = run_worker(tally, spec(seed, "setup", setup_only=True))
            if result is not None:
                setups.append(result)

        plain: list[dict] = []
        traced: list[dict] = []
        first: dict | None = None
        start = time.perf_counter()
        while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
            modes = (False, True) if trace else (False,)
            for tracing in modes:
                result = run_worker(tally, spec(
                    seed, "traced" if tracing else "run", trace=tracing,
                    spans=f"{WORK}/{workload.name}/spans.csv" if tracing else None))
                if result is not None and first is None:
                    first = result["digests"]
                    if reference is None:
                        reference = {k: first[k] for k in CHECKED}
                if verified(result, (first, "rerun or traced run differs"),
                            (reference, "reference digests")):
                    (traced if tracing else plain).append(result)
            if tally.failures and (not plain or (trace and not traced)):
                break
        server_rss = child.peak_rss_mb() if child else 0.0
    finally:
        if child is not None:
            child.stop()

    if not plain or (trace and not traced):
        raise SystemExit(f"{workload.name}: no successful run; " + "; ".join(tally.failures))
    for r in setups + plain + traced:
        r["speed"] = speed_factor(r)
    setups += plain
    rounds_s = statistics.median(r["rounds_s"] * r["speed"] for r in plain)
    metrics = {
        "rounds_per_s": workload.rounds / rounds_s,
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    raw = {
        "rounds_per_s": workload.rounds / statistics.median(r["rounds_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "speed_factor": statistics.median(r["speed"] for r in setups),
    }
    samples = {
        "rounds_per_s": [workload.rounds / (r["rounds_s"] * r["speed"]) for r in plain],
        "setup_s": [r["setup_s"] * r["speed"] for r in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if trace:
        for r in traced:
            r["layers"].update({
                "rules.load_s": r["load_rules_s"],
                "model.load_blueprint_s": r["load_blueprint_s"],
                "trace.overhead_ratio": r["rounds_s"] * r["speed"] / rounds_s,
            })
        layers = {
            name: statistics.median(
                r["layers"][name] * (r["speed"] if layer_unit(name) in ("us", "s") else 1)
                for r in traced)
            for name in traced[0]["layers"]
        }
        layers["planner.server_rss_mb"] = server_rss
        layers["harness.report_bytes"] = traced[0]["report_bytes"]
        metrics = {name: layers[name] for name in PER_LAYER_NAMES}
        unit = layer_unit
    else:
        units = {n: u for n, u, _, _ in END_TO_END}
        unit = units.__getitem__
    record = {
        "workload": workload.name, "why": workload.why, "stresses": workload.stresses,
        "rounds": workload.rounds, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "runs": len(plain), "traced_runs": len(traced),
        "setup_samples": len(setups), "failures": tally.failures, "unscaled": raw,
        "samples": samples,
        "metrics": {n: {"value": v, "unit": unit(n)} for n, v in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": record["metrics"],
        "record": record,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the definitions here and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(spec_document(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "healsim", "__init__.py")):
        print(f"error: no healsim source under {SRC}", file=sys.stderr)
        return 2

    # Every process of the run shares one CPU, which the children inherit.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = result
        env = result["record"]["environment"]
        print(f"{name}: seed {args.seed}, {result['record']['runs']} runs, "
              f"python {env['python']}, nproc {env['nproc']}, load {env['loadavg'][0]:.2f}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
