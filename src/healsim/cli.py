"""Command line interface.

    healsim run --seed N --rounds N [options]   run a scenario
    healsim serve-planner --rules PATH          run the planning service
    healsim validate-rules PATH                 check a rule file

``--log-level {WARNING,INFO,DEBUG}`` goes before the command (default WARNING);
at INFO, ``run`` logs each failure that no rule handles. ``validate-rules``
also prints each of ``rules.ruleset_warnings`` on stderr; the file is still accepted.

Exit codes: 0 success, 1 config/parse/execution error, 2 planner unreachable or failing.
"""

from __future__ import annotations

import argparse
import sys

from .faults import NoEligibleTarget
from .harness import EXCEPTION_THRESHOLD, ROOTCAUSE_THRESHOLD, ConfigError, ScenarioConfig
from .harness import run_scenario, split_host_port
from .model import ModelError
from .planner import DEFAULT_PORT, ConnectionFailed, MalformedFrame, RemoteError, RequestTimeout
from .rules import RuleError, load_rules, ruleset_warnings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="healsim",
                                     description="Self-healing architecture simulator")
    parser.add_argument("--log-level", choices=("WARNING", "INFO", "DEBUG"), default="WARNING",
                        help="log threshold on stderr (default: WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a fault injection and repair scenario")
    run.add_argument("--seed", type=int, required=True, help="64-bit random seed")
    run.add_argument("--rounds", type=int, required=True, help="number of rounds")
    run.add_argument("--rules", metavar="PATH", help="rule file (default: bundled policy)")
    run.add_argument("--blueprint", metavar="PATH",
                     help="blueprint JSON (default: bundled single-shop blueprint)")
    run.add_argument("--planner", default="inproc", metavar="MODE",
                     help="inproc or tcp://HOST:PORT (default: inproc)")
    run.add_argument("--exception-threshold", type=int, default=EXCEPTION_THRESHOLD, metavar="N")
    run.add_argument("--rootcause-threshold", type=int, default=ROOTCAUSE_THRESHOLD, metavar="N")
    run.add_argument("--script", metavar="PATH",
                     help="JSON fault list overriding random draws")
    run.add_argument("--out", default="out", metavar="DIR",
                     help="report directory (default: ./out)")

    serve = sub.add_parser("serve-planner", help="serve the rule engine over TCP")
    serve.add_argument("--rules", required=True, metavar="PATH")
    serve.add_argument("--bind", default=f"127.0.0.1:{DEFAULT_PORT}", metavar="HOST:PORT")

    check = sub.add_parser("validate-rules", help="parse a rule file and report errors")
    check.add_argument("path", metavar="PATH")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        seed=args.seed,
        rounds=args.rounds,
        exception_threshold=args.exception_threshold,
        rootcause_threshold=args.rootcause_threshold,
        planner=args.planner,
        rules_path=args.rules,
        blueprint_path=args.blueprint,
        script_path=args.script,
        out_dir=args.out,
    )
    report = run_scenario(config)
    healed = sum(1 for r in report.rounds if not r.post_violations)
    print(f"rounds: {len(report.rounds)}  healed: {healed}  "
          f"unhandled: {report.unhandled_failures}  suspects: {len(report.suspects)}")
    for suspect in report.suspects:
        print(f"suspect: {suspect.slot} (count {suspect.count})")
    print(f"reports written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import PlanService  # the server's modules load only for this command

    if (address := split_host_port(args.bind)) is None:
        print(f"error: --bind must be HOST:PORT with PORT 0-65535, got {args.bind!r}",
              file=sys.stderr)
        return 1
    ruleset = load_rules(args.rules)
    service = PlanService(ruleset, host=address[0], port=address[1])
    print(f"planner listening on {service.address[0]}:{service.address[1]} "
          f"({len(ruleset.rules)} rules)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.shutdown()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    ruleset = load_rules(args.path)
    for text in ruleset_warnings(ruleset):
        print(f"warning: {text}", file=sys.stderr)
    print(f"OK: {len(ruleset.rules)} rules")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # At WARNING a run logs nothing, so logging loads only for a lower level, the service, or a
    # process that has it already; basicConfig skips an embedder's setup, so the level is set apart.
    if args.log_level != "WARNING" or args.command == "serve-planner" or "logging" in sys.modules:
        import logging
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger().setLevel(args.log_level)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "serve-planner":
            return _cmd_serve(args)
        return _cmd_validate(args)
    except RuleError as exc:
        print(f"rule error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ModelError, NoEligibleTarget, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionFailed, RequestTimeout) as exc:
        print(f"planner unreachable: {exc}", file=sys.stderr)
        return 2
    except (RemoteError, MalformedFrame) as exc:
        print(f"planner error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
