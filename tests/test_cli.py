import json
import logging
import os
import re
import socket
import subprocess
import sys
import threading

import pytest

from healsim.cli import main
from healsim.planner import DEFAULT_PORT, MAX_FRAME, ErrorOutcome, encode
from test_golden import layered_blueprint_doc
from test_model import SLOT_NAMED_LIKE_CONNECTOR_DOC

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "policy.rules"
    path.write_text(
        'rule "restart-on-cf1" when kind == CF1 then AS1\n'
        'rule "replace-on-cf2" when kind == CF2 then AS4\n'
        'rule "redeploy-on-cf3" when kind == CF3 then AS2\n'
        'rule "reconnect-on-cf4" when kind == CF4 then AS3\n',
        encoding="utf-8",
    )
    return path


def test_validate_rules_ok(rules_file, capsys):
    assert main(["validate-rules", str(rules_file)]) == 0
    assert "OK: 4 rules" in capsys.readouterr().out


def test_validate_rules_warns_on_wrong_subject_kind(tmp_path, capsys):
    rules = tmp_path / "wrong-subject.rules"
    rules.write_text('rule "y" when kind == CF4 then AS1\n'
                     'rule "z" when not kind == CF4 then AS3\n'
                     'rule "ok" when kind == CF4 and exception_count > 1 then AS3\n'
                     'rule "w" when kind != CF1 then AS1\n',
                     encoding="utf-8")
    assert main(["validate-rules", str(rules)]) == 0
    out, err = capsys.readouterr()
    assert out == "OK: 4 rules\n"
    assert err == (  # a rule that draws both warnings gets the subject one first
        "warning: rule 'y' may fire on CF4, but AS1 repairs components, not connectors\n"
        "warning: rule 'z' may fire on CF1, CF2, CF3, but AS3 repairs connectors, not components\n"
        "warning: rule 'w' may fire on CF4, but AS1 repairs components, not connectors\n"
        "warning: rule 'w' may fire on CF3, but AS1 restarts in place"
        " and a CF3 always empties its slot\n"
    )


def test_validate_rules_warns_on_restart_after_cf3(tmp_path, capsys):
    """The bundled policy with AS1 for CF3 passes, with a warning: a CF3
    empties its slot, so the run would stop at the first one."""
    with open(os.path.join(SRC, "healsim", "data", "default.rules"), encoding="utf-8") as fh:
        text = fh.read()
    rules = tmp_path / "restart-cf3.rules"
    rules.write_text(text.replace("when kind == CF3 then AS2", "when kind == CF3 then AS1"),
                     encoding="utf-8")
    assert main(["validate-rules", str(rules)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("OK: 4 rules")
    assert err.splitlines() == [
        "warning: rule 'redeploy-on-cf3' may fire on CF3, but AS1 restarts in place"
        " and a CF3 always empties its slot",
    ]


def test_validate_rules_names_each_uncovered_kind_after_the_rule_warnings(tmp_path, capsys):
    """A kind with no rule whose condition may hold gets one line, CF1..CF4,
    after every rule's own warnings; a rule that may hold covers its kind."""
    rules = tmp_path / "gaps.rules"
    rules.write_text('rule "w" when kind != CF1 and kind != CF2 then AS1\n'
                     'rule "never" when kind == CF2 and not kind == CF2 then AS4\n'
                     'rule "maybe" when kind == CF3 and exception_count > 9 then AS2\n',
                     encoding="utf-8")
    assert main(["validate-rules", str(rules)]) == 0
    assert capsys.readouterr() == ("OK: 3 rules\n", (
        "warning: rule 'w' may fire on CF4, but AS1 repairs components, not connectors\n"
        "warning: rule 'w' may fire on CF3, but AS1 restarts in place"
        " and a CF3 always empties its slot\n"
        "warning: no rule may fire on CF1: such a failure is left unhandled\n"
        "warning: no rule may fire on CF2: such a failure is left unhandled\n"))


@pytest.mark.parametrize("path, err", [
    (os.path.join(SRC, "healsim", "data", "default.rules"), ""),
    # No rule warning; the bench policy drops the CF4 rule on purpose, and says so.
    (os.path.join(SRC, os.pardir, "bench", "degraded.rules"),
     "warning: no rule may fire on CF4: such a failure is left unhandled\n"),
], ids=["bundled", "bench-degraded"])
def test_validate_rules_shipped_policies_give_no_warning(path, err, capsys):
    assert main(["validate-rules", path]) == 0
    assert capsys.readouterr() == ("OK: 4 rules\n", err)


def test_log_level_info_shows_no_match_lines_and_keeps_the_reports(tmp_path):
    """--log-level INFO prints the no-match line on stderr; the reports are
    those of a WARNING run, byte for byte."""
    rules = os.path.join(SRC, os.pardir, "bench", "degraded.rules")
    runs = {}
    for level in ("INFO", "WARNING"):
        out = tmp_path / level
        proc = subprocess.run(
            [sys.executable, "-m", "healsim.cli", "--log-level", level, "run", "--seed", "42",
             "--rounds", "30", "--rules", rules, "--out", str(out)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        runs[level] = proc.stderr, {name: (out / name).read_bytes()
                                    for name in ("scenario.json", "rounds.csv", "suspects.csv")}
    info_err, warning_err = runs["INFO"][0], runs["WARNING"][0]
    assert "INFO healsim.harness: round 1: no rule handles CF4(" in info_err
    assert "no rule handles" not in warning_err
    assert runs["INFO"][1] == runs["WARNING"][1]


def test_log_level_applies_when_logging_is_already_configured(tmp_path, caplog):
    caplog.set_level(logging.DEBUG)  # the capture takes every record; restored after the test
    rules = os.path.join(SRC, os.pardir, "bench", "degraded.rules")
    args = ["run", "--seed", "42", "--rounds", "3", "--rules", rules, "--out", str(tmp_path)]
    assert main(args) == 0
    assert "no rule handles" not in caplog.text
    assert main(["--log-level", "INFO", *args]) == 0
    assert "round 1: no rule handles CF4(" in caplog.text


# The harness logs a no-match only once something has imported logging: before
# that, no handler can have been configured to print the line.
DEGRADED_RUN = ("from healsim import ScenarioConfig, run_scenario; "
                "report = run_scenario(ScenarioConfig(seed=42, rounds=20, rules_path=%r)); "
                "assert report.unhandled_failures > 0"
                % os.path.join(SRC, os.pardir, "bench", "degraded.rules"))


def test_no_match_line_shows_when_logging_is_configured_after_import():
    code = ("import healsim, logging; "
            "logging.basicConfig(level=logging.INFO, format='%(levelname)s %(name)s: %(message)s'); "
            + DEGRADED_RUN)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert re.search(r"^INFO healsim\.harness: round \d+: no rule handles CF4\(.+\)$",
                     proc.stderr, re.MULTILINE), proc.stderr


def test_no_match_run_without_logging_leaves_it_unloaded():
    code = DEGRADED_RUN + "; import sys; print('logging' in sys.modules)"
    proc = subprocess.run([sys.executable, "-B", "-S", "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env={"PYTHONPATH": SRC})
    assert (proc.stdout, proc.stderr) == ("False\n", "")


def test_run_at_the_default_level_leaves_logging_unloaded(tmp_path):
    code = ("import sys; from healsim.cli import main; "
            f"code = main(['run', '--seed', '42', '--rounds', '20', '--out', {str(tmp_path)!r}]); "
            "print(code, 'logging' in sys.modules)")
    proc = subprocess.run([sys.executable, "-B", "-S", "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env={"PYTHONPATH": SRC})
    assert proc.stdout.splitlines()[-1] == "0 False" and proc.stderr == ""


@pytest.mark.parametrize("level", ["INFO", "DEBUG"])
def test_serve_planner_logs_level_name_and_message(rules_file, level):
    with subprocess.Popen(
        [sys.executable, "-m", "healsim.cli", "--log-level", level, "serve-planner",
         "--rules", str(rules_file), "--bind", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "1"},
    ) as proc:
        watchdog = threading.Timer(30, proc.kill)  # a missing line must not block the reads
        watchdog.start()
        try:
            assert proc.stdout.readline().startswith("planner listening on 127.0.0.1:")
            assert re.fullmatch(r"INFO healsim\.service: plan service listening on "
                                r"127\.0\.0\.1:\d+\n", proc.stderr.readline())
        finally:
            watchdog.cancel()
            proc.terminate()
            proc.wait(timeout=10)


def test_validate_rules_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.rules"
    bad.write_text('rule "r" when kind = CF1 then AS1\n', encoding="utf-8")
    assert main(["validate-rules", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "col" in err


def test_validate_rules_missing_file(tmp_path, capsys):
    assert main(["validate-rules", str(tmp_path / "absent.rules")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_writes_reports(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--seed", "42", "--rounds", "5", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "rounds: 5" in stdout
    assert (out / "scenario.json").exists()
    assert (out / "rounds.csv").exists()
    assert (out / "suspects.csv").exists()


def test_run_deep_layered_blueprint(tmp_path, capsys):
    # a 5000-deep dependency chain: validation must not recurse per slot
    blueprint = tmp_path / "layered-5000.json"
    blueprint.write_text(json.dumps(layered_blueprint_doc(5000)), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--seed", "3", "--rounds", "5", "--blueprint", str(blueprint),
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert "rounds: 5" in capsys.readouterr().out
    assert len(json.loads((out / "scenario.json").read_bytes())["rounds"]) == 5
    assert len((out / "rounds.csv").read_text(encoding="utf-8").splitlines()) == 6
    assert (out / "suspects.csv").exists()


def test_run_with_script(tmp_path):
    script = tmp_path / "faults.json"
    script.write_text(
        json.dumps([{"kind": "CF4", "target": {"from": "Query Service",
                                               "to": "Reputation Service"}}]),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["run", "--seed", "1", "--rounds", "1",
                 "--script", str(script), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "scenario.json").read_text(encoding="utf-8"))
    assert doc["rounds"][0]["fault"]["kind"] == "CF4"


def test_run_prints_one_line_per_suspect_as_suspects_csv_lists_them(tmp_path, capsys):
    """Three failures of Query Service implicate each of its two
    dependencies three times: the threshold, so both are suspects."""
    script = tmp_path / "faults.json"
    script.write_text(json.dumps([{"kind": "CF1", "target": "Query Service"}] * 3),
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--seed", "1", "--rounds", "3", "--script", str(script),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "rounds: 3  healed: 3  unhandled: 0  suspects: 2",
        "suspect: Last Second Sales Item Filter (count 3)",
        "suspect: Reputation Service (count 3)",
        f"reports written to {out}",
    ]
    assert (out / "suspects.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        f"{slot},3,Query Service;Query Service;Query Service,348,1106"
        for slot in ("Last Second Sales Item Filter", "Reputation Service")
    ]


def test_run_with_script_loads_the_blueprint_once(tmp_path, monkeypatch):
    """The blueprint a script is read against is the run's own."""
    import healsim.cli
    import healsim.harness
    import healsim.model

    calls, load = [], healsim.model.load_blueprint

    def counted(path):
        calls.append(path)
        return load(path)

    for module in (healsim.cli, healsim.harness, healsim.model):
        if hasattr(module, "load_blueprint"):
            monkeypatch.setattr(module, "load_blueprint", counted)
    blueprint = os.path.join(SRC, "healsim", "data", "default_blueprint.json")
    script = tmp_path / "faults.json"
    script.write_text(json.dumps([{"kind": "CF3", "target": "Bid Service"}]), encoding="utf-8")
    assert main(["run", "--seed", "1", "--rounds", "1", "--blueprint", blueprint,
                 "--script", str(script), "--out", str(tmp_path / "out")]) == 0
    assert calls == [blueprint]


def _readme_examples():
    """README's script JSON block and its example rule line, from its text."""
    with open(os.path.join(SRC, os.pardir, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    script = text.split("A script file is a JSON list of faults:", 1)[1]
    script = script.split("```json\n", 1)[1].split("```", 1)[0]
    rule = next(line for line in text.splitlines() if line.startswith('rule "escalate"'))
    return script, rule


def test_readme_examples_run(tmp_path, capsys):
    script_text, rule = _readme_examples()
    script = tmp_path / "faults.json"
    script.write_text(script_text, encoding="utf-8")
    rounds = len(json.loads(script_text))
    assert rounds == 3
    assert main(["run", "--seed", "42", "--rounds", str(rounds), "--script", str(script),
                 "--out", str(tmp_path / "out")]) == 0
    assert f"rounds: {rounds}  healed: {rounds}  unhandled: 0" in capsys.readouterr().out
    rules = tmp_path / "escalate.rules"
    rules.write_text(rule + "\n", encoding="utf-8")
    assert main(["validate-rules", str(rules)]) == 0
    out, err = capsys.readouterr()
    assert out == "OK: 1 rules\n" and err == "".join(  # the one rule handles CF1 alone
        f"warning: no rule may fire on {kind}: such a failure is left unhandled\n"
        for kind in ("CF2", "CF3", "CF4"))


def test_run_bad_config_exit_1(tmp_path, capsys):
    code = main(["run", "--seed", "1", "--rounds", "3",
                 "--script", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_run_bad_rules_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.rules"
    bad.write_text("rule oops\n", encoding="utf-8")
    code = main(["run", "--seed", "1", "--rounds", "1",
                 "--rules", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "rule error" in capsys.readouterr().err


def test_run_planner_unreachable_exit_2(tmp_path, capsys):
    code = main(["run", "--seed", "1", "--rounds", "1",
                 "--planner", f"tcp://127.0.0.1:{DEFAULT_PORT + 211}",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "planner unreachable" in capsys.readouterr().err


def test_serve_planner_rejects_bad_bind(rules_file, capsys):
    assert main(["serve-planner", "--rules", str(rules_file), "--bind", "nope"]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["validate-rules", "{not_utf8}"],
        ["run", "--rules", "{not_utf8}"],
        ["run", "--blueprint", "{not_utf8}"],
        ["run", "--script", "{not_utf8}"],
        ["run", "--blueprint", "{list_slot}"],
        ["serve-planner", "--rules", "{rules}", "--bind", "127.0.0.1:99999"],
        ["run", "--blueprint", "{requires_str}"],
        ["run", "--blueprint", "{requires_obj}"],
        ["run", "--blueprint", "{deep}"],
        ["run", "--script", "{deep}"],
        ["validate-rules", "{big_salience}"],
        ["validate-rules", "{missing}"],
        ["run", "--out", ""],
        ["run", "--blueprint", "{slot_like_connector}"],
    ],
    ids=["validate-rules", "rules", "blueprint", "script", "non-string-slot", "port-range",
         "requires-string", "requires-object", "deep-blueprint", "deep-script",
         "salience-digits", "validate-rules-missing", "empty-out", "slot-like-connector"],
)
def test_bad_input_exits_1_with_one_line(tmp_path, rules_file, capsys, args):
    not_utf8 = tmp_path / "not-utf8"
    not_utf8.write_bytes(b"\xff\xfe")
    list_slot = tmp_path / "list-slot.json"
    list_slot.write_text(json.dumps({
        "types": [{"name": "A", "provides": "A", "requires": []}],
        "slots": [{"slot": ["x"], "type": "A"}],
        "connectors": [],
    }), encoding="utf-8")
    files = {"not_utf8": not_utf8, "list_slot": list_slot, "rules": rules_file,
             "missing": tmp_path / "absent.rules"}
    for name, requires in (("requires_str", "S"), ("requires_obj", {"S": 1})):  # not ["S"]
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({
            "types": [{"name": "A", "provides": "A", "requires": requires},
                      {"name": "S", "provides": "S", "requires": []}],
            "slots": [{"slot": "a", "type": "A"}, {"slot": "s", "type": "S"}],
            "connectors": [{"from": "a", "to": "s", "interface": "S"}],
        }), encoding="utf-8")
    files["deep"] = tmp_path / "deep.json"
    files["deep"].write_text("[" * 30000 + "]" * 30000, encoding="utf-8")
    files["big_salience"] = tmp_path / "big-salience.rules"
    files["big_salience"].write_text(
        'rule "r" salience ' + "9" * 5000 + " when kind == CF1 then AS1\n", encoding="utf-8"
    )
    files["slot_like_connector"] = tmp_path / "slot-like-connector.json"
    files["slot_like_connector"].write_text(json.dumps(SLOT_NAMED_LIKE_CONNECTOR_DOC),
                                            encoding="utf-8")
    args = [a.format(**files) for a in args]
    if args[0] == "run":  # a case's own --out comes later, so it wins
        args[1:1] = ["--seed", "1", "--rounds", "1", "--out", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "rule error: ")) and err.count("\n") == 1


def test_serve_planner_bind_failure_is_startup_error(rules_file, capsys):
    import socket

    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        code = main(["serve-planner", "--rules", str(rules_file),
                     "--bind", f"127.0.0.1:{port}"])
    assert code == 1
    assert "cannot bind" in capsys.readouterr().err


def test_serve_planner_serves_until_interrupt(rules_file, capsys, monkeypatch):
    started = threading.Event()

    class FakeService:
        def __init__(self, ruleset, host, port):
            self.address = (host, port)

        def serve_forever(self):
            started.set()
            raise KeyboardInterrupt

        def shutdown(self):
            pass

    monkeypatch.setattr("healsim.service.PlanService", FakeService)
    assert main(["serve-planner", "--rules", str(rules_file), "--bind", "127.0.0.1:7777"]) == 0
    assert started.is_set()
    assert "listening" in capsys.readouterr().out


def test_run_plan_that_cannot_execute_exit_1(tmp_path):
    """validate-rules accepts AS1 for CF4, but a connector cannot be
    restarted: the run ends with a typed error, not a traceback."""
    rules = tmp_path / "wrong-subject.rules"
    rules.write_text('rule "y" when kind == CF4 then AS1\n', encoding="utf-8")
    assert main(["validate-rules", str(rules)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "healsim.cli", "run", "--seed", "1", "--rounds", "50",
         "--rules", str(rules), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: no slot named")
    assert "Traceback" not in proc.stderr


def test_run_out_of_eligible_targets_exit_1(tmp_path):
    """Under a CF1-only policy the removed connectors stay removed, so a
    random run draws CF4 with no connector left: the run ends with a typed
    error, not a traceback, and writes no reports."""
    rules = tmp_path / "cf1-only.rules"
    rules.write_text('rule "r1" when kind == CF1 then AS1\n', encoding="utf-8")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "healsim.cli", "run", "--seed", "1", "--rounds", "50",
         "--rules", str(rules), "--out", str(out)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: no eligible target for CF4\n"
    assert not out.exists()


def _one_shot_planner(reply: bytes) -> int:
    """A planner stand-in on a free port: it accepts one connection, reads
    one request line, answers ``reply`` and closes."""
    server = socket.create_server(("127.0.0.1", 0))

    def serve():
        with server:
            conn, _ = server.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()
                conn.sendall(reply)

    threading.Thread(target=serve, daemon=True).start()
    return server.getsockname()[1]


@pytest.mark.parametrize(
    "reply",
    [b"not a frame\n", encode(1, ErrorOutcome("internal", "rule base broken")),
     b"x" * (MAX_FRAME + 1)],
    ids=["malformed-frame", "error-outcome", "reply-over-max-frame"],
)
def test_run_planner_failure_exit_2(tmp_path, capsys, reply):
    port = _one_shot_planner(reply)
    code = main(["run", "--seed", "1", "--rounds", "1",
                 "--planner", f"tcp://127.0.0.1:{port}", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("planner error: ")
