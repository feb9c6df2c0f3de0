"""Golden digests: the report bytes of fixed scenarios, pinned by sha256.

Byte-identical reruns (acceptance criterion 6) only compare two runs of the
same build. These pins compare against the bytes an earlier build wrote, so
a refactor that changes behaviour fails here even when it is deterministic.
"""

import hashlib

from healsim.harness import ScenarioConfig, ScenarioRunner, emit_reports, run_scenario
from healsim.model import blueprint_from_json

REPORTS = ("scenario.json", "rounds.csv", "suspects.csv")

SHOP_SEED42_2000 = {
    "scenario.json": "3a90c1c42f029520fa6aa0a55ee969a7ff65facf9ea36688e387045f517fef9f",
    "rounds.csv": "cb6169992010e20bc1bdb551282d852f163c4c365b4ce14402c904c62ffd5cf4",
    "suspects.csv": "adda82549a816ff6e0beb90dd39a2ba909fae9391a0798ed9dea2caccb784896",
}

LAYERED50_SEED42_500 = {
    "scenario.json": "addf4f4a004a9a037470728e49d8e3390c159f7d5365b8b07dc444ae774c8d45",
    "rounds.csv": "79179a606f07538c6254c5dd8d1e8f22f2ce75e3483dd9e8c2e05578c829a478",
    "suspects.csv": "c453ebc333137ad06bd12d0842a47732b9726c6b65019e8cdc5384cbe35b44d1",
}


def layered_blueprint_doc(n: int) -> dict:
    """Slot L<i> has type T<i>, provides I<i> and requires the interfaces of
    L<i+1> and L<i+2>: 2n-3 intended connectors, a dependency chain n deep."""
    deps = [[j for j in (i + 1, i + 2) if j < n] for i in range(n)]
    return {
        "types": [
            {"name": f"T{i}", "provides": f"I{i}", "requires": [f"I{j}" for j in deps[i]]}
            for i in range(n)
        ],
        "slots": [{"slot": f"L{i}", "type": f"T{i}"} for i in range(n)],
        "connectors": [
            {"from": f"L{i}", "to": f"L{j}", "interface": f"I{j}"}
            for i in range(n)
            for j in deps[i]
        ],
    }


def digests(out_dir) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in REPORTS}


def test_shop_seed42_reports_match_golden(tmp_path):
    run_scenario(ScenarioConfig(seed=42, rounds=2000, out_dir=str(tmp_path)))
    assert digests(tmp_path) == SHOP_SEED42_2000


def test_layered50_seed42_reports_match_golden(tmp_path):
    blueprint = blueprint_from_json(layered_blueprint_doc(50))
    assert len(blueprint.intended_connectors) == 97
    runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=500), blueprint=blueprint)
    try:
        report = runner.run()
    finally:
        runner.close()
    emit_reports(report, str(tmp_path))
    assert digests(tmp_path) == LAYERED50_SEED42_500
