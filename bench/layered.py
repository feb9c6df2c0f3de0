"""Generator for the layered blueprint: slot i requires slots i+1 and i+2.

Each slot has its own component type that provides interface ``I<i>`` and
requires the interfaces of its next two neighbours, so a blueprint of N
slots has 2N-3 intended connectors and a dependency chain N deep.
"""

from __future__ import annotations

import json


def layered_blueprint(slots: int) -> dict:
    """The blueprint document in the shape ``load_blueprint`` reads."""
    if slots < 3:
        raise ValueError("a layered blueprint needs at least 3 slots")
    names = [f"L{i:03d}" for i in range(slots)]
    deps = [[j for j in (i + 1, i + 2) if j < slots] for i in range(slots)]
    return {
        "types": [
            {"name": f"T{i:03d}", "provides": f"I{i:03d}",
             "requires": [f"I{j:03d}" for j in deps[i]]}
            for i in range(slots)
        ],
        "slots": [{"slot": names[i], "type": f"T{i:03d}"} for i in range(slots)],
        "connectors": [
            {"from": names[i], "to": names[j], "interface": f"I{j:03d}"}
            for i in range(slots) for j in deps[i]
        ],
    }


def write_layered_blueprint(slots: int, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(layered_blueprint(slots), fh, indent=1, sort_keys=True)
        fh.write("\n")
