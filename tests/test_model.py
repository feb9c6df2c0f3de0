import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

from healsim.model import (
    ArchitectureModel,
    Blueprint,
    BlueprintError,
    Component,
    ComponentState,
    ComponentType,
    ConnectorSpec,
    ModelError,
    TargetAbsent,
    UnknownConnector,
    UnknownSlot,
    ViolationKind,
    blueprint_from_json,
    build_default_model,
    default_blueprint,
    instantiate_blueprint,
    load_blueprint,
    render_subject,
    validate,
)

from test_golden import layered_blueprint_doc
from test_oracles import REPLICA_DOC

QS_REP = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")


@pytest.fixture
def model():
    return build_default_model()


def test_default_model_shape(model):
    assert len(model.slot_views()) == 7
    assert len(model.live_connector_specs()) == model.live_count() == 9
    assert all(c is not None for _, c in model.slot_views())
    assert model.clock == 0


def test_fresh_model_validates_clean(model):
    assert validate(model) == ()


def test_default_dependencies(model):
    assert model.blueprint.dependencies_of("Query Service") == [
        "Last Second Sales Item Filter",
        "Reputation Service",
    ]
    assert model.blueprint.dependencies_of("Frontend") == [
        "Query Service",
        "Auth Service",
        "Bid Service",
    ]
    assert model.blueprint.dependencies_of("Persistence Service") == []


def test_dependencies_unknown_slot(model):
    with pytest.raises(UnknownSlot):
        model.blueprint.dependencies_of("Order Service")


def test_dependencies_ignore_live_damage(model):
    model.remove_connector(QS_REP)
    assert model.blueprint.dependencies_of("Query Service") == [
        "Last Second Sales Item Filter",
        "Reputation Service",
    ]


def test_validate_unknown_state(model):
    model.set_state("Query Service", ComponentState.UNKNOWN)
    violations = validate(model)
    assert len(violations) == 1
    assert violations[0].kind is ViolationKind.UNKNOWN_STATE
    assert violations[0].subject == "Query Service"


def test_validate_missing_connector(model):
    model.remove_connector(QS_REP)
    violations = validate(model)
    assert len(violations) == 1
    assert violations[0].kind is ViolationKind.MISSING_CONNECTOR
    assert violations[0].subject == QS_REP


def test_validate_not_started(model):
    model.set_state("Bid Service", ComponentState.STOPPED)
    kinds = [v.kind for v in validate(model)]
    assert kinds == [ViolationKind.NOT_STARTED]


def test_validate_missing_component_subsumes_connectors(model):
    model.remove_component("Persistence Service")
    violations = validate(model)
    # the four dangling connectors vanish with the component, so only the
    # slot itself is reported
    assert [v.kind for v in violations] == [ViolationKind.MISSING_COMPONENT]
    assert violations[0].subject == "Persistence Service"


def test_validate_order_is_slots_then_connectors(model):
    model.set_state("Persistence Service", ComponentState.UNKNOWN)
    model.remove_connector(ConnectorSpec("Frontend", "Query Service", "Query Service"))
    model.set_state("Frontend", ComponentState.UNKNOWN)
    kinds = [(v.kind, render_subject(v.subject)) for v in validate(model)]
    assert kinds == [
        (ViolationKind.UNKNOWN_STATE, "Frontend"),
        (ViolationKind.UNKNOWN_STATE, "Persistence Service"),
        (ViolationKind.MISSING_CONNECTOR, "Frontend->Query Service"),
    ]


def test_validate_is_pure(model):
    model.set_state("Query Service", ComponentState.UNKNOWN)
    model.add_exceptions("Bid Service", 3)
    snapshot = copy.deepcopy(model)
    validate(model)
    assert model == snapshot


def test_remove_then_add_connector_restores(model):
    original = model.live_connector_specs()
    model.remove_connector(QS_REP)
    assert model.live_count() == 8 and QS_REP not in model.live_connector_specs()
    model.add_connector(QS_REP)
    assert model.live_connector_specs() == original


def test_mutations(model):
    model.set_state("Query Service", ComponentState.UNKNOWN)
    assert model.component("Query Service").state is ComponentState.UNKNOWN
    model.add_exceptions("Bid Service", 6)
    assert model.component("Bid Service").exception_count == 6
    model.add_exceptions("Bid Service", 2)
    assert model.component("Bid Service").exception_count == 8
    model.restart("Bid Service")
    assert model.component("Bid Service").exception_count == 0
    model.restart("Query Service")
    assert model.component("Query Service") == Component("Query Service#1")
    model.advance_clock(250)
    assert model.clock == 250


def test_components_are_frozen_and_replaced_on_change(model):
    comp = model.component("Frontend")
    with pytest.raises(AttributeError):
        comp.state = ComponentState.UNKNOWN
    with pytest.raises(AttributeError):
        comp.exception_count = 9
    assert model.component("Frontend") is comp
    assert validate(model) == ()
    model.set_state("Frontend", ComponentState.UNKNOWN)
    model.add_exceptions("Frontend", 9)
    assert comp == Component("Frontend#1")
    assert model.component("Frontend") == Component("Frontend#1", ComponentState.UNKNOWN, 9)
    assert [v.kind for v in validate(model)] == [ViolationKind.UNKNOWN_STATE]


def test_model_components_name_each_slot_and_no_other():
    bp = default_blueprint()
    with pytest.raises(UnknownSlot, match="^slot 'Auth Service' is missing from the components$"):
        ArchitectureModel(bp, {}, set())
    components = dict.fromkeys(bp.slot_names())
    with pytest.raises(UnknownSlot, match="^no slot named 'Order Service'$"):
        ArchitectureModel(bp, {**components, "Order Service": None}, set())
    del components["Frontend"]  # the first name in sorted order is the one named
    with pytest.raises(UnknownSlot, match="^no slot named 'Basket'$"):
        ArchitectureModel(bp, {**components, "Basket": None}, set())
    with pytest.raises(UnknownSlot, match="^slot 'Frontend' is missing from the components$"):
        ArchitectureModel(bp, {**components, "Zone": None}, set())


def test_model_components_hold_components_or_none():
    """A value that is neither ends in a ModelError naming the first such
    slot in blueprint order, whatever the dict's own order."""
    bp = default_blueprint()
    with pytest.raises(ModelError, match="^slot 'Frontend' holds a str, not a Component$"):
        ArchitectureModel(bp, dict.fromkeys(bp.slot_names(), "x"), set())
    components = {slot: Component(f"{slot}#1") for slot in reversed(bp.slot_names())}
    components["Bid Service"], components["Query Service"] = ("Bid Service#1",), 0
    with pytest.raises(ModelError, match="^slot 'Query Service' holds a int, not a Component$"):
        ArchitectureModel(bp, components, set())


def test_model_rejects_a_live_connector_of_an_empty_slot():
    """Every live connector joins two present slots, as ``add_connector``
    keeps it: the constructor names the first offending connector by name.
    Connectors of an empty slot that are not live are fine."""
    bp = default_blueprint()
    components = {slot: Component(f"{slot}#1") for slot in bp.slot_names()}
    components["Frontend"] = None
    with pytest.raises(TargetAbsent,
                       match="^connector Frontend->Auth Service has an absent endpoint$"):
        ArchitectureModel(bp, components, bp.intended_connectors)
    kept = [spec for spec in bp.intended_connectors if spec.source != "Frontend"]
    model = ArchitectureModel(bp, components, kept)
    assert model.live_connector_specs() == kept
    assert [(v.kind, v.subject) for v in validate(model)] == [
        (ViolationKind.MISSING_COMPONENT, "Frontend")]  # its connectors go with it


def test_mutation_errors(model):
    model.remove_component("Bid Service")
    with pytest.raises(TargetAbsent):
        model.set_state("Bid Service", ComponentState.STARTED)
    with pytest.raises(TargetAbsent):
        model.add_exceptions("Bid Service", 1)
    with pytest.raises(TargetAbsent):
        model.remove_component("Bid Service")
    with pytest.raises(TargetAbsent):
        model.remove_connector(ConnectorSpec("Frontend", "Bid Service", "Bid Service"))
    with pytest.raises(UnknownSlot):
        model.component("Order Service")


def test_add_connector_rejects_unintended(model):
    replica = instantiate_blueprint(blueprint_from_json(REPLICA_DOC))
    cases = [
        (model, ConnectorSpec("Frontend", "Reputation Service", "Reputation Service")),
        (model, ConnectorSpec("Frontend", "Auth Service", "Query Service")),
        # interface-valid, since App B requires and Store A provides Store, but not intended
        (replica, ConnectorSpec("App B", "Store A", "Store")),
    ]
    for target, spec in cases:
        live = target.live_connector_specs()
        with pytest.raises(UnknownConnector, match=f"connector {spec.name} is not intended"):
            target.add_connector(spec)
        assert target.live_connector_specs() == live and spec not in target.live_connector_specs()


def test_add_connector_absent_endpoint(model):
    model.remove_component("Reputation Service")
    with pytest.raises(TargetAbsent):
        model.add_connector(QS_REP)


def test_remove_component_drops_incident_connectors(model):
    dropped = model.remove_component("Persistence Service")
    assert len(dropped) == 4
    assert model.live_count() == 5
    assert model.component("Persistence Service") is None


def test_replace_on_an_occupied_slot_flips_only_the_missing_connectors(model):
    """A fresh instance in place of the old one, and every incident connector
    whose other end is present live, in blueprint order; only the missing
    one among them is flipped, so the journal holds the slot and that one."""
    persistence = [spec for spec in model.blueprint.intended_connectors
                   if spec.target == "Persistence Service"]
    bid = ConnectorSpec("Bid Service", "Persistence Service", "Persistence Service")
    model.remove_connector(bid)
    model.remove_component("Reputation Service")
    old = model.component("Persistence Service")
    model.cut_journal()
    new, live = model.replace("Persistence Service")
    assert new == Component("Persistence Service#2") and model.component("Persistence Service") is new
    assert live == [spec for spec in persistence if spec.source != "Reputation Service"]
    assert bid in live and model.live_count() == 7  # of 9: Reputation Service took two
    since, _ = model.cut_journal()
    position = model.blueprint._connector_pos(bid)
    assert since == {model.blueprint._slot_pos["Persistence Service"]: old, ~position: (bid, True)}
    assert model.clock == 0  # the executor advances the clock by its trail


def test_fresh_model_damage_sets_are_empty_sized():
    """A set never shrinks its table, so sets that once held every position
    would stay sized for the blueprint, and so would walking them. The
    violation memo holds only the violations seen."""
    model = instantiate_blueprint(blueprint_from_json(layered_blueprint_doc(3200)))
    assert sys.getsizeof(model._damaged) == sys.getsizeof(model._missing) == sys.getsizeof(set())
    assert model._violations == {}
    model.remove_component("L5")
    assert len(validate(model)) == 1 and len(model._violations) == 1


def test_copy_and_pickle_reset_the_kept_answer(model):
    """A copied or unpickled model equals its original and answers validate
    anew, with equal violations in a tuple of its own; the original still
    returns the tuple it kept, and every other slot survives the trip."""
    model.remove_connector(QS_REP)
    answer = validate(model)
    assert validate(model) is answer and model._kept is not None
    for clone in (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert clone == model and clone._kept is None
        assert clone._journal == model._journal
        assert clone._violations.keys() == {~model.blueprint._connector_pos(QS_REP)}
        again = validate(clone)
        assert again == answer and again is not answer and validate(clone) is again
    assert validate(model) is answer


def test_restore_connectors_makes_live_the_missing_ones_with_both_ends_present(model):
    model.remove_component("Reputation Service")
    for spec in model.live_connector_specs():
        if "Query Service" in (spec.source, spec.target):
            model.remove_connector(spec)
    live = model.live_connector_specs()
    missing = [spec for spec in model.blueprint.intended_connectors
               if "Query Service" in (spec.source, spec.target) and spec not in live]
    expected = [s for s in missing if model.present(s.source) and model.present(s.target)]
    assert QS_REP in missing and QS_REP not in expected and len(expected) >= 2
    assert model.restore_connectors("Query Service") == expected  # blueprint order
    live = model.live_connector_specs()
    assert all(spec in live for spec in expected) and QS_REP not in live
    assert model.restore_connectors("Query Service") == []
    with pytest.raises(TargetAbsent):
        model.restore_connectors("Reputation Service")
    with pytest.raises(UnknownSlot):
        model.restore_connectors("Nowhere")


def test_instance_ids_never_repeat(model):
    """Each refill of a slot, empty or not, gets the next ``SLOT#N``, past the
    built model's ``SLOT#1``, and the slot holds the Component it was given.
    An unknown slot changes nothing."""
    seen = {"Bid Service#1"}
    for n in range(2, 7):
        if n % 2:
            model.remove_component("Bid Service")
        new, _ = model.replace("Bid Service")
        assert new == Component(f"Bid Service#{n}") and new.instance_id not in seen
        assert model.component("Bid Service") is new
        seen.add(new.instance_id)
    before = copy.deepcopy(model)
    with pytest.raises(UnknownSlot, match="^no slot named 'Order Service'$"):
        model.replace("Order Service")
    assert model == before and model._journal == before._journal


def test_live_connector_specs_order(model):
    specs = model.live_connector_specs()
    assert specs == list(model.blueprint.intended_connectors)
    model.remove_connector(specs[0])
    assert model.live_connector_specs() == specs[1:]


def test_blueprint_file_equivalent_to_default(tmp_path):
    # the bundled document and the builder must agree
    from importlib import resources

    text = resources.files("healsim").joinpath("data/default_blueprint.json").read_text("utf-8")
    path = tmp_path / "bp.json"
    path.write_text(text, encoding="utf-8")
    loaded = instantiate_blueprint(load_blueprint(str(path)))
    assert loaded == build_default_model()


def _minimal_blueprint_doc():
    return {
        "types": [
            {"name": "A", "provides": "A", "requires": ["B"]},
            {"name": "B", "provides": "B", "requires": []},
        ],
        "slots": [{"slot": "A", "type": "A"}, {"slot": "B", "type": "B"}],
        "connectors": [{"from": "A", "to": "B", "interface": "B"}],
    }


def test_blueprint_from_json_minimal():
    bp = blueprint_from_json(_minimal_blueprint_doc())
    assert bp.dependencies_of("A") == ["B"]
    model = instantiate_blueprint(bp)
    assert validate(model) == ()


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: d["slots"].append({"slot": "C", "type": "Nope"}), "unknown type"),
        (lambda d: d["connectors"].append({"from": "B", "to": "A", "interface": "A"}),
         "does not require"),
        (lambda d: d["types"].append({"name": "A", "provides": "A", "requires": []}),
         "duplicate"),
        (lambda d: d.pop("slots"), "malformed"),
        # whole messages
        (lambda d: d["types"][1].update(name=""), "^component type with empty name$"),
        (lambda d: d["types"][0]["requires"].append("B"),
         "^type 'A' lists a required interface twice$"),
        (lambda d: d["slots"].append({"slot": "A", "type": "B"}), "^duplicate slot 'A'$"),
        (lambda d: d["connectors"].append({"from": "A", "to": "Z", "interface": "B"}),
         "^connector A->Z references an unknown slot$"),
        (lambda d: d["connectors"].append({"from": "A", "to": "A", "interface": "B"}),
         "^connector A->A is a self loop$"),
        (lambda d: d["connectors"].append({"from": "B", "to": "A", "interface": "A"}),
         "^'B' does not require interface 'A'$"),
    ],
)
def test_blueprint_errors(mangle, message):
    doc = _minimal_blueprint_doc()
    mangle(doc)
    with pytest.raises(BlueprintError, match=message):
        blueprint_from_json(doc)


def test_negative_exception_increment_and_clock_step_are_rejected(model):
    with pytest.raises(ValueError, match="^exception increment must be non-negative$"):
        model.add_exceptions("Bid Service", -1)
    with pytest.raises(ValueError, match="^clock can only move forward$"):
        model.advance_clock(-1)
    assert model == build_default_model()  # neither changed anything


def test_blueprint_duplicate_connector_rejected():
    doc = _minimal_blueprint_doc()
    doc["connectors"].append(dict(doc["connectors"][0]))
    with pytest.raises(BlueprintError, match="declared twice"):
        blueprint_from_json(doc)


def test_blueprint_colliding_render_rejected():
    # "A->B" + "C" and "A" + "B->C" both render as "A->B->C". A CF4 on the
    # second would be planned as AS3 "A->B->C", and that name would resolve
    # to the first connector, which is live, so the repair would do nothing.
    doc = {
        "types": [
            {"name": "Up", "provides": "Up", "requires": ["Down"]},
            {"name": "Down", "provides": "Down", "requires": []},
        ],
        "slots": [
            {"slot": "A->B", "type": "Up"},
            {"slot": "A", "type": "Up"},
            {"slot": "C", "type": "Down"},
            {"slot": "B->C", "type": "Down"},
        ],
        "connectors": [
            {"from": "A->B", "to": "C", "interface": "Down"},
            {"from": "A", "to": "B->C", "interface": "Down"},
        ],
    }
    with pytest.raises(BlueprintError, match="both render as 'A->B->C'"):
        blueprint_from_json(doc)


SLOT_NAMED_LIKE_CONNECTOR_DOC = {
    "types": [
        {"name": "Up", "provides": "Up", "requires": ["Down"]},
        {"name": "Down", "provides": "Down", "requires": []},
    ],
    "slots": [
        {"slot": "A", "type": "Up"},
        {"slot": "B", "type": "Down"},
        {"slot": "A->B", "type": "Down"},
    ],
    "connectors": [{"from": "A", "to": "B", "interface": "Down"}],
}


def test_blueprint_slot_named_like_a_connector_rejected():
    # Failures are planned, counted and reported under their subject's text,
    # so a CF1 on slot "A->B" would count the CF4s of connector A->B as its own.
    with pytest.raises(
        BlueprintError, match=r"^slot 'A->B' and connector \('A', 'B'\) both render as 'A->B'$"
    ):
        blueprint_from_json(SLOT_NAMED_LIKE_CONNECTOR_DOC)


def test_blueprint_cycle_rejected():
    doc = {
        "types": [
            {"name": "A", "provides": "A", "requires": ["B"]},
            {"name": "B", "provides": "B", "requires": ["A"]},
        ],
        "slots": [{"slot": "A", "type": "A"}, {"slot": "B", "type": "B"}],
        "connectors": [
            {"from": "A", "to": "B", "interface": "B"},
            {"from": "B", "to": "A", "interface": "A"},
        ],
    }
    with pytest.raises(BlueprintError, match="cycle"):
        blueprint_from_json(doc)


def chain_doc(slots, edges):
    """One type per slot; each edge is a connector on the target's interface."""
    requires = {s: [] for s in slots}
    for a, b in edges:
        requires[a].append(b)
    return {
        "types": [{"name": s, "provides": s, "requires": requires[s]} for s in slots],
        "slots": [{"slot": s, "type": s} for s in slots],
        "connectors": [{"from": a, "to": b, "interface": b} for a, b in edges],
    }


@pytest.mark.parametrize(
    "slots, edges, trail",
    [
        (["A", "B"], [("A", "B"), ("B", "A")], "A -> B -> A"),
        # the cycle B -> C -> B is reached through the tail slot A, after
        # the walk has finished B's first dependency D
        (["A", "B", "C", "D"], [("A", "B"), ("B", "D"), ("B", "C"), ("C", "B")],
         "A -> B -> C -> B"),
        # the walk starts again at D after A's subtree is done
        (["A", "B", "D", "E"], [("A", "B"), ("D", "E"), ("E", "D")], "D -> E -> D"),
    ],
    ids=["two-cycle", "through-tail", "second-root"],
)
def test_blueprint_cycle_message_names_the_trail(slots, edges, trail):
    with pytest.raises(BlueprintError) as info:
        blueprint_from_json(chain_doc(slots, edges))
    assert str(info.value) == f"dependency cycle through {trail}"


def test_deep_blueprint_loads():
    # a dependency chain far deeper than the recursion limit
    slots = [f"S{i}" for i in range(5000)]
    bp = blueprint_from_json(chain_doc(slots, list(zip(slots, slots[1:]))))
    assert len(bp.intended_connectors) == 4999
    with pytest.raises(BlueprintError, match=r"cycle through S0 -> S1 -> .* -> S4999 -> S0$"):
        blueprint_from_json(chain_doc(slots, list(zip(slots, slots[1:] + slots[:1]))))


def test_default_blueprint_acyclic_and_complete():
    bp = default_blueprint()
    assert len(bp.slots) == 7
    assert len(bp.intended_connectors) == 9
    # every slot reachable as a dependency or dependent
    mentioned = {s for spec in bp.intended_connectors for s in (spec.source, spec.target)}
    assert mentioned == set(bp.slot_names())


def test_connector_spec_hash_follows_equality():
    spec = ConnectorSpec("a", "b", "I")
    same = [ConnectorSpec("a", "b", "I"), ConnectorSpec(spec.source, spec.target, spec.interface),
            copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))]
    for other in same:
        assert other == spec and hash(other) == hash(spec) and other.name == "a->b"
    assert ConnectorSpec("a", "b", "J") != spec  # same name, other interface
    # alike-rendering specs share a name and a hash, but stay unequal
    left, right = ConnectorSpec("a->b", "c", "I"), ConnectorSpec("a", "b->c", "I")
    assert left.name == right.name and hash(left) == hash(right)
    assert left != right and len({left, right}) == 2
    assert repr(spec) == "ConnectorSpec(source='a', target='b', interface='I')"


def test_connector_spec_pickled_under_one_hash_seed_is_found_under_another():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    make = ("import pickle, sys; from healsim.model import ConnectorSpec; "
            "sys.stdout.write(pickle.dumps(ConnectorSpec('Query Service', 'Bid Service', "
            "'Bid Service')).hex())")
    find = ("import pickle, sys; from healsim.model import ConnectorSpec; "
            "spec = pickle.loads(bytes.fromhex(sys.stdin.read())); "
            "fresh = ConnectorSpec('Query Service', 'Bid Service', 'Bid Service'); "
            "assert spec in {fresh} and fresh in {spec} and hash(spec) == hash(fresh); "
            "print(hash(spec))")

    def child(code, seed, stdin=None):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                              text=True, check=True, timeout=60, env=env).stdout

    pickled = child(make, "1")
    assert int(child(find, "2", pickled)) != int(child(find, "1", pickled))  # the seeds differ
