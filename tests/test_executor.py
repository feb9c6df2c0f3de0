import pytest

from healsim.executor import execute
from healsim.faults import FaultInstance, FaultKind, inject
from healsim.model import (
    ArchitectureModel,
    Component,
    ComponentState,
    ConnectorSpec,
    TargetAbsent,
    UnknownConnector,
    UnknownSlot,
    default_blueprint,
    render_subject,
    validate,
)
from healsim.monitor import take_snapshot
from healsim.rules import RepairPlan, Strategy
from views import build_default_model, slot_names

QS_REP = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")


def plan(strategy, subject, rule="test-rule"):
    return RepairPlan(strategy, subject, rule)


def test_as1_restarts_unknown_component():
    model = build_default_model()
    model.set_state("Query Service", ComponentState.UNKNOWN)
    model.add_exceptions("Query Service", 2)
    result = execute(model, plan(Strategy.AS1, "Query Service"))
    comp = model.component("Query Service")
    assert comp.state is ComponentState.STARTED
    assert comp.exception_count == 0
    assert validate(model) == ()
    assert result.new_instance_id is None
    assert len(result.applied_mutations) == 2
    assert result.completed_at == model.clock == 2  # 1 ms per mutation


def test_as1_on_absent_slot():
    model = build_default_model()
    model.remove_component("Query Service")
    with pytest.raises(TargetAbsent, match="^slot 'Query Service' is empty$"):
        execute(model, plan(Strategy.AS1, "Query Service"))


def test_as1_keeps_connectors():
    model = build_default_model()
    before = model.live_connector_specs()
    model.set_state("Frontend", ComponentState.UNKNOWN)
    execute(model, plan(Strategy.AS1, "Frontend"))
    assert model.live_connector_specs() == before


def test_as2_redeploys_absent_component():
    model = build_default_model()
    old_id = model.component("Persistence Service").instance_id
    inject(model, FaultInstance(FaultKind.CF3, "Persistence Service"))
    result = execute(model, plan(Strategy.AS2, "Persistence Service"))
    assert validate(model) == ()
    comp = model.component("Persistence Service")
    assert comp.state is ComponentState.STARTED
    assert comp.instance_id != old_id
    assert result.new_instance_id == comp.instance_id
    assert result.applied_mutations[0].startswith("instantiate(")
    # the four intended connectors into the slot return, blueprint order
    assert [m for m in result.applied_mutations if m.startswith("add_connector")] == [
        "add_connector(Auth Service->Persistence Service)",
        "add_connector(Bid Service->Persistence Service)",
        "add_connector(Reputation Service->Persistence Service)",
        "add_connector(Last Second Sales Item Filter->Persistence Service)",
    ]


def test_as2_on_present_component_restarts_and_reconnects():
    model = build_default_model()
    model.set_state("Query Service", ComponentState.STOPPED)
    model.remove_connector(QS_REP)
    result = execute(model, plan(Strategy.AS2, "Query Service"))
    assert validate(model) == ()
    assert result.new_instance_id is None
    assert "add_connector(Query Service->Reputation Service)" in result.applied_mutations


@pytest.mark.parametrize("strategy, state", [(Strategy.AS1, ComponentState.UNKNOWN),
                                             (Strategy.AS2, ComponentState.STOPPED)])
def test_a_restart_builds_one_component(strategy, state, monkeypatch):
    """AS1, and AS2 on a present slot, replace the slot's component once,
    and the trail still names both changes that replacement makes."""
    model = build_default_model()
    model.set_state("Query Service", state)
    model.add_exceptions("Query Service", 7)
    old = model.component("Query Service")
    model.cut_journal()
    built = []
    init = Component.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Component, "__init__", counted)
    result = execute(model, plan(strategy, "Query Service"))
    monkeypatch.undo()
    assert built == [("Query Service#1", ComponentState.STARTED, 0)]
    assert result.applied_mutations == ("set_state(Query Service, STARTED)",
                                        "reset_exceptions(Query Service)")
    assert model.component("Query Service") == Component("Query Service#1")
    assert model._journal == {model.blueprint._slot_pos["Query Service"]: old}
    assert validate(model) == () and model.clock == 2


def test_restart_of_an_empty_slot_raises_and_changes_nothing():
    model = build_default_model()
    model.remove_component("Query Service")

    def seen():
        return (list(model._components), set(model._damaged), set(model._missing),
                dict(model._journal), dict(model._instance_seq), model.clock)

    before = seen()
    with pytest.raises(TargetAbsent, match="^slot 'Query Service' is empty$"):
        model.restart("Query Service")
    assert seen() == before


def test_as3_restores_connector():
    model = build_default_model()
    inject(model, FaultInstance(FaultKind.CF4, QS_REP))
    result = execute(model, plan(Strategy.AS3, "Query Service->Reputation Service"))
    assert validate(model) == ()
    assert result.applied_mutations == ("add_connector(Query Service->Reputation Service)",)


def test_as3_is_idempotent():
    model = build_default_model()
    inject(model, FaultInstance(FaultKind.CF4, QS_REP))
    execute(model, plan(Strategy.AS3, "Query Service->Reputation Service"))
    snap = take_snapshot(model)
    clock = model.clock
    again = execute(model, plan(Strategy.AS3, "Query Service->Reputation Service"))
    assert again.applied_mutations == ()
    assert take_snapshot(model) == snap
    assert model.clock == clock


def test_as3_with_absent_endpoint():
    model = build_default_model()
    model.remove_component("Reputation Service")
    with pytest.raises(TargetAbsent, match="has an absent endpoint$"):
        execute(model, plan(Strategy.AS3, "Query Service->Reputation Service"))


def test_as4_swaps_instance():
    model = build_default_model()
    old_id = model.component("Bid Service").instance_id
    inject(model, FaultInstance(FaultKind.CF2, "Bid Service", magnitude=6))
    result = execute(model, plan(Strategy.AS4, "Bid Service"))
    comp = model.component("Bid Service")
    assert comp.instance_id != old_id
    assert comp.exception_count == 0
    assert comp.state is ComponentState.STARTED
    assert result.new_instance_id == comp.instance_id
    assert validate(model) == ()
    # both incident connectors live again
    live = model.live_connector_specs()
    assert ConnectorSpec("Frontend", "Bid Service", "Bid Service") in live
    assert ConnectorSpec("Bid Service", "Persistence Service", "Persistence Service") in live


def test_as4_ids_are_fresh_across_repeats():
    model = build_default_model()
    seen = {model.component("Bid Service").instance_id}
    for _ in range(4):
        result = execute(model, plan(Strategy.AS4, "Bid Service"))
        assert result.new_instance_id not in seen
        seen.add(result.new_instance_id)


def test_unknown_subjects():
    model = build_default_model()
    with pytest.raises(UnknownSlot):
        execute(model, plan(Strategy.AS1, "Order Service"))
    with pytest.raises(UnknownConnector):
        execute(model, plan(Strategy.AS3, "Frontend->Persistence Service"))
    with pytest.raises(UnknownConnector, match="^no intended connector named 'not a connector'$"):
        execute(model, plan(Strategy.AS3, "not a connector"))


# Per situation: the slot emptied first, the plan's subject, and the error each of
# AS1, AS2, AS3 and AS4 raises there (None: the plan applies).
QS_REP_NAME = "Query Service->Reputation Service"
SITUATIONS = {
    "empty slot": ("Query Service", "Query Service",
                   (TargetAbsent, None, UnknownConnector, None)),
    "connector named as a slot": (None, QS_REP_NAME,
                                  (UnknownSlot, UnknownSlot, None, UnknownSlot)),
    "slot named to AS3": (None, "Frontend", (None, None, UnknownConnector, None)),
    "unknown name": (None, "Order Service",
                     (UnknownSlot, UnknownSlot, UnknownConnector, UnknownSlot)),
    "absent endpoint": ("Reputation Service", QS_REP_NAME,
                        (UnknownSlot, UnknownSlot, TargetAbsent, UnknownSlot)),
}


@pytest.mark.parametrize("situation", SITUATIONS)
def test_inapplicable_repair_raises_a_model_error_and_changes_nothing(situation):
    """The model alone checks a plan: the first mutation an inapplicable plan
    attempts raises, before anything has changed."""
    emptied, subject, errors = SITUATIONS[situation]
    for strategy, error in zip(Strategy, errors):
        model = build_default_model()
        if emptied:
            model.remove_component(emptied)
        model.cut_journal()

        def seen():
            return (dict(model._journal), dict(model._instance_seq), model.clock,
                    model.live_connector_specs(), take_snapshot(model))

        before = seen()
        if error is None:
            execute(model, plan(strategy, subject))
            continue
        with pytest.raises(error):
            execute(model, plan(strategy, subject))
        assert seen() == before, strategy


def test_as4_on_a_directly_built_model_skips_the_current_id():
    bp = default_blueprint()
    components = {slot: Component(f"{slot}#1") for slot in slot_names(bp)}
    model = ArchitectureModel(bp, components, set(bp.intended_connectors))
    assert execute(model, plan(Strategy.AS4, "Frontend")).new_instance_id == "Frontend#2"
    assert model.component("Frontend").instance_id == "Frontend#2"
    assert execute(model, plan(Strategy.AS4, "Frontend")).new_instance_id == "Frontend#3"


def test_as4_reuses_no_id_a_slot_held():
    """New ids start past a built ``SLOT#N`` id, and AS2 into the emptied slot counts on."""
    bp = default_blueprint()
    components = {slot: Component(f"{slot}#1") for slot in slot_names(bp)}
    components["Frontend"] = Component("Frontend#2")
    model = ArchitectureModel(bp, components, set(bp.intended_connectors))
    assert execute(model, plan(Strategy.AS4, "Frontend")).new_instance_id == "Frontend#3"
    assert execute(model, plan(Strategy.AS4, "Frontend")).new_instance_id == "Frontend#4"
    model.remove_component("Frontend")
    assert execute(model, plan(Strategy.AS2, "Frontend")).new_instance_id == "Frontend#5"
    assert model.component("Frontend") == Component("Frontend#5")


def test_locality_only_subject_is_touched():
    model = build_default_model()
    inject(model, FaultInstance(FaultKind.CF1, "Auth Service"))
    before = take_snapshot(model)
    execute(model, plan(Strategy.AS1, "Auth Service"))
    after = take_snapshot(model)
    untouched = [
        (slot, a, b)
        for (slot, a), (_, b) in zip(before.slots, after.slots)
        if slot != "Auth Service"
    ]
    assert all(a == b for _, a, b in untouched)
    assert set(before.connectors) == set(after.connectors)


DEFAULT_STRATEGY = {
    FaultKind.CF1: Strategy.AS1,
    FaultKind.CF2: Strategy.AS4,
    FaultKind.CF3: Strategy.AS2,
    FaultKind.CF4: Strategy.AS3,
}


def _all_single_faults(model):
    for slot in slot_names(model.blueprint):
        yield FaultInstance(FaultKind.CF1, slot)
    for slot in slot_names(model.blueprint):
        yield FaultInstance(FaultKind.CF2, slot, magnitude=6)
    for slot in slot_names(model.blueprint):
        yield FaultInstance(FaultKind.CF3, slot)
    for spec in model.live_connector_specs():
        yield FaultInstance(FaultKind.CF4, spec)


def test_repair_soundness_exhaustive():
    # every (kind, eligible target) pair heals under the default mapping
    cases = list(_all_single_faults(build_default_model()))
    assert len(cases) == 30
    for fault in cases:
        model = build_default_model()
        inject(model, fault)
        subject = render_subject(fault.target)
        result = execute(model, plan(DEFAULT_STRATEGY[fault.kind], subject))
        assert validate(model) == (), (fault, result)
