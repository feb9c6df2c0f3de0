import os

import pytest
from hypothesis import example, given, settings, strategies as st

from healsim.faults import FaultKind
from healsim.rules import _OPS as OPS
from healsim.rules import (
    INT_FIELDS,
    MAX_NESTING,
    And,
    Comparison,
    DuplicateRuleName,
    Fact,
    NoMatch,
    Not,
    Or,
    RepairPlan,
    Rule,
    RuleSet,
    RuleSyntaxError,
    Strategy,
    UnknownField,
    UnknownStrategy,
    _compile,
    _may_hold,
    default_ruleset,
    evaluate,
    parse_rules,
    rule_warnings,
)


def fact(kind=FaultKind.CF1, subject="Query Service", **kw):
    return Fact(kind=kind, subject=subject, **kw)


# -- parsing ------------------------------------------------------------------


def test_parse_single_rule():
    ruleset = parse_rules('rule "r1" when kind == CF4 then AS3')
    assert len(ruleset.rules) == 1
    rule = ruleset.rules[0]
    assert rule.name == "r1"
    assert rule.salience == 0
    assert rule.condition == Comparison("kind", "==", FaultKind.CF4)
    assert rule.strategy is Strategy.AS3


def test_parse_salience_and_comments():
    text = """
    # escalation policy
    rule "hot" salience 10 when prior_failures_of_subject >= 2 then AS4
    rule "cold" when kind != CF2 then AS1  # trailing comment
    """
    ruleset = parse_rules(text)
    assert [r.salience for r in ruleset.rules] == [10, 0]


def test_parse_empty_file_is_empty_ruleset():
    assert parse_rules("") == RuleSet(())
    assert parse_rules("# nothing but comments\n") == RuleSet(())


def test_parse_precedence_and_binds_tighter():
    ruleset = parse_rules(
        'rule "r" when kind == CF1 or kind == CF2 and exception_count > 5 then AS1'
    )
    condition = ruleset.rules[0].condition
    assert isinstance(condition, Or)
    assert condition.parts[0] == Comparison("kind", "==", FaultKind.CF1)
    assert isinstance(condition.parts[1], And)


def test_parse_parens_and_not():
    ruleset = parse_rules(
        'rule "r" when not (kind == CF1 or kind == CF2) and dependent_count > 0 then AS2'
    )
    condition = ruleset.rules[0].condition
    assert isinstance(condition, And)
    assert isinstance(condition.parts[0], Not)
    assert isinstance(condition.parts[0].term, Or)


def test_parse_subject_string_with_escapes():
    ruleset = parse_rules(r'rule "r" when subject == "A \"big\" slot\\" then AS1')
    assert ruleset.rules[0].condition.value == 'A "big" slot\\'


def test_duplicate_rule_name():
    text = 'rule "same" when kind == CF1 then AS1\nrule "same" when kind == CF2 then AS2'
    with pytest.raises(DuplicateRuleName) as err:
        parse_rules(text)
    assert err.value.name == "same"
    assert err.value.line == 2


def test_unknown_strategy():
    with pytest.raises(UnknownStrategy) as err:
        parse_rules('rule "r" when kind == CF1 then AS9')
    assert err.value.token == "AS9"


def test_unknown_field():
    with pytest.raises(UnknownField) as err:
        parse_rules('rule "r" when kin == CF1 then AS1')
    assert err.value.token == "kin"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('rule r1 when kind == CF1 then AS1', "rule name"),
        ('rule "r" when kind == CF1', "then"),
        ('rule "r" when kind > CF1 then AS1', "integer field"),
        ('rule "r" when subject > "x" then AS1', "integer field"),
        ('rule "r" when kind == "CF1" then AS1', "CF1..CF4"),
        ('rule "r" when subject == CF1 then AS1', "quoted string"),
        ('rule "r" when exception_count == "5" then AS1', "integer"),
        ('rule "r" when (kind == CF1 then AS1', "')'"),
        ('rule "r" salience x when kind == CF1 then AS1', "salience"),
        ('rule "r" when kind == CF1 then AS1 garbage', "rule"),
        ('rule "unterminated when kind == CF1 then AS1', "unterminated"),
    ],
)
def test_syntax_errors_have_positions(text, fragment):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rules(text)
    assert fragment in str(err.value)
    assert err.value.line >= 1 and err.value.col >= 1


@pytest.mark.parametrize(
    "text,position,fragment",
    [
        ('rule "r" salience ' + "9" * 5000 + " when kind == CF1 then AS1", (1, 19), "too long"),
        ('rule "r" when\n  exception_count > -' + "1" * 4301 + " then AS1", (2, 21), "too long"),
        ('rule "r" when ' + "(" * 3000 + "kind == CF1" + ")" * 3000 + " then AS1",
         (1, 15 + MAX_NESTING), "nest deeper"),
    ],
    ids=["salience-digits", "literal-digits", "nested-3000-deep"],
)
def test_limits_end_in_positioned_syntax_errors(text, position, fragment):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rules(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == position


@pytest.mark.parametrize(
    "text,message,position",
    [
        ('rule "a\\xb" when kind == CF1 then AS1', "unsupported escape \\x", (1, 6)),
        ('rule "r" when subject == "a\\\nb" then AS1', "unterminated string literal", (1, 26)),
        ('rule "r" when\n  subject == "\\ " then AS1', "unsupported escape \\ ", (2, 14)),
        ('rule "" when kind == CF1 then AS1', "rule name must be non-empty", (1, 6)),
        ('rule "r" when kind == CF1 then 5', "expected strategy", (1, 32)),
        ('rule "r" when kind == CF1 then', "expected strategy", (1, 31)),
        ('rule "r" when 5 == 5 then AS1', "expected a field or '(', found '5'", (1, 15)),
        ('rule "r"\nwhen', "expected a field or '(', found 'end of file'", (2, 5)),
        ('rule "r" when kind CF1 then AS1', "expected a comparison operator", (1, 20)),
        ('rule "r" when\n\tnot (kind) then AS1', "expected a comparison operator", (2, 11)),
    ],
    ids=["escape", "backslash-newline", "escape-line-2", "empty-name", "int-strategy",
         "no-strategy", "int-field", "no-condition", "no-operator", "no-operator-line-2"],
)
def test_syntax_errors_pin_message_line_and_col(text, message, position):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rules(text)
    assert (err.value.message, (err.value.line, err.value.col)) == (message, position)
    assert str(err.value) == f"line {position[0]}, col {position[1]}: {message}"


def test_parentheses_at_the_nesting_limit_parse():
    cond = "(" * MAX_NESTING + "kind == CF1 or not exception_count > 4" + ")" * MAX_NESTING
    ruleset = parse_rules(f'rule "r" when {cond} and dependent_count >= {"1" * 4300} then AS1')
    assert parse_rules(format_rules(ruleset)) == ruleset
    assert evaluate(ruleset, fact()) == NoMatch()


def test_error_position_points_at_token():
    with pytest.raises(UnknownField) as err:
        parse_rules('rule "r" when\n    bogus == CF1 then AS1')
    assert (err.value.line, err.value.col) == (2, 5)


# -- defaults -----------------------------------------------------------------


def test_default_ruleset_mappings():
    ruleset = default_ruleset()
    assert [r.name for r in ruleset.rules] == [
        "restart-on-cf1", "replace-on-cf2", "redeploy-on-cf3", "reconnect-on-cf4",
    ]
    expected = {
        FaultKind.CF1: Strategy.AS1,
        FaultKind.CF2: Strategy.AS4,
        FaultKind.CF3: Strategy.AS2,
        FaultKind.CF4: Strategy.AS3,
    }
    for kind, strategy in expected.items():
        plan = evaluate(ruleset, fact(kind=kind))
        assert plan.strategy is strategy


def test_default_cf4_plan_names_its_rule():
    plan = evaluate(default_ruleset(), fact(kind=FaultKind.CF4, subject="Query Service->Reputation Service"))
    assert plan == RepairPlan(Strategy.AS3, "Query Service->Reputation Service",
                              "reconnect-on-cf4")


# -- evaluation ---------------------------------------------------------------


def test_salience_wins_over_position():
    text = (
        'rule "first" when kind == CF1 then AS1\n'
        'rule "second" salience 10 when kind == CF1 then AS4\n'
    )
    plan = evaluate(parse_rules(text), fact())
    assert plan.fired_rule == "second"
    assert plan.strategy is Strategy.AS4


def test_equal_salience_falls_back_to_file_order():
    text = (
        'rule "a" when kind == CF1 then AS2\n'
        'rule "b" when kind == CF1 then AS4\n'
    )
    assert evaluate(parse_rules(text), fact()).fired_rule == "a"


def test_no_matching_rule():
    assert evaluate(RuleSet(()), fact()) == NoMatch()
    ruleset = parse_rules('rule "r" when kind == CF2 then AS4')
    assert evaluate(ruleset, fact(kind=FaultKind.CF3)) == NoMatch()


def test_evaluate_is_pure():
    ruleset = default_ruleset()
    one = evaluate(ruleset, fact())
    two = evaluate(ruleset, fact())
    assert one == two


def test_condition_fields_evaluate():
    text = (
        'rule "busy" when exception_count > 5 and dependent_count >= 1 then AS4\n'
        'rule "quiet" when not exception_count > 5 then AS1\n'
    )
    ruleset = parse_rules(text)
    busy = fact(kind=FaultKind.CF2, exception_count=9, dependent_count=2)
    assert evaluate(ruleset, busy).fired_rule == "busy"
    quiet = fact(kind=FaultKind.CF2, exception_count=3)
    assert evaluate(ruleset, quiet).fired_rule == "quiet"


def test_subject_comparison():
    ruleset = parse_rules('rule "qs" when subject == "Query Service" then AS4')
    assert evaluate(ruleset, fact()).strategy is Strategy.AS4
    assert evaluate(ruleset, fact(subject="Bid Service")) == NoMatch()


# -- round trip ---------------------------------------------------------------
#
# The rule printer lives here, as the parser's round-trip oracle: parsing what
# it prints must give an equal rule set. tests/test_oracles.py uses it too.


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fmt_condition(cond, prec: int = 1) -> str:
    if isinstance(cond, Or):
        text = " or ".join(_fmt_condition(p, 2) for p in cond.parts)
        return f"({text})" if prec > 1 else text
    if isinstance(cond, And):
        text = " and ".join(_fmt_condition(p, 3) for p in cond.parts)
        return f"({text})" if prec > 2 else text
    if isinstance(cond, Not):
        text = "not " + _fmt_condition(cond.term, 4)
        return f"({text})" if prec > 3 else text  # "not not" does not parse
    if isinstance(cond.value, FaultKind):
        literal = cond.value.value
    elif isinstance(cond.value, str):
        literal = _quote(cond.value)
    else:
        literal = str(cond.value)
    return f"{cond.field} {cond.op} {literal}"


def format_rules(ruleset: RuleSet) -> str:
    """Render a RuleSet back to rule-file text; reparsing yields an equal set."""
    lines = []
    for rule in ruleset.rules:
        salience = f" salience {rule.salience}" if rule.salience != 0 else ""
        lines.append(
            f"rule {_quote(rule.name)}{salience} "
            f"when {_fmt_condition(rule.condition)} then {rule.strategy.value}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def test_format_then_parse_identity_default():
    ruleset = default_ruleset()
    assert parse_rules(format_rules(ruleset)) == ruleset


def test_format_then_parse_identity_rich():
    text = (
        'rule "complex" salience -5 when '
        'not (kind == CF1 or subject == "A \\"x\\"") and exception_count <= 7 then AS2\n'
        'rule "plain" when prior_failures_of_subject != 0 then AS4\n'
    )
    ruleset = parse_rules(text)
    printed = format_rules(ruleset)
    assert parse_rules(printed) == ruleset
    # stable: printing again gives the same text
    assert format_rules(parse_rules(printed)) == printed


def test_format_then_parse_identity_double_negation():
    ruleset = parse_rules('rule "r" when not (not kind == CF1) then AS1\n')
    assert format_rules(ruleset) == 'rule "r" when not (not kind == CF1) then AS1\n'
    assert parse_rules(format_rules(ruleset)) == ruleset


# -- properties ---------------------------------------------------------------

_conditions = st.sampled_from(
    [
        Comparison("kind", "==", FaultKind.CF1),
        Comparison("kind", "!=", FaultKind.CF2),
        Comparison("exception_count", ">=", 0),
        Comparison("dependent_count", ">=", 0),
        Comparison("prior_failures_of_subject", "<=", 100),
    ]
)


@given(
    salience_a=st.integers(min_value=-100, max_value=100),
    salience_b=st.integers(min_value=-100, max_value=100),
    cond_a=_conditions,
    cond_b=_conditions,
)
def test_salience_dominance_property(salience_a, salience_b, cond_a, cond_b):
    # both rules match every generated fact-free condition above
    ruleset = RuleSet(
        (
            Rule("a", salience_a, cond_a, Strategy.AS1),
            Rule("b", salience_b, cond_b, Strategy.AS2),
        )
    )
    # every sampled condition is true for a default CF1 fact, so both match
    plan = evaluate(ruleset, fact(kind=FaultKind.CF1))
    if salience_a > salience_b:
        assert plan.fired_rule == "a"
    elif salience_b > salience_a:
        assert plan.fired_rule == "b"
    else:
        assert plan.fired_rule == "a"  # file order on ties


# -- rule warnings ----------------------------------------------------------

CF1, CF2, CF3, CF4 = FaultKind


def warned(rule):
    """What ``rule_warnings`` says of the rule, its texts checked: the fault
    kinds its subject warning names, and whether it warns of AS1 on CF3."""
    texts, kinds, emptied = rule_warnings(rule), [], False
    if texts and " repairs " in texts[0]:
        named = texts[0].split(" may fire on ", 1)[1].split(", but ", 1)[0]
        kinds = [FaultKind(k) for k in named.split(", ")]
        repairs = ("connectors, not components" if rule.strategy is Strategy.AS3
                   else "components, not connectors")
        assert texts.pop(0) == (f"rule {rule.name!r} may fire on {', '.join(k.value for k in kinds)},"
                                f" but {rule.strategy.value} repairs {repairs}")
    if texts:
        assert texts.pop(0) == (f"rule {rule.name!r} may fire on CF3, but AS1 restarts in place"
                                " and a CF3 always empties its slot")
        emptied = True
    assert texts == []
    return kinds, emptied


@pytest.mark.parametrize("text, kinds", [
    ("kind == CF4 then AS1", [CF4]),  # a connector cannot be restarted
    ("kind == CF4 then AS3", []),
    ("kind == CF1 then AS3", [CF1]),
    ("not kind == CF4 then AS3", [CF1, CF2, CF3]),
    ("kind != CF4 and exception_count > 3 then AS1", []),
    ("kind == CF1 or exception_count > 3 then AS1", [CF4]),  # the counter is unknown
    ('subject == "x" then AS2', [CF4]),
    ('not (kind == CF4 and subject == "x") then AS4', [CF4]),
    ('kind == CF4 and not kind == CF4 then AS1', []),
    ('(kind == CF2 or kind == CF4) and prior_failures_of_subject >= 2 then AS3', [CF2]),
])
def test_wrong_subject_kinds(text, kinds):
    (rule,) = parse_rules(f'rule "r" when {text}\n').rules
    assert warned(rule)[0] == kinds


@pytest.mark.parametrize("text, emptied", [
    ("kind == CF3 then AS1", True),  # the slot CF3 emptied holds nothing to restart
    ("kind == CF3 then AS2", False),
    ("kind == CF1 then AS1", False),
    ("kind != CF1 then AS1", True),
    ("exception_count > 3 then AS1", True),  # the counter is unknown
    ("kind == CF1 or kind == CF3 then AS4", False),
])
def test_restarts_an_emptied_slot(text, emptied):
    (rule,) = parse_rules(f'rule "r" when {text}\n').rules
    assert warned(rule)[1] is emptied


def test_bundled_and_bench_policies_fire_on_their_own_subjects():
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
                         "degraded.rules")
    with open(bench, encoding="utf-8") as fh:
        degraded = parse_rules(fh.read())
    for rule in default_ruleset().rules + degraded.rules:
        assert rule_warnings(rule) == [], rule.name


_atoms = st.one_of(
    st.builds(Comparison, st.just("kind"), st.sampled_from(["==", "!="]),
              st.sampled_from(list(FaultKind))),
    st.builds(Comparison, st.just("subject"), st.sampled_from(["==", "!="]),
              st.sampled_from(["a", "b"])),
    st.builds(Comparison, st.sampled_from(INT_FIELDS), st.sampled_from(list(OPS)),
              st.integers(0, 3)),
)
_trees = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, st.lists(kids, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(kids, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=8,
)
_facts = st.builds(Fact, st.sampled_from(list(FaultKind)), st.sampled_from(["a", "b", "c"]),
                   st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(cond=_trees, strategy=st.sampled_from(list(Strategy)), facts=st.lists(_facts, max_size=8))
@example(cond=Not(And((Comparison("kind", "==", CF4), Comparison("subject", "==", "a")))),
         strategy=Strategy.AS1, facts=[Fact(CF4, "b")])
def test_wrong_subject_kinds_misses_no_firing(cond, strategy, facts):
    """No false negatives: whenever a rule fires on a fact whose subject its
    strategy cannot repair, the check names that fact's kind, and whenever
    an AS1 rule fires on a CF3, the emptied-slot check flags it."""
    rule = Rule("r", 0, cond, strategy)
    flagged, emptied = warned(rule)
    for f in facts:
        fires = _compile(cond)(f)
        if fires and (f.kind is CF4) is not (strategy is Strategy.AS3):
            assert f.kind in flagged
        if fires and f.kind is CF3 and strategy is Strategy.AS1:
            assert emptied


@settings(max_examples=300, deadline=None)
@given(cond=_trees, kind=st.sampled_from(list(FaultKind)), facts=st.lists(_facts, max_size=8))
@example(cond=Not(And((Comparison("kind", "!=", CF2), Comparison("subject", "==", "a")))),
         kind=CF2, facts=[Fact(CF2, "a")])
@example(cond=Or((Comparison("exception_count", ">", 9), Not(Comparison("kind", "==", CF1)))),
         kind=CF3, facts=[Fact(CF3, "b")])
def test_may_hold_decides_both_ways_for_every_fact_of_the_kind(cond, kind, facts):
    """The kind index trusts both verdicts: True, the compiled condition holds
    for every fact of that kind, so the index calls it for none; False, it
    holds for none, so the index leaves the rule out."""
    verdict, matches = _may_hold(cond, kind), _compile(cond)
    for f in facts:
        of_kind = Fact(kind, f.subject, f.exception_count, f.dependent_count,
                       f.prior_failures_of_subject)
        if verdict is not None:
            assert matches(of_kind) is verdict


def test_the_rule_set_keeps_per_kind_the_rules_that_may_hold_in_evaluation_order():
    """Salience first, then file position; a rule decided by ``kind`` alone is
    kept without its condition, and a kind no rule may fire on gets none."""
    ruleset = parse_rules('rule "cf1" when kind == CF1 then AS1\n'
                          'rule "any" when exception_count > 2 then AS4\n'
                          'rule "not4" salience 3 when kind != CF4 and kind != CF3 then AS2\n'
                          'rule "high" salience 3 when kind == CF1 and subject == "x" then AS4\n')
    cf1, anything, not4, high = ruleset.rules
    kept = {kind: [(matches is not None, rule) for matches, rule in ruleset.by_kind[id(kind)]]
            for kind in FaultKind}
    assert kept == {
        CF1: [(False, not4), (True, high), (False, cf1), (True, anything)],
        CF2: [(False, not4), (True, anything)],
        CF3: [(True, anything)],
        CF4: [(True, anything)],
    }
    assert evaluate(ruleset, fact(CF4, exception_count=2)) == NoMatch()
    assert evaluate(ruleset, fact(CF1, "x")) == RepairPlan(Strategy.AS2, "x", "not4")
