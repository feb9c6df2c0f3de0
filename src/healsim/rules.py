"""Repair rule language: parser and forward evaluator.

Rules live in plain text so the repair policy can be changed without
touching program code. The grammar (line comments start with ``#``):

    ruleset  := rule*
    rule     := "rule" STRING ["salience" INT] "when" cond "then" STRATEGY
    cond     := term (("and" | "or") term)*    # "and" binds tighter
    term     := ["not"] (FIELD OP literal | "(" cond ")")
    FIELD    := kind | subject | exception_count | dependent_count
                | prior_failures_of_subject
    OP       := == | != | > | >= | < | <=      # ordering only on integers
    STRATEGY := AS1 | AS2 | AS3 | AS4

``kind`` compares against the bare tokens CF1..CF4, ``subject`` against a
quoted string, and the three counter fields against integer literals.
Literals have at most 4300 digits; parentheses nest at most ``MAX_NESTING`` deep.
Evaluation picks the matching rule with the highest salience, ties broken
by file position, or gives ``NoMatch``; it is free of side effects. A
``RuleSet`` compiles each condition into a function once and keeps, for each
fault kind, the rules that may hold for it in that order (the alpha memory
of Rete), so evaluation tries only those and stops at the first match.
"""

from __future__ import annotations

import operator
import os
import re
from enum import Enum
from operator import attrgetter

from .faults import FaultKind
from .model import DATA_DIR, Frozen, _set


class Strategy(Enum):
    AS1 = "AS1"  # restart the component in place
    AS2 = "AS2"  # redeploy the component into its slot
    AS3 = "AS3"  # reestablish the connector
    AS4 = "AS4"  # replace with a fresh instance of the same type


class RuleError(Exception):
    """A problem in a rule file, positioned at line and column (1-based)."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class RuleSyntaxError(RuleError):
    pass


class DuplicateRuleName(RuleError):
    def __init__(self, name: str, line: int, col: int) -> None:
        super().__init__(f"duplicate rule name {name!r}", line, col)
        self.name = name


class UnknownStrategy(RuleError):
    def __init__(self, token: str, line: int, col: int) -> None:
        super().__init__(f"unknown strategy {token!r}", line, col)
        self.token = token


class UnknownField(RuleError):
    def __init__(self, token: str, line: int, col: int) -> None:
        super().__init__(f"unknown field {token!r}", line, col)
        self.token = token


class Fact(Frozen):
    """The planner's view of one failure report plus run history."""

    __slots__ = _fields = (
        "kind", "subject", "exception_count", "dependent_count", "prior_failures_of_subject"
    )

    def __init__(self, kind: FaultKind, subject: str, exception_count: int = 0,
                 dependent_count: int = 0, prior_failures_of_subject: int = 0) -> None:
        _set(self, "kind", kind)
        _set(self, "subject", subject)
        _set(self, "exception_count", exception_count)
        _set(self, "dependent_count", dependent_count)
        _set(self, "prior_failures_of_subject", prior_failures_of_subject)


class Comparison(Frozen):
    __slots__ = _fields = ("field", "op", "value")

    def __init__(self, field: str, op: str, value: object) -> None:
        _set(self, "field", field)
        _set(self, "op", op)
        _set(self, "value", value)  # FaultKind, str, or int depending on the field


class Not(Frozen):
    __slots__ = _fields = ("term",)

    def __init__(self, term: object) -> None:
        _set(self, "term", term)


class And(Frozen):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple) -> None:
        _set(self, "parts", parts)


class Or(Frozen):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple) -> None:
        _set(self, "parts", parts)


class Rule(Frozen):
    __slots__ = _fields = ("name", "salience", "condition", "strategy")

    def __init__(self, name: str, salience: int, condition: object, strategy: Strategy) -> None:
        _set(self, "name", name)
        _set(self, "salience", salience)
        _set(self, "condition", condition)
        _set(self, "strategy", strategy)


class RuleSet(Frozen):
    _fields = ("rules",)
    # And, by id of each FaultKind member, the (compiled condition, rule) pairs
    # that may hold for that kind, by descending salience, then file position:
    # the order ``evaluate`` tries them in. A condition that holds for every
    # fact of the kind is None. Derived from ``rules``.
    __slots__ = _fields + ("by_kind",)

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError("rule names must be unique")
        ranked = sorted(rules, key=lambda rule: -rule.salience)  # stable: ties keep file order
        compiled = [_compile(r.condition) for r in ranked]
        _set(self, "rules", rules)
        _set(self, "by_kind", {id(kind): tuple(
            (None if held else matches, r)
            for matches, r in zip(compiled, ranked)
            if (held := _may_hold(r.condition, kind)) is not False
        ) for kind in FaultKind})


class RepairPlan(Frozen):
    """The selected adaptation: strategy, subject, and the rule that fired."""

    __slots__ = _fields = ("strategy", "subject", "fired_rule")

    def __init__(self, strategy: Strategy, subject: str, fired_rule: str) -> None:
        _set(self, "strategy", strategy)
        _set(self, "subject", subject)
        _set(self, "fired_rule", fired_rule)


class NoMatch(Frozen):
    """The outcome when no rule matches: the failure is unhandled."""

    __slots__ = ()


INT_FIELDS = ("exception_count", "dependent_count", "prior_failures_of_subject")
FIELDS = ("kind", "subject") + INT_FIELDS
_EQUALITY_OPS = ("==", "!=")
MAX_NESTING = 100  # parenthesis depth; keeps parsing and evaluation clear of the recursion limit
_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


# -- tokenizer ------------------------------------------------------------


class _Token(Frozen):
    __slots__ = _fields = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        _set(self, "kind", kind)  # STRING, INT, IDENT, OP, LPAREN, RPAREN, EOF
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "col", col)


# A group per token kind, per skipped kind (newline, blanks, comment) and for
# any other character, so that ``finditer``'s matches tile the whole text.
_TOKEN_RE = re.compile(
    r"""(?P<NEWLINE>\n)
      | (?P<SPACE>[ \t\r]+)
      | (?P<COMMENT>\#[^\n]*)
      | (?P<STRING>"(?:[^"\\\n]|\\.)*")
      | (?P<INT>-?\d+)
      | (?P<OP>==|!=|>=|<=|>|<)
      | (?P<LPAREN>\()
      | (?P<RPAREN>\))
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<OTHER>.)
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)  # a backslash and what follows it, if anything


def _unescape(raw: str, line: int, col: int) -> str:
    def escaped(m: re.Match) -> str:
        if (nxt := m.group(1)) not in ('"', "\\"):
            raise RuleSyntaxError(f"unsupported escape \\{nxt}", line, col)
        return nxt

    return _ESCAPE_RE.sub(escaped, raw[1:-1])


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    depth = 0  # of parentheses
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        if kind == "SPACE" or kind == "COMMENT":
            continue
        col = m.start() - line_start + 1
        if kind == "OTHER":
            if (ch := m.group()) == '"':
                raise RuleSyntaxError("unterminated string literal", line, col)
            raise RuleSyntaxError(f"unexpected character {ch!r}", line, col)
        depth += (kind == "LPAREN") - (kind == "RPAREN")
        if depth > MAX_NESTING:
            raise RuleSyntaxError(f"parentheses nest deeper than {MAX_NESTING}", line, col)
        tokens.append(_Token(kind, m.group(), line, col))
    tokens.append(_Token("EOF", "", line, (len(text) - line_start) + 1))
    return tokens


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise RuleSyntaxError(f"expected {word!r}, found {tok.text or 'end of file'!r}",
                                  tok.line, tok.col)
        return self.advance()

    def expect_int(self, message: str) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise RuleSyntaxError(message, tok.line, tok.col)
        self.advance()
        try:
            return int(tok.text)
        except ValueError:  # over Python's integer string conversion limit
            raise RuleSyntaxError("integer literal is too long", tok.line, tok.col) from None

    def parse_ruleset(self) -> RuleSet:
        rules: list[Rule] = []
        seen: dict[str, Rule] = {}
        while self.peek().kind != "EOF":
            name_tok, rule = self.parse_rule()
            if rule.name in seen:
                raise DuplicateRuleName(rule.name, name_tok.line, name_tok.col)
            seen[rule.name] = rule
            rules.append(rule)
        return RuleSet(tuple(rules))

    def parse_rule(self) -> tuple[_Token, Rule]:
        self.expect_keyword("rule")
        name_tok = self.peek()
        if name_tok.kind != "STRING":
            raise RuleSyntaxError("expected rule name string", name_tok.line, name_tok.col)
        self.advance()
        name = _unescape(name_tok.text, name_tok.line, name_tok.col)
        if not name:
            raise RuleSyntaxError("rule name must be non-empty", name_tok.line, name_tok.col)
        salience = 0
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "salience":
            self.advance()
            salience = self.expect_int("expected integer salience")
        self.expect_keyword("when")
        condition = self.parse_or()
        self.expect_keyword("then")
        strat_tok = self.peek()
        if strat_tok.kind != "IDENT":
            raise RuleSyntaxError("expected strategy", strat_tok.line, strat_tok.col)
        self.advance()
        try:
            strategy = Strategy(strat_tok.text)
        except ValueError:
            raise UnknownStrategy(strat_tok.text, strat_tok.line, strat_tok.col) from None
        return name_tok, Rule(name, salience, condition, strategy)

    def parse_or(self):
        return self.parse_chain("or", Or, self.parse_and)

    def parse_and(self):
        return self.parse_chain("and", And, self.parse_term)

    def parse_chain(self, word: str, node: type, parse_part):
        """One or more ``parse_part()`` joined by the keyword ``word``: the one, or a ``node``."""
        parts = [parse_part()]
        while self.peek().kind == "IDENT" and self.peek().text == word:
            self.advance()
            parts.append(parse_part())
        return parts[0] if len(parts) == 1 else node(tuple(parts))

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "not":
            self.advance()
            return Not(self.parse_atom())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_or()
            closing = self.peek()
            if closing.kind != "RPAREN":
                raise RuleSyntaxError("expected ')'", closing.line, closing.col)
            self.advance()
            return inner
        if tok.kind != "IDENT":
            raise RuleSyntaxError(
                f"expected a field or '(', found {tok.text or 'end of file'!r}",
                tok.line, tok.col,
            )
        if tok.text not in FIELDS:
            raise UnknownField(tok.text, tok.line, tok.col)
        self.advance()
        op_tok = self.peek()
        if op_tok.kind != "OP":
            raise RuleSyntaxError("expected a comparison operator", op_tok.line, op_tok.col)
        self.advance()
        if tok.text not in INT_FIELDS and op_tok.text not in _EQUALITY_OPS:
            raise RuleSyntaxError(
                f"operator {op_tok.text!r} needs an integer field", op_tok.line, op_tok.col
            )
        value = self.parse_literal(tok.text)
        return Comparison(tok.text, op_tok.text, value)

    def parse_literal(self, fieldname: str):
        tok = self.peek()
        if fieldname == "kind":
            if tok.kind == "IDENT":
                try:
                    self.advance()
                    return FaultKind(tok.text)
                except ValueError:
                    pass
            raise RuleSyntaxError(
                f"kind compares against CF1..CF4, found {tok.text or 'end of file'!r}",
                tok.line, tok.col,
            )
        if fieldname == "subject":
            if tok.kind != "STRING":
                raise RuleSyntaxError("subject compares against a quoted string",
                                      tok.line, tok.col)
            self.advance()
            return _unescape(tok.text, tok.line, tok.col)
        return self.expect_int(f"{fieldname} compares against an integer")


def parse_rules(text: str) -> RuleSet:
    """Parse a rule file into a RuleSet, preserving file order."""
    return _Parser(_tokenize(text)).parse_ruleset()


def load_rules(path: str) -> RuleSet:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            head = exc.object[: exc.start].decode("utf-8")
            line, col = head.count("\n") + 1, len(head) - head.rfind("\n")
            raise RuleSyntaxError("invalid UTF-8", line, col) from None
    return parse_rules(text)


def default_ruleset() -> RuleSet:
    """The bundled policy: CF1>AS1, CF2>AS4, CF3>AS2, CF4>AS3."""
    return load_rules(os.path.join(DATA_DIR, "default.rules"))


# -- rule warnings ---------------------------------------------------------


def _may_hold(cond, kind: FaultKind) -> bool | None:
    """The condition in three-valued logic, ``kind`` fixed and every other
    comparison unknown (None): False means it cannot hold for that kind."""
    if isinstance(cond, (And, Or)):
        results = [_may_hold(part, kind) for part in cond.parts]
        decisive = isinstance(cond, Or)  # the value that settles the whole
        if decisive in results:
            return decisive
        return None if None in results else not decisive
    if isinstance(cond, Not):
        result = _may_hold(cond.term, kind)
        return None if result is None else not result
    return _OPS[cond.op](kind, cond.value) if cond.field == "kind" else None


def rule_warnings(rule: Rule) -> list[str]:
    """Each problem the rule may meet when it fires, as a text: first the fault
    kinds whose subject its strategy does not repair (CF1-CF3 name a component,
    which AS3 cannot reconnect; CF4 a connector, which only AS3 repairs); then
    AS1 on CF3, whose slot is always empty, so no instance is left to restart."""
    strategy, to_connector = rule.strategy, rule.strategy is Strategy.AS3
    kinds = [kind for kind in FaultKind if _may_hold(rule.condition, kind) is not False]
    texts = []
    if wrong := [kind.value for kind in kinds if (kind is FaultKind.CF4) is not to_connector]:
        repairs = "connectors, not components" if to_connector else "components, not connectors"
        texts.append(f"rule {rule.name!r} may fire on {', '.join(wrong)},"
                     f" but {strategy.value} repairs {repairs}")
    if strategy is Strategy.AS1 and FaultKind.CF3 in kinds:
        texts.append(f"rule {rule.name!r} may fire on CF3, but AS1 restarts in place"
                     " and a CF3 always empties its slot")
    return texts


def ruleset_warnings(ruleset: RuleSet) -> list[str]:
    """What ``validate-rules`` warns of: each rule's ``rule_warnings`` in file
    order, then each fault kind, CF1..CF4, that no rule may fire on."""
    texts = [text for rule in ruleset.rules for text in rule_warnings(rule)]
    return texts + [f"no rule may fire on {kind.value}: such a failure is left unhandled"
                    for kind in FaultKind if not ruleset.by_kind[id(kind)]]


# -- evaluation -----------------------------------------------------------


def _compile(cond):
    """The condition as a function of a fact, built once per rule set."""
    if isinstance(cond, Or):
        parts = tuple(map(_compile, cond.parts))

        def either(fact: Fact) -> bool:
            for part in parts:
                if part(fact):
                    return True
            return False
        return either
    if isinstance(cond, And):
        parts = tuple(map(_compile, cond.parts))

        def both(fact: Fact) -> bool:
            for part in parts:
                if not part(fact):
                    return False
            return True
        return both
    if isinstance(cond, Not):
        term = _compile(cond.term)
        return lambda fact: not term(fact)
    get, op, value = attrgetter(cond.field), _OPS[cond.op], cond.value
    return lambda fact: op(get(fact), value)


def evaluate(ruleset: RuleSet, fact: Fact) -> RepairPlan | NoMatch:
    """Pick the plan for a fact: highest salience among matching rules,
    earliest file position on ties. The rule set holds, per fault kind, the
    rules that may hold for it in that order, so the first match wins; a rule
    that holds for the whole kind wins without a call to its condition.
    Returns NoMatch when nothing matches."""
    for matches, rule in ruleset.by_kind[id(fact.kind)]:
        if matches is None or matches(fact):
            return RepairPlan(rule.strategy, fact.subject, rule.name)
    return NoMatch()
