"""Text parser for MIN/MIN/MAX rule blocks.

The accepted grammar is the rule-block dialect used throughout the pipeline
configuration::

    RULEBLOCK <name>
      AND  : MIN;   // optional trailing comment
      ACT  : MIN;
      ACCU : MAX;
    RULE 7 : IF var IS label AND var2 IS label2 THEN out IS label3;
    END_RULEBLOCK

Statements end with ``;`` and may span lines.  IF/IS/AND/THEN match
case-insensitively.  Only MIN conjunction, MIN activation and MAX
accumulation are supported; declaring anything else is rejected.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .membership import canonical_label


class RuleSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedOperatorError(ValueError):
    def __init__(self, operator: str, value: str, line: int):
        super().__init__(f"line {line}: operator {operator} must be "
                         f"{_EXPECTED_OPERATORS[operator]}, got {value}")
        self.operator = operator
        self.line = line


_EXPECTED_OPERATORS = {"AND": "MIN", "ACT": "MIN", "ACCU": "MAX"}

_RULE_RE = re.compile(
    r"^RULE\s+(?P<index>\d+)\s*:\s*IF\s+(?P<antecedents>.+?)\s+THEN\s+"
    r"(?P<out_var>\w+)\s+IS\s+(?P<out_label>\w+)$",
    re.IGNORECASE | re.DOTALL,
)
_CONJUNCT_RE = re.compile(r"^(?P<var>\w+)\s+IS\s+(?P<label>\w+)$", re.IGNORECASE)
_OPERATOR_RE = re.compile(r"^(?P<op>AND|ACT|ACCU)\s*:\s*(?P<value>\w+)$", re.IGNORECASE)
_HEADER_RE = re.compile(r"^RULEBLOCK\s+(\S+)$", re.IGNORECASE)
_END_RE = re.compile(r"^END_RULEBLOCK$", re.IGNORECASE)
_RULE_START_RE = re.compile(r"^RULE\b", re.IGNORECASE)
_AND_RE = re.compile(r"\s+AND\s+", re.IGNORECASE)


@dataclass(frozen=True)
class Rule:
    index: int
    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]


@dataclass(frozen=True)
class RuleBlock:
    name: str
    rules: tuple[Rule, ...] = ()


def _strip_comment(line: str) -> str:
    return line.split("//", 1)[0]


def parse_ruleblock(text: str) -> RuleBlock:
    """Parse rule-block source into a :class:`RuleBlock`.

    Raises :class:`RuleSyntaxError` (with the offending line number) on
    malformed input and :class:`UnsupportedOperatorError` when an operator
    declaration is not MIN/MIN/MAX.
    """
    lines = text.splitlines()
    name = None
    header_line = 0
    rules: list[Rule] = []
    ended = False

    statement_parts: list[str] = []
    statement_line = 0

    for lineno, raw in enumerate(lines, start=1):
        content = _strip_comment(raw).strip()
        if not content:
            continue

        if name is None:
            m = _HEADER_RE.match(content)
            if not m:
                raise RuleSyntaxError("expected 'RULEBLOCK <name>' header", lineno)
            name = m.group(1)
            header_line = lineno
            continue

        if ended:
            raise RuleSyntaxError("content after END_RULEBLOCK", lineno)

        if _END_RE.match(content):
            if statement_parts:
                raise RuleSyntaxError("unterminated statement (missing ';')", statement_line)
            ended = True
            continue

        if not statement_parts:
            statement_line = lineno
        statement_parts.append(content)
        if not content.endswith(";"):
            continue

        statement = " ".join(statement_parts).rstrip(";").strip()
        statement_parts = []
        _parse_statement(statement, statement_line, rules)

    if name is None:
        raise RuleSyntaxError("expected 'RULEBLOCK <name>' header", max(len(lines), 1))
    if not ended:
        raise RuleSyntaxError("missing END_RULEBLOCK", header_line)
    return RuleBlock(name=name, rules=tuple(rules))


def _parse_statement(statement: str, line: int, rules: list[Rule]) -> None:
    op = _OPERATOR_RE.match(statement)
    if op:
        operator = op.group("op").upper()
        value = op.group("value").upper()
        if value != _EXPECTED_OPERATORS[operator]:
            raise UnsupportedOperatorError(operator, value, line)
        return

    if _RULE_START_RE.match(statement):
        m = _RULE_RE.match(statement)
        if not m:
            raise RuleSyntaxError(f"malformed rule: {statement!r}", line)
        antecedents = []
        for part in _AND_RE.split(m.group("antecedents")):
            c = _CONJUNCT_RE.match(part.strip())
            if not c:
                raise RuleSyntaxError(f"malformed condition {part.strip()!r}", line)
            antecedents.append((c.group("var"), canonical_label(c.group("label"))))
        rules.append(
            Rule(
                index=int(m.group("index")),
                antecedents=tuple(antecedents),
                consequent=(m.group("out_var"), canonical_label(m.group("out_label"))),
            )
        )
        return

    raise RuleSyntaxError(f"unrecognized statement: {statement!r}", line)

