import pytest
from hypothesis import given, strategies as st

from smsflow.fuzzy import (
    Rule,
    RuleBlock,
    RuleSyntaxError,
    UnsupportedOperatorError,
    parse_ruleblock,
)


def format_ruleblock(block: RuleBlock) -> str:
    """Render a block in the canonical source form accepted by the parser."""
    out = [f"RULEBLOCK {block.name}", "  AND : MIN;", "  ACT : MIN;", "  ACCU : MAX;"]
    for rule in block.rules:
        conds = " AND ".join(f"{var} IS {label}" for var, label in rule.antecedents)
        out_var, out_label = rule.consequent
        out.append(f"  RULE {rule.index} : IF {conds} THEN {out_var} IS {out_label};")
    out.append("END_RULEBLOCK")
    return "\n".join(out) + "\n"


ACTION_BLOCK = """\
RULEBLOCK No2
  AND : MIN;          // Use 'min' for 'and' 'max' for 'or'
  ACT  : MIN;          // Use 'min' activation method
  ACCU : MAX;          // Use 'max' accumulation method
RULE 7 : IF customerImportance IS high THEN action IS forwardToLLM;
RULE 8 : IF degreeOfConfidence IS high THEN action IS forwardToLLM;
RULE 9 : IF customerImportance IS medium AND degreeOfConfidence is medium
THEN action IS forwardToLLM;
RULE 10 : IF customerImportance IS medium AND degreeOfConfidence is low
THEN action IS fail;
RULE 11 : IF customerImportance IS low AND degreeOfConfidence is medium
THEN action IS fail;
RULE 12 : IF customerImportance IS low AND degreeOfConfidence is low THEN
action IS fail;
END_RULEBLOCK
"""


def test_action_block_parses_six_rules_with_source_indices():
    block = parse_ruleblock(ACTION_BLOCK)
    assert block.name == "No2"
    assert [r.index for r in block.rules] == [7, 8, 9, 10, 11, 12]
    assert block.rules[0] == Rule(
        index=7,
        antecedents=(("customerImportance", "high"),),
        consequent=("action", "forwardToLLM"),
    )
    assert block.rules[2].antecedents == (
        ("customerImportance", "medium"),
        ("degreeOfConfidence", "medium"),
    )
    assert block.rules[5].consequent == ("action", "fail")


def test_header_and_end_only_gives_empty_block():
    block = parse_ruleblock("RULEBLOCK empty\nEND_RULEBLOCK\n")
    assert block.rules == ()


def test_max_conjunction_is_rejected():
    text = ACTION_BLOCK.replace("AND : MIN;", "AND : MAX;")
    with pytest.raises(UnsupportedOperatorError):
        parse_ruleblock(text)


@pytest.mark.parametrize("op_line", ["ACT  : PROD;", "ACCU : SUM;"])
def test_other_unsupported_operators_rejected(op_line):
    text = "RULEBLOCK x\n  %s\nEND_RULEBLOCK\n" % op_line
    with pytest.raises(UnsupportedOperatorError):
        parse_ruleblock(text)


def test_malformed_rule_reports_line_number():
    text = "RULEBLOCK x\n  AND : MIN;\nRULE 1 : IF a IS b;\nEND_RULEBLOCK\n"
    with pytest.raises(RuleSyntaxError) as err:
        parse_ruleblock(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_missing_terminator_and_trailing_content_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_ruleblock("RULEBLOCK x\n  AND : MIN;\n")
    with pytest.raises(RuleSyntaxError):
        parse_ruleblock("RULEBLOCK x\nEND_RULEBLOCK\nRULE 1 : IF a IS b THEN c IS d;\n")


def test_unterminated_statement_rejected():
    text = "RULEBLOCK x\nRULE 1 : IF a IS b THEN c IS d\nEND_RULEBLOCK\n"
    with pytest.raises(RuleSyntaxError):
        parse_ruleblock(text)


def test_keywords_match_case_insensitively():
    text = "RULEBLOCK x\nrule 3 : if a is b and c is d then e is f;\nend_ruleblock\n"
    block = parse_ruleblock(text)
    assert block.rules[0].antecedents == (("a", "b"), ("c", "d"))


def test_intermediate_labels_canonicalize_to_medium():
    text = "RULEBLOCK x\nRULE 1 : IF doc IS intermediate THEN out IS intermediate;\nEND_RULEBLOCK\n"
    block = parse_ruleblock(text)
    assert block.rules[0].antecedents == (("doc", "medium"),)
    assert block.rules[0].consequent == ("out", "medium")


def test_format_round_trips_the_action_block():
    block = parse_ruleblock(ACTION_BLOCK)
    assert parse_ruleblock(format_ruleblock(block)) == block


_KEYWORDS = {"if", "is", "and", "then", "rule", "ruleblock", "end_ruleblock", "act", "accu",
             "intermediate"}
_ident = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.lower() not in _KEYWORDS
)


@given(
    name=_ident,
    rules=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=99),
            st.lists(st.tuples(_ident, _ident), min_size=1, max_size=4),
            st.tuples(_ident, _ident),
        ),
        max_size=6,
    ),
)
def test_parse_format_round_trip(name, rules):
    block = RuleBlock(
        name=name,
        rules=tuple(
            Rule(index=i, antecedents=tuple(ants), consequent=cons) for i, ants, cons in rules
        ),
    )
    assert parse_ruleblock(format_ruleblock(block)) == block
