"""Rules the package sources keep, checked on their syntax trees."""
import ast
from pathlib import Path

import smsflow

PACKAGE = Path(smsflow.__file__).parent
# Module-level functions of ``re`` that compile (or look up) their pattern on every call.
PATTERN_CALLS = frozenset(("match", "search", "sub", "split", "findall", "fullmatch", "finditer"))


def literal_pattern_calls(source: str) -> list[tuple[int, str]]:
    """(line, function) of each ``re.<fn>(...)`` call whose pattern is a string literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.func.attr in PATTERN_CALLS
        ):
            continue
        pattern = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "pattern"), None
        )
        if isinstance(pattern, ast.JoinedStr) or (
            isinstance(pattern, ast.Constant) and isinstance(pattern.value, str)
        ):
            found.append((node.lineno, node.func.attr))
    return found


def test_the_checker_finds_literal_patterns_only():
    source = (
        "import re\n"
        "WORD = re.compile(r'\\w+')\n"
        "re.match(r'^x', s)\n"
        "re.split(pattern=f'{d}', string=s)\n"
        "re.sub(WORD, ' ', s)\n"
        "WORD.findall(s)\n"
    )
    assert literal_pattern_calls(source) == [(3, "match"), (4, "split")]


def test_no_source_compiles_a_literal_pattern_per_call():
    # A literal pattern belongs in a module-level ``re.compile``.
    offenders = {
        f"{path.relative_to(PACKAGE).as_posix()}:{line} re.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in literal_pattern_calls(path.read_text(encoding="utf-8"))
    }
    assert not offenders
