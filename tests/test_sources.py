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


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads.

    A ``__future__`` import and a name listed in ``__all__`` are used.
    """
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound.extend((node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [(line, name) for line, name in bound if name not in read]


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


def test_the_checker_finds_unused_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import threading\n"
        "import weakref\n"
        "import os.path\n"
        "from collections import deque as Queue, OrderedDict\n"
        "from .pool import Envelope\n"
        "__all__ = ['Envelope']\n"
        "lock: threading.Lock = threading.Lock()\n"
        "def f(q: Queue) -> None:\n"
        "    return os.path.join('a', 'b')\n"
    )
    assert unused_imports(source) == [(3, "weakref"), (5, "OrderedDict")]


def test_no_source_compiles_a_literal_pattern_per_call():
    # A literal pattern belongs in a module-level ``re.compile``.
    offenders = {
        f"{path.relative_to(PACKAGE).as_posix()}:{line} re.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in literal_pattern_calls(path.read_text(encoding="utf-8"))
    }
    assert not offenders


def test_no_source_imports_a_name_it_never_uses():
    offenders = {
        f"{path.relative_to(PACKAGE).as_posix()}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert not offenders
