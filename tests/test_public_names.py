"""Every public module-level name in ``src/senselink`` has a caller.

A name counts as used when it appears as a whole word in ``src/senselink``
or ``perfbench/`` outside its own definition. Code that only tests reach
belongs in the tests.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "senselink").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").rglob("*.py"))


def _public_definitions(path):
    """(name, first line, last line) of each public top-level definition."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def test_every_public_name_in_src_has_a_caller():
    words = collections.Counter(re.findall(r"\w+", "\n".join(
        path.read_text(encoding="utf-8") for path in CALLERS)))
    unused = []
    for home in SOURCES:
        lines = home.read_text(encoding="utf-8").splitlines()
        for name, first, last in _public_definitions(home):
            own = re.findall(rf"\b{re.escape(name)}\b", "\n".join(lines[first - 1:last]))
            if words[name] == len(own):
                unused.append(f"{home.stem}.{name}")
    assert unused == []
