"""Every public module-level name in ``src/senselink`` has a caller, and
every private name there is read.

A public name counts as used when it appears as a whole word in
``src/senselink`` or ``perfbench/`` outside its own definition. Code that
only tests reach belongs in the tests. A private name (a leading
underscore, not a dunder) at module level, a private method or class
attribute, or a private attribute set on ``self`` counts as read when it
appears as a whole word in ``src/senselink`` outside every definition of
that name, so a constant, helper or attribute left behind when the code
that read it went is caught.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "senselink").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").rglob("*.py"))


def _bound_names(node):
    """The names a function, class or assignment statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _public_definitions(path):
    """(name, first line, last line) of each public top-level definition."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        for name in _bound_names(node):
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(path):
    """(name, first line, last line) of each private top-level definition,
    method and class attribute, and each assignment to a private attribute
    of self."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    members = [member for node in tree.body if isinstance(node, ast.ClassDef)
               for member in node.body]
    for node in tree.body + members:
        for name in _bound_names(node):
            if _is_private(name):
                yield name, node.lineno, node.end_lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in (n for t in targets for n in ast.walk(t)):
                if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                        and target.value.id == "self" and _is_private(target.attr)):
                    yield target.attr, node.lineno, node.end_lineno


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


def test_every_private_name_in_src_is_read():
    defined = collections.defaultdict(set)  # name -> (path, line) its definitions cover
    for path in SOURCES:
        for name, first, last in _private_definitions(path):
            defined[name].update((path, line) for line in range(first, last + 1))
    read = set()
    for path in SOURCES:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            read.update(name for name in re.findall(r"\w+", line)
                        if name in defined and (path, number) not in defined[name])
    assert sorted(defined.keys() - read) == []
