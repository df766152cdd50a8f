"""Every public module-level name, method and class attribute in
``src/senselink`` has a caller, and every private name there is read.

A public module-level name counts as used when it appears as a whole word
in ``src/senselink`` or ``perfbench/`` outside its own definition. A public
method or class attribute counts as used when the code there, less
docstrings and comments, names it outside its own definition: as a name,
an attribute, a keyword argument or a word of a string literal. Code that
only tests reach belongs in the tests; a member that only callers outside
the repository use is listed in ``OUTSIDE_CALLERS`` with the reason it is
kept.

A private name (a leading underscore, not a dunder) at module level, a
private method or class attribute, or a private attribute set on ``self``
counts as read when it appears as a whole word in ``src/senselink``
outside every definition of that name, so a constant, helper or attribute
left behind when the code that read it went is caught.

Every field of ``client.DeliveryReport`` and ``sim.ExperimentReport`` is
written by some code in ``src/senselink``, so a field left behind when its
counter went is caught.
"""

import ast
import collections
import dataclasses
import pathlib
import re

from senselink.client import DeliveryReport
from senselink.sim import ExperimentReport

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "senselink").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").rglob("*.py"))

# public members no code in the repository calls, each with why it is kept
OUTSIDE_CALLERS = {
    "client.ClientSession.update_session": "the key-rotation API of a gathering unit",
}


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


def _code_words(tree):
    """The words the code of a syntax tree uses: its names, attributes,
    keyword arguments and the words of its string literals, less its
    docstrings."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from re.findall(r"\w+", node.value)


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


def test_every_public_member_in_src_has_a_caller():
    words = collections.Counter(word for path in CALLERS for word in
                                _code_words(ast.parse(path.read_text(encoding="utf-8"))))
    unused = []
    for path in SOURCES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                for name in _bound_names(member):
                    if not name.startswith("_") and words[name] == collections.Counter(
                            _code_words(member))[name]:
                        unused.append(f"{path.stem}.{cls.name}.{name}")
    assert sorted(unused) == sorted(OUTSIDE_CALLERS)


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


def test_every_report_field_is_written():
    # a DeliveryReport field is written as a keyword of a DeliveryReport call
    # or as a counter, a string in the subscript of an assignment target; an
    # ExperimentReport field as a keyword of an ExperimentReport call, or as
    # a written DeliveryReport field, which it inherits
    keywords = collections.defaultdict(set)
    subscripts = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                keywords[node.func.id].update(k.arg for k in node.keywords if k.arg)
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            for target in targets:
                if isinstance(target, ast.Subscript):
                    subscripts.update(n.value for n in ast.walk(target.slice)
                                      if isinstance(n, ast.Constant) and isinstance(n.value, str))
    delivery = keywords["DeliveryReport"] | subscripts
    experiment = keywords["ExperimentReport"] | delivery
    unwritten = [f"client.DeliveryReport.{f.name}" for f in dataclasses.fields(DeliveryReport)
                 if f.name not in delivery]
    unwritten += [f"sim.ExperimentReport.{f.name}" for f in dataclasses.fields(ExperimentReport)
                  if f.name not in experiment]
    assert unwritten == []
