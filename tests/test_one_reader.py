"""No module in ``src/senselink`` reads JSON but ``codec._parse_json``.

Every payload senselink receives and every journal record goes through
that one reader, so its limits (the inflation cap it is given, the nesting
limit it checks, the literals orjson refuses) hold for all of them. A call
of ``json.loads``, ``json.load`` or ``orjson.loads`` anywhere else, through
the module or a name imported from it, would be a second reader with rules
of its own.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "senselink").glob("*.py"))
READERS = {("json", "loads"), ("json", "load"), ("orjson", "loads")}


def _reads(path):
    """(line, function) of each JSON read in a module, function being the
    name of the top-level function or class it sits in, or None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, functions = {}, {}  # local name -> module, or -> (module, function)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in ("json", "orjson"):
            functions.update((alias.asname or alias.name, (node.module, alias.name))
                             for alias in node.names)
    for top in tree.body:
        for node in ast.walk(top):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                called = (modules.get(func.value.id), func.attr)
            elif isinstance(func, ast.Name):
                called = functions.get(func.id)
            else:
                continue
            if called in READERS:
                yield node.lineno, getattr(top, "name", None)


def test_codec_parse_json_is_the_only_json_reader():
    reads = {f"{path.name}:{line} in {function}" for path in SOURCES
             for line, function in _reads(path)}
    allowed = {read for read in reads if read.startswith("codec.py:")
               and read.endswith(" in _parse_json")}
    assert len(allowed) == 1
    assert reads - allowed == set()
