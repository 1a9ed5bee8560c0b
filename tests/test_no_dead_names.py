"""Every top-level function and class, and every method, of the package is
used somewhere.

A name defined at module level in src/gl2borel and mentioned nowhere else in
src/, tests/ or perfbench/ (its own definition, body included, does not
count) is dead code or an alias nobody reads; this test names it so it is
deleted rather than kept alive by habit.  A method is held to the same rule
with tests/ left out: one that only tests call is not part of the program.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gl2borel"


def _sources(folders):
    out = {}
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            out[path] = path.read_text().splitlines()
    return out


def _unused(sources, path, nodes):
    """The nodes of `path` whose name appears nowhere in `sources` outside
    their own definition, as "file:line name"."""
    out = []
    for node in nodes:
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        own = range(start - 1, node.end_lineno)
        used = any(
            word.search(line)
            for other, lines in sources.items()
            for i, line in enumerate(lines)
            if not (other == path and i in own)
        )
        if not used:
            out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def _definitions(body):
    return [n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]


def test_every_top_level_name_is_used():
    sources = _sources(("src", "tests", "perfbench"))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        unused += _unused(sources, path, _definitions(ast.parse("\n".join(sources[path])).body))
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_every_method_is_used_outside_tests():
    sources = _sources(("src", "perfbench"))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse("\n".join(sources[path])).body:
            if isinstance(cls, ast.ClassDef):
                methods = [n for n in cls.body
                           if isinstance(n, ast.FunctionDef) and not n.name.startswith("__")]
                unused += _unused(sources, path, methods)
    assert not unused, "methods used by tests alone or not at all: " + ", ".join(unused)
