"""Every top-level function and class, and every method, of the package is
used by the program.

A name defined at module level in src/gl2borel counts as used only when it
is mentioned in src/ or perfbench/ outside its own definition (body
included).  The re-exports of src/gl2borel/__init__.py are not a use, and
neither are tests: a name only tests reach is not part of the program.  The
exceptions are the public API, gl2borel.__all__, and the names the
acceptance tests import.  A method counts as used only where its name
follows a dot (`.name`), so a bare word in a comment keeps nothing alive.
Whatever this test names is deleted rather than kept alive by habit.
"""

import ast
import re
from pathlib import Path

import gl2borel

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gl2borel"


def _sources():
    out = {}
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                out[path] = path.read_text().splitlines()
    return out


def _unused(sources, path, nodes, pattern):
    """The nodes of `path` whose name matches `pattern` nowhere in `sources`
    outside their own definition, as "file:line name"."""
    out = []
    for node in nodes:
        word = re.compile(pattern.format(re.escape(node.name)))
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


def _acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_top_level_name_is_used():
    sources = _sources()
    exempt = set(gl2borel.__all__) | _acceptance_imports()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = [n for n in ast.parse("\n".join(sources.get(path, []))).body
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name not in exempt]
        unused += _unused(sources, path, nodes, r"\b{}\b")
    assert not unused, "defined but not used by the program: " + ", ".join(unused)


def test_every_method_is_used_outside_tests():
    sources = _sources()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse("\n".join(sources.get(path, []))).body:
            if isinstance(cls, ast.ClassDef):
                methods = [n for n in cls.body
                           if isinstance(n, ast.FunctionDef) and not n.name.startswith("__")]
                unused += _unused(sources, path, methods, r"\.{}\b")
    assert not unused, "methods used by tests alone or not at all: " + ", ".join(unused)
