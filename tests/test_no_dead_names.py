"""Every top-level function and class, and every method, of the package is
used by the program.

A name defined at module level in src/gl2borel counts as used only when it
is mentioned in src/ or perfbench/ outside its own definition (body
included).  The re-exports of src/gl2borel/__init__.py are not a use, and
neither are tests: a name only tests reach is not part of the program.  The
exceptions are the public API, gl2borel.__all__, and the names the
acceptance tests import.  A method counts as used only where its name
follows a dot (`.name`), so a bare word in a comment keeps nothing alive,
and not where that dot follows a module alias the file binds by an import
(`xf.add`, `np.add`): that is a module attribute.
Whatever this test names is deleted rather than kept alive by habit.
"""

import ast
import re
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _module_aliases(path):
    """The names a file binds to modules by its imports: `np` in `import
    numpy as np`, `xf` in `from . import exactfield as xf`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "gl2borel"):
            out |= {a.asname or a.name for a in node.names if (PACKAGE / f"{a.name}.py").exists()}
    return out


def _word(name):
    """A bare mention of a top-level name."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return lambda line, path: word.search(line) is not None


def _method_use(name):
    """`.name` after anything but a module alias of the file."""
    dot = re.compile(rf"\.{re.escape(name)}\b")
    before = re.compile(r"(?<![\w.])(\w+)$")

    def used(line, path):
        for m in dot.finditer(line):
            owner = before.search(line, 0, m.start())
            if owner is None or owner[1] not in _module_aliases(path):
                return True
        return False
    return used


def _unused(sources, path, nodes, mention):
    """The nodes of `path` that `mention(name)` finds nowhere in `sources`
    outside their own definition, as "file:line name"."""
    out = []
    for node in nodes:
        used_in = mention(node.name)
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        own = range(start - 1, node.end_lineno)
        used = any(
            used_in(line, other)
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
        unused += _unused(sources, path, nodes, _word)
    assert not unused, "defined but not used by the program: " + ", ".join(unused)


def test_every_method_is_used_outside_tests():
    sources = _sources()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse("\n".join(sources.get(path, []))).body:
            if isinstance(cls, ast.ClassDef):
                methods = [n for n in cls.body
                           if isinstance(n, ast.FunctionDef) and not n.name.startswith("__")]
                unused += _unused(sources, path, methods, _method_use)
    assert not unused, "methods used by tests alone or not at all: " + ", ".join(unused)
