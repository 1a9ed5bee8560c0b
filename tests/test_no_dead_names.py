"""Every top-level function and class of the package is used somewhere.

A name defined at module level in src/gl2borel and mentioned nowhere else in
src/, tests/ or perfbench/ (its own definition, body included, does not
count) is dead code or an alias nobody reads; this test names it so it is
deleted rather than kept alive by habit.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gl2borel"


def _sources():
    out = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            out[path] = path.read_text().splitlines()
    return out


def test_every_top_level_name_is_used():
    sources = _sources()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse("\n".join(sources[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
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
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined but never used: " + ", ".join(unused)
