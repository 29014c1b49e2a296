"""Repository hygiene: the library imports only what it declares.

numpy is htlab's one runtime dependency. scipy and pytest-benchmark may be
installed next to it, but nothing declares them, so src/ must not use them.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "htlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_imports_only_stdlib_numpy_and_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno, module in _absolute_imports(tree):
            if module.partition(".")[0] not in ALLOWED:
                bad.append(f"{path.name}:{lineno}: {module}")
    assert not bad, "undeclared imports: " + ", ".join(bad)
