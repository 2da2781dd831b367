"""Every import in the package is used: the stdlib-`ast` check that a linter's
unused-import rule (F401) would make."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wtalkit"
MARKER = "# noqa: F401"


def unused_imports(source: str) -> list:
    """(line, name) of each name that `source` imports and never reads.

    A name counts as read when it appears as a name anywhere in the module or
    is listed in its `__all__`; an import on a line marked MARKER counts as
    read, and `from __future__` imports are not bindings.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported
            if name not in read and MARKER not in lines[line - 1]]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from .model import A, B as C, D  # noqa: F401\n"
        "from .losses import (\n"
        "    E,\n"
        "    F,\n"
        ")\n"
        "__all__ = ['E']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "os"), (7, "F")]
