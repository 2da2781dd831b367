"""Every import in the package is used, the stdlib-`ast` check that a linter's
unused-import rule (F401) would make, and no package module imports another
module's private (`_`-prefixed) name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wtalkit"
# (module, name) of the bindings that bench/test_bench.py checks its tracer
# patches; their modules import them without reading them
TRACER_BINDINGS = {("trainer", "forward")}


def unused_imports(source: str, module: str = "") -> list:
    """(line, name) of each name that `source`, the package module called
    `module`, imports and never reads.

    A name counts as read when it appears as a name anywhere in the module or
    is listed in its `__all__`; `from __future__` imports are not bindings,
    and the bindings of TRACER_BINDINGS are exempt, whatever marks their line.
    """
    tree = ast.parse(source)
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
            if name not in read and (module, name) not in TRACER_BINDINGS]



def private_imports(source: str) -> list:
    """(line, name) of each `_`-prefixed name that `source` imports from the
    package (relatively, or from `wtalkit`); dunder names are public."""
    return [(node.lineno, a.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "wtalkit")
            for a in node.names
            if a.name.startswith("_") and not (a.name.startswith("__") and a.name.endswith("__"))]

@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("module, name", sorted(TRACER_BINDINGS))
def test_each_exempt_binding_is_imported_and_unread(module, name):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert [n for _, n in unused_imports(source)] == [name]


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
    assert unused_imports(source) == [(2, "os"), (2, "os"), (4, "A"), (4, "C"), (4, "D"),
                                      (7, "F")]
    # a marked line exempts nothing; only the (module, name) pair does
    marked = "from .model import forward, init_params  # noqa: F401\n"
    assert unused_imports(marked, "trainer") == [(1, "init_params")]
    assert unused_imports(marked, "losses") == [(1, "forward"), (1, "init_params")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_imports_no_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_private_check_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "from ._version import __version__\n"
        "from .losses import GradMode, _chunks as chunks\n"
        "from . import _private\n"
        "from wtalkit.model import _embed\n"
        "from numpy.linalg import _umath_linalg\n"
        "import wtalkit.losses\n"
    )
    assert private_imports(source) == [(3, "_chunks"), (4, "_private"), (5, "_embed")]
