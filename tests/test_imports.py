"""Every module of the package uses each name it imports.

No linter is installed where the tests run, so this reads each module's
syntax tree: an imported name counts as used when it appears as a name,
which includes the base of an attribute (``np`` in ``np.array``).
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bidfm"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """The names ``source`` imports and never uses, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in dict.fromkeys(imported) if name not in used]


def test_modules_found():
    assert {"cli.py", "detect.py", "linalg.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize("source, unused", [
    ("import numpy as np\nnp.zeros(1)\n", []),
    ("import scipy.sparse\nscipy.sparse.eye(2)\n", []),
    ("from .linalg import SvdFactors, as_matrix\nas_matrix(1)\n", ["SvdFactors"]),
    ("from __future__ import annotations\nimport os\n", ["os"]),
    ("def f(a: Sequence) -> None: pass\nfrom typing import Sequence\n", []),
], ids=["attribute-base", "submodule", "from-import", "future", "annotation"])
def test_unused_imports_named(source, unused):
    assert unused_imports(source) == unused
