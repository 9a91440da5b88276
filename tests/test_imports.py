"""Every name a tdcslab module imports is used in that module.

No linter ships with the project, so this check parses each module with
``ast``.  ``__init__.py`` is left out: its imports are the package's
re-exports.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tdcslab")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` (``__future__`` excepted)
    that no expression of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_imported_name_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_an_unused_import():
    source = "import os.path\nfrom math import pi, tau as t\nprint(t)\n"
    assert unused_imports(source) == ["os", "pi"]
