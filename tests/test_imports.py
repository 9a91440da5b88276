"""Every name a tdcslab module imports is used in that module, every
function or class it defines is referenced somewhere in the code, and no
module checks anything with an ``assert`` statement.

No linter ships with the project, so these checks parse the code with
``ast``.  ``__init__.py`` is left out of the import check: its imports are
the package's re-exports.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "tdcslab")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")
# the code that may reference a definition: the package, demos and benchmark
CODE = sorted(p for top in ("src", "demos", "perfbench")
              for p in glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True))
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


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


def definitions(source: str) -> list:
    """Module-level and class-level functions and classes of ``source``
    (``Class.name`` for the latter), dunders excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, _DEFS):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{sub.name}" for sub in node.body
                      if isinstance(sub, _DEFS)]
    return [n for n in names if not n.split(".")[-1].startswith("__")]


def references(source: str) -> set:
    """Names that ``source`` reads, reads as an attribute or imports."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update({node.name.split(".")[-1], node.asname})
    return refs


def assert_lines(source: str) -> list:
    """Line numbers of the ``assert`` statements of ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_imported_name_is_used(path):
    assert unused_imports(read(path)) == []


def test_every_definition_is_referenced():
    refs = set().union(*(references(read(p)) for p in CODE))
    unreferenced = [f"{os.path.basename(p)}: {name}"
                    for p in sorted(glob.glob(os.path.join(SRC, "*.py")))
                    for name in definitions(read(p))
                    if name.split(".")[-1] not in refs]
    assert unreferenced == []


def test_the_check_sees_an_unused_import():
    source = "import os.path\nfrom math import pi, tau as t\nprint(t)\n"
    assert unused_imports(source) == ["os", "pi"]


def test_the_check_sees_an_unreferenced_definition():
    source = ("class A:\n    def __len__(self): return 0\n    def f(self): pass\n"
              "    def g(self): pass\n\ndef h(): pass\n\nA().g()\n")
    assert definitions(source) == ["A", "A.f", "A.g", "h"]
    assert [n for n in definitions(source)
            if n.split(".")[-1] not in references(source)] == ["A.f", "h"]


# ``python -O`` strips assert statements, so a check the package relies on
# (``plan_shifts`` on a failed layout, say) must raise instead
@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_assert_statement(path):
    assert assert_lines(read(path)) == []


def test_the_check_sees_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'no'\n") == [3]
