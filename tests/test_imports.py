"""Every module under src/, tests/ and demos/ uses each name it imports,
and every name the package exports is read through the package.

A re-export marked ``# noqa: F401`` on any line of its import statement
is exempt from the first rule.  Only the stdlib ``ast`` module is used,
so no linter is needed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((ROOT / module).read_text()) == []


def test_an_unused_import_is_caught():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


# code outside src/ that may read the package; this module's own examples do not count
READERS = sorted(
    path
    for folder in ("tests", "demos", "cellbench")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "test_imports.py"
)


def package_exports() -> set[str]:
    """Names bound at the top level of ``cellfab/__init__.py``, but ``__version__``."""
    tree = ast.parse((ROOT / "src" / "cellfab" / "__init__.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names - {"__version__"}


def package_reads(source: str) -> set[str]:
    """Names ``source`` reads through the package: ``from cellfab import X``
    or ``cellfab.X``, also in a string of code it hands to an interpreter."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "cellfab" and not node.level:
            reads.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "cellfab"):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and "cellfab" in str(node.value):
            try:
                reads |= package_reads(node.value)
            except SyntaxError:  # prose, not code
                pass
    return reads


def test_every_package_export_is_read_through_the_package():
    reads = set().union(*(package_reads(path.read_text()) for path in READERS))
    assert sorted(package_exports() - reads) == []


def test_a_package_read_is_found():
    source = (
        "import cellfab\nfrom cellfab import run\nfrom cellfab.cell import vote\n"
        "cellfab.apps.edg\nCODE = 'import cellfab; cellfab.load_scenario(1)'\n"
        "DOC = 'cellfab: a simulator'\n"
    )
    assert package_reads(source) == {"run", "apps", "load_scenario"}
