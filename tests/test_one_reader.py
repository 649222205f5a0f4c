"""Every named input is read by ``cellfab.apps.read_source``.

A check before a read (``exists``, ``is_file``) both races the read and,
on Python 3.11, raises on a name of over 255 bytes; a read of its own
words its own errors.  So the package calls ``open``, ``read_text``,
``read_bytes``, ``exists`` and ``is_file`` only inside ``read_source``,
plus the one ``os.path.exists`` by which ``resolve_netlist`` tells an
unknown application from a netlist path.  Writes (``write_text``,
``mkdir``) are not reads.  Only the stdlib ``ast`` module is used.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellfab"
READS = {"open", "read_text", "read_bytes", "exists", "is_file"}
ALLOWED = {
    ("apps/__init__.py", "read_source", ".read_text"),
    ("apps/__init__.py", "resolve_netlist", "os.path.exists"),
}


def input_reads(source: str, module: str) -> list[tuple[str, str, str]]:
    """``(module, enclosing function, call)`` for every call in ``source``
    of ``open`` or of an attribute named in ``READS``."""
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in READS:
                reads.append((module, function, func.id))
            elif isinstance(func, ast.Attribute) and func.attr in READS:
                owner = ast.unparse(func.value)
                call = f"{owner}.{func.attr}" if owner == "os.path" else f".{func.attr}"
                reads.append((module, function, call))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return reads


def test_every_input_read_is_in_read_source():
    reads = {
        read
        for path in sorted(PACKAGE.rglob("*.py"))
        for read in input_reads(path.read_text(), path.relative_to(PACKAGE).as_posix())
    }
    assert reads == ALLOWED


def test_a_check_before_a_read_is_caught():
    source = (
        "def cmd_validate(args):\n"
        "    path = Path(args.netlist)\n"
        "    if not path.exists():\n"
        "        return 2\n"
        "    text, name = read_source(args.netlist, 'netlist file')\n"
        "    with open(args.netlist) as f:\n"
        "        f.read()\n"
        "    Path(f'{name}.csv').write_text(text)\n"
    )
    assert input_reads(source, "cli.py") == [
        ("cli.py", "cmd_validate", ".exists"),
        ("cli.py", "cmd_validate", "open"),
    ]
