"""No package module imports a name it never uses, or defines a
private name it never reads, and neither does a test or tool script.

A deletion that leaves an import or a private helper behind is caught
here rather than by a reader. Package `__init__.py` files are exempt
from the import check: importing a name there re-exports it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drmtestbed"


def _unused_imports(source: str) -> list[str]:
    """The names that import statements in source bind and that no
    expression in it reads, in the order `ast.walk` meets them (outer
    scopes first). `import a.b` binds `a`; `from __future__` imports
    bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def _dead_private_names(source: str) -> list[str]:
    """The private names (`_name`, not `__dunder__`) that a top-level
    def, class or assignment in source binds and that no expression in
    it reads, in source order. A read from another module does not
    count: a private name is the module's own."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound += [name.id for name in ast.walk(target) if isinstance(name, ast.Name)]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name
        for name in bound
        if name.startswith("_")
        and not (name.startswith("__") and name.endswith("__"))
        and name not in read
    ]


def test_the_walk_sees_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import hmac as _hmac\n"
        "from .cdn import GrantGate, verify_grant\n"
        "from . import hls\n"
        "def f(x: GrantGate) -> None:\n"
        "    from math import inf\n"
        "    return os.path.join(hls.x, _hmac.new)\n"
    )
    assert _unused_imports(source) == ["json", "verify_grant", "inf"]


def test_the_walk_sees_every_private_definition():
    source = (
        "import hmac as _hmac\n"
        "__version__ = '1'\n"
        "_USED = 1\n"
        "_unused = 1\n"
        "_a, (_b, PUBLIC) = 1, (2, 3)\n"
        "_typed: int = 2\n"
        "def _dead(): ...\n"
        "async def _dead_too(): ...\n"
        "class _Live:\n"
        "    _attr = _USED\n"
        "def public(x: _Live) -> None:\n"
        "    _local = _b\n"
        "    return _hmac.new\n"
    )
    assert _dead_private_names(source) == ["_unused", "_a", "_typed", "_dead", "_dead_too"]


def _offenders(check, modules) -> dict[str, list[str]]:
    return {
        path.relative_to(ROOT).as_posix(): found
        for path in modules
        if (found := check(path.read_text(encoding="utf-8")))
    }


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")
    assert PACKAGE / "cdn.py" in modules
    assert PACKAGE / "services" / "hungama.py" in modules
    assert _offenders(_unused_imports, modules) == {}


def test_no_module_defines_a_private_name_it_never_reads():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "services" / "wynk.py" in modules
    assert _offenders(_dead_private_names, modules) == {}


def test_no_test_or_tool_script_leaves_an_import_or_private_name_unread():
    scripts = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])
    assert ROOT / "tests" / "conftest.py" in scripts
    assert ROOT / "tools" / "bench_record.py" in scripts
    assert _offenders(_unused_imports, scripts) == {}
    assert _offenders(_dead_private_names, scripts) == {}
