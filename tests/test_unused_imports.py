"""No package module imports a name it never uses.

A deletion that leaves an import behind is caught here rather than by a
reader. Package `__init__.py` files are exempt: importing a name there
re-exports it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drmtestbed"


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


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")
    assert PACKAGE / "cdn.py" in modules
    assert PACKAGE / "services" / "hungama.py" in modules
    offenders = {
        path.relative_to(PACKAGE).as_posix(): found
        for path in modules
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
