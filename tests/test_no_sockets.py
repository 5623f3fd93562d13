"""The package never opens a socket: no module imports a network stack."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drmtestbed"
NETWORK_MODULES = ("socket", "ssl", "http", "urllib.request", "asyncio", "selectors")


def _network_imports(source: str) -> list[str]:
    """Every module name an import statement in source names, and that
    belongs to a network stack: `http.client` and `from urllib import
    request` count, `urllib.parse` does not."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return [
        name
        for name in names
        if any(name == mod or name.startswith(mod + ".") for mod in NETWORK_MODULES)
    ]


def test_the_walk_sees_every_import_form():
    source = (
        "import socket\n"
        "import http.client as hc\n"
        "from urllib import request\n"
        "from urllib.parse import urlsplit\n"
        "def f():\n"
        "    from asyncio import run\n"
        "from . import ssl\n"
    )
    assert _network_imports(source) == [
        "socket", "http.client", "urllib.request", "asyncio", "asyncio.run",
    ]


def test_no_module_imports_a_network_stack():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "transport.py" in modules
    offenders = {
        path.relative_to(PACKAGE).as_posix(): found
        for path in modules
        if (found := _network_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
