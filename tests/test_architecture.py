"""Module boundaries the package's design rests on."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mice"
NETWORK_MODULES = {"requests", "urllib", "http", "socket", "ssl"}


def imported_top_levels(path):
    """Top-level names of every module imported anywhere in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_gateway_does_network_io():
    network = {
        path.name: sorted(NETWORK_MODULES.intersection(imported_top_levels(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert network.pop("gateway.py") == ["http", "ssl", "urllib"]
    assert {name: mods for name, mods in network.items() if mods} == {}
