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


RNG_CONSTRUCTORS = {"PCG64", "SeedSequence", "default_rng"}


def rng_constructor_uses(path):
    """(enclosing function, name) for each mention of a numpy generator constructor."""
    uses = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        else:
            name = None
        if name in RNG_CONSTRUCTORS:
            uses.add((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return uses


def test_one_seeded_shuffle():
    # k-shot sampling, seeded-random selection and mixed ordering all draw
    # from corpus.seeded_prefix; the mock backend seeds its nucleus draws.
    uses = {path.name: rng_constructor_uses(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {
        "corpus.py": {("seeded_prefix", "PCG64"), ("seeded_prefix", "SeedSequence")},
        "gateway.py": {("_sampled_answer", "PCG64")},
    }
