"""The import structure of src/hilbmac: every import sits at module level,
and each module imports only from the layers below its own.

The layers, in import order, are exactalg (L0), partitions and symfun (L1),
macdonald (L2), correlators and hilbert (L3), acceptance and cli (L4); the
modules inside exactalg may import each other.  The package's __init__ and
__main__ only re-export and start the CLI, and are exempt.
"""

import ast
from pathlib import Path

import pytest

import hilbmac

PACKAGE = Path(hilbmac.__file__).parent

LAYERS = ["exactalg", "partitions", "symfun", "macdonald", "correlators", "hilbert",
          "acceptance", "cli"]

MODULES = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")
                 if p.stem not in ("__init__", "__main__"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(), filename=module)


def _imports(tree: ast.Module):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _targets(module: str, node) -> list:
    """Dotted absolute names of the modules or names an import brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not node.level:
        return [node.module]
    package = ("hilbmac",) + Path(module).parts[:-1]
    base = package[:len(package) - node.level + 1]
    if node.module:
        return [".".join(base + (node.module,))]
    return [".".join(base + (alias.name,)) for alias in node.names]


def test_every_module_has_a_layer():
    assert {Path(m).parts[0].removesuffix(".py") for m in MODULES} == set(LAYERS)


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_at_module_level(module):
    tree = _tree(module)
    nested = [node.lineno for node in _imports(tree) if node not in tree.body]
    assert nested == [], f"{module}: imports below module level at lines {nested}"


@pytest.mark.parametrize("module", MODULES)
def test_imports_come_from_lower_layers(module):
    own = Path(module).parts[0].removesuffix(".py")
    bad = []
    for node in _imports(_tree(module)):
        for name in _targets(module, node):
            parts = name.split(".")
            if parts[0] != "hilbmac":
                continue
            layer = parts[1] if len(parts) > 1 else "hilbmac"
            if layer == own == "exactalg":
                continue
            if layer not in LAYERS or LAYERS.index(layer) >= LAYERS.index(own):
                bad.append((node.lineno, name))
    assert bad == [], f"{module} imports from its own layer or above: {bad}"
