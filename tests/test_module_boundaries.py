"""Module boundaries inside the gaplab package.

No module uses another module's ``_``-prefixed names, neither through
``from .x import _name`` nor as an attribute ``x._name`` of an imported
sibling module.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gaplab"


def private_uses(source: str) -> list:
    """Private names of sibling modules that a module's source reaches."""
    tree = ast.parse(source)
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("gaplab")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "gaplab"):
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            siblings.update(a.asname or a.name for a in node.names if a.name.startswith("gaplab"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_names(path):
    assert private_uses(path.read_text()) == []


def test_private_uses_are_detected():
    assert private_uses("from .spectra import gap_count, _cluster_sorted") == ["spectra._cluster_sorted"]
    assert private_uses("from . import jsonio\njsonio._hidden(1)") == ["jsonio._hidden"]
    assert private_uses("from .spectra import gap_count\nimport numpy as np\nnp._x") == []
