"""Each tabletop decision sits behind one module, read from the source with `ast`.

`experiments` alone knows the port layout, and `distinguish` alone (with
the temporal field of `core`'s labels) knows which temporal bins exist.
The generic modules `core`, `elements` and `evolve` import neither.
"""

import ast
from pathlib import Path

import pytest

import focksim

SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(focksim.__file__).parent.glob("*.py"))
}
GENERIC = ("core", "elements", "evolve")
TABLETOP = {"distinguish", "experiments"}
ANALYSIS_PORTS = {"ANALYZER_SPATIAL", "HERALD_SPATIAL"}


def is_port_name(name: str) -> bool:
    """Spatial port constants are named `*_SPATIAL`, and the pair's input ports `PAIR_IN`."""
    return name.endswith("_SPATIAL") or name == "PAIR_IN"


def module_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        names |= {leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)}
    return names


def imported_modules(tree: ast.Module) -> set[str]:
    """Last component of every imported module; `from . import x` counts x."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module is None:
                found |= {alias.name for alias in node.names}
            else:
                found.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[-1] for alias in node.names}
    return found


def referenced_names(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found |= {node.name.split(".")[-1], node.asname} - {None}
    return found


def bin_references(tree: ast.Module) -> list[int]:
    """Lines that read a label's temporal field or build a label in a chosen bin."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "temporal":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            plain = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
            if any(keyword.arg == "temporal" for keyword in node.keywords) or (
                callee in ("mode", "ModeLabel") and len(plain) >= 3
            ):
                lines.append(node.lineno)
    return lines


PORT_NAMES = {name for name in module_level_names(SOURCES["experiments"]) if is_port_name(name)}


def test_experiments_defines_the_analysis_ports():
    assert ANALYSIS_PORTS <= PORT_NAMES


@pytest.mark.parametrize("name", GENERIC)
def test_generic_module_imports_no_tabletop_module(name):
    assert imported_modules(SOURCES[name]) & TABLETOP == set()


@pytest.mark.parametrize("name", GENERIC)
def test_generic_module_names_no_port(name):
    assert referenced_names(SOURCES[name]) & (PORT_NAMES | ANALYSIS_PORTS) == set()


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"experiments"}))
def test_only_experiments_defines_port_numbers(name):
    assert {n for n in module_level_names(SOURCES[name]) if is_port_name(n)} == set()


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"core", "distinguish"}))
def test_only_distinguish_knows_the_temporal_bins(name):
    assert bin_references(SOURCES[name]) == []
