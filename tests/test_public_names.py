"""Every public name of sae_lab is reached from the command line or the acceptance criteria.

The roots are every top-level definition in cli.py and every sae_lab name
that tests/test_acceptance.py imports or uses.  A top-level definition
reaches each top-level name of its own module that it mentions, each name
it imports from another sae_lab module, and each attribute it reads off an
imported sae_lab module; the reached set is closed over those references.
A name in a module's __all__ outside that set runs only under its own unit
tests, so it goes, unless KEPT says why it stays.
"""

import ast
import functools
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sae_lab"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

KEPT = {
    "box1d.eval_wavefunction": "the continuum oracle of test_cross_module_slack_agreement",
    "qdot_fd.write_grid": "the inverse of read_grid; tests write their mask files with it",
    "qdot_fd.read_robin_field": "ROADMAP item 11: carries the north star's per-face wall",
    "qdot_fd.minimal_packet_gamma": "ROADMAP item 11: carries the paper's minimal packet",
}


def _sae_lab_base(node: ast.ImportFrom):
    """The sae_lab module an import reads from: '' for the package, None outside it."""
    if node.level == 1:
        return node.module or ""
    module = node.module or ""
    if module == "sae_lab" or module.startswith("sae_lab."):
        return module[len("sae_lab.") :]
    return None


def _scan(tree: ast.Module):
    """(top-level definitions, imported sae_lab modules, imported sae_lab names)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    modules, names = {}, {}
    for node in ast.walk(tree):  # function-level imports too: cli loads qdot_fd lazily
        if isinstance(node, ast.ImportFrom) and (base := _sae_lab_base(node)) is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                if base:
                    names[local] = (base, alias.name)
                else:
                    modules[local] = alias.name
    return defs, modules, names


def _references(node, module, defs, modules, names):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in names:
                yield names[sub.id]
            elif sub.id in defs:
                yield module, sub.id
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in modules
        ):
            yield modules[sub.value.id], sub.attr


@functools.cache
def _package() -> dict:
    return {path.stem: _scan(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")}


@functools.cache
def _reached() -> frozenset:
    package = _package()
    tree = ast.parse(ACCEPTANCE.read_text())
    _, modules, names = _scan(tree)
    todo = [("cli", name) for name in package["cli"][0]]
    todo += names.values()
    todo += _references(tree, None, {}, modules, names)
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        if module in package and name in package[module][0]:
            defs, modules, names = package[module]
            todo += _references(defs[name], module, defs, modules, names)
    return frozenset(seen)


def _public(module: str) -> list:
    defs = _package()[module][0]
    return list(ast.literal_eval(defs["__all__"].value)) if "__all__" in defs else []


# the package __init__'s __all__ lists its submodules and version, not definitions
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_reached(module):
    public = _public(module)
    unreached = [f"{module}.{name}" for name in public if (module, name) not in _reached()]
    assert sorted(set(unreached) - set(KEPT)) == []
    # a KEPT entry names a public name that nothing else reaches, or it goes
    kept = sorted(key for key in KEPT if key.split(".")[0] == module)
    assert sorted(set(unreached) & set(KEPT)) == kept
