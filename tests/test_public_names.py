"""Every public name of sae_lab, and every parameter with a default, is used
from the command line or the acceptance criteria.

The roots are every top-level definition in cli.py and every sae_lab name
that tests/test_acceptance.py imports or uses.  A top-level definition
reaches each top-level name of its own module that it mentions, each name
it imports from another sae_lab module, and each attribute it reads off an
imported sae_lab module; the reached set is closed over those references.
A name in a module's __all__ outside that set runs only under its own unit
tests, so it goes, unless KEPT says why it stays.

Likewise a parameter with a default, of a public function or a public
class (a dataclass field, or an argument of __init__), must be passed a
value other than its default at some call inside the reached set: the
bodies of the reached definitions and the whole acceptance module.  A
value named after the parameter (``V``, ``ham.V``) only forwards one and
does not count.  A parameter that every such call leaves at its default
is a setting nothing uses, so it goes too.  The parameters of a name in
KEPT are covered by its entry.
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


def _resolve(node, module, defs, modules, names):
    """The (module, name) a Name or a module attribute refers to, or None."""
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        if node.id in defs:
            return module, node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
        return modules[node.value.id], node.attr
    return None


def _references(node, module, defs, modules, names):
    for sub in ast.walk(node):
        if (key := _resolve(sub, module, defs, modules, names)) is not None:
            yield key


def _parse_package(sources: dict) -> dict:
    """Module stem -> _scan of its source."""
    return {stem: _scan(ast.parse(text)) for stem, text in sources.items()}


@functools.cache
def _package() -> dict:
    return _parse_package({path.stem: path.read_text() for path in PACKAGE.glob("*.py")})


def _closure(package: dict, acceptance: ast.Module):
    """(reached (module, name) keys, the scopes they run: (node, module, defs, modules, names))."""
    _, modules, names = _scan(acceptance)
    scopes = [(acceptance, None, {}, modules, names)]
    todo = [("cli", name) for name in package["cli"][0]]
    todo += names.values()
    todo += _references(acceptance, None, {}, modules, names)
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        if module in package and name in package[module][0]:
            defs, modules, names = package[module]
            scopes.append((defs[name], module, defs, modules, names))
            todo += _references(defs[name], module, defs, modules, names)
    return frozenset(seen), scopes


@functools.cache
def _reached() -> frozenset:
    return _closure(_package(), ast.parse(ACCEPTANCE.read_text()))[0]


def _public(module: str, package: dict | None = None) -> list:
    defs = (package or _package())[module][0]
    return list(ast.literal_eval(defs["__all__"].value)) if "__all__" in defs else []


def _defaults(node) -> list:
    """(position or None for keyword-only, name, default) of each parameter with a default.

    A function's parameters; a class's __init__ arguments after self, or
    without an __init__ its annotated fields (a dataclass).
    """
    if isinstance(node, ast.ClassDef):
        init = next((s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"), None)
        if init is not None:
            return [(None if i is None else i - 1, name, default) for i, name, default in _defaults(init)]
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        return [(i, f.target.id, f.value) for i, f in enumerate(fields) if f.value is not None]
    if not isinstance(node, ast.FunctionDef):
        return []
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(first + i, a.arg, d) for i, (a, d) in enumerate(zip(positional[first:], args.defaults))]
    return out + [(None, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _sets(call: ast.Call, position, name: str, default) -> bool:
    """Whether the call passes the parameter a value that is not its literal default."""
    before = [] if position is None else call.args[: position + 1]
    if any(isinstance(arg, ast.Starred) for arg in before):
        return False  # which argument lands where is not known
    if position is not None and position < len(call.args):
        value = call.args[position]
    else:
        value = next((kw.value for kw in call.keywords if kw.arg == name), None)
    if value is None:
        return False
    if getattr(value, "id", getattr(value, "attr", None)) == name:
        return False  # ``V`` or ``ham.V`` forwards a value set elsewhere, or never
    try:
        return ast.literal_eval(value) != ast.literal_eval(default)
    except (ValueError, TypeError):
        return True  # not a literal: a value computed at the call


def _unset_parameters(package: dict, acceptance: ast.Module) -> list:
    """``module.name(parameter)`` of each defaulted parameter no reached call sets."""
    _, scopes = _closure(package, acceptance)
    calls = [
        (_resolve(call.func, *scope[1:]), call)
        for scope in scopes
        for call in ast.walk(scope[0])
        if isinstance(call, ast.Call)
    ]
    unset = []
    for module in sorted(package.keys() - {"__init__"}):
        defs = package[module][0]
        for name in _public(module, package):
            if f"{module}.{name}" in KEPT:
                continue
            for position, param, default in _defaults(defs.get(name)):
                if not any(key == (module, name) and _sets(call, position, param, default) for key, call in calls):
                    unset.append(f"{module}.{name}({param})")
    return unset


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


@functools.cache
def _package_unset() -> tuple:
    return tuple(_unset_parameters(_package(), ast.parse(ACCEPTANCE.read_text())))


@pytest.mark.parametrize("module", MODULES)
def test_every_default_parameter_is_set(module):
    assert [u for u in _package_unset() if u.startswith(f"{module}.")] == []


def test_a_parameter_left_at_its_default_is_flagged():
    package = _parse_package({
        "cli": (
            "from . import qdot_fd\n"
            "__all__ = ['main']\n"
            "def main(argv=None):\n"
            "    qdot_fd.build_hamiltonian(grid, 0.0, 1.0)\n"
            "    qdot_fd.build_hamiltonian(grid, 0.0, 1.0, V=None)\n"
            "    qdot_fd.build_hamiltonian(grid, 0.0, 1.0, ham.V)\n"
        ),
        "qdot_fd": "__all__ = ['build_hamiltonian']\ndef build_hamiltonian(grid, gamma, m, V=None):\n    pass\n",
    })
    acceptance = ast.parse("from sae_lab import cli\ncli.main(['dot'])\n")
    assert _unset_parameters(package, acceptance) == ["qdot_fd.build_hamiltonian(V)"]
    # a call that passes a potential, by position or by keyword, sets it
    for call in ("build_hamiltonian(grid, 0.0, 1.0, potential)", "build_hamiltonian(grid, 0.0, 1.0, V=0.5)"):
        acceptance = ast.parse(f"from sae_lab import cli\nfrom sae_lab.qdot_fd import build_hamiltonian\ncli.main(['dot'])\n{call}\n")
        assert _unset_parameters(package, acceptance) == []
