"""Every name a package module imports is used in that module.

The package's ``__init__`` re-exports names by importing them, so it is
left out. Names used only in string annotations count as used.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dunkl_oscillator"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_modules_found():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update({t.id: node.lineno for t in targets if isinstance(t, ast.Name)})
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def _loaded(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_private_helper_is_referenced():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_loaded, trees.values()))
    dead = {f"{p.name}:{line} {name}" for p, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in referenced}
    assert not dead, f"module-level private names never referenced in the package: {sorted(dead)}"


JACOBI = {"jacobi_rows", "jacobi_p"}


def _jacobi_users(tree: ast.Module) -> set[str]:
    """Module-level definitions that name a Jacobi evaluator (a call, or a
    reference that could become one), each by its own name."""
    users = set()
    for node in tree.body:
        for sub in ast.walk(node):
            named = (sub.id if isinstance(sub, ast.Name) else
                     sub.attr if isinstance(sub, ast.Attribute) else None)
            if named in JACOBI:
                users.add(getattr(node, "name", f"line {node.lineno}"))
    return users


def test_one_angular_jacobi_path():
    # every angular factor is a row of one table builder; a second Jacobi
    # path (a per-mode twin of it) would have to name the evaluator again
    users = {p.stem: _jacobi_users(ast.parse(p.read_text(encoding="utf-8")))
             for p in MODULES if p.stem != "special_functions"}
    elsewhere = {stem: names for stem, names in users.items() if names and stem != "angular_sector"}
    assert not elsewhere, f"Jacobi evaluators named outside angular_sector: {elsewhere}"
    assert len(users["angular_sector"]) == 1, users["angular_sector"]


def _names(tree: ast.AST) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(tree)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _suppressed(tree: ast.AST) -> set[str]:
    """The exception names of every ``contextlib.suppress(...)`` / ``suppress(...)`` call."""
    calls = [sub for sub in ast.walk(tree) if isinstance(sub, ast.Call)
             and (getattr(sub.func, "attr", None) or getattr(sub.func, "id", None)) == "suppress"]
    return set().union(*(_names(arg) for call in calls for arg in call.args))


def test_one_pairing_path():
    # k' - k is partner_offset's alone: no other module derives a pair one
    # k at a time, and no loop skips unpaired k by suppressing the error
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    elsewhere = sorted(stem for stem, tree in trees.items()
                       if stem != "solution_builder" and "pair_radial_indices" in _names(tree))
    assert not elsewhere, f"pair_radial_indices named outside solution_builder: {elsewhere}"
    suppressing = sorted(p.name for p in PACKAGE.glob("*.py")
                         if "InvalidPairError" in _suppressed(ast.parse(p.read_text(encoding="utf-8"))))
    assert not suppressing, f"contextlib.suppress(InvalidPairError) in {suppressing}"


def _callee(node: ast.AST) -> str | None:
    """The name a call calls: ``abs(...)`` -> "abs", ``np.cos(...)`` -> "cos"."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    return None


def _angular_weights(tree: ast.Module) -> list[int]:
    """Lines that raise ``abs(cos(.))`` or ``abs(sin(.))`` to a power."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and _callee(node.left) in {"abs", "absolute"} and node.left.args
            and _callee(node.left.args[0]) in {"cos", "sin"}]


def test_one_angular_measure():
    # the deformation weight |cos|^{2mu_x} |sin|^{2mu_y} lives in the weights
    # of angular_quadrature; evaluating it anywhere else would apply it twice
    found = {p.name: lines for p in MODULES
             if (lines := _angular_weights(ast.parse(p.read_text(encoding="utf-8"))))}
    assert not found, f"|cos|**p or |sin|**p evaluated outside the quadrature rule: {found}"
    assert _angular_weights(ast.parse("w = np.abs(np.cos(phi)) ** 2")) == [1]
    assert _angular_weights(ast.parse("w = np.cos(phi) ** 2")) == []


def _raisers(tree: ast.Module, error: str) -> list[str]:
    """The function around each ``raise error(...)``, once per raise."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [func.name for node in ast.walk(func) if isinstance(node, ast.Raise)
                      and node.exc is not None and error in _names(node.exc)]
    return found


def test_one_singular_locus_guard():
    # the reflection-difference guard of Cartesian and polar points is one
    # helper; only kg_apply's radius check raises the error besides it
    found = {p.stem: names for p in MODULES
             if (names := _raisers(ast.parse(p.read_text(encoding="utf-8")), "SingularPointError"))}
    assert found == {"dunkl_calculus": ["_check_symmetric_near_axis", "kg_apply"]}, found


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every module an ``import`` names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_scipy():
    # scipy is a test dependency only: the package runs on numpy and the
    # standard library, Bessel J included
    found = sorted(p.name for p in PACKAGE.glob("*.py")
                   if "scipy" in _imported_modules(ast.parse(p.read_text(encoding="utf-8"))))
    assert not found, f"scipy imported in {found}"
    assert _imported_modules(ast.parse("def f():\n    from scipy import special")) == {"scipy"}
