"""Every name a package module or a test file imports is used in that file.

The package's ``__init__`` re-exports names by importing them, so it is
left out. Names used only in string annotations count as used.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import dunkl_oscillator
from dunkl_oscillator.angular_sector import AngularMode
from dunkl_oscillator.solution_builder import OscillatorConfig, SpinorSolution

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dunkl_oscillator"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.stem)
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


# Public functions that no module of the package calls or names. The four
# angular basis families, f_eigenfunction and the scalar Jacobi and Laguerre
# evaluators are layers that perfbench/tracer.py wraps; polar_quadrature is
# the radial-angular rule that norms are integrated with; the last four are
# the independent references (oracles) that the tests check the builder by.
ENTRY_POINTS = {
    "phi_pp", "phi_mm", "phi_mp", "phi_pm", "f_eigenfunction", "jacobi_p", "laguerre_l",
    "polar_quadrature",
    "matrix_oracle_lambda", "cartesian_states", "classical_oscillator_b_energy", "coupled_reflection_eigenstate",
}


def test_every_public_function_has_a_caller_or_is_an_entry_point():
    # a public function that nothing calls is dead code unless it is one of
    # the named entry points; an entry point that gains a caller leaves the list
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    referenced = set().union(*map(_loaded, trees))
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")}
    assert public - referenced == ENTRY_POINTS, sorted((public - referenced) ^ ENTRY_POINTS)


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


def _definitions(tree: ast.Module):
    """(name, node) of every module-level function and class."""
    return [(node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _is_mu(node: ast.AST) -> bool:
    named = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
    return named.startswith("mu")


def _parity_term(node: ast.AST) -> bool:
    """``n % 2`` or ``1 - (-1) ** n``: the odd-n indicator of [n]_mu."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return isinstance(node.right, ast.Constant) and node.right.value == 2
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and isinstance(node.right, ast.BinOp):
        base = node.right.left
        return isinstance(node.right.op, ast.Pow) and (
            isinstance(base, ast.UnaryOp) and isinstance(base.op, ast.USub)
            or isinstance(base, ast.Constant) and base.value == -1)
    return False


def _bracket_formers(tree: ast.Module) -> list[str]:
    """Module-level definitions that form [n]_mu = n + 2 mu (n mod 2): a
    product of a deformation parameter and the odd-n indicator."""
    return [name for name, node in _definitions(tree)
            if any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
                   and any(map(_is_mu, ast.walk(sub))) and any(map(_parity_term, ast.walk(sub)))
                   for sub in ast.walk(node))]


def test_one_shell_block():
    # the ladder factors of the Cartesian shell, and the off-diagonal of J
    # made from them, come from one helper that both shell oracles call
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    formers = {f"{stem}.{name}" for stem, tree in trees.items() for name in _bracket_formers(tree)}
    assert formers == {"verification._shell_ladder"}, formers
    calls = {name: {_callee(sub) for sub in ast.walk(node)} for name, node in _definitions(trees["verification"])}
    for oracle in ("matrix_oracle_lambda", "cartesian_states"):
        assert "_shell_ladder" in calls.get(oracle, set()), oracle
    assert _bracket_formers(ast.parse("def f(n, p):\n    return n + 2.0 * p.mu_x * (n % 2)")) == ["f"]
    assert _bracket_formers(ast.parse("def f(n, mu):\n    return n + mu * (1 - (-1) ** n)")) == ["f"]
    assert _bracket_formers(ast.parse("def f(n, p):\n    return 1 + p.mu_x * (-1.0) ** n")) == []


def _attribute_readers(attr: str) -> set[str]:
    """Module-level definitions of the package that read attribute ``attr``."""
    return {name for p in MODULES for name, node in _definitions(ast.parse(p.read_text(encoding="utf-8")))
            if attr in {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}}


def test_omega_tilde_readers():
    # w~ itself is read where the regime and |w~| are defined, by the
    # operators and states whose radial scale |w~| or signed w~ (of J and
    # the reflection term) it is in units hbar = m = 1, and by the textbook
    # oracle; everything else reads OscillatorConfig's derived scales
    assert _attribute_readers("omega_tilde") == {
        "OscillatorConfig", "classify_regime", "kg_apply", "dirac_apply", "build_radial", "stacked_blocks",
        "cartesian_states", "coupled_reflection_eigenstate", "classical_oscillator_b_energy"}


def test_state_field_readers():
    # every built state's residual comes from the shared tables: a state's own
    # fields are read by the wavefunction export alone, and the checks' block
    # helper reads a lone hand-built oracle state's rows
    for attr in ("upper", "lower"):
        assert _attribute_readers(attr) == {"cmd_wavefunction"}, attr


def test_a_built_state_is_its_rows():
    # a state stores the rows it reads and nothing else: its upper and lower
    # are read through stacked_blocks, its radial indices are its rows'
    # indices, and no mode, closure or label keeps a second copy of either
    assert [field.name for field in dataclasses.fields(SpinorSolution)] == ["energy", "mode", "config", "rows"]
    assert all(isinstance(getattr(SpinorSolution, attr), property) for attr in ("upper", "lower"))
    assert not hasattr(AngularMode, "eigenfunction")
    assert not hasattr(dunkl_oscillator, "QuantumNumbers")
    assert not _namers("_product_field")
    assert not _attribute_readers("quantum")


def test_oscillator_config_takes_what_callers_vary():
    # hbar and m only choose units (q = 2 hbar |w~| / (m c^2)), so the
    # package works in hbar = m = 1: the config holds the two frequencies
    # and c, which the nonrelativistic check varies, and no module reads
    # a unit constant or a rescaled copy of w~
    assert [field.name for field in dataclasses.fields(OscillatorConfig)] == ["omega", "omega_c", "c"]
    for attr in ("hbar", "m", "oscillator_scale"):
        assert not _attribute_readers(attr), attr


def _namers(name: str, skip: str = "") -> set[str]:
    """``module.definition`` of every module-level function or class, outside
    module ``skip``, whose body names ``name`` (a call, or a reference)."""
    return {f"{p.stem}.{definition}" for p in MODULES if p.stem != skip
            for definition, node in _definitions(ast.parse(p.read_text(encoding="utf-8")))
            if name in _names(node)}


def test_radial_profiles_are_built_by_the_builder():
    # an oracle takes its radial factor from build_radial, not a copy of its rules
    found = {p.stem for p in MODULES
             if any(_callee(sub) == "RadialProfile" for sub in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))}
    assert found == {"solution_builder"}, found


def test_effective_frequency_readers():
    # |w~| is read where q and the nonrelativistic scale are formed; the
    # radial scale |w~| is read with the signed w~ (test_omega_tilde_readers)
    readers = {name.split(".")[1] for name in _namers("effective_frequency")}
    assert readers == {"OscillatorConfig", "energy_column", "nonrelativistic_target",
                       "check_nonrelativistic_limit"}, readers


def test_one_free_radial_profile():
    # rho^{-mu_+} J_A(sqrt(2 Et) rho) is one remembered table builder
    found = _namers("bessel_j", skip="special_functions")
    assert len(found) == 1, found


def _callers(name: str) -> set[str]:
    """``module.definition`` of every module-level function or class that calls ``name``."""
    return {f"{p.stem}.{definition}" for p in MODULES
            for definition, node in _definitions(ast.parse(p.read_text(encoding="utf-8")))
            if name in {_callee(sub) for sub in ast.walk(node)}}


def test_the_sweep_and_build_spinor_alone_call_mode_states():
    # a state is built by build_spinor or by the sweep; a check on the
    # sweep's norms walks the sweep itself, with no shortcut of its own
    assert _callers("mode_states") == {"solution_builder.build_spinor", "solution_builder.sweep_bound_states"}


def test_one_spectral_sum():
    # 2k + A + lambda - sigma and its partners are spectral_sum's alone: the
    # nonrelativistic target reads it, and finds neither lambda nor A itself
    assert {"solution_builder.energy_column", "verification.nonrelativistic_target"} <= _callers("spectral_sum")
    target = dict(_definitions(ast.parse((PACKAGE / "verification.py").read_text(encoding="utf-8"))))
    named = _names(target["nonrelativistic_target"]) & {"lambda_eigenvalue", "radial_order"}
    assert not named, named


def test_remembered_tables_are_the_factor_builders():
    # each radial or angular factor is a row of one remembered table, and
    # the checks' block fields remember their products of those rows, which
    # the stencils ask for again; a caller reads the table or the field, and
    # wraps nothing of its own
    assert _callers("remember_last") == {"solution_builder.radial_rows", "solution_builder.free_rows",
                                         "angular_sector._mixed_rows", "verification._state_blocks"}


def _rows_givers(tree: ast.Module) -> set[str]:
    """Module-level definitions of ``tree`` that give a ``SpinorSolution`` its
    rows: a ``SpinorSolution(...)`` call with a fourth argument or a ``rows=``
    keyword, or a ``replace(..., rows=...)`` call."""
    def gives(call: ast.AST) -> bool:
        keywords = {kw.arg for kw in getattr(call, "keywords", ())}
        return (_callee(call) == "SpinorSolution" and (len(call.args) >= 4 or "rows" in keywords)
                or _callee(call) == "replace" and "rows" in keywords)
    return {name for name, node in _definitions(tree) if any(map(gives, ast.walk(node)))}


def _weight_formers(tree: ast.Module) -> set[str]:
    """Module-level definitions of ``tree`` that form a product of an
    ``epsilon`` and a ``branch``: the angular weight epsilon b."""
    def named(node: ast.AST) -> str | None:
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return {name for name, node in _definitions(tree)
            if any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
                   and {named(sub.left), named(sub.right)} == {"epsilon", "branch"} for sub in ast.walk(node))}


def test_each_component_reads_the_rows_its_builder_named():
    # the paper's pairing (one F row and one radial order for both
    # components) is stated where a state is built, and nowhere else: the
    # stacker reads each component's rows instead of deriving them from the
    # mode, and the weight epsilon b of an angular key has one source
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    stacker = dict(_definitions(trees["solution_builder"]))["stacked_blocks"]
    named = _names(stacker) & {"radial_order", "eigenfunction_rows"}
    assert not named, named
    givers = {f"{stem}.{name}" for stem, tree in trees.items() for name in _rows_givers(tree)}
    assert givers == {"solution_builder.mode_states", "solution_builder.free_particle"}, givers
    formers = {f"{stem}.{name}" for stem, tree in trees.items() for name in _weight_formers(tree)}
    assert formers == {"angular_sector.AngularMode"}, formers
    assert _rows_givers(ast.parse("def f(s):\n    return replace(s, rows=(s.upper, s.lower))")) == {"f"}
    assert _rows_givers(ast.parse("def f(e, m, c, r):\n    return SpinorSolution(e, m, c, r)")) == {"f"}
    assert _rows_givers(ast.parse("def f(*a):\n    return SpinorSolution(*a[:4])")) == set()
    assert _weight_formers(ast.parse("def f(m):\n    return m.sector.epsilon * m.branch")) == {"f"}
    assert _weight_formers(ast.parse("def f(m):\n    return m.branch * m.lam")) == set()


def _mu_plus_subtracters(tree: ast.Module) -> set[str]:
    """The module-level definitions of ``tree`` that form ``x - mu_plus``."""
    return {name for name, node in _definitions(tree)
            if any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                   and getattr(sub.right, "id", getattr(sub.right, "attr", None)) == "mu_plus"
                   for sub in ast.walk(node))}


def test_one_radial_exponent():
    # the power A - mu_+ of a bound radial factor is formed in radial_rows alone
    tree = ast.parse((PACKAGE / "solution_builder.py").read_text(encoding="utf-8"))
    assert _mu_plus_subtracters(tree) == {"radial_rows"}
    assert _mu_plus_subtracters(ast.parse("def f(a, p):\n    return a - p.mu_plus")) == {"f"}
    assert _mu_plus_subtracters(ast.parse("def f(a, mu_plus):\n    return a - mu_plus")) == {"f"}
    assert _mu_plus_subtracters(ast.parse("def f(a, p):\n    return a - 2 * p.mu_plus - p.mu_minus")) == set()


def test_run_suite_alone_builds_the_sweep_for_verify():
    # a state that cannot be built fails in run_suite before its first
    # check, for every caller: the command line walks no sweep of its own
    assert "sweep_bound_states" not in _names(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))


def test_run_suite_alone_checks_the_step():
    # the largest step is run_suite's rule: every caller, the command line
    # too, meets it there, before the first check
    assert _callers("step_limit") == {"verification.run_suite"}


def test_the_largest_degree_is_named_where_its_rules_are():
    # a radial index past MAX_DEGREE is _check_last_pair's to reject, for
    # mode_states and for the sweep before its first state; the parser
    # bounds its flags by it, and nothing else keeps a copy of the rule
    assert _namers("MAX_DEGREE", skip="special_functions") == {
        "cli.build_parser", "cli._parse_n_values", "solution_builder._check_last_pair"}
    assert _callers("_check_last_pair") == {"solution_builder.mode_states", "solution_builder.sweep_bound_states"}


def test_one_record_constructor():
    # every record names its suite, sector, n and branch in one place; only
    # ortho's, whose name lists a whole sector's modes, is made apart
    assert _callers("CheckRecord") == {"verification._mode_record", "verification.check_orthonormality"}


def test_one_stdout_writer_in_cli():
    # every table and report goes out through _write, which writes the head
    # only with the first block, so an error before it leaves stdout empty;
    # main only flushes stdout, and every print goes to stderr
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    writers = {name for name, node in _definitions(tree) if "write" in {_callee(sub) for sub in ast.walk(node)}}
    assert writers == {"_write"}, writers
    assert {name for name, node in _definitions(tree) if "stdout" in _names(node)} == {"_write", "main"}
    to_stdout = [sub.lineno for sub in ast.walk(tree)
                 if _callee(sub) == "print" and "file" not in {kw.arg for kw in sub.keywords}]
    assert not to_stdout, f"print() to stdout at lines {to_stdout}"


def test_one_energy_column_call_in_cli():
    # spectrum's resolve pass (each mode's first block and last k) and its
    # write pass share one call site, so neither can fork on the table's length
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [sub.lineno for sub in ast.walk(tree) if _callee(sub) == "energy_column"]
    assert len(calls) == 1, calls
    assert {name for name in _callers("energy_column") if name.startswith("cli.")} == {"cli._spectrum_blocks"}


def _parameters(module: str) -> dict[str, set[str]]:
    """Parameter names of every public module-level function of ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {name: {arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
            for name, node in _definitions(tree)
            if isinstance(node, ast.FunctionDef) and not name.startswith("_")}


# Parameters the builder and check calls took and no caller varied: the
# mode gives the sector and parameters, and the others had one value.
_DROPPED = {
    "solution_builder.build_spinor": {"sector", "sign"},
    "solution_builder.free_particle": {"sector", "params"},
    "solution_builder.mode_states": {"sign"},
    "solution_builder.energy_column": {"sign"},
    "verification.check_nonrelativistic_limit": {"sector", "c_values"},
    "verification.check_kg_eigen": {"grid_spec"},
    "verification.check_dirac_system": {"grid_spec"},
    "verification.check_angular_eigen": {"n_phi"},
}


def test_a_mode_brings_its_own_sector_and_parameters():
    # a mode already carries its sector and parameters, so a call that takes
    # a mode takes neither again; energy keeps the sector that
    # perfbench/workloads.py passes it, and checks it against the mode
    signatures = {f"{module}.{name}": params for module in ("solution_builder", "verification")
                  for name, params in _parameters(module).items()}
    doubled = {name for name, params in signatures.items() if "mode" in params and params & {"sector", "params"}}
    assert doubled == {"solution_builder.energy"}, doubled
    back = {name: signatures[name] & dropped for name, dropped in _DROPPED.items() if signatures[name] & dropped}
    assert not back, back
    assert sum(map(len, _DROPPED.values())) == 11
