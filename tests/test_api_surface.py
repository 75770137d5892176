"""API-surface guard: src/mixwave exports only what the package or the
benchmark uses.

The package namespace is empty: __init__ binds no name, and callers import
the submodules.  Every top-level public name (function, class or constant)
that a module of src/mixwave other than __init__ defines must be referenced
somewhere else: in another top-level statement of src/mixwave (not counting
__init__) or anywhere under perfbench/.  A reference is a name, an attribute,
an imported name, or a string equal to the name (perfbench/layers.py wraps
layer functions by their names).  Code only the tests use belongs in tests/.

The same holds one level down: every defaulted parameter of a public
function or method must be passed, by keyword or by position, by some call
in src/mixwave or perfbench/.  A call matches by the callee's name, as a
reference does above.  PARAMETER_ORACLES lists the knobs that only the tests
turn, each because a test uses it as an oracle.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mixwave"
PERFBENCH = ROOT / "perfbench"
PARAMETER_ORACLES = {
    "cli.main(argv)": "the CLI tests pass argv instead of patching sys.argv",
    "evolve.etd2_step(forcing)": "criterion 5: manufactured solutions need a forcing",
    "blowup.eta_condition_value(samples)": "refinement test of the measured constant",
    "blowup.frac_lap_phi(points_per_unit)": "refinement test of the spectral Laplacian",
    "radial.hs_norm(spec)": "the panel-order doubling test",
    "radial.gaussian_datum(mass)": "the mass-convention tests",
}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced_names(node):
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def unreferenced_public_names():
    """Sorted 'module.name' of the public names nothing else references."""
    statements = []     # (module file, top-level statement)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            statements += [(path, node) for node in ast.parse(path.read_text()).body]
    outside = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        outside |= _referenced_names(ast.parse(path.read_text()))
    refs = [(node, _referenced_names(node)) for _, node in statements]
    missing = []
    for path, node in statements:
        for name in _defined_names(node):
            if name.startswith("_") or name in outside:
                continue
            if not any(name in names for other, names in refs if other is not node):
                missing.append(f"{path.stem}.{name}")
    return sorted(missing)


def _defaulted_parameters(fn, method):
    """(name, position) of fn's defaulted parameters; position counts from the
    first argument a call passes (after self or cls for a method) and is None
    for keyword-only parameters."""
    a = fn.args
    positional = (a.posonlyargs + a.args)[1 if method else 0:]
    first = len(positional) - len(a.defaults)
    return ([(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def _public_functions():
    """(label, name, defaulted parameters) of every public top-level function
    and every public method of a public class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                prefix, method = f"{path.stem}.{node.name}.", True
                defs = [fn for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                prefix, method = f"{path.stem}.", False
                defs = [node] if isinstance(node, ast.FunctionDef) else []
            found += [(prefix + fn.name, fn.name, _defaulted_parameters(fn, method))
                      for fn in defs if not fn.name.startswith("_")]
    return found


def unpassed_parameters():
    """Sorted 'module.function(param)' of the defaulted parameters no call in
    src/mixwave or perfbench/ passes."""
    calls = {}          # callee name -> [(positional count, keyword names)]
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.rglob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append((len(sub.args), {k.arg for k in sub.keywords}))
    missing = []
    for label, name, params in _public_functions():
        for param, pos in params:
            passed = any(param in kws or (pos is not None and n_pos > pos)
                         for n_pos, kws in calls.get(name, []))
            if not passed:
                missing.append(f"{label}({param})")
    return sorted(missing)


def package_bound_names():
    """Names that __init__ binds: imports, assignment targets, defs, classes."""
    bound = []
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
    return bound


def test_every_public_name_is_used_outside_the_tests():
    assert unreferenced_public_names() == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = unpassed_parameters()
    assert [u for u in unpassed if u not in PARAMETER_ORACLES] == []
    # an oracle knob that some caller now passes leaves the list
    assert [k for k in PARAMETER_ORACLES if k not in unpassed] == []


def test_package_namespace_is_empty():
    assert package_bound_names() == []
