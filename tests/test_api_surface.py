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
function or method, and every defaulted field of a public frozen dataclass,
must be passed, by keyword or by position, by some call in src/mixwave or
perfbench/.  A call matches by the callee's name, as a reference does above.
PARAMETER_ORACLES lists the knobs that only the tests turn, each because a
test uses it as an oracle.

The same holds for class members: every field, property and method of a
class in src/mixwave, and every attribute a method sets on self, must be read
as an attribute (obj.member, matched by name) somewhere in src/mixwave or
perfbench/; dunder members, which the language calls, do not count.  MEMBER_ORACLES lists the
members that only the tests read, each with its reason.

No module under tests/ or perfbench/ imports a name it never references.

Each regime is decided once: OperatorParams.diffusivity is the only place
in src/mixwave that compares sigma with 1, and OperatorParams.p_regime the
only place that compares p with p_crit (by <, <=, >, >= or math.isclose).

scipy is a test dependency only: no module of src/mixwave loads it, checked
in a fresh interpreter.  Nor does importing what perfbench/workloads.py
imports load a process pool.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mixwave"
PERFBENCH = ROOT / "perfbench"
PARAMETER_ORACLES = {
    "cli.main(argv)": "the CLI tests pass argv instead of patching sys.argv",
    "evolve.etd2_step(forcing)": "criterion 5: manufactured solutions need a forcing",
    "blowup.eta_condition_value(samples)": "refinement test of the measured constant",
    "blowup.frac_lap_phi(points_per_unit)": "refinement test of the spectral Laplacian",
    "radial.radial_integral(r_max)": "criterion 2: the incomplete-gamma oracle",
    "radial.radial_integral(panel_order)": "the panel-order doubling test",
}
MEMBER_ORACLES = {
    "blowup.FracLapReport.field_inner": "the closed-form fractional Laplacian tests",
    "blowup.FracLapReport.x_inner": "the closed-form fractional Laplacian tests",
    "experiments.SlopeFit.window": "the tests that pin the window of the decay fit",
    "kernels.DuhamelWeights.w0t": "deleting it changes the kernel_eval count the "
                                  "benchmark ledger pins",
    "kernels.DuhamelWeights.w1t": "deleting it changes the kernel_eval count the "
                                  "benchmark ledger pins",
    "evolve.SolutionArchive.eps": "perfbench/workloads.py passes run(eps=)",
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


def _is_frozen_dataclass(cls):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                       for k in d.keywords)
               for d in cls.decorator_list)


def _is_init_false(value):
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", None) is False
                    for k in value.keywords))


def _defaulted_fields(cls):
    """(name, position) of a dataclass's defaulted __init__ fields; a
    field(init=False) is not a parameter."""
    fields = [stmt for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and not _is_init_false(stmt.value)]
    return [(stmt.target.id, i) for i, stmt in enumerate(fields) if stmt.value is not None]


def _public_functions():
    """(label, name, defaulted parameters) of every public top-level function,
    every public method of a public class and every public frozen dataclass
    (whose parameters are its fields)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_frozen_dataclass(node):
                    found.append((f"{path.stem}.{node.name}", node.name,
                                  _defaulted_fields(node)))
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


def _class_members(cls):
    """Names of a class's fields, properties, methods and self attributes,
    dunders aside."""
    members = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            members.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.FunctionDef):
            members.add(stmt.name)
            members.update(sub.attr for sub in ast.walk(stmt)
                           if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                           and getattr(sub.value, "id", None) == "self")
    return {m for m in members if not (m.startswith("__") and m.endswith("__"))}


def unread_members():
    """Sorted 'module.Class.member' of the class members that nothing in
    src/mixwave or perfbench/ reads as an attribute."""
    read = set()
    classes = []        # (module stem, class node)
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {sub.attr for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
        if path.parent == PACKAGE:
            classes += [(path.stem, node) for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef)]
    return sorted(f"{stem}.{cls.name}.{member}" for stem, cls in classes
                  for member in _class_members(cls) if member not in read)


def _import_bindings(node):
    """Names that an import statement binds; none for other nodes."""
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def package_bound_names():
    """Names that __init__ binds: imports, assignment targets, defs, classes."""
    bound = []
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        bound += _import_bindings(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
    return bound


def unused_imports():
    """Sorted 'file: name' of the names a module under tests/ or perfbench/
    imports and never references (__future__ imports aside)."""
    unused = []
    for path in sorted((ROOT / "tests").rglob("*.py")) + sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {name for node in ast.walk(tree)
                    if getattr(node, "module", None) != "__future__"
                    for name in _import_bindings(node)}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in imported - used]
    return sorted(unused)


def _is(node, what):
    """node is the number `what`, or for a string `what` names it: what,
    obj.what or cfg["what"]."""
    if not isinstance(what, str):
        return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and node.value == what)
    return (getattr(node, "id", None) == what or getattr(node, "attr", None) == what
            or (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and node.slice.value == what))


def regime_decisions(name, bound):
    """Sorted 'module.function' of the functions in src/mixwave that compare
    `name` with `bound`, by <, <=, >, >= or math.isclose; the innermost
    function is named.  A name a module assigns `bound` to stands for it."""
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = set()

    def is_bound(node):
        return _is(node, bound) or getattr(node, "id", None) in aliases

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        pairs = []
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            pairs = [(lhs, rhs) for op, lhs, rhs in zip(node.ops, sides, sides[1:])
                     if isinstance(op, ordering)]
        elif isinstance(node, ast.Call) and _is(node.func, "isclose"):
            pairs = list(zip(node.args[:1], node.args[1:2]))
        if any((_is(lhs, name) and is_bound(rhs)) or (is_bound(lhs) and _is(rhs, name))
               for lhs, rhs in pairs):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {target.id for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and _is(node.value, bound)
                   for target in node.targets if isinstance(target, ast.Name)}
        visit(tree, path.stem)
    return sorted(found)


def test_sigma_regime_is_decided_only_by_diffusivity():
    assert regime_decisions("sigma", 1) == ["params.OperatorParams.diffusivity"]


def test_p_regime_is_decided_only_by_p_regime():
    assert regime_decisions("p", "p_crit") == ["params.OperatorParams.p_regime"]


def test_every_public_name_is_used_outside_the_tests():
    assert unreferenced_public_names() == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = unpassed_parameters()
    assert [u for u in unpassed if u not in PARAMETER_ORACLES] == []
    # an oracle knob that some caller now passes leaves the list
    assert [k for k in PARAMETER_ORACLES if k not in unpassed] == []


def test_every_class_member_is_read_outside_the_tests():
    unread = unread_members()
    assert [m for m in unread if m not in MEMBER_ORACLES] == []
    # a member that some program code now reads leaves the list
    assert [m for m in MEMBER_ORACLES if m not in unread] == []


def test_package_namespace_is_empty():
    assert package_bound_names() == []


def test_no_unused_imports_in_tests_or_perfbench():
    assert unused_imports() == []


def import_in_fresh_interpreter(modules, forbidden):
    """Import modules in turn in a fresh interpreter, which exits 1 naming the
    first one after which a forbidden module, or a submodule of one, is loaded."""
    script = ("import importlib, sys\n"
              "forbidden = sys.argv[1].split(',')\n"
              "for name in sys.argv[2:]:\n"
              "    importlib.import_module(name)\n"
              "    loaded = sorted(m for m in sys.modules\n"
              "                    if any(m == f or m.startswith(f + '.') for f in forbidden))\n"
              "    if loaded:\n"
              "        sys.exit(f'{name} loaded {loaded}')\n")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, "-c", script, ",".join(forbidden), *modules],
                          env=env, capture_output=True, text=True, timeout=120)


def benchmark_imports():
    """The mixwave modules that perfbench/workloads.py imports."""
    names = []
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "mixwave":
            names += [f"mixwave.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mixwave."):
            names.append(node.module)
    return names


def test_no_module_loads_scipy():
    modules = ["mixwave.cli"] + [f"mixwave.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
                                 if path.stem != "__init__"]
    proc = import_in_fresh_interpreter(modules, ["scipy"])
    assert proc.returncode == 0, proc.stderr


def test_benchmarked_modules_load_no_process_pool():
    # lifespan_sweep imports its process pool when called: the benchmark's
    # set-up time counts every import, and no workload runs a sweep
    modules = benchmark_imports()
    assert {"mixwave.blowup", "mixwave.evolve", "mixwave.experiments",
            "mixwave.radial"} <= set(modules)
    proc = import_in_fresh_interpreter(modules, ["multiprocessing", "concurrent.futures.process"])
    assert proc.returncode == 0, proc.stderr
