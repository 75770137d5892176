"""API-surface guard: src/mixwave exports only what the package or the
benchmark uses.

The package namespace is empty: __init__ binds no name, and callers import
the submodules.  Every top-level public name (function, class or constant)
that a module of src/mixwave other than __init__ defines must be referenced
somewhere else: in another top-level statement of src/mixwave (not counting
__init__) or anywhere under perfbench/.  A reference is a name, an attribute,
an imported name, or a string equal to the name (perfbench/layers.py wraps
layer functions by their names).  Code only the tests use belongs in tests/.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mixwave"
PERFBENCH = ROOT / "perfbench"
# the naive complex-exponential kernels, the oracle the kernel tests compare against
ALLOWED = {"kernel_eval_reference"}


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
            if name.startswith("_") or name in ALLOWED or name in outside:
                continue
            if not any(name in names for other, names in refs if other is not node):
                missing.append(f"{path.stem}.{name}")
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


def test_package_namespace_is_empty():
    assert package_bound_names() == []
