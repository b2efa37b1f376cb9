"""No public name without a caller: every public top-level name of ``gprates``
is used in ``src/`` outside its own definition, or is a benchmark layer."""

import ast
import importlib.util
import os

import gprates

SRC = os.path.dirname(os.path.abspath(gprates.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))


def _bench_layer_names():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(ROOT, "perfbench", "layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(module_name, fn) for module_name, fn, *_ in module.LAYERS}


def _defined_names(stmt):
    """The names a top-level statement binds: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used_names(stmt):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller():
    statements = []  # (module, names the statement binds, names it uses)
    for file in sorted(os.listdir(SRC)):
        if file.endswith(".py"):
            with open(os.path.join(SRC, file)) as fh:
                tree = ast.parse(fh.read())
            statements += [(file[:-3], _defined_names(s), _used_names(s)) for s in tree.body]
    layers = _bench_layer_names()
    unused = [
        f"{module}.{name}"
        for i, (module, names, _) in enumerate(statements)
        for name in names
        if not name.startswith("_") and (module, name) not in layers
        and not any(name in used for j, (_, _, used) in enumerate(statements) if j != i)
    ]
    assert unused == []
