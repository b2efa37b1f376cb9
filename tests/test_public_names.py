"""Scans of ``src/`` by ``ast``.

No public name without a caller: every public top-level name of ``gprates``
is used in ``src/`` outside its own definition, or is a benchmark layer.
Only ``kernels.py`` names a lattice table, reads its fields or chooses
between a table and the direct path, the fast-path switchboard lists every module
that binds a switched name, one function calls the theorem for a ladder,
one function of ``fitting`` evaluates kernel values itself, and no module
calls numpy's LAPACK."""

import ast
import importlib.util
import os

import gprates

SRC = os.path.dirname(os.path.abspath(gprates.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))


def _modules():
    """``(module, tree)`` for each source file of ``gprates``."""
    for file in sorted(os.listdir(SRC)):
        if file.endswith(".py"):
            with open(os.path.join(SRC, file)) as fh:
                yield file[:-3], ast.parse(fh.read())


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
    statements = [(module, _defined_names(s), _used_names(s))  # (module, binds, uses)
                  for module, tree in _modules() for s in tree.body]
    layers = _bench_layer_names()
    unused = [
        f"{module}.{name}"
        for i, (module, names, _) in enumerate(statements)
        for name in names
        if not name.startswith("_") and (module, name) not in layers
        and not any(name in used for j, (_, _, used) in enumerate(statements) if j != i)
    ]
    assert unused == []


TABLE_FIELDS = {"H", "S", "ia", "ib", "step_a", "step_b"}


def _called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_kernels_names_a_table():
    # a lattice table is kernels.py's own: kernels holds it and reads it, and
    # no other module names LatticeTable, reads its layout or passes a table
    readers = [
        f"{module}.py:{node.lineno}"
        for module, tree in _modules() if module != "kernels"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in TABLE_FIELDS | {"LatticeTable"}
        or isinstance(node, ast.Name) and node.id == "LatticeTable"
        or isinstance(node, ast.alias) and "LatticeTable" in (node.name, node.asname)
        or isinstance(node, ast.keyword) and node.arg == "table"
    ]
    assert readers == []


def _binds(tree, name):
    """Whether a module binds ``name`` at its top level by a def or a relative import."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return True
        if isinstance(stmt, ast.ImportFrom) and stmt.level and any(
                name in (alias.name, alias.asname) for alias in stmt.names):
            return True
    return False


def test_switchboard_lists_every_binding_of_a_switched_name():
    # a module that binds a switched name but is not on the switchboard would
    # keep its fast path with the switch off
    from conftest import FAST_PATHS

    modules = list(_modules())
    for switch, bindings in FAST_PATHS.items():
        for name in {attr for _, attr, _ in bindings}:
            listed = sorted(module for module, attr, _ in bindings if attr == name)
            assert listed == [module for module, tree in modules if _binds(tree, name)], switch


def test_only_kernels_chooses_table_or_direct():
    # whether a kernel block is read from a lattice table or evaluated
    # directly is decided in kernels.py: every other module takes its blocks
    # from gram, kernel_blocks or kernel_columns
    callers = [
        f"{module}.py:{node.lineno}"
        for module, tree in _modules() if module != "kernels"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) in ("lattice_table", "table_blocks")
    ]
    assert callers == []


def test_one_function_calls_the_theorem():
    # the ladder driver forms every ladder's verdict, so no harness can call
    # the theorem under a geometry of its own
    callers = [
        f"{module}.{fn.name}"
        for module, tree in _modules()
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and _called_name(node) == "_theoretical_exponent"
                for node in ast.walk(fn))
    ]
    assert callers == ["experiments._run_ladder"]


def test_fittings_only_cross_matrix_calls_build_the_toeplitz_vector():
    # fitting takes its Grams from gram and its prediction blocks from
    # kernel_blocks; the Toeplitz route's fit, certificate and predictions
    # share the one vector of _toeplitz_vector, so no second path evaluates
    # a piece of it
    tree = dict(_modules())["fitting"]
    vector = next(fn for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_toeplitz_vector")

    def calls(node):
        return sorted(call.lineno for call in ast.walk(node)
                      if isinstance(call, ast.Call) and _called_name(call) == "cross_matrix")

    assert calls(vector) and calls(tree) == calls(vector)


def _dotted(node):
    """``a.b.c`` of a chain of names and attributes, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_no_module_calls_numpys_lapack():
    # the fits use scipy's LAPACK, not numpy's: the first np.linalg.lstsq call
    # (np.polyfit's solver) faults in about 1.1 MiB of a process, and every
    # log-log slope is rates.loglog_slope's centred sums; np.linalg.norm
    # calls no LAPACK routine
    calls = [
        f"{module}.py:{node.lineno}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            _called_name(node) == "polyfit"
            or (_dotted(node.func) or "").split(".")[:2] in (["np", "linalg"], ["numpy", "linalg"])
            and _called_name(node) != "norm")
        or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") and any(
            alias.name in ("linalg", "polyfit") for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
        or isinstance(node, ast.Import) and any(
            alias.name.startswith("numpy.linalg") for alias in node.names)
    ]
    assert calls == []
