"""Static checks on the imports of the package modules.

Every imported name is used (a name listed in ``__all__`` counts as a
re-export), every name listed in ``__all__`` is bound in its module, the
package exports exactly the names its modules list, every private
top-level name is referenced somewhere in the package, every
``Tolerances`` field is read somewhere in it, every function parameter
is read by its function, no bound below 1e-2 is a bare literal, and the
CLI reaches the other modules through their public names only.
"""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "masidx"
MODULES = sorted(SRC.glob("*.py"))


def _imports(tree):
    """(node, bound name, imported name) for every name the module imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield node, bound, alias.name


def _exported(tree):
    """The names listed in the module's ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts}
    return names


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return used | _exported(tree)


def _statement_bindings(stmt):
    """Names a top-level def, class or assignment binds."""
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        return {
            n.id
            for target in targets
            for n in ast.walk(target)
            if isinstance(n, ast.Name)
        }
    return set()


def _module_bindings(tree):
    """Names bound by the module's top-level statements."""
    bound = {b for _, b, _ in _imports(tree)}
    for node in tree.body:
        bound |= _statement_bindings(node)
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = sorted(b for _, b, _ in _imports(tree) if b not in used)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    tree = ast.parse(path.read_text())
    assert sorted(_exported(tree) - _module_bindings(tree)) == []


def test_package_exports_the_union_of_the_module_lists():
    """One public surface: ``masidx.__all__`` lists each name that a module
    lists in its own ``__all__``, once, and nothing else."""
    import masidx

    listed = [
        name
        for path in MODULES
        if path.stem != "__init__"
        for name in getattr(
            importlib.import_module(f"masidx.{path.stem}"), "__all__", []
        )
    ]
    assert sorted(masidx.__all__) == sorted(listed)


def test_cli_imports_no_private_names_from_sibling_modules():
    tree = ast.parse((SRC / "cli.py").read_text())
    private = sorted(
        name
        for node, _, name in _imports(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level > 0
        and name.startswith("_")
        and not name.endswith("__")
    )
    assert private == []


def _references(node):
    """Names a statement reads, reaches as attributes, or imports."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs |= {alias.name for alias in n.names}
    return refs


def test_every_private_name_is_used():
    """A private name that only its own definition mentions is a leftover."""
    statements = [
        stmt for path in MODULES for stmt in ast.parse(path.read_text()).body
    ]
    refs = [_references(stmt) for stmt in statements]
    unused = sorted(
        name
        for i, stmt in enumerate(statements)
        for name in _statement_bindings(stmt)
        if name.startswith("_")
        and not name.endswith("__")
        and not any(name in r for j, r in enumerate(refs) if j != i)
    )
    assert unused == []


def _tolerance_fields():
    """Field names of the ``Tolerances`` dataclass in ``core.py``."""
    for node in ast.parse((SRC / "core.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == "Tolerances":
            return {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
            }
    raise AssertionError("core.py defines no Tolerances")


def test_every_tolerance_field_is_read():
    """A field no ``tol.<field>`` reads is a knob that changes nothing."""
    read = {
        n.attr
        for path in MODULES
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id.lower().endswith("tol")
    }
    fields = _tolerance_fields()
    assert fields
    assert sorted(fields - read) == []


def _parameters(fn):
    """The names of a function's parameters."""
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [x.arg for x in (a.vararg, a.kwarg) if x is not None]


def test_every_parameter_is_read():
    """A parameter that its function's body never names changes nothing.
    The CLI's ``_cmd_*`` handlers share the dispatch signature (obj, args,
    tol), so they are exempt."""
    unread = []
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            name = getattr(fn, "name", "<lambda>")
            if name.startswith("_cmd_"):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            named = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name)
            }
            unread += [
                f"{path.stem}.{name}({p}) line {fn.lineno}"
                for p in _parameters(fn)
                if p not in named
            ]
    assert unread == []


def _named_bound_nodes(tree):
    """Nodes of the module-level assignments and of the ``Tolerances``
    class body: where a fixed bound gets its name."""
    nodes = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) or (
            isinstance(stmt, ast.ClassDef) and stmt.name == "Tolerances"
        ):
            nodes |= {id(n) for n in ast.walk(stmt)}
    return nodes


def test_no_small_float_literal_outside_named_bounds():
    """A float literal in (0, 1e-2) is a bound: it is a module constant or
    a ``Tolerances`` default, never written inline."""
    bare = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        named = _named_bound_nodes(tree)
        bare += [
            f"{path.name}:{n.lineno} {n.value!r}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant)
            and type(n.value) is float
            and 0.0 < n.value < 1e-2
            and id(n) not in named
        ]
    assert bare == []


def test_the_residual_rule_is_read_only_in_core():
    """One residual rule: the Frobenius margin and underflow of
    ``_norm2_exceeds`` and the unitary residual of ``_unitary`` are named
    in ``core.py`` alone; every other module compares its residuals
    through ``_norm2_exceeds``, ``_uncleared`` and ``_unitary``."""
    owned = {"_FROBENIUS_MARGIN", "_FROBENIUS_UNDERFLOW", "_UNITARY_RESIDUAL"}
    named = sorted(
        f"{path.name}: {name}"
        for path in MODULES
        if path.name != "core.py"
        for name in owned & _references(ast.parse(path.read_text()))
    )
    assert named == []
