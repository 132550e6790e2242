"""Every name that a module of the package imports is read in that module,
and no function imports from the package."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "zetacan").glob("*.py"))


def unread_imports(source: str) -> list:
    """The names that ``source`` binds by an import and never reads; a name
    listed in the module's ``__all__`` counts as read, since it re-exports
    it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = ("from .special import _log, bessel_j_orders\nimport math\n"
              "__all__ = ['bessel_j_orders']\ndef f(x):\n    return math.pi * x\n")
    assert unread_imports(source) == ["_log"]


def function_relative_imports(source: str) -> list:
    """The lines of ``source`` where a function imports from the package."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level >= 1})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_from_the_package(path):
    # the package registers its modules lazily: to defer a module's execution,
    # bind it by ``from . import mod`` at module level and read ``mod.name``
    assert function_relative_imports(path.read_text()) == []


def test_a_function_import_from_the_package_is_found():
    source = ("from . import np\nimport math\ndef f(x):\n"
              "    from .zetareg import g\n    return g(x) + math.pi\n")
    assert function_relative_imports(source) == [4]


def least_squares_outside_scaled_lstsq(source: str) -> list:
    """The lines of ``source`` that call ``np.linalg.*`` or ``np.polyfit``
    outside ``_scaled_lstsq``, the package's one least-squares solver."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_scaled_lstsq"
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and (ast.unparse(node.func) == "np.polyfit"
                       or ast.unparse(node.func).startswith("np.linalg.")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_least_squares_solver(path):
    assert least_squares_outside_scaled_lstsq(path.read_text()) == []


def test_a_second_least_squares_solver_is_found():
    source = ("from . import np\ndef _scaled_lstsq(b, v):\n    return np.linalg.qr(b)\n"
              "def fit(x, y):\n    return np.polyfit(x, y, 4), np.linalg.lstsq(x, y)\n")
    assert least_squares_outside_scaled_lstsq(source) == [5, 5]
