"""Every public function and every field of an exported result class has a
consumer outside its own unit tests."""

import ast
import builtins
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kernlr

ROOT = Path(__file__).resolve().parents[1]

# Public functions kept without an outside caller, each for a stated reason.
EXEMPT = {
    # The harmonic cluster ends, for reporting where a rank falls on the
    # sphere in the scaling experiment (ROADMAP item 7).
    "sphere_harmonic_count",
}


# Fields of exported result classes kept without an outside reader.
EXEMPT_FIELDS = set()
# The public names, read through the lazy package namespace.
PUBLIC = {name: getattr(kernlr, name) for name in kernlr.__all__}
SOURCES = [*sorted((ROOT / "src" / "kernlr").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _referenced_names(path):
    # Names read and module.name attributes. An import alone, an attribute of
    # a result object (sweep.tail_abs_sum) and a dataclass field do not count.
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules}
    return names


def test_every_public_function_has_a_consumer():
    public = {name for name, obj in PUBLIC.items() if inspect.isfunction(obj)}
    # A function's own ``def`` is no reference, so a caller in its own module
    # counts; the package's re-export in __init__.py does not.
    referenced = set().union(*(_referenced_names(path) for path in SOURCES
                               if path.name != "__init__.py"))
    assert sorted(public - referenced) == sorted(EXEMPT)


def _attribute_reads(path):
    # (enclosing class or None, attr) for every ``x.attr`` read in the file.
    # Reads match by name alone: any ``x.seed`` counts for every ``seed`` field.
    reads = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads.add((owner, child.attr))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(path.read_text()), None)
    return reads


def test_every_result_field_is_read_outside_the_tests():
    # A result holds what was measured; a field nothing reads restates an input.
    reads = set().union(*(_attribute_reads(path) for path in SOURCES))
    unread = {f"{name}.{field.name}" for name, cls in PUBLIC.items()
              if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
              for field in dataclasses.fields(cls)
              if not any(attr == field.name and owner != name for owner, attr in reads)}
    assert sorted(unread) == sorted(EXEMPT_FIELDS)


def test_the_lazy_namespace_loads_no_submodule_and_resolves_every_name():
    # A fresh ``import kernlr`` loads no submodule and no numpy (kernlr.cli sets
    # a BLAS setting before its first numpy import); each name loads its module
    # on first access and is the object that module defines.
    probe = ("import sys, kernlr; print(sorted(m for m in sys.modules"
             " if m.startswith('kernlr.') or m.split('.')[0] == 'numpy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert len(kernlr.__all__) == len(set(kernlr.__all__)) == 43
    for name, obj in PUBLIC.items():
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("kernlr.") and getattr(module, name) is obj, name
    assert set(kernlr.__all__) <= set(dir(kernlr))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kernlr.no_such_name


def test_the_eigensolver_error_is_the_only_exception_class():
    # A refused input is a plain ValueError (exit 2); only a numerical failure
    # (exit 1) has a class of its own. A class counts as an exception if a base
    # is a builtin exception or, transitively, another such class here.
    classes = {(path.stem, node.name): {ast.unparse(base).rsplit(".")[-1] for base in node.bases}
               for path in sorted((ROOT / "src" / "kernlr").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}
    raised = {name for name in dir(builtins)
              if isinstance(getattr(builtins, name), type)
              and issubclass(getattr(builtins, name), BaseException)}
    found = set()
    while more := {key for key, bases in classes.items() if bases & raised} - found:
        found |= more
        raised |= {name for _, name in more}
    assert found == {("spectral", "EigensolverError")}
    assert kernlr.EigensolverError is kernlr.spectral.EigensolverError
