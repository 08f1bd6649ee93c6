"""Every public function has a consumer outside its own unit tests."""

import ast
import inspect
from pathlib import Path

import kernlr

ROOT = Path(__file__).resolve().parents[1]

# Public functions kept without an outside caller, each for a stated reason.
EXEMPT = {
    # The reference that the error_sweep tests compare the sweep against.
    "truncate",
    # The harmonic cluster ends, for reporting where a rank falls on the
    # sphere in the scaling experiment (ROADMAP item 7).
    "sphere_harmonic_count",
}


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
    public = {name for name, obj in vars(kernlr).items()
              if inspect.isfunction(obj) and not name.startswith("_")}
    sources = [*sorted((ROOT / "src" / "kernlr").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    # A function's own ``def`` is no reference, so a caller in its own module
    # counts; the package's re-export in __init__.py does not.
    referenced = set().union(*(_referenced_names(path) for path in sources
                               if path.name != "__init__.py"))
    assert sorted(public - referenced) == sorted(EXEMPT)
