import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import keycontact


def test_every_name_in_a_module_all_resolves():
    modules = [keycontact] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(keycontact.__path__, keycontact.__name__ + ".")
    ]
    assert len(modules) > 20
    stale = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert stale == []


# modules whose every error is a KeycontactError subclass; a bare ValueError
# or RuntimeError here would escape the CLI's typed error reporting
TYPED_MODULES = ["geometry/shape.py", "geometry/meshio.py", "geometry/cloud.py", "constraints.py",
                 "refiner/strategy.py", "refiner/filter.py", "refiner/loop.py", "sim/probe.py", "transfer/grids.py",
                 "transfer/matching.py", "transfer/nonrigid.py", "transfer/pipeline.py"]


@pytest.mark.parametrize("module", TYPED_MODULES)
def test_typed_modules_raise_no_bare_value_or_runtime_error(module):
    path = Path(keycontact.__file__).parent / module
    bare = [
        f"{module}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        and getattr(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, "id", None)
        in ("ValueError", "RuntimeError")
    ]
    assert bare == []
