import ast
import importlib
import importlib.util
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
TYPED_MODULES = ["geometry/shape.py", "geometry/meshio.py", "geometry/cloud.py", "geometry/pose.py",
                 "geometry/primitives.py", "constraints.py", "bank.py", "grounding.py", "keypoints.py",
                 "refiner/strategy.py", "refiner/filter.py", "refiner/loop.py", "sim/probe.py", "sim/scenes.py",
                 "sim/campaign.py", "transfer/grids.py", "transfer/matching.py", "transfer/nonrigid.py",
                 "transfer/pipeline.py"]


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


def _names_used(tree: ast.Module) -> set[str]:
    """Names a module reads: every Name node, the entries of __all__, and the
    names inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for sub in (s for a in annotations if a is not None for s in ast.walk(a)):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name))
    return used


def test_no_module_imports_a_name_it_does_not_use():
    # package __init__ files import to re-export, so they are not scanned
    root = Path(keycontact.__file__).parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.relative_to(root)}:{node.lineno}: {name}" for name in names if name not in used]
    assert unused == []


def test_every_benchmark_patch_target_is_where_the_traced_run_patches_it():
    # the traced run replaces each target in its owner's __dict__, so a
    # refactor that moves one of these names breaks it while the rest of
    # this suite stays green; the spans module is only read here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, cls, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = owner.__dict__.get(cls)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}:{cls or ''}.{attr}")
    assert len(spans.TARGETS) > 20
    assert missing == []
