"""Documentation-coverage gates: every public item is documented."""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _all_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _all_modules())
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name


@pytest.mark.parametrize("name", _all_modules())
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for attr_name in getattr(module, "__all__", []):
        obj = getattr(module, attr_name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # Only check items defined in this package (not re-exports
            # of third-party objects).
            if getattr(obj, "__module__", "").startswith("repro"):
                assert obj.__doc__, f"{name}.{attr_name} lacks a docstring"


def test_repo_documents_exist():
    from pathlib import Path

    root = Path(repro.__file__).resolve().parents[2]
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                "docs/MODEL.md", "docs/PHYSICS.md"):
        path = root / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 1000, doc
