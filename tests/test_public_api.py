"""Public-API surface tests: every advertised name imports and exists."""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.md",
    "repro.md.potentials",
    "repro.md.kspace",
    "repro.suite",
    "repro.model.platforms",
    "repro.observability",
    "repro.observability.telemetry",
    "repro.model",
    "repro.parallel",
    "repro.service",
    "repro.model.gpu",
    "repro.model.framework",
    "repro.figures",
    "repro.studies",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} advertised but missing"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_figure_modules_expose_generate():
    for n in (*range(3, 17),):
        module = importlib.import_module(f"repro.figures.fig{n:02d}")
        assert callable(module.generate)
    for name in ("table2", "table3", "headline"):
        module = importlib.import_module(f"repro.figures.{name}")
        assert callable(module.generate)


def test_md_facade_covers_engine_features():
    import repro.md as md

    for name in (
        "Simulation",
        "NeighborList",
        "PPPM",
        "EwaldSummation",
        "ShakeConstraints",
        "CosineDihedral",
        "RadialDistribution",
        "XyzDumpWriter",
        "minimize",
        "save_snapshot",
    ):
        assert hasattr(md, name)


def test_cli_module_importable():
    module = importlib.import_module("repro.__main__")
    assert callable(module.main)
