"""The export lists of the package and of each of its modules."""

import dataclasses
import importlib
import pkgutil

import pytest

import mwls
import mwls.harness
import mwls.solver
from mwls.harness import Benchmark
from mwls.model import BrownianModel, EulerSdeModel, GeometricBrownianModel

MODULES = ["mwls"] + [f"mwls.{info.name}" for info in pkgutil.iter_modules(mwls.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_exports_have_no_duplicates():
    assert len(mwls.__all__) == len(set(mwls.__all__))


@pytest.mark.parametrize("model_class", [BrownianModel, GeometricBrownianModel, EulerSdeModel])
def test_each_model_class_defines_the_traced_methods_itself(model_class):
    # perfbench/tracing.py wraps these through the class's own __dict__.
    assert {"sample_paths", "malliavin_weights"} <= set(vars(model_class))


def test_the_benchmark_hook_points_resolve():
    # perfbench/tracing.py looks these up by name and replaces them.
    assert callable(mwls.solver.sample_cloud)
    assert callable(mwls.harness.sample_marginal)
    assert {"y_oracle", "z_oracle"} <= {f.name for f in dataclasses.fields(Benchmark)}
