"""The export lists of the package and of each of its modules."""

import dataclasses
import importlib
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mwls
import mwls.harness
import mwls.solver
from mwls.harness import Benchmark
from mwls.model import BrownianModel, EulerSdeModel

MODULES = ["mwls"] + [f"mwls.{info.name}" for info in pkgutil.iter_modules(mwls.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_exports_have_no_duplicates():
    assert len(mwls.__all__) == len(set(mwls.__all__))


@pytest.mark.parametrize("model_class", [BrownianModel, EulerSdeModel])
def test_each_model_class_defines_the_traced_methods_itself(model_class):
    # perfbench/tracing.py wraps these through the class's own __dict__.
    assert {"sample_paths", "malliavin_weights"} <= set(vars(model_class))


def test_the_benchmark_hook_points_resolve():
    # perfbench/tracing.py looks these up by name and replaces them.
    assert callable(mwls.solver.sample_cloud)
    assert callable(mwls.harness.sample_marginal)
    assert {"y_oracle", "z_oracle"} <= {f.name for f in dataclasses.fields(Benchmark)}


def _run_child(code: str) -> str:
    # run from the directory holding the imported package, which `-c` puts
    # first on the path, so the child imports the same sources
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=Path(mwls.__file__).parents[1],
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_solving_and_bounding_load_no_scipy_and_no_numpy_polynomial():
    # scipy is only for the b4 oracle's quadrature, imported on first use
    out = _run_child(
        """
        import sys

        import mwls
        import mwls.cli
        from mwls import (
            LocalPolynomialBasis, benchmark_b1, bounds_table, estimate_errors,
            make_theta_grid, mwls_solve, problem_constants,
        )

        bench = benchmark_b1()
        grid = make_theta_grid(1.0, 3)
        basis = LocalPolynomialBasis(degree=1, delta=1.0, radius=4.0, d=1)
        sol = mwls_solve(
            bench.model, grid, bench.driver, bench.terminal, basis, basis,
            cloud_sizes=200, seed=7,
        )
        estimate_errors(sol, bench, fresh_m=200)
        bounds_table(problem_constants(bench.model, grid, bench.driver, bench.terminal), grid)
        print(sorted(
            name for name in sys.modules
            if name.split(".")[0] == "scipy" or name.startswith("numpy.polynomial")
        ))
        """
    )
    assert out.strip() == "[]"


def test_the_b2_hermite_rule_is_built_on_the_first_oracle_call():
    out = _run_child(
        """
        import math
        import sys

        import numpy as np

        from mwls import harness, make_theta_grid

        bench = harness.benchmark_b2()
        assert harness._hermite_rule.cache_info().currsize == 0
        assert "numpy.polynomial" not in sys.modules
        grid = make_theta_grid(1.0, 4)
        x = np.linspace(-3.0, 3.0, 7)
        y = bench.y_oracle(grid, 1, x[:, None])
        z = bench.z_oracle(grid, 1, x[:, None])
        assert harness._hermite_rule.cache_info().currsize == 1

        from numpy.polynomial.hermite_e import hermegauss

        nodes, weights = hermegauss(96)
        weights = weights / math.sqrt(2.0 * math.pi)
        rule = harness._hermite_rule()
        assert rule[0].tobytes() == nodes.tobytes()
        assert rule[1].tobytes() == weights.tobytes()
        scale = math.sqrt(grid.T - grid.points[1])
        expected_y, expected_z = np.zeros(x.size), np.zeros(x.size)
        for node, weight in zip(nodes, weights):  # ascending node order
            values = np.tanh(x + scale * node)
            expected_y += values * weight
            expected_z += values * (weight * node)
        assert y.tobytes() == expected_y.tobytes()
        assert z.tobytes() == (expected_z / scale)[:, None].tobytes()
        print("ok")
        """
    )
    assert out.strip() == "ok"
