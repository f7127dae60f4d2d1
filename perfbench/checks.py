"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/checks.py

They check the bm2d-cells oracle against nested Monte Carlo, that reruns at
one seed give bit-identical accuracy figures, that a held-out seed passes the
correctness gate, that a traced run reports every per-layer metric that
BENCHMARK.json lists, that the tracer's wrappers come off again and its self
times subtract the children, and that the benchmark refuses to run without
mwls sources.  The workload runs take about two minutes on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import mwls.harness  # noqa: E402
import mwls.solver  # noqa: E402
from mwls import make_theta_grid  # noqa: E402
from mwls.model import BrownianModel  # noqa: E402
from mwls.regression import LocalPolynomialEstimator  # noqa: E402

from tracing import Tracer, instrument, self_time  # noqa: E402
from workloads import ALPHA, WORKLOADS, benchmark_bm2d  # noqa: E402

HELD_OUT_SEED = 90_210


def _nested_monte_carlo(grid, x, branching, rng):
    """Estimates of y_0(x) and z_0(x) for the bm2d problem on a 3-step grid.

    Each level of the tree estimates the conditional mean of the level below
    from its own children, so the estimator is unbiased for the backward
    recursion y_i = (1 + ALPHA Delta_i) E[y_{i+1}(X_{i+1}) | X_i] and for the
    weighted z sum, without using the closed form.  Returns per-outer-branch
    samples, which are i.i.d.
    """
    m1, m2, m3 = branching
    dt, t = grid.steps, grid.points
    x1 = x + math.sqrt(dt[0]) * rng.standard_normal((m1, 2))
    x2 = x1[:, None] + math.sqrt(dt[1]) * rng.standard_normal((m1, m2, 2))
    x3 = x2[:, :, None] + math.sqrt(dt[2]) * rng.standard_normal((m1, m2, m3, 2))
    s3 = x3.sum(axis=-1)
    grow = 1.0 + ALPHA * dt
    y2 = grow[2] * s3.mean(axis=2)
    y0 = grow[0] * grow[1] * y2.mean(axis=1)
    # H^(0)_j = (W_j - W_0) / (t_j - t_0); the driver term f_j = ALPHA y_{j+1}
    h1 = (x1 - x) / (t[1] - t[0])
    h2 = (x2 - x) / (t[2] - t[0])
    h3 = (x3 - x) / (t[3] - t[0])
    phi_term = (s3[..., None] * h3).mean(axis=(1, 2))
    f2_term = ALPHA * dt[2] * (s3[..., None] * h2[:, :, None, :]).mean(axis=(1, 2))
    f1_term = ALPHA * dt[1] * (y2[..., None] * h1[:, None, :]).mean(axis=1)
    return y0, phi_term + f2_term + f1_term


@pytest.mark.parametrize(
    "theta, point",
    [(1.0, (0.3, -0.7)), (1.0, (1.0, 0.5)), (0.5, (-0.4, 0.9))],
)
def test_bm2d_oracle_matches_nested_monte_carlo(theta, point):
    bench = benchmark_bm2d()
    grid = make_theta_grid(1.0, 3, theta=theta)
    x = np.array(point)
    y_samples, z_samples = _nested_monte_carlo(
        grid, x, (40_000, 4, 4), np.random.default_rng(17)
    )
    exact_y = float(bench.y_oracle(grid, 0, x[None])[0])
    exact_z = bench.z_oracle(grid, 0, x[None])[0]
    for estimate, exact in ((y_samples, exact_y), (z_samples[:, 0], exact_z[0]),
                            (z_samples[:, 1], exact_z[1])):
        se = float(np.std(estimate)) / math.sqrt(estimate.size)
        assert abs(float(np.mean(estimate)) - exact) <= 4.0 * se


def _bench(workload, seed, cwd=REPO, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> tuple[dict, dict]:
    """The run's accuracy line and its result line."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    accuracy = next(line for line in lines if line.startswith("accuracy "))
    return json.loads(accuracy.split(" ", 1)[1]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reruns_bit_identical_and_held_out_seed_passes(workload):
    (acc1, res1), (acc2, res2) = (_result(_bench(workload, 5)) for _ in range(2))
    assert acc1 == acc2
    for name in ("fresh_rms_y", "fresh_rms_z"):
        assert res1["metrics"][name]["value"] == res2["metrics"][name]["value"]
    _, held_out = _result(_bench(workload, HELD_OUT_SEED))
    assert held_out["correct"] and held_out["failed"] == 0 and held_out["attempted"] >= 1


def test_traced_run_reports_every_per_layer_metric():
    listed = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    _, result = _result(_bench("b4-oracle", 5, trace=1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in listed)
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])


def test_instrument_restores_every_callable():
    owners = (mwls.solver, mwls.harness, LocalPolynomialEstimator, BrownianModel)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    with instrument(tracer, BrownianModel):
        assert mwls.solver.ols_fit is not before[0]["ols_fit"]
    assert [dict(vars(owner)) for owner in owners] == before
    assert tracer.spans == []


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", body)()
    outer = next(s for s in tracer.spans if s.name == "outer")
    children = [s for s in tracer.spans if s.parent == outer.id]
    assert [s.name for s in children] == ["inner", "inner"]
    # sleep may overrun, so only the lower end is certain
    assert self_time(tracer.spans, outer) >= 0.01


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("b3-deep", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
