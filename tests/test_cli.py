"""Tests for the command-line interface: config parsing, report emission,
stdout table formats, exit codes, and byte-level reproducibility."""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mwls.cli as cli
import mwls.harness
from mwls.cli import load_config, main
from mwls.constants import as_bounds, obs_bounds
from mwls.errors import NumericalError
from mwls.grid import make_theta_grid
from mwls.harness import benchmark_b1, benchmark_b3, benchmark_b4
from mwls.regression import LocalPolynomialBasis
from mwls.solver import problem_constants


def _write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


ZERO_CONFIG = """\
    [problem]
    id = zero

    [grid]
    t = 1.0
    n = 3

    [basis]
    degree = 0
    delta = 2.0
    radius = 2.0

    [simulation]
    m = 50
    seed = 11

    [error]
    fresh_m = 200
    """

B1_CONFIG = """\
    [problem]
    id = b1

    [grid]
    n = 4

    [basis]
    degree = 1
    delta = 1.0
    radius = 3.0

    [simulation]
    m = 300
    seed = 9

    [error]
    fresh_m = 500
    """


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _data_rows(lines):
    """Rows after the '# ' header block and the column-name line."""
    body = [line for line in lines if line and not line.startswith("#")]
    return [row.split(",") for row in body[1:]]


# ---------------------------------------------------------------------------
# config parsing


def test_load_config_resolves_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path, "[problem]\nid = b1\n"))
    assert cfg.problem_id == "b1"
    assert cfg.grid.N == 10 and cfg.grid.T == 1.0
    assert cfg.degree == 1 and cfg.radius == 4.0
    assert cfg.delta == [0.5] * 10 and cfg.delta_z == [0.5] * 10
    assert cfg.m == [10_000] * 10 and cfg.seed == 0
    assert cfg.error_enabled is True and cfg.fresh_m == 20_000
    assert cfg.x0_width == 5.0


def test_load_config_per_index_lists_and_overrides(tmp_path):
    cfg = load_config(
        _write_config(
            tmp_path,
            """\
            [problem]
            id = b3
            alpha = 0.25
            x0_width = 3.0

            [grid]
            n = 3

            [basis]
            delta = 0.5, 0.4, 0.3
            delta_z = 0.6

            [simulation]
            m = 100, 200, 300

            [error]
            enabled = false
            """,
        )
    )
    assert cfg.problem_params == {"alpha": 0.25}
    assert cfg.delta == [0.5, 0.4, 0.3]
    assert cfg.delta_z == [0.6, 0.6, 0.6]
    assert cfg.m == [100, 200, 300]
    assert cfg.error_enabled is False


def test_load_config_explicit_points(tmp_path):
    cfg = load_config(
        _write_config(
            tmp_path, "[problem]\nid = b1\n\n[grid]\npoints = 0, 0.3, 0.6, 1.0\n"
        )
    )
    np.testing.assert_array_equal(cfg.grid.points, [0.0, 0.3, 0.6, 1.0])
    assert cfg.grid.N == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("[problem]\nid = b1\nbogus = 1\n", "unknown config key problem.bogus"),
        ("[problem]\nid = b1\n\n[extras]\nfoo = 1\n", "unknown config section [extras]"),
        ("[problem]\nid = b1\n\n[grid]\nn = ten\n", "grid.n: cannot parse 'ten' as int"),
        ("[grid]\nn = 4\n", "problem.id is required"),
        ("[problem]\nid = b9\n", "unknown problem 'b9'"),
        ("[problem]\nid = b1\nalpha = 0.5\n", "problem.alpha does not apply"),
        ("[problem]\nid = b3\ncap = 2.0\n", "problem.cap does not apply"),
        (
            "[problem]\nid = b1\n\n[grid]\npoints = 0, 0.5, 1\nn = 2\n",
            "grid.points excludes grid.n",
        ),
        ("[problem]\nid = b1\n\n[grid]\npoints = 0.1, 1\n", "grid.points:"),
        ("[problem]\nid = b1\n\n[basis]\ndelta = 0.5, 0.5\n", "basis.delta has 2 entries"),
        ("[problem]\nid = b1\n\n[error]\nenabled = maybe\n", "error.enabled: cannot parse"),
    ],
)
def test_load_config_rejects_bad_input(tmp_path, text, message):
    with pytest.raises(ValueError, match=None) as err:
        load_config(_write_config(tmp_path, text))
    assert message in str(err.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValueError) as err:
        load_config(str(tmp_path / "nope.ini"))
    assert "config file not found" in str(err.value)


# ---------------------------------------------------------------------------
# cmd_run


def test_run_writes_reports_with_resolved_config(tmp_path, capsys):
    config = _write_config(tmp_path, ZERO_CONFIG)
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", config, "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("run_summary.csv", "bounds.csv", "errors.csv"):
        assert (out_dir / name).is_file()
        assert f"wrote {out_dir / name}" in out

    summary = (out_dir / "run_summary.csv").read_text().splitlines()
    # resolved config and seeds are embedded, defaults included
    for line in (
        "# command=run",
        "# problem.id=zero",
        "# problem.x0_width=5",
        "# grid.t=1",
        "# grid.n=3",
        "# grid.theta=1",
        "# basis.degree=0",
        "# basis.delta=2,2,2",
        "# basis.delta_z=2,2,2",
        "# basis.radius=2",
        "# simulation.m=50,50,50",
        "# simulation.seed=11",
        "# error.enabled=true",
        "# error.fresh_m=200",
    ):
        assert line in summary
    assert any(line.startswith("# grid.points=0,") for line in summary)
    assert summary.count("index,t_i,m_i,k_y,k_z,level_y,level_z") == 1
    assert len(_data_rows(summary)) == 3

    errors = (out_dir / "errors.csv").read_text().splitlines()
    assert "# error.fresh_seed=11" in errors
    assert "# error.cost=450" in errors
    rows = _data_rows(errors)
    assert len(rows) == 3
    # the zero problem has an identically-zero solution and zero errors
    for row in rows:
        assert all(float(value) == 0.0 for value in row[2:])


def test_run_reports_byte_identical_across_runs(tmp_path):
    config = _write_config(tmp_path, B1_CONFIG)
    rc_a = main(["run", "--config", config, "--out", str(tmp_path / "a")])
    rc_b = main(["run", "--config", config, "--out", str(tmp_path / "b")])
    assert rc_a == 0 and rc_b == 0
    for name in ("run_summary.csv", "bounds.csv", "errors.csv"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)


def test_run_seed_override_is_echoed_and_changes_tables(tmp_path):
    config = _write_config(tmp_path, B1_CONFIG)
    main(["run", "--config", config, "--out", str(tmp_path / "a")])
    main(["run", "--config", config, "--out", str(tmp_path / "c"), "--seed", "10"])
    errors_a = (tmp_path / "a" / "errors.csv").read_text()
    errors_c = (tmp_path / "c" / "errors.csv").read_text()
    assert "# simulation.seed=9" in errors_a
    assert "# simulation.seed=10" in errors_c
    assert errors_a != errors_c
    # bounds are data-only, so a seed change leaves them identical except
    # for the echoed seed line
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("# simulation.seed")]
    assert strip((tmp_path / "a" / "bounds.csv").read_text()) == strip(
        (tmp_path / "c" / "bounds.csv").read_text()
    )


def test_run_fresh_m_override(tmp_path):
    config = _write_config(tmp_path, ZERO_CONFIG)
    rc = main(["run", "--config", config, "--out", str(tmp_path / "f"), "--fresh-m", "77"])
    assert rc == 0
    assert "# error.fresh_m=77" in (tmp_path / "f" / "errors.csv").read_text()


def test_run_cloud_below_basis_dimension_is_validation_error(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """\
        [problem]
        id = b1

        [grid]
        n = 2

        [basis]
        degree = 1
        delta = 4.0
        radius = 4.0

        [simulation]
        m = 3
        """,
    )
    rc = main(["run", "--config", config])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cloud size 3 at time index 0 is below the basis dimension 4" in err


def test_run_error_section_can_be_disabled(tmp_path):
    out_dir = tmp_path / "noerr"
    config = _write_config(
        tmp_path,
        ZERO_CONFIG.replace("fresh_m = 200", "fresh_m = 200\n    enabled = false"),
        name="noerr.ini",
    )
    rc = main(["run", "--config", config, "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "run_summary.csv").is_file()
    assert (out_dir / "bounds.csv").is_file()
    assert not (out_dir / "errors.csv").exists()


# ---------------------------------------------------------------------------
# cmd_tune


def test_tune_smooth_stdout_fixture(capsys):
    rc = main(
        [
            "tune",
            "--n", "10",
            "--kappa", "0.5",
            "--l", "1",
            "--d", "1",
            "--lambda", "1",
            "--regime", "smooth",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    radius = 2.0 * 0.5 * math.log(11.0) / 1.0
    header = [
        "# command=tune",
        "# regime=smooth",
        "# n=10",
        "# kappa=0.5",
        "# l=1",
        "# d=1",
        "# lambda=1",
        "# t=1",
        f"# r={radius:.17g}",
        f"# complexity_exponent={1.0 / 7.0:.17g}",
        "index,t_i,delta_y,delta_z,m",
    ]
    assert out[: len(header)] == header
    grid = make_theta_grid(1.0, 10)
    delta_y = 10.0 ** -0.25
    delta_z = 10.0 ** -0.5
    for i in range(10):
        expected = f"{i},{grid.points[i]:.17g},{delta_y:.17g},{delta_z:.17g},182"
        assert out[len(header) + i] == expected
    assert len(out) == len(header) + 10


def test_tune_holder_stdout_rows(capsys):
    rc = main(
        [
            "tune",
            "--n", "8",
            "--kappa", "1",
            "--l", "1",
            "--d", "1",
            "--lambda", "2",
            "--regime", "holder",
            "--theta-pi", "0.5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert "# regime=holder" in out
    assert "# theta_pi=0.5" in out
    assert f"# r={math.log(9.0):.17g}" in out
    grid = make_theta_grid(1.0, 8, theta=0.5)
    base_dy = 8.0 ** (-1.0 / 2.0)
    base_dz = 8.0 ** -1.0
    base_m = math.log(9.0) ** 2 * 8.0**3
    rows = _data_rows(out)
    assert len(rows) == 8
    for i, row in enumerate(rows):
        ttg = grid.T - grid.points[i]
        assert int(row[0]) == i
        assert float(row[1]) == grid.points[i]
        assert float(row[2]) == np.sqrt(ttg) * base_dy
        assert float(row[3]) == np.sqrt(ttg) * base_dz
        assert int(row[4]) == math.ceil(base_m * ttg ** -0.5)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kappa", "1", "--lambda", "1", "--regime", "holder"], "holder regime requires theta_pi"),
        (["--kappa", "inf", "--lambda", "1", "--regime", "smooth"], "kappa must be finite, got inf"),
        (["--kappa", "nan", "--lambda", "1", "--regime", "smooth"], "kappa must be finite, got nan"),
        (["--kappa", "1", "--lambda", "nan", "--regime", "smooth"], "lambda must be finite, got nan"),
        (
            ["--kappa", "10", "--lambda", "1", "--regime", "smooth"],
            "cloud size out of range: N=5, kappa=10.0, l=1, d=1, lambda=1.0 give M=2.99e+21, "
            "above 9.22e+18",
        ),
        (
            ["--kappa", "10", "--lambda", "1", "--regime", "holder", "--theta-pi", "0.5"],
            "cloud size out of range: N=5, kappa=10.0, l=1, d=1, lambda=1.0 give M=1.49e+22, "
            "above 9.22e+18",
        ),
    ],
)
def test_tune_rejects_bad_parameters(capsys, argv, message):
    rc = main(["tune", "--n", "5", "--l", "1", "--d", "1"] + argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# cmd_bounds


def test_bounds_zero_problem_all_zero(capsys):
    rc = main(["bounds", "--problem", "zero", "--n", "3"])
    assert rc == 0
    rows = _data_rows(capsys.readouterr().out.splitlines())
    assert len(rows) == 3
    for row in rows:
        assert all(float(value) == 0.0 for value in row[2:])


def test_bounds_b1_matches_library_values(capsys):
    rc = main(["bounds", "--problem", "b1", "--n", "5"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    bench = benchmark_b1()
    grid = make_theta_grid(1.0, 5)
    pc = problem_constants(bench.model, grid, bench.driver, bench.terminal)
    c_y, c_z = as_bounds(pc, grid)
    theta_y, theta_z = obs_bounds(pc, grid)
    rows = _data_rows(out)
    assert len(rows) == 5
    for i, row in enumerate(rows):
        assert float(row[1]) == grid.points[i]
        assert float(row[2]) == c_y[i]
        assert float(row[3]) == c_z[i]
        assert float(row[4]) == theta_y[i]
        assert float(row[5]) == theta_z[i]
        assert float(row[6]) == 0.0 and float(row[7]) == 0.0


def test_bounds_b4_truncation_grows_near_horizon(capsys):
    rc = main(
        ["bounds", "--problem", "b4", "--theta-phi", "0.5", "--n", "6", "--theta", "0.5"]
    )
    assert rc == 0
    rows = _data_rows(capsys.readouterr().out.splitlines())
    c_z = np.array([float(row[3]) for row in rows])
    assert np.all(np.isfinite(c_z))
    assert c_z[-1] > c_z[0]
    assert np.all(np.diff(c_z) >= -1e-12)


def test_bounds_rejects_inapplicable_flag(capsys):
    rc = main(["bounds", "--problem", "b1", "--alpha", "0.5", "--n", "3"])
    assert rc == 1
    assert "--alpha does not apply" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cmd_bench and cmd_sweep


def test_bench_zero_problem(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    rc = main(
        [
            "bench",
            "--problem", "zero",
            "--n", "3",
            "--degree", "0",
            "--delta", "2.0",
            "--radius", "2.0",
            "--m", "50",
            "--fresh-m", "100",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    for name in ("run_summary.csv", "bounds.csv", "errors.csv"):
        assert (out_dir / name).is_file()
    assert "# command=bench" in (out_dir / "run_summary.csv").read_text()


def test_sweep_writes_table_and_respects_thread_cap(tmp_path, capsys, monkeypatch):
    args = [
        "sweep",
        "--problem", "b1",
        "--n", "4",
        "--degree", "1",
        "--delta", "1.0",
        "--radius", "3.0",
        "--m-values", "150,600",
        "--fresh-m", "400",
        "--seed", "5",
    ]
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "1")
    rc = main(args + ["--out", str(tmp_path / "s1"), "--threads", "8"])
    assert rc == 0
    monkeypatch.delenv(cli.THREADS_ENV_VAR)
    rc = main(args + ["--out", str(tmp_path / "s2"), "--threads", "2"])
    assert rc == 0
    capsys.readouterr()

    text = (tmp_path / "s1" / "sweep.csv").read_text()
    lines = text.splitlines()
    assert "m,emp_y,emp_z,fresh_y,fresh_z,cost" in lines
    rows = _data_rows(lines)
    assert [int(row[0]) for row in rows] == [150, 600]
    assert [int(row[-1]) for row in rows] == [4 * 4 * 150, 4 * 4 * 600]
    assert any(line.startswith("# slope_fresh_z=") for line in lines)
    # results do not depend on the worker count
    assert _read(tmp_path / "s1" / "sweep.csv") == _read(tmp_path / "s2" / "sweep.csv")


def test_sweep_rejects_bad_thread_cap(monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "zero")
    rc = main(
        ["sweep", "--problem", "zero", "--n", "2", "--degree", "0", "--delta", "2.0",
         "--radius", "2.0", "--m-values", "30,60"]
    )
    assert rc == 1
    assert "MWLS_MAX_THREADS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes_exact_mapping(monkeypatch, capsys):
    tune_args = [
        "tune", "--n", "10", "--kappa", "0.5", "--l", "1", "--d", "1",
        "--lambda", "1", "--regime", "smooth",
    ]
    assert main(tune_args) == 0
    capsys.readouterr()

    monkeypatch.setattr(cli, "cmd_tune", lambda args: (_ for _ in ()).throw(ValueError("bad input")))
    assert main(tune_args) == 1
    assert "error: bad input" in capsys.readouterr().err

    monkeypatch.setattr(
        cli, "cmd_tune", lambda args: (_ for _ in ()).throw(NumericalError("diverged"))
    )
    assert main(tune_args) == 2
    assert "numerical failure: diverged" in capsys.readouterr().err

    monkeypatch.setattr(
        cli, "cmd_tune", lambda args: (_ for _ in ()).throw(np.linalg.LinAlgError("singular"))
    )
    assert main(tune_args) == 2

    monkeypatch.setattr(
        cli, "cmd_tune", lambda args: (_ for _ in ()).throw(FloatingPointError("overflow"))
    )
    assert main(tune_args) == 2


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1  # --config is required
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_module_entry_point_runs():
    # run from the directory holding the imported package, which `-m` puts
    # first on the path, so the child process finds the same sources
    result = subprocess.run(
        [sys.executable, "-m", "mwls.cli", "tune", "--n", "10", "--kappa", "0.5",
         "--l", "1", "--d", "1", "--lambda", "1", "--regime", "smooth"],
        capture_output=True,
        text=True,
        cwd=Path(cli.__file__).parents[1],
    )
    assert result.returncode == 0
    assert result.stdout.startswith("# command=tune")


# ---------------------------------------------------------------------------
# validation before computing


def test_run_rejects_negative_seed_naming_the_key(tmp_path, capsys):
    config = _write_config(tmp_path, ZERO_CONFIG.replace("seed = 11", "seed = -3"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", "--config", config, "--out", str(out_dir)]) == 1
    assert "error: simulation.seed must be >= 0, got -3" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "command, message",
    [
        (["run", "--config", "{config}"], "error.fresh_m must be >= 1, got 0"),
        (
            ["bench", "--problem", "zero", "--n", "3", "--degree", "0", "--delta", "2.0",
             "--radius", "2.0", "--m", "50", "--fresh-m", "0"],
            "--fresh-m must be >= 1, got 0",
        ),
    ],
)
def test_fresh_m_below_one_fails_before_any_report(tmp_path, capsys, command, message):
    config = _write_config(tmp_path, ZERO_CONFIG.replace("fresh_m = 200", "fresh_m = 0"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [arg.format(config=config) for arg in command] + ["--out", str(out_dir)]
    assert main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_sweep_rejects_unparsable_m_values(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        ["sweep", "--problem", "zero", "--n", "2", "--degree", "0", "--delta", "2.0",
         "--radius", "2.0", "--m-values", "100,abc", "--out", str(out_dir)]
    )
    assert rc == 1
    assert "error: --m-values: cannot parse '100,abc' as int_list" in capsys.readouterr().err
    assert not out_dir.exists()


# A bad value names its flag, or its section.key in a config file, before
# the text the package's own check would print; at the defaults (n = 10,
# degree 1, delta 0.5, radius 4) the basis dimension is 16 cells * 2 = 32.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--problem", "b1", "--degree", "-1"], "--degree: degree must be >= 0, got -1"),
        (
            ["bench", "--problem", "b1", "--delta", "0"],
            "--delta: cell edge must be positive, got 0.0",
        ),
        (
            ["bench", "--problem", "b1", "--delta-z", "0"],
            "--delta-z: cell edge must be positive, got 0.0",
        ),
        (
            ["bench", "--problem", "b1", "--radius", "0"],
            "--radius: support half-width must be positive, got 0.0",
        ),
        (
            ["bench", "--problem", "b1", "--x0-width", "-1"],
            "--x0-width: starting-box width must be >= 0, got -1.0",
        ),
        (["bench", "--problem", "b4", "--cap", "-1"], "--cap: cap must be positive, got -1.0"),
        (
            ["bench", "--problem", "b4", "--theta-phi", "1.5"],
            "--theta-phi: theta_phi must lie in (0, 1), got 1.5",
        ),
        (["bounds", "--problem", "b4", "--cap", "-1"], "--cap: cap must be positive, got -1.0"),
        (
            ["bounds", "--problem", "b4", "--theta-phi", "1.5"],
            "--theta-phi: theta_phi must lie in (0, 1), got 1.5",
        ),
        (
            ["bench", "--problem", "b1", "--m", "5"],
            "--m: cloud size 5 at time index 0 is below the basis dimension 32",
        ),
        (
            ["sweep", "--problem", "b1", "--m-values", "200000,1"],
            "--m-values: cloud size 1 at time index 0 is below the basis dimension 32",
        ),
        (
            ["run", "[simulation]\nm = 5\n"],
            "simulation.m: cloud size 5 at time index 0 is below the basis dimension 32",
        ),
        (["run", "[basis]\ndegree = -1\n"], "basis.degree: degree must be >= 0, got -1"),
        (
            ["run", "[basis]\ndelta = " + "0.5, " * 9 + "-1\n"],
            "basis.delta: cell edge must be positive, got -1.0",
        ),
        (["bounds", "--problem", "b3", "--alpha", "nan"], "--alpha: alpha must be finite, got nan"),
        (["bench", "--problem", "b3", "--alpha", "nan"], "--alpha: alpha must be finite, got nan"),
        (
            ["bench", "--problem", "b1", "--radius", "inf"],
            "--radius: support half-width must be finite, got inf",
        ),
        (["bench", "--problem", "b1", "--delta", "inf"], "--delta: cell edge must be finite, got inf"),
        (
            ["bench", "--problem", "b1", "--x0-width", "inf"],
            "--x0-width: starting-box width must be finite, got inf",
        ),
        (["bench", "--problem", "b1", "--t", "inf"], "--t: terminal time must be finite, got inf"),
        (
            ["run", "[basis]\nradius = nan\n"],
            "basis.radius: support half-width must be finite, got nan",
        ),
        (
            ["sweep", "--problem", "b1", "--n", "4", "--m-values", "100,200", "--index", "9"],
            "--index: readout index 9 out of range [0, 3]",
        ),
        (
            ["run", "[grid]\npoints = 0, 0.5, inf\n"],
            "grid.points: grid points must be finite, got t_2 = inf",
        ),
    ],
)
def test_bad_value_names_its_flag_or_key(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    if argv[0] == "run":  # the second entry is the config file's text
        config = _write_config(tmp_path, "[problem]\nid = b1\n\n" + argv[1])
        argv = ["run", "--config", config]
    if argv[0] != "bounds":
        argv = argv + ["--out", str(out_dir)]
    assert main(argv) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out_dir.exists()


# The constructor whose range check each _RANGES entry stands in for.
_RANGE_OWNERS = {
    ("problem", "alpha"): lambda v: benchmark_b3(alpha=v),
    ("problem", "theta_phi"): lambda v: benchmark_b4(theta_phi=v),
    ("problem", "cap"): lambda v: benchmark_b4(cap=v),
    ("problem", "x0_width"): lambda v: benchmark_b1(x0_width=v),
    ("basis", "degree"): lambda v: LocalPolynomialBasis(degree=v, delta=0.5, radius=4.0, d=1),
    ("basis", "delta"): lambda v: LocalPolynomialBasis(degree=1, delta=v, radius=4.0, d=1),
    ("basis", "delta_z"): lambda v: LocalPolynomialBasis(degree=1, delta=v, radius=4.0, d=1),
    ("basis", "radius"): lambda v: LocalPolynomialBasis(degree=1, delta=0.5, radius=v, d=1),
}


@pytest.mark.parametrize("key", sorted(cli._RANGES), ids=".".join)
def test_ranges_keep_the_constructors_words(key):
    """The resolver rejects exactly the values the constructor rejects, in
    the constructor's words, so an edit to either side cannot drift."""
    build = _RANGE_OWNERS[key]
    if key == ("basis", "degree"):
        values = [-1, 0, 2]
    else:
        values = [-1.5, 0.0, 0.5, 1.5, math.inf, -math.inf, math.nan]
    for value in values:
        text = cli._range_error(key, value)
        if text is None:
            build(value)
        else:
            with pytest.raises(ValueError) as err:
                build(value)
            assert str(err.value) == text


@pytest.mark.parametrize("command", ["run", "bench", "sweep", "bounds"])
def test_each_command_builds_its_benchmark_once(tmp_path, capsys, monkeypatch, command):
    registry = mwls.harness.register_benchmarks()
    calls = []

    def counted(**params):
        calls.append(params)
        return registry["zero"](**params)

    monkeypatch.setattr(cli, "register_benchmarks", lambda: {**registry, "zero": counted})
    small = ["--problem", "zero", "--n", "2", "--degree", "0", "--delta", "2.0",
             "--radius", "2.0", "--fresh-m", "100", "--out", str(tmp_path / "out")]
    argv = {
        "run": ["run", "--config", _write_config(tmp_path, ZERO_CONFIG),
                "--out", str(tmp_path / "out")],
        "bench": ["bench", "--m", "50"] + small,
        "sweep": ["sweep", "--m-values", "30,60"] + small,
        "bounds": ["bounds", "--problem", "zero", "--n", "2"],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_sweep_checks_every_cloud_size_before_solving(tmp_path, capsys, monkeypatch):
    calls = []
    solve = mwls.harness.mwls_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mwls.harness, "mwls_solve", counted)
    out_dir = tmp_path / "out"
    rc = main(
        ["sweep", "--problem", "b1", "--n", "10", "--m-values", "200000,1",
         "--fresh-m", "100", "--out", str(out_dir)]
    )
    assert rc == 1
    assert calls == []
    assert "--m-values" in capsys.readouterr().err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# report headers: the '# key=value' lines and the column row, pinned


def _header(text):
    lines = text.splitlines()
    end = next(n for n, line in enumerate(lines) if not line.startswith("# "))
    return "\n".join(lines[: end + 1]) + "\n"


BOUNDS_B1_STDOUT = """\
# command=bounds
# problem.id=b1
# problem.x0_width=5
# grid.t=1
# grid.n=5
# grid.theta=1
# a1y=1
# a2y=1
# a1z=1
# a2z=1
# a3z=0
# amy=2
# amz=1
index,t_i,c_y,c_z,theta_y,theta_z,e_dep_y,e_dep_z
0,0,8,1,8,8,0,0
1,0.19999999999999996,8,1,8,8.9442719099991592,0,0
2,0.40000000000000002,8,1,8,10.327955589886445,0,0
3,0.59999999999999998,8,1,8,12.649110640673516,0,0
4,0.80000000000000004,8,1,8,17.888543819998322,0,0
"""

BOUNDS_B4_STDOUT = """\
# command=bounds
# problem.id=b4
# problem.cap=1
# problem.theta_phi=0.5
# problem.x0_width=5
# grid.t=1
# grid.n=5
# grid.theta=1
# a1y=1
# a2y=1
# a1z=1
# a2z=1
# a3z=0
# amy=2
# amz=1
index,t_i,c_y,c_z,theta_y,theta_z,e_dep_y,e_dep_z
0,0,1,1,1,1,0,0
1,0.19999999999999996,1,1.0573712634405641,1,1.1180339887498949,0,0
2,0.40000000000000002,1,1.1362193664674993,1,1.2909944487358056,0,0
3,0.59999999999999998,1,1.2574334296829353,1,1.5811388300841895,0,0
4,0.80000000000000004,1,1.4953487812212207,1,2.2360679774997902,0,0
"""

BOUNDS_CONSTANTS = """\
# a1y=1
# a2y=1
# a1z=1
# a2z=1
# a3z=0
# amy=2
# amz=1
"""

SUMMARY_COLUMNS = "index,t_i,m_i,k_y,k_z,level_y,level_z\n"
BOUNDS_COLUMNS = "index,t_i,c_y,c_z,theta_y,theta_z,e_dep_y,e_dep_z\n"
ERRORS_COLUMNS = (
    "index,t_i,emp_y,emp_z,fresh_y,fresh_z,fresh_y_se,fresh_z_se,"
    "e_app_y,e_app_z,dep_y,dep_z,bound_y,bound_z\n"
)

BENCH_B4_ECHO = """\
# command=bench
# problem.id=b4
# problem.cap=1
# problem.theta_phi=0.5
# problem.x0_width=5
# grid.t=1
# grid.n=2
# grid.theta=0.5
# grid.points=0,0.75,1
# basis.degree=0
# basis.delta=2,2
# basis.delta_z=2,2
# basis.radius=2
# simulation.m=60,60
# simulation.seed=0
# error.enabled=true
# error.fresh_m=20
"""

RUN_B1_ECHO = """\
# command=run
# problem.id=b1
# problem.x0_width=5
# grid.t=1
# grid.n=4
# grid.theta=1
# grid.points=0,0.25,0.5,0.75,1
# basis.degree=1
# basis.delta=1,1,1,1
# basis.delta_z=1,1,1,1
# basis.radius=3
# simulation.m=300,300,300,300
# simulation.seed=10
# error.enabled=true
# error.fresh_m=40
"""

# the slope values are results, not configuration: only their keys are pinned
SWEEP_B1_HEADER = """\
# command=sweep
# problem.id=b1
# problem.x0_width=5
# grid.t=1
# grid.n=3
# grid.theta=1
# basis.degree=0
# basis.delta=2
# basis.delta_z=2
# basis.radius=2
# simulation.seed=3
# error.fresh_m=50
# error.index=1
# slope_fresh_y=
# slope_fresh_z=
# slope_emp_y=
# slope_emp_z=
m,emp_y,emp_z,fresh_y,fresh_z,cost
"""


@pytest.mark.parametrize(
    "problem, expected", [("b1", BOUNDS_B1_STDOUT), ("b4", BOUNDS_B4_STDOUT)]
)
def test_bounds_stdout_pinned(capsys, problem, expected):
    assert main(["bounds", "--problem", problem, "--n", "5"]) == 0
    assert capsys.readouterr().out == expected


def test_bench_b4_headers_pinned_with_theta_phi_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(
        ["bench", "--problem", "b4", "--n", "2", "--m", "60", "--fresh-m", "20",
         "--degree", "0", "--delta", "2", "--radius", "2"]
    )
    assert rc == 0
    capsys.readouterr()
    out_dir = tmp_path / "mwls_bench_b4"
    summary = (out_dir / "run_summary.csv").read_text()
    assert _header(summary) == BENCH_B4_ECHO + SUMMARY_COLUMNS
    assert _header((out_dir / "bounds.csv").read_text()) == (
        BENCH_B4_ECHO + BOUNDS_CONSTANTS + BOUNDS_COLUMNS
    )
    assert _header((out_dir / "errors.csv").read_text()) == (
        BENCH_B4_ECHO + "# error.fresh_seed=0\n# error.cost=240\n" + ERRORS_COLUMNS
    )


def test_sweep_b1_header_pinned(tmp_path, capsys):
    rc = main(
        ["sweep", "--problem", "b1", "--n", "3", "--m-values", "60,120", "--fresh-m", "50",
         "--degree", "0", "--delta", "2", "--radius", "2", "--seed", "3",
         "--out", str(tmp_path / "s")]
    )
    assert rc == 0
    capsys.readouterr()
    header = _header((tmp_path / "s" / "sweep.csv").read_text()).splitlines()
    for n, line in enumerate(header):
        if line.startswith("# slope_"):
            key, value = line.split("=")
            assert math.isfinite(float(value))
            header[n] = key + "="
    assert "\n".join(header) + "\n" == SWEEP_B1_HEADER


def test_run_headers_pinned_with_overrides(tmp_path, capsys):
    config = _write_config(tmp_path, B1_CONFIG)
    out_dir = tmp_path / "r"
    rc = main(
        ["run", "--config", config, "--seed", "10", "--fresh-m", "40", "--out", str(out_dir)]
    )
    assert rc == 0
    capsys.readouterr()
    assert _header((out_dir / "run_summary.csv").read_text()) == RUN_B1_ECHO + SUMMARY_COLUMNS
    assert _header((out_dir / "bounds.csv").read_text()) == (
        RUN_B1_ECHO + BOUNDS_CONSTANTS + BOUNDS_COLUMNS
    )
    assert _header((out_dir / "errors.csv").read_text()) == (
        RUN_B1_ECHO + "# error.fresh_seed=10\n# error.cost=4800\n" + ERRORS_COLUMNS
    )
