"""Command-line interface: solve, tune, print bounds, benchmark, and sweep.

Config files are INI-style with typed keys grouped in sections.  Unknown
sections or keys are rejected with the offending key path, every value is
validated before any computation starts, and each emitted report embeds
the fully resolved configuration and seeds so a run can be reproduced from
its output alone.  All tables use a fixed column order and render floats
with 17 significant digits; nothing time- or host-dependent is written, so
identical configurations produce byte-identical reports.

Exit codes: 0 success, 1 invalid input or configuration, 2 numerical
failure during computation.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .constants import bounds_table
from .errors import NumericalError
from .grid import TimeGrid, make_theta_grid
from .harness import (
    Benchmark,
    convergence_study,
    estimate_errors,
    register_benchmarks,
    tune_parameters,
)
from .regression import LocalPolynomialBasis
from .solver import mwls_solve, problem_constants

__all__ = ["RunConfig", "load_config", "main"]

THREADS_ENV_VAR = "MWLS_MAX_THREADS"


# ---------------------------------------------------------------------------
# rendering


def _fmt(value: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(value), ".17g")


def _render(value) -> str:
    """Canonical text form of a config or table value."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(_render(v) for v in value)
    return str(value)


def _table_lines(meta, columns, rows) -> list[str]:
    """Report layout: '# key=value' header lines, column row, data rows."""
    lines = [f"# {key}={_render(value)}" for key, value in meta]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_render(v) for v in row))
    return lines


def _write_table(path: str, meta, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(_table_lines(meta, columns, rows)) + "\n")


# ---------------------------------------------------------------------------
# configuration


_PROBLEM_PARAMS = {"b3": ("alpha",), "b4": ("cap", "theta_phi")}
_PARAM_DEFAULTS = {"alpha": 0.5, "cap": 1.0, "theta_phi": 0.5}

_SCHEMA: dict[str, dict[str, str]] = {
    "problem": {
        "id": "str",
        "alpha": "float",
        "theta_phi": "float",
        "cap": "float",
        "x0_width": "float",
    },
    "grid": {"t": "float", "n": "int", "theta": "float", "points": "float_list"},
    "basis": {
        "degree": "int",
        "delta": "float_list",
        "delta_z": "float_list",
        "radius": "float",
    },
    "simulation": {"m": "int_list", "seed": "int"},
    "error": {"enabled": "bool", "fresh_m": "int"},
    "output": {"dir": "str"},
}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _parse_value(kind: str, raw: str, path: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[raw.lower()]
        if kind == "int_list":
            return [int(part.strip()) for part in raw.split(",")]
        if kind == "float_list":
            return [float(part.strip()) for part in raw.split(",")]
        return raw
    except ValueError:
        raise ValueError(f"{path}: cannot parse {raw!r} as {kind}") from None


@dataclass
class RunConfig:
    """Fully resolved run configuration: every field has its final value.

    delta, delta_z, and m are per-index lists of length grid.N.  echo_items
    lists the resolved (key path, value) pairs embedded in every report.
    """

    problem_id: str
    problem_params: dict = field(default_factory=dict)
    x0_width: float = 5.0
    grid: TimeGrid | None = None
    grid_echo: tuple = ()
    degree: int = 1
    delta: list = field(default_factory=list)
    delta_z: list = field(default_factory=list)
    radius: float = 4.0
    m: list = field(default_factory=list)
    seed: int = 0
    error_enabled: bool = True
    fresh_m: int = 20_000
    out_dir: str = "mwls_out"

    def echo_items(self) -> list:
        items = [("problem.id", self.problem_id)]
        for key in sorted(self.problem_params):
            items.append((f"problem.{key}", self.problem_params[key]))
        items.append(("problem.x0_width", self.x0_width))
        items.extend(self.grid_echo)
        items.append(("grid.points", list(self.grid.points)))
        items.extend(
            [
                ("basis.degree", self.degree),
                ("basis.delta", self.delta),
                ("basis.delta_z", self.delta_z),
                ("basis.radius", self.radius),
                ("simulation.m", self.m),
                ("simulation.seed", self.seed),
                ("error.enabled", self.error_enabled),
                ("error.fresh_m", self.fresh_m),
            ]
        )
        return items


def _per_index(values, n: int, path: str) -> list:
    if len(values) == 1:
        return list(values) * n
    if len(values) != n:
        raise ValueError(f"{path} has {len(values)} entries, expected 1 or {n}")
    return list(values)


def _resolve_config(raw: dict) -> RunConfig:
    """Fill defaults, validate cross-field rules, and build a RunConfig."""
    problem_id = raw.get(("problem", "id"))
    if problem_id is None:
        raise ValueError("problem.id is required")
    registry = register_benchmarks()
    if problem_id not in registry:
        raise ValueError(
            f"problem.id: unknown problem {problem_id!r}; known: {', '.join(sorted(registry))}"
        )
    applicable = _PROBLEM_PARAMS.get(problem_id, ())
    for key in _PARAM_DEFAULTS:
        if ("problem", key) in raw and key not in applicable:
            raise ValueError(f"problem.{key} does not apply to problem {problem_id!r}")
    params = {key: float(raw.get(("problem", key), _PARAM_DEFAULTS[key])) for key in applicable}
    x0_width = float(raw.get(("problem", "x0_width"), 5.0))

    points = raw.get(("grid", "points"))
    if points is not None:
        for key in ("t", "n", "theta"):
            if ("grid", key) in raw:
                raise ValueError(f"grid.points excludes grid.{key}")
        try:
            grid = TimeGrid(np.asarray(points, dtype=float))
        except ValueError as exc:
            raise ValueError(f"grid.points: {exc}") from None
        grid_echo = ()
    else:
        t = float(raw.get(("grid", "t"), 1.0))
        n = int(raw.get(("grid", "n"), 10))
        theta = float(raw.get(("grid", "theta"), 1.0))
        try:
            grid = make_theta_grid(t, n, theta)
        except ValueError as exc:
            raise ValueError(f"grid: {exc}") from None
        grid_echo = (("grid.t", t), ("grid.n", n), ("grid.theta", theta))

    degree = int(raw.get(("basis", "degree"), 1))
    radius = float(raw.get(("basis", "radius"), 4.0))
    delta = _per_index(raw.get(("basis", "delta"), [0.5]), grid.N, "basis.delta")
    delta_z_raw = raw.get(("basis", "delta_z"))
    delta_z = (
        list(delta)
        if delta_z_raw is None
        else _per_index(delta_z_raw, grid.N, "basis.delta_z")
    )
    m = _per_index(raw.get(("simulation", "m"), [10_000]), grid.N, "simulation.m")

    return RunConfig(
        problem_id=problem_id,
        problem_params=params,
        x0_width=x0_width,
        grid=grid,
        grid_echo=grid_echo,
        degree=degree,
        delta=[float(v) for v in delta],
        delta_z=[float(v) for v in delta_z],
        radius=radius,
        m=[int(v) for v in m],
        seed=int(raw.get(("simulation", "seed"), 0)),
        error_enabled=bool(raw.get(("error", "enabled"), True)),
        fresh_m=int(raw.get(("error", "fresh_m"), 20_000)),
        out_dir=str(raw.get(("output", "dir"), "mwls_out")),
    )


def load_config(path: str) -> RunConfig:
    """Parse and fully validate an INI config file.

    Unknown sections or keys are errors naming the key path; values are
    typed per the schema and cross-field rules are checked before any
    computation.
    """
    if not os.path.isfile(path):
        raise ValueError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from None
    raw: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown config key {section}.{key}")
            raw[(section, key)] = _parse_value(_SCHEMA[section][key], value, f"{section}.{key}")
    return _resolve_config(raw)


def _build_benchmark(problem_id: str, params: dict, x0_width: float) -> Benchmark:
    factory = register_benchmarks()[problem_id]
    return factory(x0_width=x0_width, **params)


def _build_bases(cfg: RunConfig, d: int, q: int):
    y_bases = [
        LocalPolynomialBasis(degree=cfg.degree, delta=dy, radius=cfg.radius, d=d, out_dim=1)
        for dy in cfg.delta
    ]
    z_bases = [
        LocalPolynomialBasis(degree=cfg.degree, delta=dz, radius=cfg.radius, d=d, out_dim=q)
        for dz in cfg.delta_z
    ]
    return y_bases, z_bases


def _resolve_threads(requested: int | None) -> int | None:
    """Apply the environment thread cap to a requested worker count."""
    cap_raw = os.environ.get(THREADS_ENV_VAR)
    cap = None
    if cap_raw is not None:
        try:
            cap = int(cap_raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR}: cannot parse {cap_raw!r} as int") from None
        if cap < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {cap}")
    if requested is not None and requested < 1:
        raise ValueError(f"--threads must be >= 1, got {requested}")
    if cap is None:
        return requested
    if requested is None:
        return cap
    return min(requested, cap)


# ---------------------------------------------------------------------------
# report emission


_SUMMARY_COLUMNS = ["index", "t_i", "m_i", "k_y", "k_z", "level_y", "level_z"]
_BOUNDS_COLUMNS = ["index", "t_i", "c_y", "c_z", "theta_y", "theta_z", "e_dep_y", "e_dep_z"]
_ERROR_COLUMNS = [
    "index",
    "t_i",
    "emp_y",
    "emp_z",
    "fresh_y",
    "fresh_z",
    "fresh_y_se",
    "fresh_z_se",
    "e_app_y",
    "e_app_z",
    "dep_y",
    "dep_z",
    "bound_y",
    "bound_z",
]


def _bounds_meta(table) -> list:
    return [
        ("a1y", table.A1y),
        ("a2y", table.A2y),
        ("a1z", table.A1z),
        ("a2z", table.A2z),
        ("a3z", table.A3z),
        ("amy", table.AMy),
        ("amz", table.AMz),
    ]


def _bounds_rows(table) -> list:
    grid = table.grid
    return [
        [
            i,
            grid.points[i],
            table.C_y[i],
            table.C_z[i],
            table.Theta_y[i],
            table.Theta_z[i],
            table.E_dep_Y[i],
            table.E_dep_Z[i],
        ]
        for i in range(grid.N)
    ]


def _execute_run(cfg: RunConfig, command: str) -> int:
    """Solve per the config and write the report files; shared by run/bench."""
    bench = _build_benchmark(cfg.problem_id, cfg.problem_params, cfg.x0_width)
    model = bench.model
    y_bases, z_bases = _build_bases(cfg, model.d, model.q)
    sol = mwls_solve(
        model, cfg.grid, bench.driver, bench.terminal, y_bases, z_bases, cfg.m, cfg.seed
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    echo = [("command", command)] + cfg.echo_items()
    grid = cfg.grid

    summary_rows = [
        [
            i,
            grid.points[i],
            cfg.m[i],
            y_bases[i].K,
            z_bases[i].K,
            sol.y_fits[i].level,
            sol.z_fits[i].level,
        ]
        for i in range(grid.N)
    ]
    summary_path = os.path.join(cfg.out_dir, "run_summary.csv")
    _write_table(summary_path, echo, _SUMMARY_COLUMNS, summary_rows)
    written = [summary_path]

    pc = problem_constants(model, grid, bench.driver, bench.terminal)
    table = bounds_table(
        pc,
        grid,
        k_y=[b.K for b in y_bases],
        k_z=[b.K for b in z_bases],
        m=cfg.m,
    )
    bounds_path = os.path.join(cfg.out_dir, "bounds.csv")
    _write_table(bounds_path, echo + _bounds_meta(table), _BOUNDS_COLUMNS, _bounds_rows(table))
    written.append(bounds_path)

    if cfg.error_enabled:
        report = estimate_errors(sol, bench, fresh_m=cfg.fresh_m, seed=cfg.seed)
        error_rows = [
            [
                i,
                grid.points[i],
                report.emp_y[i],
                report.emp_z[i],
                report.fresh_y[i],
                report.fresh_z[i],
                report.fresh_y_se[i],
                report.fresh_z_se[i],
                report.e_app_y[i],
                report.e_app_z[i],
                report.dep_y[i],
                report.dep_z[i],
                report.bound_y[i],
                report.bound_z[i],
            ]
            for i in range(grid.N)
        ]
        errors_path = os.path.join(cfg.out_dir, "errors.csv")
        error_meta = echo + [
            ("error.fresh_seed", report.seed),
            ("error.cost", report.cost),
        ]
        _write_table(errors_path, error_meta, _ERROR_COLUMNS, error_rows)
        written.append(errors_path)

    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    """Solve the configured problem and write the report files."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if args.fresh_m is not None:
        if args.fresh_m < 1:
            raise ValueError(f"--fresh-m must be >= 1, got {args.fresh_m}")
        cfg.fresh_m = int(args.fresh_m)
    if args.out is not None:
        cfg.out_dir = args.out
    return _execute_run(cfg, "run")


def cmd_tune(args) -> int:
    """Print the balanced discretization plan for the requested regime."""
    plan = tune_parameters(
        N=args.n,
        kappa=args.kappa,
        l=args.l,
        d=args.d,
        lam=args.lam,
        regime=args.regime,
        theta_pi=args.theta_pi,
        T=args.t,
    )
    meta = [
        ("command", "tune"),
        ("regime", plan.regime),
        ("n", plan.N),
        ("kappa", plan.kappa),
        ("l", plan.l),
        ("d", plan.d),
        ("lambda", plan.lam),
    ]
    if plan.regime == "holder":
        meta.append(("theta_pi", plan.theta_pi))
    meta.extend(
        [
            ("t", plan.grid.T),
            ("r", plan.R),
            ("complexity_exponent", plan.complexity_exponent),
        ]
    )
    rows = [
        [i, plan.grid.points[i], plan.delta_y[i], plan.delta_z[i], plan.m[i]]
        for i in range(plan.N)
    ]
    print("\n".join(_table_lines(meta, ["index", "t_i", "delta_y", "delta_z", "m"], rows)))
    return 0


def _problem_kwargs(args) -> tuple[str, dict, float]:
    """Collect per-problem parameters from flags, rejecting inapplicable ones."""
    problem_id = args.problem
    registry = register_benchmarks()
    if problem_id not in registry:
        raise ValueError(
            f"--problem: unknown problem {problem_id!r}; known: {', '.join(sorted(registry))}"
        )
    applicable = _PROBLEM_PARAMS.get(problem_id, ())
    params = {}
    for key in _PARAM_DEFAULTS:
        given = getattr(args, key, None)
        if given is not None and key not in applicable:
            raise ValueError(f"--{key.replace('_', '-')} does not apply to problem {problem_id!r}")
        if key in applicable:
            params[key] = float(given) if given is not None else _PARAM_DEFAULTS[key]
    x0_width = args.x0_width if getattr(args, "x0_width", None) is not None else 5.0
    return problem_id, params, float(x0_width)


def cmd_bounds(args) -> int:
    """Evaluate and print the constants table; no simulation is involved."""
    problem_id, params, x0_width = _problem_kwargs(args)
    bench = _build_benchmark(problem_id, params, x0_width)
    theta = args.theta if args.theta is not None else 1.0
    grid = make_theta_grid(args.t, args.n, theta)
    pc = problem_constants(bench.model, grid, bench.driver, bench.terminal)
    table = bounds_table(pc, grid)
    meta = [
        ("command", "bounds"),
        ("problem.id", problem_id),
    ]
    for key in sorted(params):
        meta.append((f"problem.{key}", params[key]))
    meta.extend(
        [
            ("problem.x0_width", x0_width),
            ("grid.t", args.t),
            ("grid.n", args.n),
            ("grid.theta", theta),
        ]
    )
    print("\n".join(_table_lines(meta + _bounds_meta(table), _BOUNDS_COLUMNS, _bounds_rows(table))))
    return 0


def cmd_bench(args) -> int:
    """Run a built-in benchmark with default basis and cloud settings."""
    problem_id, params, x0_width = _problem_kwargs(args)
    theta = args.theta
    if theta is None:
        theta = params["theta_phi"] if problem_id == "b4" else 1.0
    grid = make_theta_grid(args.t, args.n, theta)
    cfg = RunConfig(
        problem_id=problem_id,
        problem_params=params,
        x0_width=x0_width,
        grid=grid,
        grid_echo=(("grid.t", args.t), ("grid.n", args.n), ("grid.theta", theta)),
        degree=args.degree,
        delta=[float(args.delta)] * grid.N,
        delta_z=[float(args.delta_z if args.delta_z is not None else args.delta)] * grid.N,
        radius=args.radius,
        m=[int(args.m)] * grid.N,
        seed=int(args.seed),
        error_enabled=True,
        fresh_m=int(args.fresh_m),
        out_dir=args.out if args.out is not None else f"mwls_bench_{problem_id}",
    )
    return _execute_run(cfg, "bench")


def cmd_sweep(args) -> int:
    """Sweep the cloud size on a benchmark and report errors and slopes."""
    problem_id, params, x0_width = _problem_kwargs(args)
    bench = _build_benchmark(problem_id, params, x0_width)
    theta = args.theta if args.theta is not None else 1.0
    grid = make_theta_grid(args.t, args.n, theta)
    m_values = [int(part.strip()) for part in args.m_values.split(",")]
    delta_z = args.delta_z if args.delta_z is not None else args.delta
    y_basis = LocalPolynomialBasis(
        degree=args.degree, delta=args.delta, radius=args.radius, d=bench.model.d, out_dim=1
    )
    z_basis = LocalPolynomialBasis(
        degree=args.degree,
        delta=delta_z,
        radius=args.radius,
        d=bench.model.d,
        out_dim=bench.model.q,
    )
    threads = _resolve_threads(args.threads)
    study = convergence_study(
        bench,
        grid,
        y_basis,
        z_basis,
        m_values,
        seed=args.seed,
        fresh_m=args.fresh_m,
        index=args.index,
        threads=threads,
    )
    meta = [
        ("command", "sweep"),
        ("problem.id", problem_id),
    ]
    for key in sorted(params):
        meta.append((f"problem.{key}", params[key]))
    meta.extend(
        [
            ("problem.x0_width", x0_width),
            ("grid.t", args.t),
            ("grid.n", args.n),
            ("grid.theta", theta),
            ("basis.degree", args.degree),
            ("basis.delta", float(args.delta)),
            ("basis.delta_z", float(delta_z)),
            ("basis.radius", float(args.radius)),
            ("simulation.seed", args.seed),
            ("error.fresh_m", args.fresh_m),
            ("error.index", study.index),
            ("slope_fresh_y", study.slope_y),
            ("slope_fresh_z", study.slope_z),
            ("slope_emp_y", study.slope_emp_y),
            ("slope_emp_z", study.slope_emp_z),
        ]
    )
    rows = [
        [
            study.values[p],
            study.emp_y[p],
            study.emp_z[p],
            study.fresh_y[p],
            study.fresh_z[p],
            study.costs[p],
        ]
        for p in range(len(study.values))
    ]
    columns = ["m", "emp_y", "emp_z", "fresh_y", "fresh_z", "cost"]
    out_dir = args.out if args.out is not None else f"mwls_sweep_{problem_id}"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    _write_table(path, meta, columns, rows)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise ValueError(message)


def _add_problem_flags(sub) -> None:
    sub.add_argument("--problem", required=True, help="benchmark id (b1, b2, b3, b4, zero)")
    sub.add_argument("--alpha", type=float, default=None, help="driver slope (b3 only)")
    sub.add_argument("--theta-phi", dest="theta_phi", type=float, default=None,
                     help="terminal exponent (b4 only)")
    sub.add_argument("--cap", type=float, default=None, help="terminal cap (b4 only)")
    sub.add_argument("--x0-width", dest="x0_width", type=float, default=None,
                     help="starting-box edge length (default 5)")


def _add_grid_flags(sub) -> None:
    sub.add_argument("--t", type=float, default=1.0, help="terminal time (default 1)")
    sub.add_argument("--n", type=int, default=10, help="number of time steps (default 10)")
    sub.add_argument("--theta", type=float, default=None,
                     help="grid concentration exponent in (0, 1]")


def _add_basis_flags(sub) -> None:
    sub.add_argument("--degree", type=int, default=1, help="local polynomial degree (default 1)")
    sub.add_argument("--delta", type=float, default=0.5, help="cell edge length (default 0.5)")
    sub.add_argument("--delta-z", dest="delta_z", type=float, default=None,
                     help="z-basis cell edge (default: same as --delta)")
    sub.add_argument("--radius", type=float, default=4.0, help="basis half-width (default 4)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mwls", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="solve a configured problem and write reports")
    run_p.add_argument("--config", required=True, help="path to an INI config file")
    run_p.add_argument("--seed", type=int, default=None, help="override simulation.seed")
    run_p.add_argument("--out", default=None, help="override output.dir")
    run_p.add_argument("--fresh-m", dest="fresh_m", type=int, default=None,
                       help="override error.fresh_m")
    run_p.set_defaults(func=cmd_run)

    tune_p = commands.add_parser("tune", help="print the balanced discretization plan")
    tune_p.add_argument("--n", type=int, required=True, help="number of time steps")
    tune_p.add_argument("--kappa", type=float, required=True, help="target accuracy exponent")
    tune_p.add_argument("--l", type=int, required=True, help="basis degree")
    tune_p.add_argument("--d", type=int, required=True, help="state dimension")
    tune_p.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="marginal tail decay rate")
    tune_p.add_argument("--regime", required=True, choices=("smooth", "holder"),
                        help="smoothness regime")
    tune_p.add_argument("--theta-pi", dest="theta_pi", type=float, default=None,
                        help="grid concentration exponent (holder regime)")
    tune_p.add_argument("--t", type=float, default=1.0, help="terminal time (default 1)")
    tune_p.set_defaults(func=cmd_tune)

    bounds_p = commands.add_parser("bounds", help="print the constants table (no simulation)")
    _add_problem_flags(bounds_p)
    _add_grid_flags(bounds_p)
    bounds_p.set_defaults(func=cmd_bounds)

    bench_p = commands.add_parser("bench", help="run a benchmark with default settings")
    _add_problem_flags(bench_p)
    _add_grid_flags(bench_p)
    _add_basis_flags(bench_p)
    bench_p.add_argument("--m", type=int, default=10_000, help="cloud size (default 10000)")
    bench_p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    bench_p.add_argument("--fresh-m", dest="fresh_m", type=int, default=20_000,
                         help="fresh-sample count for error estimation")
    bench_p.add_argument("--out", default=None, help="output directory")
    bench_p.set_defaults(func=cmd_bench)

    sweep_p = commands.add_parser("sweep", help="sweep the cloud size and report slopes")
    _add_problem_flags(sweep_p)
    _add_grid_flags(sweep_p)
    _add_basis_flags(sweep_p)
    sweep_p.add_argument("--m-values", dest="m_values", required=True,
                         help="comma-separated cloud sizes")
    sweep_p.add_argument("--index", type=int, default=None,
                         help="readout time index (default: middle)")
    sweep_p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    sweep_p.add_argument("--fresh-m", dest="fresh_m", type=int, default=20_000,
                         help="fresh-sample count for error estimation")
    sweep_p.add_argument("--threads", type=int, default=None, help="worker threads")
    sweep_p.add_argument("--out", default=None, help="output directory")
    sweep_p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """CLI entry point: parse, dispatch, and map exceptions to exit codes."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code) if isinstance(exc.code, int) else 0
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
