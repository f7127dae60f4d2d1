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
from dataclasses import dataclass

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

# The defaults of run, bench, sweep and bounds, read by the resolver and by
# the flags' help.  basis.delta_z defaults to basis.delta; _resolve_config
# holds the two defaults that depend on the command.
_DEFAULTS = {
    ("problem", "alpha"): 0.5,
    ("problem", "cap"): 1.0,
    ("problem", "theta_phi"): 0.5,
    ("problem", "x0_width"): 5.0,
    ("grid", "t"): 1.0,
    ("grid", "n"): 10,
    ("grid", "theta"): 1.0,
    ("basis", "degree"): 1,
    ("basis", "delta"): [0.5],
    ("basis", "radius"): 4.0,
    ("simulation", "m"): [10_000],
    ("simulation", "seed"): 0,
    ("error", "enabled"): True,
    ("error", "fresh_m"): 20_000,
    ("output", "dir"): "mwls_out",
}

# Flags by argparse dest: --dest-with-dashes sets the config key of the same
# name.  {default} in a help text reads the key's default.
_FLAGS = {
    "problem": (("problem", "id"), "benchmark id (b1, b2, b3, b4, zero)"),
    "alpha": (("problem", "alpha"), "driver slope (b3 only; default {default})"),
    "theta_phi": (("problem", "theta_phi"), "terminal exponent (b4 only; default {default})"),
    "cap": (("problem", "cap"), "terminal cap (b4 only; default {default})"),
    "x0_width": (("problem", "x0_width"), "starting-box edge length (default {default})"),
    "t": (("grid", "t"), "terminal time (default {default})"),
    "n": (("grid", "n"), "number of time steps (default {default})"),
    "theta": (
        ("grid", "theta"),
        "grid concentration exponent in (0, 1] (default {default}; bench on b4: theta_phi)",
    ),
    "degree": (("basis", "degree"), "local polynomial degree (default {default})"),
    "delta": (("basis", "delta"), "cell edge length (default {default})"),
    "delta_z": (("basis", "delta_z"), "z-basis cell edge (default: same as --delta)"),
    "radius": (("basis", "radius"), "basis half-width (default {default})"),
    "m": (("simulation", "m"), "cloud size (default {default})"),
    "seed": (("simulation", "seed"), "root seed (default {default})"),
    "fresh_m": (("error", "fresh_m"), "fresh-sample count for errors (default {default})"),
    "out": (
        ("output", "dir"),
        "output directory (default {default} for run, mwls_<command>_<problem> otherwise)",
    ),
}
_FLAG_OF = {key: "--" + dest.replace("_", "-") for dest, (key, _) in _FLAGS.items()}

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
    """Fully resolved configuration of one subcommand: every field has its
    final value.

    delta, delta_z, and m are per-index lists of length grid.N.  echo_prefix
    lists the (key path, value) pairs every report starts with: the command,
    the problem keys and the grid keys.  echo_items extends it to the whole
    configuration, which the run and bench reports embed.
    """

    command: str
    problem_id: str
    problem_params: dict
    x0_width: float
    grid: TimeGrid
    grid_echo: tuple
    degree: int
    delta: list
    delta_z: list
    radius: float
    m: list
    seed: int
    error_enabled: bool
    fresh_m: int
    out_dir: str

    def echo_prefix(self) -> list:
        items = [("command", self.command), ("problem.id", self.problem_id)]
        for key in sorted(self.problem_params):
            items.append((f"problem.{key}", self.problem_params[key]))
        items.append(("problem.x0_width", self.x0_width))
        items.extend(self.grid_echo)
        return items

    def echo_items(self) -> list:
        items = self.echo_prefix()
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


def _resolve_config(raw: dict, command: str, flags: dict) -> RunConfig:
    """Fill defaults, validate every entry, and build the command's RunConfig.

    raw holds the config file's entries and flags the entries given as
    command-line flags, which take precedence.  An error names a flag entry
    by its flag and a file entry by its section.key.
    """
    entries = {**raw, **flags}

    def name(key) -> str:
        return _FLAG_OF[key] if key in flags else ".".join(key)

    def get(key):
        return entries.get(key, _DEFAULTS.get(key))

    problem_id = entries.get(("problem", "id"))
    if problem_id is None:
        raise ValueError("problem.id is required")
    registry = register_benchmarks()
    if problem_id not in registry:
        raise ValueError(
            f"{name(('problem', 'id'))}: unknown problem {problem_id!r}; "
            f"known: {', '.join(sorted(registry))}"
        )
    applicable = _PROBLEM_PARAMS.get(problem_id, ())
    for keys in _PROBLEM_PARAMS.values():
        for key in keys:
            if ("problem", key) in entries and key not in applicable:
                raise ValueError(
                    f"{name(('problem', key))} does not apply to problem {problem_id!r}"
                )
    params = {key: float(get(("problem", key))) for key in applicable}
    x0_width = float(get(("problem", "x0_width")))

    points = entries.get(("grid", "points"))
    if points is not None:
        for key in ("t", "n", "theta"):
            if ("grid", key) in entries:
                raise ValueError(f"grid.points excludes {name(('grid', key))}")
        try:
            grid = TimeGrid(np.asarray(points, dtype=float))
        except ValueError as exc:
            raise ValueError(f"grid.points: {exc}") from None
        grid_echo = ()
    else:
        t = float(get(("grid", "t")))
        n = int(get(("grid", "n")))
        # bench runs b4 on the theta_phi-grid that its Hölder terminal calls for
        if (command, problem_id) == ("bench", "b4"):
            theta = float(entries.get(("grid", "theta"), params["theta_phi"]))
        else:
            theta = float(get(("grid", "theta")))
        try:
            grid = make_theta_grid(t, n, theta)
        except ValueError as exc:
            given = [name(key) for key in (("grid", "t"), ("grid", "n"), ("grid", "theta"))
                     if key in entries]
            raise ValueError(f"{', '.join(given) or 'grid'}: {exc}") from None
        grid_echo = (("grid.t", t), ("grid.n", n), ("grid.theta", theta))

    delta = _per_index(get(("basis", "delta")), grid.N, name(("basis", "delta")))
    delta_z = entries.get(("basis", "delta_z"), delta)
    delta_z = _per_index(delta_z, grid.N, name(("basis", "delta_z")))
    m = _per_index(get(("simulation", "m")), grid.N, name(("simulation", "m")))
    seed = int(get(("simulation", "seed")))
    if seed < 0:
        raise ValueError(f"{name(('simulation', 'seed'))} must be >= 0, got {seed}")
    fresh_m = int(get(("error", "fresh_m")))
    if fresh_m < 1:
        raise ValueError(f"{name(('error', 'fresh_m'))} must be >= 1, got {fresh_m}")
    if command == "run":
        out_dir = get(("output", "dir"))
    else:
        out_dir = entries.get(("output", "dir"), f"mwls_{command}_{problem_id}")

    return RunConfig(
        command=command,
        problem_id=problem_id,
        problem_params=params,
        x0_width=x0_width,
        grid=grid,
        grid_echo=grid_echo,
        degree=int(get(("basis", "degree"))),
        delta=[float(v) for v in delta],
        delta_z=[float(v) for v in delta_z],
        radius=float(get(("basis", "radius"))),
        m=[int(v) for v in m],
        seed=seed,
        error_enabled=bool(get(("error", "enabled"))),
        fresh_m=fresh_m,
        out_dir=str(out_dir),
    )


def _read_config(path: str) -> dict:
    """The typed {(section, key): value} entries of an INI config file."""
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
    return raw


def load_config(path: str) -> RunConfig:
    """Parse and fully validate an INI config file.

    Unknown sections or keys are errors naming the key path; values are
    typed per the schema and cross-field rules are checked before any
    computation.
    """
    return _resolve_config(_read_config(path), "run", {})


def _flag_entries(args) -> dict:
    """The config entries of the flags given on the command line."""
    entries = {}
    for dest, (key, _) in _FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            is_list = _SCHEMA[key[0]][key[1]].endswith("_list")
            entries[key] = [value] if is_list else value
    return entries


def _build_benchmark(cfg: RunConfig) -> Benchmark:
    factory = register_benchmarks()[cfg.problem_id]
    return factory(x0_width=cfg.x0_width, **cfg.problem_params)


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


def _execute_run(cfg: RunConfig) -> int:
    """Solve per the config and write the report files; shared by run/bench."""
    bench = _build_benchmark(cfg)
    model = bench.model
    y_bases, z_bases = _build_bases(cfg, model.d, model.q)
    sol = mwls_solve(
        model, cfg.grid, bench.driver, bench.terminal, y_bases, z_bases, cfg.m, cfg.seed
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    echo = cfg.echo_items()
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

    bounds_path = os.path.join(cfg.out_dir, "bounds.csv")
    _write_table(
        bounds_path, echo + _bounds_meta(sol.bounds), _BOUNDS_COLUMNS, _bounds_rows(sol.bounds)
    )
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
    return _execute_run(_resolve_config(_read_config(args.config), "run", _flag_entries(args)))


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


def cmd_bounds(args) -> int:
    """Evaluate and print the constants table; no simulation is involved."""
    cfg = _resolve_config({}, "bounds", _flag_entries(args))
    bench = _build_benchmark(cfg)
    pc = problem_constants(bench.model, cfg.grid, bench.driver, bench.terminal)
    table = bounds_table(pc, cfg.grid)
    meta = cfg.echo_prefix() + _bounds_meta(table)
    print("\n".join(_table_lines(meta, _BOUNDS_COLUMNS, _bounds_rows(table))))
    return 0


def cmd_bench(args) -> int:
    """Run a built-in benchmark with default basis and cloud settings."""
    return _execute_run(_resolve_config({}, "bench", _flag_entries(args)))


def cmd_sweep(args) -> int:
    """Sweep the cloud size on a benchmark and report errors and slopes."""
    cfg = _resolve_config({}, "sweep", _flag_entries(args))
    m_values = _parse_value("int_list", args.m_values, "--m-values")
    threads = _resolve_threads(args.threads)
    bench = _build_benchmark(cfg)
    y_bases, z_bases = _build_bases(cfg, bench.model.d, bench.model.q)
    study = convergence_study(
        bench,
        cfg.grid,
        y_bases,
        z_bases,
        m_values,
        seed=cfg.seed,
        fresh_m=cfg.fresh_m,
        index=args.index,
        threads=threads,
    )
    # one basis serves every index, so the basis keys echo as scalars
    meta = cfg.echo_prefix() + [
        ("basis.degree", cfg.degree),
        ("basis.delta", cfg.delta[0]),
        ("basis.delta_z", cfg.delta_z[0]),
        ("basis.radius", cfg.radius),
        ("simulation.seed", cfg.seed),
        ("error.fresh_m", cfg.fresh_m),
        ("error.index", study.index),
        ("slope_fresh_y", study.slope_y),
        ("slope_fresh_z", study.slope_z),
        ("slope_emp_y", study.slope_emp_y),
        ("slope_emp_z", study.slope_emp_z),
    ]
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
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "sweep.csv")
    _write_table(path, meta, columns, rows)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise ValueError(message)


def _add_flags(sub, *dests) -> None:
    """Add the _FLAGS entries; unset flags stay None and resolve to defaults."""
    for dest in dests:
        key, text = _FLAGS[dest]
        kind = _SCHEMA[key[0]][key[1]].removesuffix("_list")
        default = _render(_DEFAULTS[key]) if key in _DEFAULTS else None
        sub.add_argument(
            _FLAG_OF[key],
            dest=dest,
            type={"int": int, "float": float}.get(kind, str),
            required=key == ("problem", "id"),
            help=text.format(default=default),
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mwls", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="solve a configured problem and write reports")
    run_p.add_argument("--config", required=True, help="path to an INI config file")
    _add_flags(run_p, "seed", "out", "fresh_m")
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
    problem_and_grid = [dest for dest, (key, _) in _FLAGS.items() if key[0] in ("problem", "grid")]
    _add_flags(bounds_p, *problem_and_grid)
    bounds_p.set_defaults(func=cmd_bounds)

    bench_p = commands.add_parser("bench", help="run a benchmark with default settings")
    _add_flags(bench_p, *_FLAGS)
    bench_p.set_defaults(func=cmd_bench)

    sweep_p = commands.add_parser("sweep", help="sweep the cloud size and report slopes")
    # --m-values sets the cloud sizes of a sweep
    _add_flags(sweep_p, *(dest for dest in _FLAGS if dest != "m"))
    sweep_p.add_argument("--m-values", dest="m_values", required=True,
                         help="comma-separated cloud sizes")
    sweep_p.add_argument("--index", type=int, default=None,
                         help="readout time index (default: middle)")
    sweep_p.add_argument("--threads", type=int, default=None, help="worker threads")
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
