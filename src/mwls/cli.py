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
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .constants import bounds_table
from .errors import NumericalError
from .grid import TimeGrid, make_theta_grid
from .harness import (
    Benchmark,
    _ArgumentError,
    _check_m_sweep,
    convergence_study,
    estimate_errors,
    register_benchmarks,
    tune_parameters,
)
from .regression import LocalPolynomialBasis
from .solver import _per_index, _per_index_inputs, mwls_solve, problem_constants

__all__ = ["RunConfig", "load_config", "main"]


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

# Every config key, in flag order: (section, key) -> (kind, default, dest,
# help).  The flag --dest-with-dashes sets the key, and {default} in its help
# reads the key's default; grid.points and error.enabled have no flag.  Of
# the keys without a default, problem.id is required, grid.points gives way
# to t, n and theta, and basis.delta_z follows basis.delta.  _resolve_config
# holds these rules and the two defaults that depend on the command.
_KEYS = {
    ("problem", "id"): ("str", None, "problem", "benchmark id (b1, b2, b3, b4, zero)"),
    ("problem", "alpha"): ("float", 0.5, "alpha", "driver slope (b3 only; default {default})"),
    ("problem", "theta_phi"): ("float", 0.5, "theta_phi",
                               "terminal exponent (b4 only; default {default})"),
    ("problem", "cap"): ("float", 1.0, "cap", "terminal cap (b4 only; default {default})"),
    ("problem", "x0_width"): ("float", 5.0, "x0_width",
                              "starting-box edge length (default {default})"),
    ("grid", "t"): ("float", 1.0, "t", "terminal time (default {default})"),
    ("grid", "n"): ("int", 10, "n", "number of time steps (default {default})"),
    ("grid", "theta"): ("float", 1.0, "theta", "grid concentration exponent in (0, 1] "
                        "(default {default}; bench on b4: theta_phi)"),
    ("grid", "points"): ("float_list", None, None, None),
    ("basis", "degree"): ("int", 1, "degree", "local polynomial degree (default {default})"),
    ("basis", "delta"): ("float_list", [0.5], "delta", "cell edge length (default {default})"),
    ("basis", "delta_z"): ("float_list", None, "delta_z",
                           "z-basis cell edge (default: same as --delta)"),
    ("basis", "radius"): ("float", 4.0, "radius", "basis half-width (default {default})"),
    ("simulation", "m"): ("int_list", [10_000], "m", "cloud size (default {default})"),
    ("simulation", "seed"): ("int", 0, "seed", "root seed (default {default})"),
    ("error", "enabled"): ("bool", True, None, None),
    ("error", "fresh_m"): ("int", 20_000, "fresh_m",
                           "fresh-sample count for errors (default {default})"),
    ("output", "dir"): ("str", "mwls_out", "out", "output directory (default {default} for "
                        "run, mwls_<command>_<problem> otherwise)"),
}


def _flag(key) -> str:
    return "--" + _KEYS[key][2].replace("_", "-")


# The numeric entries that a constructor of the package would reject without
# naming the key: (subject, rule, rejects) with the words and the test of that
# constructor's range check, if it has one.  A value in range must still be
# finite, which each of these constructors checks next.
_RANGES = {
    ("problem", "alpha"): ("alpha", None, None),
    ("problem", "theta_phi"): ("theta_phi", "must lie in (0, 1)", lambda v: not 0.0 < v < 1.0),
    ("problem", "cap"): ("cap", "must be positive", lambda v: v <= 0.0),
    ("problem", "x0_width"): ("starting-box width", "must be >= 0", lambda v: v < 0.0),
    ("basis", "degree"): ("degree", "must be >= 0", lambda v: v < 0),
    ("basis", "delta"): ("cell edge", "must be positive", lambda v: v <= 0.0),
    ("basis", "delta_z"): ("cell edge", "must be positive", lambda v: v <= 0.0),
    ("basis", "radius"): ("support half-width", "must be positive", lambda v: v <= 0.0),
}


def _range_error(key, value) -> str | None:
    """What the constructor check of a _RANGES entry says of value, or None."""
    subject, rule, rejects = _RANGES[key]
    if rejects is not None and rejects(value):
        return f"{subject} {rule}, got {value}"
    if not math.isfinite(value):
        return f"{subject} must be finite, got {value}"
    return None


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

    delta, delta_z, and m are per-index lists of length grid.N; a sweep's
    m holds its swept cloud sizes instead.  benchmark is the problem built
    from the problem keys, and y_bases and z_bases are the per-index bases
    of delta and delta_z; each is built once, by the resolver.  echo_prefix
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
    benchmark: Benchmark
    y_bases: list
    z_bases: list

    def echo_prefix(self) -> list:
        items = [("command", self.command), ("problem.id", self.problem_id)]
        for key in sorted(self.problem_params):
            items.append((f"problem.{key}", self.problem_params[key]))
        items.append(("problem.x0_width", self.x0_width))
        items.extend(self.grid_echo)
        return items

    def echo_items(self) -> list:
        return self.echo_prefix() + [
            ("grid.points", list(self.grid.points)),
            ("basis.degree", self.degree),
            ("basis.delta", self.delta),
            ("basis.delta_z", self.delta_z),
            ("basis.radius", self.radius),
            ("simulation.m", self.m),
            ("simulation.seed", self.seed),
            ("error.enabled", self.error_enabled),
            ("error.fresh_m", self.fresh_m),
        ]


def _resolve_config(raw: dict, command: str, flags: dict) -> RunConfig:
    """Fill defaults, validate every entry, and build the command's RunConfig.

    raw holds the config file's entries and flags the entries given as
    command-line flags, which take precedence.  An error names a flag entry
    by its flag and a file entry by its section.key.  A sweep passes its
    --m-values as simulation.m: one solve per value, used at every index.
    """
    entries = {**raw, **flags}

    def name(key) -> str:
        if key not in flags:
            return ".".join(key)
        return "--m-values" if (command, key) == ("sweep", ("simulation", "m")) else _flag(key)

    def get(key):
        return entries.get(key, _KEYS[key][1])

    def check_range(key, value):
        error = _range_error(key, value)
        if error is not None:
            raise ValueError(f"{name(key)}: {error}")
        return value

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
    params = {key: check_range(("problem", key), get(("problem", key))) for key in applicable}
    x0_width = check_range(("problem", "x0_width"), get(("problem", "x0_width")))

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
        t = get(("grid", "t"))
        n = get(("grid", "n"))
        # bench runs b4 on the theta_phi-grid that its Hölder terminal calls for
        if (command, problem_id) == ("bench", "b4"):
            theta = entries.get(("grid", "theta"), params["theta_phi"])
        else:
            theta = get(("grid", "theta"))
        try:
            grid = make_theta_grid(t, n, theta)
        except ValueError as exc:
            given = [name(key) for key in (("grid", "t"), ("grid", "n"), ("grid", "theta"))
                     if key in entries]
            raise ValueError(f"{', '.join(given) or 'grid'}: {exc}") from None
        grid_echo = (("grid.t", t), ("grid.n", n), ("grid.theta", theta))

    degree = check_range(("basis", "degree"), get(("basis", "degree")))
    radius = check_range(("basis", "radius"), get(("basis", "radius")))
    delta = _per_index(get(("basis", "delta")), grid.N, name(("basis", "delta")))
    delta = [check_range(("basis", "delta"), v) for v in delta]
    delta_z = entries.get(("basis", "delta_z"), delta)
    delta_z = _per_index(delta_z, grid.N, name(("basis", "delta_z")))
    delta_z = [check_range(("basis", "delta_z"), v) for v in delta_z]
    m = get(("simulation", "m"))
    if command != "sweep":
        m = _per_index(m, grid.N, name(("simulation", "m")))
    benchmark = registry[problem_id](x0_width=x0_width, **params)
    model = benchmark.model
    y_bases = [LocalPolynomialBasis(degree, dy, radius, model.d) for dy in delta]
    z_bases = [LocalPolynomialBasis(degree, dz, radius, model.d, model.q) for dz in delta_z]
    seed = get(("simulation", "seed"))
    if seed < 0:
        raise ValueError(f"{name(('simulation', 'seed'))} must be >= 0, got {seed}")
    fresh_m = get(("error", "fresh_m"))
    if fresh_m < 1:
        raise ValueError(f"{name(('error', 'fresh_m'))} must be >= 1, got {fresh_m}")
    if command == "run":
        out_dir = get(("output", "dir"))
    else:
        out_dir = entries.get(("output", "dir"), f"mwls_{command}_{problem_id}")
    if command != "bounds":  # checked, not created: nothing is written before the solve
        if not out_dir:
            raise ValueError(f"{name(('output', 'dir'))}: output directory must not be empty")
        ancestor = os.path.abspath(out_dir)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise ValueError(
                f"{name(('output', 'dir'))}: cannot create {out_dir!r}, "
                f"{ancestor!r} is not a directory"
            )
        check = _check_m_sweep if command == "sweep" else _per_index_inputs
        try:  # the bases fit the model: only a cloud size can fail
            check(model, grid.N, y_bases, z_bases, m)
        except ValueError as exc:
            raise ValueError(f"{name(('simulation', 'm'))}: {exc}") from None

    return RunConfig(
        command=command,
        problem_id=problem_id,
        problem_params=params,
        x0_width=x0_width,
        grid=grid,
        grid_echo=grid_echo,
        degree=degree,
        delta=delta,
        delta_z=delta_z,
        radius=radius,
        m=m,
        seed=seed,
        error_enabled=get(("error", "enabled")),
        fresh_m=fresh_m,
        out_dir=out_dir,
        benchmark=benchmark,
        y_bases=y_bases,
        z_bases=z_bases,
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
        if section not in {known for known, _ in _KEYS}:
            raise ValueError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if (section, key) not in _KEYS:
                raise ValueError(f"unknown config key {section}.{key}")
            raw[(section, key)] = _parse_value(_KEYS[(section, key)][0], value, f"{section}.{key}")
    return raw


def load_config(path: str) -> RunConfig:
    """Parse and fully validate an INI config file.

    Unknown sections or keys are errors naming the key path; values are
    typed per the key table and cross-field rules are checked before any
    computation.
    """
    return _resolve_config(_read_config(path), "run", {})


def _flag_entries(args) -> dict:
    """The config entries of the flags given on the command line, each
    parsed like the file entry of its key."""
    entries = {}
    for key, (kind, _, dest, _) in _KEYS.items():
        raw = None if dest is None else getattr(args, dest, None)
        if raw is not None:
            entries[key] = _parse_value(kind, raw, _flag(key))
    return entries


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
    # after index and t_i, the BoundsTable fields in _BOUNDS_COLUMNS order
    fields = (table.C_y, table.C_z, table.Theta_y, table.Theta_z, table.E_dep_Y, table.E_dep_Z)
    return [[i, table.grid.points[i]] + [f[i] for f in fields] for i in range(table.grid.N)]


def _execute_run(cfg: RunConfig) -> int:
    """Solve per the config and write the report files; shared by run/bench."""
    bench = cfg.benchmark
    sol = mwls_solve(
        bench.model, cfg.grid, bench.driver, bench.terminal, cfg.y_bases, cfg.z_bases,
        cfg.m, cfg.seed,
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    echo = cfg.echo_items()
    grid = cfg.grid

    summary_rows = [
        [
            i,
            grid.points[i],
            cfg.m[i],
            cfg.y_bases[i].K,
            cfg.z_bases[i].K,
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
        # after index and t_i, each column is the ErrorReport field of its name
        error_rows = [
            [i, grid.points[i]] + [getattr(report, column)[i] for column in _ERROR_COLUMNS[2:]]
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


# The flag of each argument of `tune_parameters`.
_TUNE_FLAGS = {"N": "--n", "kappa": "--kappa", "l": "--l", "d": "--d", "lam": "--lambda",
               "regime": "--regime", "theta_pi": "--theta-pi", "T": "--t"}


def cmd_tune(args) -> int:
    """Print the balanced discretization plan for the requested regime; an
    error of one argument names its flag."""
    try:
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
    except _ArgumentError as exc:
        raise ValueError(f"{_TUNE_FLAGS[exc.argument]}: {exc}") from None
    meta = [
        ("command", "tune"),
        ("regime", plan.regime),
        ("n", plan.N),
        ("kappa", plan.kappa),
        ("l", plan.l),
        ("d", plan.d),
        ("lambda", plan.lam),
        *([("theta_pi", plan.theta_pi)] if plan.regime == "holder" else []),
        ("t", plan.grid.T),
        ("r", plan.R),
        ("complexity_exponent", plan.complexity_exponent),
    ]
    rows = [
        [i, plan.grid.points[i], plan.delta_y[i], plan.delta_z[i], plan.m[i]]
        for i in range(plan.N)
    ]
    print("\n".join(_table_lines(meta, ["index", "t_i", "delta_y", "delta_z", "m"], rows)))
    return 0


def cmd_bounds(args) -> int:
    """Evaluate and print the constants table; no simulation is involved."""
    cfg = _resolve_config({}, "bounds", _flag_entries(args))
    bench = cfg.benchmark
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
    flags = _flag_entries(args)
    flags[("simulation", "m")] = _parse_value("int_list", args.m_values, "--m-values")
    cfg = _resolve_config({}, "sweep", flags)
    if args.index is not None and not 0 <= args.index < cfg.grid.N:
        raise ValueError(
            f"--index: readout index {args.index} out of range [0, {cfg.grid.N - 1}]"
        )
    study = convergence_study(
        cfg.benchmark,
        cfg.grid,
        cfg.y_bases,
        cfg.z_bases,
        cfg.m,
        seed=cfg.seed,
        fresh_m=cfg.fresh_m,
        index=args.index,
    )
    def echo(values):  # a per-index list of one repeated value echoes as that value
        return values[0] if len(set(values)) == 1 else values

    meta = cfg.echo_prefix() + [
        ("basis.degree", cfg.degree),
        ("basis.delta", echo(cfg.delta)),
        ("basis.delta_z", echo(cfg.delta_z)),
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


def _add_flags(sub, *keys) -> None:
    """Add the flags of the keys that have one; a flag's value stays text,
    and an unset flag stays None and resolves to the key's default."""
    for key in keys:
        _, default, dest, text = _KEYS[key]
        if dest is not None:
            sub.add_argument(_flag(key), dest=dest, required=key == ("problem", "id"),
                             help=text.format(default=_render(default)))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mwls", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="solve a configured problem and write reports")
    run_p.add_argument("--config", required=True, help="path to an INI config file")
    _add_flags(run_p, ("simulation", "seed"), ("output", "dir"), ("error", "fresh_m"))
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
    _add_flags(bounds_p, *(key for key in _KEYS if key[0] in ("problem", "grid")))
    bounds_p.set_defaults(func=cmd_bounds)

    bench_p = commands.add_parser("bench", help="run a benchmark with default settings")
    _add_flags(bench_p, *_KEYS)
    bench_p.set_defaults(func=cmd_bench)

    sweep_p = commands.add_parser("sweep", help="sweep the cloud size and report slopes")
    # --m-values sets the cloud sizes of a sweep
    _add_flags(sweep_p, *(key for key in _KEYS if key != ("simulation", "m")))
    sweep_p.add_argument("--m-values", dest="m_values", required=True,
                         help="comma-separated cloud sizes")
    sweep_p.add_argument("--index", type=int, default=None,
                         help="readout time index (default: middle)")
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
    except (ValueError, OSError) as exc:  # OSError: the output directory or a report
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
