"""Command-line experiment driver.

Subcommands: ``solve`` (one trajectory to CSV), ``diagnose`` (stiffness
report + local-Lyapunov scan), ``transform`` (interval-segmented integration
of the exponentially transformed system with error/mu/step-extension CSVs),
``compare`` (method sweep against a shared oracle), ``demo-stiff-transform``
(the linear no-go demonstration).  ``transform`` and ``compare`` take the
reference shift/scale triples by default, so they run on any 3-component
problem (lorenz84, robertson); other dimensions need both
``transform.mu_init`` and ``transform.coeffs`` with one number per
component, and ``transform`` writes three-component outputs.

Settings come from ``--config <path>`` (a JSON file) and then each
``--key value`` or ``--key=value`` in order, a later one winning; a flag is
an alias of the key ``FLAGS`` gives it (``--steps`` is ``solver.steps``),
never abbreviated.  Every command checks each of its settings in one place
and runs every check before it removes the manifest of an earlier run in
``--out``; it then computes all of its results and its summary, and only
then calls ``_write_outputs``: the one place that creates ``--out``, writes
the CSVs and then, through a temporary file, a ``manifest.json`` that echoes
the resolved configuration and the summary.  So a rejected input leaves
``--out`` as it was, a run that fails while it computes writes no output and
leaves no manifest, and a manifest is always whole.  Summaries are computed
from the in-memory results the CSVs are written from, and numbers are
printed with 17 significant digits so CSV output is byte-stable and
round-trips exactly.

Exit codes: 0 success (a stagnated adaptive run is a success with its
stagnation recorded), 1 configuration error (any ``ValueError``: a
``ConfigError`` or a library precondition; a ``MemoryError``: a run too
large to allocate; or an ``OSError``: a path the system refuses), 2
numerical failure (any ``ArithmeticError``).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .diagnostics import stiffness_report
from .ode import (
    AdaptiveConfig,
    Trajectory,
    _lane_blocks,
    reference_solution,
    solve_rk4_adaptive,
    solve_rk4_fixed,
    solve_trapezoid_adaptive,
)
from .problems import BenchmarkSpec, PROBLEM_FACTORIES, _is_number, lle_scan, make_problem
from .transform import (
    DEFAULT_COEFFS,
    IntervalPlan,
    METHOD_BY_NUMBER,
    METHOD_MU_INIT,
    METHOD_STEPS_PER_INTERVAL,
    MuMethod,
    params_for_method,
    run_transformed,
    step_extension_report,
    stiff_transform_demo,
)

SOLVER_NAMES = ("rk4", "rk4-adaptive", "trapezoid")

DEFAULT_ORACLE_REFINE = 2  # GBS macro steps per run step
DEFAULT_EPS = 1e-3


class ConfigError(ValueError):
    """Invalid configuration (bad flag value, unknown field, missing file)."""


def fmt(x: float) -> str:
    """Full round-trip float formatting, as ``write_csv`` writes a float cell."""
    return format(float(x), ".17g")


# Rows per ``%`` in ``write_csv``.  On a 100,001-row Robertson table (2-core
# VM, CPython 3.11.7) blocks of 256 and of 1,024 rows both write in
# 0.27-0.33 s, against 0.34-0.40 s for one ``%`` per row.  But 1,024-row
# blocks (about 140 kB of text each) raised the peak RSS of a stiffness-scan
# benchmark pass from 42.8 to 43.2 MB, and 256-row blocks keep it at 42.9 MB.
CSV_BLOCK = 256


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` (any iterable of equal-length rows) as CSV.

    The first row fixes each column's cell type: a ``str`` is written as it
    is, anything else as ``fmt`` writes it.  Lines end in CRLF, as
    ``csv.writer`` ends them; no cell is quoted, so no cell may hold a comma,
    a quote or a line break.  Each block of at most ``CSV_BLOCK`` rows is
    formatted by one ``%`` of the row template repeated.
    """
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        rows = iter(rows)
        block = list(islice(rows, CSV_BLOCK))
        if not block:
            return
        line = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in block[0]) + "\r\n"
        while block:
            fh.write((line * len(block)) % tuple(chain.from_iterable(block)))
            block = list(islice(rows, CSV_BLOCK))


def table_rows(*columns: np.ndarray):
    """Rows of Python floats of equal-length columns side by side, a 2-D
    column giving several cells per row.  Stacked one block of at most
    ``EIG_BLOCK`` rows at a time, so a long table is never copied whole."""
    for s in _lane_blocks(len(columns[0])):
        yield from np.column_stack([c[s] for c in columns]).tolist()


# ---------------------------------------------------------------------------
# Configuration handling.


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    node = cfg
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {dotted}: {key} is not a section")
    node[keys[-1]] = value


def _parse_override_value(text: str):
    """JSON, else comma-separated numbers or one (such as ``inf``), else the text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        try:
            numbers = [float(p) for p in text.split(",")]
        except ValueError:
            return text
        return numbers if "," in text else numbers[0]


# each flag and the config key it is an alias of
FLAGS = {
    "problem": "problem.name",
    "solver": "solver.name",
    "steps": "solver.steps",
    "intervals": "transform.intervals",
    "method": "transform.method",
    "tol": "solver.tol",
    "tf": "problem.tf",
    "dt-init": "solver.dt_init",
    "max-steps": "solver.max_steps",
    "samples": "scan.n_samples",
    "q": "transform.q",
    "mu-init": "transform.mu_init",
    "coeffs": "transform.coeffs",
    "oracle-refine": "oracle.refine",
    "a": "demo.a",
    "kappa-g": "demo.kappa_g",
}

# the settings the subcommands read: each section with its keys, and each
# top-level key with None; ``make_problem`` checks the keys of problem.params
CONFIG_KEYS = {
    "problem": ("name", "params", "u0", "t_span", "tf"),
    "solver": ("name", "steps", "tol", "dt_init", "dt_min", "dt_max", "max_steps"),
    "transform": ("method", "intervals", "q", "coeffs", "mu_init"),
    "oracle": ("refine",),
    "scan": ("component", "n_samples"),
    "demo": ("a", "kappa_g"),
    "eps": None,
    "out": None,
}


def load_config(args: argparse.Namespace, extras: list[str]) -> dict:
    """Merge the config file, then each ``--key value`` or ``--key=value`` in
    ``extras`` (later wins), and check that every key is one of
    ``CONFIG_KEYS``, that every section present is an object, that ``out``,
    when present, is a non-empty path, that no name in it is too long for
    the file system and that no file stands where the output directory or
    one of its parents goes."""
    cfg: dict = {}
    if args.config:
        path = Path(args.config)
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: line {exc.lineno}, col {exc.colno}: {exc.msg}")
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {path}: top level must be an object")

    tokens = iter(extras)
    for token in tokens:
        name, eq, text = token.partition("=")
        text = text if eq else next(tokens, None)
        if not name.startswith("--") or text is None:
            raise ConfigError(f"expected --key value or --key=value, got {token!r}")
        key = FLAGS.get(name[2:], name[2:])
        _set_dotted(cfg, key, text if key == "out" else _parse_override_value(text))

    for name, value in cfg.items():
        if name not in CONFIG_KEYS:
            raise ConfigError(f"unknown setting {name}")
        if CONFIG_KEYS[name] is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        unknown = next((key for key in value if key not in CONFIG_KEYS[name]), None)
        if unknown is not None:
            raise ConfigError(f"unknown setting {name}.{unknown}")
    params = cfg.get("problem", {}).get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"problem.params must be an object, got {params!r}")
    if "out" in cfg and not (isinstance(cfg["out"], str) and cfg["out"]):
        raise ConfigError(f"out must be a non-empty path, got {cfg['out']!r}")
    out = Path(cfg.get("out", "out"))
    # a name under a parent that does not exist yet is never looked up here
    name_max = os.pathconf(out.anchor or ".", "PC_NAME_MAX")
    long = next((part for part in out.parts if len(os.fsencode(part)) > name_max), None)
    if long is not None:
        raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), long)
    blocker = next((p for p in (out, *out.parents) if p.exists()), None)
    if blocker is not None and not blocker.is_dir():
        raise ConfigError(f"out: {str(blocker)!r} exists and is not a directory")
    return cfg


def _number(cfg: dict, key: str, default=None, integral: bool = False):
    """The number at the dotted ``key``, ``default`` when unset.  A bool is
    no number, and an integral setting must hold a whole one."""
    *sections, name = key.split(".")
    for section in sections:
        cfg = cfg.get(section, {})
    value = cfg.get(name)
    if value is None:
        return default
    if not _is_number(value) or (integral and value % 1 != 0):
        raise ConfigError(f"{key} must be {'an integer' if integral else 'a number'}, "
                          f"got {value!r}")
    return int(value) if integral else float(value)


def build_benchmark(cfg: dict) -> BenchmarkSpec:
    section = cfg.get("problem", {})
    name = section.get("name")
    if not name:
        raise ConfigError("problem.name is required (--problem)")
    if name not in PROBLEM_FACTORIES:
        raise ConfigError(f"problem.name: unknown problem {name!r}; "
                          f"choose from {sorted(PROBLEM_FACTORIES)}")
    params = section.get("params")
    u0 = section.get("u0")
    if _is_number(u0):
        u0 = [float(u0)]
    tf = _number(cfg, "problem.tf")
    try:
        spec = make_problem(name, params=params, u0=u0, t_span=section.get("t_span"))
        if tf is not None:
            # --tf keeps the start time of the (possibly overridden) t_span
            spec = make_problem(name, params=params, u0=u0,
                                t_span=[spec.problem.t_span[0], tf])
        return spec
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"problem: {exc}") from None


def build_adaptive_config(cfg: dict, spec: BenchmarkSpec) -> AdaptiveConfig:
    settings = {
        "tol": _number(cfg, "solver.tol", 1e-3),
        "dt_init": _number(cfg, "solver.dt_init", spec.problem.horizon * 1e-4),
        "dt_min": _number(cfg, "solver.dt_min", 1e-12),
        "dt_max": _number(cfg, "solver.dt_max", math.inf),
        "max_steps": _number(cfg, "solver.max_steps", 100_000, integral=True),
    }
    try:
        return AdaptiveConfig(**settings)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None


def solver_setup(cfg: dict, spec: BenchmarkSpec):
    """Check the solver settings and return the solve they ask for (a call
    on the problem), the most steps it takes and the key that sets them."""
    name = cfg.get("solver", {}).get("name", "rk4")
    if name not in SOLVER_NAMES:
        raise ConfigError(f"solver.name: unknown solver {name!r}; "
                          f"choose from {sorted(SOLVER_NAMES)}")
    if name == "rk4":
        steps = _number(cfg, "solver.steps", integral=True)
        if steps is None:
            raise ConfigError("solver.steps is required for --solver rk4")
        if steps < 1:
            raise ConfigError(f"solver.steps must be >= 1, got {steps}")
        return (lambda problem: solve_rk4_fixed(problem, steps)), steps, "solver.steps"
    acfg = build_adaptive_config(cfg, spec)
    adaptive = solve_rk4_adaptive if name == "rk4-adaptive" else solve_trapezoid_adaptive
    return (lambda problem: adaptive(problem, acfg)), acfg.max_steps, "solver.max_steps"


def run_solver(solve, spec: BenchmarkSpec) -> Trajectory:
    """Integrate ``spec``'s problem with a solve that ``solver_setup`` returned."""
    return solve(spec.problem)


# ---------------------------------------------------------------------------
# Manifest.


def write_manifest(out_dir: Path, command: str, cfg: dict, summary: dict,
                   outputs: list[Path], t_started: float) -> dict:
    manifest = {
        "command": command,
        "config": cfg,
        "summary": summary,
        "outputs": [p.name for p in outputs],
        "wall_clock_seconds": time.perf_counter() - t_started,
    }
    for p in outputs:
        if not p.exists():
            raise RuntimeError(f"declared output missing: {p}")
    # written whole or not at all: a run cut short leaves no partial manifest
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out_dir / "manifest.json")
    return manifest


def _discard_manifest(cfg: dict) -> None:
    """Remove the manifest of an earlier run in ``out``.  Each command calls
    this before it integrates, so a run that fails leaves no manifest that
    vouches for outputs it did not write."""
    (Path(cfg.get("out", "out")) / "manifest.json").unlink(missing_ok=True)


def _write_outputs(cfg: dict, command: str, t_started: float, summary: dict,
                   *tables) -> list[Path]:
    """Create ``out``, write each ``(file name, header, rows)`` table there
    with ``write_csv``, then the manifest; return the tables' paths.  Every
    command calls this once, after all of its results are computed."""
    out = Path(cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name, _, _ in tables]
    for path, (_, header, rows) in zip(paths, tables):
        write_csv(path, header, rows)
    write_manifest(out, command, cfg, summary, paths, t_started)
    return paths


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_solve(cfg: dict) -> int:
    t_started = time.perf_counter()
    spec = build_benchmark(cfg)
    solve, _, _ = solver_setup(cfg, spec)
    _discard_manifest(cfg)
    traj = run_solver(solve, spec)
    summary = {
        "problem": spec.problem.name,
        "solver": traj.solver_id,
        "steps_taken": traj.steps_taken,
        "steps_rejected": traj.steps_rejected,
        "stagnated": traj.stagnated,
        "t_reached": traj.t_reached,
        "final_state": [float(v) for v in traj.states[-1]],
    }
    header = ["t"] + [f"u{i + 1}" for i in range(traj.dim)]
    path, = _write_outputs(cfg, "solve", t_started, summary,
                           ("solution.csv", header, table_rows(traj.times, traj.states)))
    status = "stagnated at t=%.6g" % traj.t_reached if traj.stagnated else "completed"
    print(f"solve: {spec.problem.name} {traj.solver_id} {status} "
          f"({traj.steps_taken} steps, {traj.steps_rejected} rejected) -> {path}")
    return 0


def _eps(cfg: dict) -> float:
    eps = _number(cfg, "eps", DEFAULT_EPS)
    if not 0 < eps < math.inf:
        raise ConfigError(f"eps must be finite and > 0, got {eps!r}")
    return eps


def cmd_diagnose(cfg: dict) -> int:
    t_started = time.perf_counter()
    spec = build_benchmark(cfg)
    eps = _eps(cfg)
    dim = spec.problem.dim
    component = _number(cfg, "scan.component", 0, integral=True)
    if not 0 <= component < dim:
        raise ConfigError(f"scan.component must lie in [0, {dim}), got {component}")
    n_samples = _number(cfg, "scan.n_samples", 400, integral=True)
    solve, steps, steps_key = solver_setup(cfg, spec)
    if steps < 4:
        raise ConfigError(f"{steps_key} must be >= 4 for diagnose (the stiffness report "
                          f"needs 5 samples), got {steps}")
    most = max(400, steps + 1)  # the default, or the most samples a run can return
    if not 2 <= n_samples <= most:
        raise ConfigError(f"scan.n_samples must lie in [2, {most}], got {n_samples}")
    _discard_manifest(cfg)
    traj = run_solver(solve, spec)
    if len(traj.times) < 5:  # an adaptive run that stopped early
        stop = "stagnated" if traj.stagnated else "reached the end"
        raise ConfigError(f"diagnose: {traj.solver_id} {stop} at t={traj.t_reached:.6g} "
                          f"after {traj.steps_taken} steps; the stiffness report needs "
                          f"5 samples, got {len(traj.times)}")

    report = stiffness_report(traj, spec.problem, eps=eps, component=component)
    trace = lle_scan(spec.problem, traj, n_samples)
    crossing = report.q_unity_crossing()
    summary = {
        "problem": spec.problem.name,
        "eps": eps,
        "steps_taken": traj.steps_taken,
        "stagnated": traj.stagnated,
        "q_unity_crossing": crossing,
        "gamma_min_overall": float(np.min(report.gamma_min)),
        "gamma_max_positive_fraction": float(np.mean(trace.gamma_max > 0)),
    }
    lle_header = ["t", *(f"{part}_g{i + 1}" for i in range(dim) for part in ("re", "im")),
                  "gamma_max", "gamma_min"]
    stiff_path, lle_path = _write_outputs(
        cfg, "diagnose", t_started, summary,
        ("stiffness.csv", ["t", "kappa", "dt_max", "dt_stiff", "Q", "R"],
         table_rows(report.times, report.kappa, report.dt_max,
                    report.dt_stiff, report.q, report.r)),
        # a complex row viewed as floats interleaves the real and imaginary parts
        ("lle.csv", lle_header, table_rows(
            trace.times, trace.values.view(float), trace.gamma_max, trace.gamma_min)))
    print(f"diagnose: {spec.problem.name} eps={eps:g} "
          f"Q=1 crossing={crossing} -> {stiff_path}, {lle_path}")
    return 0


def _vector(section: dict, key: str, default, spec: BenchmarkSpec) -> tuple[float, ...]:
    """``transform.<key>`` as one number per state component; a bare number
    is the vector of a one-component problem."""
    value = section.get(key, default)
    dim = spec.problem.dim
    if dim == 1 and _is_number(value):
        value = [value]
    if not (isinstance(value, (list, tuple)) and len(value) == dim
            and all(_is_number(v) and math.isfinite(v) for v in value)):
        raise ConfigError(f"transform.{key}: {spec.problem.name} needs a list of "
                          f"{dim} numbers, each finite, got {value!r}")
    return tuple(float(v) for v in value)


def _method_keys(cfg: dict, default: str) -> list[str]:
    """``transform.method`` as ``METHOD_BY_NUMBER`` keys: one method, or a
    comma-separated string or a list of methods, none twice."""
    value = cfg.get("transform", {}).get("method", default)
    items = value.split(",") if isinstance(value, str) else value
    keys = [format(m, "g") if _is_number(m) else str(m).strip()
            for m in (items if isinstance(items, list) else [items])]
    if not keys or len(set(keys)) < len(keys) or not set(keys) <= set(METHOD_BY_NUMBER):
        raise ConfigError(f"transform.method: name methods of {sorted(METHOD_BY_NUMBER)}, "
                          f"each once, got {value!r}")
    return keys


def _transform_setup(cfg: dict, spec: BenchmarkSpec, method_key: str):
    section = cfg.get("transform", {})
    method = METHOD_BY_NUMBER[method_key]
    n_steps = _number(cfg, "solver.steps", 600, integral=True)
    intervals = _number(cfg, "transform.intervals", integral=True)
    if intervals is None:
        spi = METHOD_STEPS_PER_INTERVAL[method]
        intervals = 1 if spi is None else max(1, n_steps // spi)
        if n_steps % intervals:
            raise ConfigError(
                f"transform.intervals defaults to solver.steps // {spi} = {intervals} "
                f"(the {method.value} method's reference interval of {spi} steps), which "
                f"does not divide solver.steps={n_steps}; set transform.intervals to a "
                f"divisor of {n_steps}")
    try:
        plan = IntervalPlan(n_steps, intervals, spec.problem.t_span)
    except ValueError as exc:
        raise ConfigError(f"transform: {exc}") from None
    q = _number(cfg, "transform.q", 1.0)
    if not math.isfinite(q):
        raise ConfigError(f"transform.q must be finite, got {q!r}")
    params = params_for_method(
        method,
        q=q,
        coeffs=_vector(section, "coeffs", DEFAULT_COEFFS, spec),
        mu_init=_vector(section, "mu_init", METHOD_MU_INIT[method], spec),
    )
    return method, plan, params


def _oracle_steps(cfg: dict, n_steps: int) -> int:
    """The oracle's step count: ``oracle.refine`` GBS macro steps per run step."""
    refine = _number(cfg, "oracle.refine", DEFAULT_ORACLE_REFINE, integral=True)
    if refine < 1:
        raise ConfigError("oracle.refine must be >= 1")
    if n_steps * refine % 2:
        raise ConfigError(f"oracle.refine x steps = {n_steps * refine} must be even "
                          f"(the oracle's gate halves it)")
    return n_steps * refine


def cmd_transform(cfg: dict) -> int:
    t_started = time.perf_counter()
    spec = build_benchmark(cfg)
    method_key, *more = _method_keys(cfg, "3")
    if more:
        raise ConfigError(f"transform.method: transform runs one method, "
                          f"got {cfg['transform']['method']!r}")
    method, plan, params = _transform_setup(cfg, spec, method_key)
    if spec.problem.dim != 3:
        raise ConfigError(f"transform writes three-component outputs; "
                          f"{spec.problem.name} has {spec.problem.dim} components")
    if plan.n_steps < 4:
        raise ConfigError(f"solver.steps must be >= 4 for transform (the step-extension "
                          f"report needs 5 samples), got {plan.n_steps}")
    oracle_steps = _oracle_steps(cfg, plan.n_steps)
    _discard_manifest(cfg)
    reference = reference_solution(spec.problem, oracle_steps)
    run = run_transformed(spec, plan, method, params, reference)
    ext = step_extension_report(run, reference, max(run.max_error(0), 1e-300))
    summary = {
        "problem": spec.problem.name,
        "method": run.method.value,
        "n_steps": plan.n_steps,
        "k_intervals": plan.k_intervals,
        "oracle_n_steps": reference.meta.get("oracle_n_steps"),
        "oracle_rhs_evals": reference.meta.get("oracle_rhs_evals"),
        "oracle_check_delta": reference.meta.get("oracle_check_delta"),
        "max_abs_error": {
            "x": run.max_error(0), "y": run.max_error(1), "z": run.max_error(2),
        },
    }
    sol = run.solution
    k = np.arange(plan.k_intervals)
    sol_path, *_ = _write_outputs(
        cfg, "transform", t_started, summary,
        ("solution.csv", ["t", "u1", "u2", "u3"], table_rows(sol.times, sol.states)),
        ("errors.csv", ["t", "err_x", "err_y", "err_z"],
         table_rows(sol.times, run.errors_vs_reference)),
        # a whole float such as the interval index is written as an integer
        ("mu_history.csv", ["interval", "t_start", "mu1", "mu2", "mu3", "gamma_max"],
         table_rows(k, plan.t_span[0] + plan.interval_length * k,
                    run.mu_history, run.gamma_max_history)),
        ("step_extension.csv", ["t", "dt_max", "delta"],
         table_rows(ext, np.full(len(ext), plan.dt))))
    print(f"transform: method={run.method.value} N={plan.n_steps} K={plan.k_intervals} "
          f"max|x err|={run.max_error(0):.4g} -> {sol_path.parent}")
    return 0


def cmd_compare(cfg: dict) -> int:
    t_started = time.perf_counter()
    spec = build_benchmark(cfg)
    setups = [_transform_setup(cfg, spec, key) for key in _method_keys(cfg, "none,3")]
    oracle_steps = _oracle_steps(cfg, setups[0][1].n_steps)
    _discard_manifest(cfg)
    # run_transformed checks that each run matches this one oracle
    reference = reference_solution(spec.problem, oracle_steps)
    runs = [run_transformed(spec, plan, method, params, reference)
            for method, plan, params in setups]

    names = [run.method.value for run in runs]
    max_errors = [run.max_error(0) for run in runs]
    mean_errors = [float(np.mean(run.errors_vs_reference[:, 0])) for run in runs]
    # the improvement of each run: the first run's max |x| error over its own
    ratios = [max_errors[0] / err if err > 0 else math.inf for err in max_errors]
    summary = {
        "methods": names,
        "max_errors": dict(zip(names, max_errors)),
        "improvement_ratios": dict(zip(names, ratios)),
        "oracle_n_steps": reference.meta.get("oracle_n_steps"),
        "oracle_rhs_evals": reference.meta.get("oracle_rhs_evals"),
        "oracle_check_delta": reference.meta.get("oracle_check_delta"),
        "best_method": names[max_errors.index(min(max_errors))],
    }
    path, = _write_outputs(
        cfg, "compare", t_started, summary,
        ("compare.csv", ["method", "max_error", "mean_error", "improvement_ratio"],
         zip(names, max_errors, mean_errors, ratios)))
    print(f"compare: methods={','.join(summary['methods'])} "
          f"best={summary['best_method']} -> {path}")
    return 0


def cmd_demo_stiff_transform(cfg: dict) -> int:
    t_started = time.perf_counter()
    a = _number(cfg, "demo.a", 300.0)
    kappa_g = _number(cfg, "demo.kappa_g", -1.0)
    if not (0 < a < math.inf and -math.inf < kappa_g < 0):
        raise ConfigError(f"demo.a must be finite and > 0 and demo.kappa_g finite and < 0, "
                          f"got {a!r} and {kappa_g!r}")
    eps = _eps(cfg)
    _discard_manifest(cfg)
    rep = stiff_transform_demo(a, kappa_g, eps)
    summary = {
        "a": rep.a, "kappa_g": rep.kappa_g, "eps": rep.eps,
        "dt_stiff_u": rep.dt_stiff_u, "dt_max_z": rep.dt_max_z,
        "ratio": rep.ratio, "capped": rep.capped,
    }
    path, = _write_outputs(
        cfg, "demo-stiff-transform", t_started, summary,
        ("stiff_transform_demo.csv", ["a", "kappa_f", "kappa_g", "eps", "decay_rate",
                                      "kappa_z_max", "dt_stiff_u", "dt_max_z", "ratio"],
         [[rep.a, rep.kappa_f, rep.kappa_g, rep.eps, rep.decay_rate,
           rep.kappa_z_max, rep.dt_stiff_u, rep.dt_max_z, rep.ratio]]))
    print(f"demo-stiff-transform: a={a:g} ratio dt_max_z/dt_stiff_u = {rep.ratio:.4g} "
          f"(same order: {0.1 <= rep.ratio <= 10}) -> {path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are configuration errors (exit 1)."""

    def error(self, message: str):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    """The parser of the command and ``--config``; ``load_config`` reads the rest."""
    aliases = "".join(f"\n  --{flag:<15}{key}" for flag, key in FLAGS.items())
    parser = _Parser(
        prog="stiffchaos", allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Stiffness/chaoticity diagnostics and chaos-mitigating "
                    "transformation experiments for small ODE systems.",
        epilog="--KEY VALUE or --KEY=VALUE sets any config key (--solver.steps 600, "
               "--out DIR), a later one winning.\nAliases:" + aliases)
    parser.add_argument("command", choices=("solve", "diagnose", "transform", "compare",
                                            "demo-stiff-transform"))
    parser.add_argument("--config", help="a JSON config file, read before any other setting")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, extras = make_parser().parse_known_args(argv)
        cfg = load_config(args, extras)
        # looked up at call time, so a patched cmd_* runs
        return globals()["cmd_" + args.command.replace("-", "_")](cfg)
    except ArithmeticError as exc:
        # the library's numerical failures (NonFiniteState, ...) are ArithmeticErrors
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, OSError) as exc:
        # a ConfigError, a library precondition, "Unable to allocate ...", a bad path
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
