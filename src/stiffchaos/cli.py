"""Command-line experiment driver.

Subcommands: ``solve`` (one trajectory to CSV), ``diagnose`` (stiffness
report + local-Lyapunov scan), ``transform`` (interval-segmented integration
of the exponentially transformed system with error/mu/step-extension CSVs),
``compare`` (method sweep against a shared oracle), ``demo-stiff-transform``
(the linear no-go demonstration).  ``transform`` and ``compare`` take the
reference shift/scale triples by default, so they run on any 3-component
problem (lorenz84, robertson); other dimensions need all of
``transform.eps_scale``, ``transform.mu_init`` and ``transform.coeffs`` with
one number per component, and ``transform`` writes three-component outputs.

Input is validated before any integration, and ``--out`` is created only
once a command has its results to write.

Every run writes a ``manifest.json`` echoing the resolved configuration and
summary metrics recomputed from the emitted CSVs.  Numbers are printed with
17 significant digits so CSV output is byte-stable and round-trips exactly.

Exit codes: 0 success (a stagnated adaptive run is a success with its
stagnation recorded), 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .diagnostics import stiffness_report
from .ode import (
    AdaptiveConfig,
    NewtonDivergence,
    NonFiniteState,
    OracleNotConverged,
    RK4_ADAPTIVE,
    RK4_FIXED,
    TRAPEZOID_ADAPTIVE,
    Trajectory,
    reference_solution,
    solve_rk4_adaptive,
    solve_rk4_fixed,
    solve_trapezoid_adaptive,
)
from .problems import BenchmarkSpec, PROBLEM_FACTORIES, _is_number, lle_scan, make_problem
from .transform import (
    DEFAULT_COEFFS,
    ExponentOverflow,
    GAMMA_FLOW,
    GAMMA_SOURCES,
    IntervalPlan,
    METHOD_BY_NUMBER,
    METHOD_MU_INIT,
    METHOD_STEPS_PER_INTERVAL,
    MuMethod,
    TransformRun,
    params_for_method,
    run_transformed,
    step_extension_report,
    stiff_transform_demo,
)

SOLVER_NAMES = {
    "rk4": RK4_FIXED,
    "rk4-adaptive": RK4_ADAPTIVE,
    "trapezoid": TRAPEZOID_ADAPTIVE,
}

DEFAULT_ORACLE_REFINE = 2  # GBS macro steps per run step
DEFAULT_EPS = 1e-3


class ConfigError(ValueError):
    """Invalid configuration (bad flag value, unknown field, missing file)."""


def fmt(x: float) -> str:
    """Full round-trip float formatting for CSV cells."""
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])


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
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if "," in text:
            try:
                return [float(p) for p in text.split(",")]
            except ValueError:
                return text
        return text


def load_config(args: argparse.Namespace, extras: list[str]) -> dict:
    """Merge config file, CLI flags, and dotted overrides (later wins)."""
    cfg: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: line {exc.lineno}, col {exc.colno}: {exc.msg}")
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {path}: top level must be an object")

    # every flag's dest is the config key it fills (see _add_common)
    for dotted, val in vars(args).items():
        if val is not None and dotted not in ("command", "func", "config"):
            _set_dotted(cfg, dotted, val)

    if len(extras) % 2:
        raise ConfigError(f"dangling override {extras[-1]!r} (expected '--a.b value' pairs)")
    for key, value in zip(extras[::2], extras[1::2]):
        if not key.startswith("--"):
            raise ConfigError(f"unrecognized argument {key!r}")
        _set_dotted(cfg, key[2:], _parse_override_value(value))
    return cfg


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
    try:
        spec = make_problem(name, params=params, u0=u0, t_span=section.get("t_span"))
        if section.get("tf") is not None:
            # --tf keeps the start time of the (possibly overridden) t_span
            spec = make_problem(name, params=params, u0=u0,
                                t_span=[spec.problem.t_span[0], float(section["tf"])])
        return spec
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"problem: {exc}") from None


def build_adaptive_config(cfg: dict, spec: BenchmarkSpec) -> AdaptiveConfig:
    section = cfg.get("solver", {})
    horizon = spec.problem.horizon
    try:
        return AdaptiveConfig(
            tol=float(section.get("tol", 1e-3)),
            dt_init=float(section.get("dt_init", horizon * 1e-4)),
            dt_min=float(section.get("dt_min", 1e-12)),
            dt_max=float(section.get("dt_max", math.inf)),
            max_steps=int(section.get("max_steps", 100_000)),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None


def run_solver(cfg: dict, spec: BenchmarkSpec) -> Trajectory:
    section = cfg.get("solver", {})
    name = section.get("name", "rk4")
    if name not in SOLVER_NAMES:
        raise ConfigError(f"solver.name: unknown solver {name!r}; "
                          f"choose from {sorted(SOLVER_NAMES)}")
    solver = SOLVER_NAMES[name]
    if solver == RK4_FIXED:
        steps = section.get("steps")
        if steps is None:
            raise ConfigError("solver.steps is required for --solver rk4")
        return solve_rk4_fixed(spec.problem, int(steps))
    acfg = build_adaptive_config(cfg, spec)
    if solver == RK4_ADAPTIVE:
        return solve_rk4_adaptive(spec.problem, acfg)
    return solve_trapezoid_adaptive(spec.problem, acfg)


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
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for p in outputs:
        if not p.exists():
            raise RuntimeError(f"declared output missing: {p}")
    return manifest


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_solve(cfg: dict) -> int:
    t_started = time.perf_counter()
    spec = build_benchmark(cfg)
    traj = run_solver(cfg, spec)
    out = _out_dir(cfg)
    dim = traj.dim
    path = out / "solution.csv"
    header = ["t"] + [f"u{i + 1}" for i in range(dim)]
    write_csv(path, header, ([traj.times[i]] + list(traj.states[i])
                             for i in range(len(traj.times))))
    summary = {
        "problem": spec.problem.name,
        "solver": traj.solver_id,
        "steps_taken": traj.steps_taken,
        "steps_rejected": traj.steps_rejected,
        "stagnated": traj.stagnated,
        "t_reached": traj.t_reached,
        "final_state": [float(v) for v in traj.states[-1]],
    }
    write_manifest(out, "solve", cfg, summary, [path], t_started)
    status = "stagnated at t=%.6g" % traj.t_reached if traj.stagnated else "completed"
    print(f"solve: {spec.problem.name} {traj.solver_id} {status} "
          f"({traj.steps_taken} steps, {traj.steps_rejected} rejected) -> {path}")
    return 0


def cmd_diagnose(cfg: dict) -> int:
    t_started = time.perf_counter()
    spec = build_benchmark(cfg)
    eps = float(cfg.get("eps", DEFAULT_EPS))
    if not eps > 0:
        raise ConfigError(f"eps must be > 0, got {eps!r}")
    component = int(cfg.get("scan", {}).get("component", 0))
    n_samples = int(cfg.get("scan", {}).get("n_samples", 400))
    traj = run_solver(cfg, spec)

    report = stiffness_report(traj, spec.problem, spec.variational_jacobian,
                              eps=eps, component=component)
    trace = lle_scan(spec, traj, n_samples)
    out = _out_dir(cfg)
    stiff_path = out / "stiffness.csv"
    write_csv(stiff_path, ["t", "kappa", "dt_max", "dt_stiff", "Q", "R"],
              ([report.times[i], report.kappa[i], report.dt_max[i],
                report.dt_stiff[i], report.q[i], report.r[i]]
               for i in range(len(report.times))))

    dim = spec.problem.dim
    header = ["t"]
    for i in range(dim):
        header += [f"re_g{i + 1}", f"im_g{i + 1}"]
    header += ["gamma_max", "gamma_min"]

    def lle_rows():
        for i in range(len(trace.times)):
            row = [trace.times[i]]
            for v in trace.values[i]:
                row += [v.real, v.imag]
            row += [trace.gamma_max[i], trace.gamma_min[i]]
            yield row

    lle_path = out / "lle.csv"
    write_csv(lle_path, header, lle_rows())

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
    write_manifest(out, "diagnose", cfg, summary, [stiff_path, lle_path], t_started)
    print(f"diagnose: {spec.problem.name} eps={eps:g} "
          f"Q=1 crossing={crossing} -> {stiff_path}, {lle_path}")
    return 0


def _vector(section: dict, key: str, default, spec: BenchmarkSpec) -> tuple[float, ...]:
    """``transform.<key>`` as one number per state component."""
    value = section.get(key, default)
    dim = spec.problem.dim
    if not (isinstance(value, (list, tuple)) and len(value) == dim and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"transform.{key}: {spec.problem.name} needs a list of "
                          f"{dim} numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _transform_setup(cfg: dict, spec: BenchmarkSpec):
    section = cfg.get("transform", {})
    method_key = str(section.get("method", "3"))
    if method_key not in METHOD_BY_NUMBER:
        raise ConfigError(f"transform.method: unknown method {method_key!r}; "
                          f"choose from {sorted(METHOD_BY_NUMBER)}")
    method = METHOD_BY_NUMBER[method_key]
    n_steps = int(cfg.get("solver", {}).get("steps", 600))
    intervals = section.get("intervals")
    if intervals is None:
        spi = METHOD_STEPS_PER_INTERVAL[method]
        intervals = 1 if spi is None else max(1, n_steps // spi)
    try:
        plan = IntervalPlan(n_steps, int(intervals), spec.problem.t_span)
    except ValueError as exc:
        raise ConfigError(f"transform: {exc}") from None
    params = params_for_method(
        method,
        eps_scale=_vector(section, "eps_scale", (1.0, 1.0, 1.0), spec),
        q=float(section.get("q", 1.0)),
        coeffs=_vector(section, "coeffs", DEFAULT_COEFFS, spec),
        mu_init=_vector(section, "mu_init", METHOD_MU_INIT[method], spec),
    )
    gamma_source = section.get("gamma_source", GAMMA_FLOW)
    if gamma_source not in GAMMA_SOURCES:
        raise ConfigError(f"transform.gamma_source: choose from {GAMMA_SOURCES}")
    return method, plan, params, gamma_source


def _oracle_for(cfg: dict, spec: BenchmarkSpec, n_steps: int) -> Trajectory:
    refine = int(cfg.get("oracle", {}).get("refine", DEFAULT_ORACLE_REFINE))
    if refine < 1:
        raise ConfigError("oracle.refine must be >= 1")
    if n_steps * refine % 2:
        raise ConfigError(f"oracle.refine x steps = {n_steps * refine} must be even "
                          f"(the oracle's gate halves it)")
    return reference_solution(spec.problem, n_steps * refine)


def _write_transform_outputs(out: Path, run: TransformRun, reference: Trajectory,
                             tag: str = "") -> list[Path]:
    sol = run.solution
    prefix = f"{tag}_" if tag else ""
    sol_path = out / f"{prefix}solution.csv"
    write_csv(sol_path, ["t", "u1", "u2", "u3"],
              ([sol.times[i]] + list(sol.states[i]) for i in range(len(sol.times))))
    err_path = out / f"{prefix}errors.csv"
    write_csv(err_path, ["t", "err_x", "err_y", "err_z"],
              ([sol.times[i]] + list(run.errors_vs_reference[i])
               for i in range(len(sol.times))))
    mu_path = out / f"{prefix}mu_history.csv"
    interval_starts = run.plan.t_span[0] + run.plan.interval_length * np.arange(run.plan.k_intervals)
    write_csv(mu_path, ["interval", "t_start", "mu1", "mu2", "mu3", "gamma_max"],
              ([str(k), interval_starts[k], run.mu_history[k][0], run.mu_history[k][1],
                run.mu_history[k][2], run.gamma_max_history[k]]
               for k in range(run.plan.k_intervals)))
    ext = step_extension_report(run, reference, max(run.max_error(0), 1e-300))
    delta = run.plan.dt
    ext_path = out / f"{prefix}step_extension.csv"
    write_csv(ext_path, ["t", "dt_max", "delta"],
              ([ext[i, 0], ext[i, 1], delta] for i in range(len(ext))))
    return [sol_path, err_path, mu_path, ext_path]


def cmd_transform(cfg: dict) -> int:
    t_started = time.perf_counter()
    spec = build_benchmark(cfg)
    method, plan, params, gamma_source = _transform_setup(cfg, spec)
    if spec.problem.dim != 3:
        raise ConfigError(f"transform writes three-component outputs; "
                          f"{spec.problem.name} has {spec.problem.dim} components")
    reference = _oracle_for(cfg, spec, plan.n_steps)
    run = run_transformed(spec, plan, method, params, reference, gamma_source)
    out = _out_dir(cfg)
    outputs = _write_transform_outputs(out, run, reference)
    summary = {
        "problem": spec.problem.name,
        "method": run.method.value,
        "n_steps": plan.n_steps,
        "k_intervals": plan.k_intervals,
        "gamma_source": gamma_source,
        "oracle_n_steps": reference.meta.get("oracle_n_steps"),
        "oracle_rhs_evals": reference.meta.get("oracle_rhs_evals"),
        "oracle_check_delta": reference.meta.get("oracle_check_delta"),
        "max_abs_error": {
            "x": run.max_error(0), "y": run.max_error(1), "z": run.max_error(2),
        },
    }
    write_manifest(out, "transform", cfg, summary, outputs, t_started)
    print(f"transform: method={run.method.value} N={plan.n_steps} K={plan.k_intervals} "
          f"max|x err|={run.max_error(0):.4g} -> {out}")
    return 0


class MismatchedBaseline(ValueError):
    """compare runs must share problem and oracle."""


def compare_runs(runs: list[TransformRun]) -> list[dict]:
    """Summary rows (max/mean |x| error, improvement vs the first run)."""
    if not runs:
        raise MismatchedBaseline("no runs to compare")
    first = runs[0]
    for run in runs[1:]:
        if run.problem.params != first.problem.params or \
                run.plan.t_span != first.plan.t_span or \
                run.errors_vs_reference.shape != first.errors_vs_reference.shape:
            raise MismatchedBaseline("compare requires identical problem and oracle")
    base_err = first.max_error(0)
    rows = []
    for run in runs:
        max_err = run.max_error(0)
        rows.append({
            "method": run.method.value,
            "max_error": max_err,
            "mean_error": float(np.mean(run.errors_vs_reference[:, 0])),
            "improvement_ratio": base_err / max_err if max_err > 0 else math.inf,
        })
    return rows


def cmd_compare(cfg: dict) -> int:
    t_started = time.perf_counter()
    spec = build_benchmark(cfg)
    section = cfg.get("transform", {})
    methods = [m.strip() for m in str(section.get("method", "none,3")).split(",")]
    setups = [_transform_setup({**cfg, "transform": {**section, "method": m}}, spec)
              for m in methods]
    reference = _oracle_for(cfg, spec, setups[0][1].n_steps)
    runs = [run_transformed(spec, plan, method, params, reference, gamma_source)
            for method, plan, params, gamma_source in setups]

    rows = compare_runs(runs)
    out = _out_dir(cfg)
    path = out / "compare.csv"
    write_csv(path, ["method", "max_error", "mean_error", "improvement_ratio"],
              ([r["method"], r["max_error"], r["mean_error"], r["improvement_ratio"]]
               for r in rows))
    summary = {
        "methods": [r["method"] for r in rows],
        "max_errors": {r["method"]: r["max_error"] for r in rows},
        "improvement_ratios": {r["method"]: r["improvement_ratio"] for r in rows},
        "oracle_n_steps": reference.meta.get("oracle_n_steps"),
        "oracle_rhs_evals": reference.meta.get("oracle_rhs_evals"),
        "oracle_check_delta": reference.meta.get("oracle_check_delta"),
        "best_method": min(rows, key=lambda r: r["max_error"])["method"],
    }
    write_manifest(out, "compare", cfg, summary, [path], t_started)
    print(f"compare: methods={','.join(summary['methods'])} "
          f"best={summary['best_method']} -> {path}")
    return 0


def cmd_demo_stiff_transform(cfg: dict) -> int:
    t_started = time.perf_counter()
    section = cfg.get("demo", {})
    a = float(section.get("a", 300.0))
    kappa_g = float(section.get("kappa_g", -1.0))
    eps = float(cfg.get("eps", DEFAULT_EPS))
    rep = stiff_transform_demo(a, kappa_g, eps)
    out = _out_dir(cfg)
    path = out / "stiff_transform_demo.csv"
    write_csv(path, ["a", "kappa_f", "kappa_g", "eps", "decay_rate",
                     "kappa_z_max", "dt_stiff_u", "dt_max_z", "ratio"],
              [[rep.a, rep.kappa_f, rep.kappa_g, rep.eps, rep.decay_rate,
                rep.kappa_z_max, rep.dt_stiff_u, rep.dt_max_z, rep.ratio]])
    summary = {
        "a": rep.a, "kappa_g": rep.kappa_g, "eps": rep.eps,
        "dt_stiff_u": rep.dt_stiff_u, "dt_max_z": rep.dt_max_z,
        "ratio": rep.ratio, "capped": rep.capped,
    }
    write_manifest(out, "demo-stiff-transform", cfg, summary, [path], t_started)
    print(f"demo-stiff-transform: a={a:g} ratio dt_max_z/dt_stiff_u = {rep.ratio:.4g} "
          f"(same order: {0.1 <= rep.ratio <= 10}) -> {path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are configuration errors (exit 1)."""

    def error(self, message: str):
        raise ConfigError(message)


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers, one per state component (``_vector`` counts them)."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated numbers, got {text!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    """Each flag's ``dest`` is the config key it fills."""
    p.add_argument("--problem", dest="problem.name", choices=sorted(PROBLEM_FACTORIES))
    p.add_argument("--solver", dest="solver.name", choices=sorted(SOLVER_NAMES))
    p.add_argument("--steps", dest="solver.steps", type=int)
    p.add_argument("--intervals", dest="transform.intervals", type=int)
    p.add_argument("--method", dest="transform.method")
    p.add_argument("--tol", dest="solver.tol", type=float)
    p.add_argument("--eps", dest="eps", type=float)
    p.add_argument("--tf", dest="problem.tf", type=float)
    p.add_argument("--dt-init", dest="solver.dt_init", type=float)
    p.add_argument("--max-steps", dest="solver.max_steps", type=int)
    p.add_argument("--config")
    p.add_argument("--out", dest="out")
    p.add_argument("--samples", dest="scan.n_samples", type=int)
    p.add_argument("--q", dest="transform.q", type=float)
    p.add_argument("--mu-init", dest="transform.mu_init", type=_float_list)
    p.add_argument("--coeffs", dest="transform.coeffs", type=_float_list)
    p.add_argument("--oracle-refine", dest="oracle.refine", type=int)
    p.add_argument("--a", dest="demo.a", type=float)
    p.add_argument("--kappa-g", dest="demo.kappa_g", type=float)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stiffchaos",
        description="Stiffness/chaoticity diagnostics and chaos-mitigating "
                    "transformation experiments for small ODE systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("diagnose", cmd_diagnose),
                     ("transform", cmd_transform), ("compare", cmd_compare),
                     ("demo-stiff-transform", cmd_demo_stiff_transform)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, extras = make_parser().parse_known_args(argv)
        cfg = load_config(args, extras)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteState, NewtonDivergence, OracleNotConverged,
            ExponentOverflow, MismatchedBaseline, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a library precondition on the input (e.g. --steps 0, --eps -1)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
