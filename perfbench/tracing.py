"""Outside-in tracing of the stiffchaos layers.

The program carries no instrumentation of its own, so the tracer patches
module attributes from outside for the duration of a traced pass:

* a *span* (name, start, end, parent) around each call into a layer's
  public function, at the module attribute the caller looks it up through
  (``cli`` imports most of them by name, ``ode.reference_solution`` reaches
  ``ode.solve_rk4_fixed``, and so on);
* *counters* on the hot inner functions, where a span per call would cost
  more than the call: the spec's ``rhs`` and ``jacobian`` (wrapped on the
  spec that ``cli.build_benchmark`` returns), ``ode.gauss_solve`` and
  ``local_eigenvalues`` in every module that calls it.

Spans are kept in memory and written once, when the benchmark ends.  Span
names are ``<layer>.<function>``; a layer's self time is the duration of
its spans minus the part covered by their child spans.  Every wrapper
returns exactly what the wrapped call returns.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from dataclasses import replace
from statistics import median
from typing import Callable, Iterable

LAYERS = ("cli", "ode", "problems", "diagnostics", "transform")
SUBCOMMANDS = ("solve", "diagnose", "transform", "compare")


class Span:
    __slots__ = ("name", "start", "end", "parent", "rhs", "jac")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rhs = 0
        self.jac = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "rhs_evals": self.rhs, "jac_evals": self.jac}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.busy_seconds: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args)`` runs once the
        span has closed, to read counts off the arguments or the result."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            s = Span(name, 0.0, stack[-1] if stack else -1)
            spans.append(s)
            stack.append(idx)
            rhs0, jac0 = counts["rhs"], counts["jac"]
            s.start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                s.end = time.perf_counter()
                stack.pop()
                s.rhs = counts["rhs"] - rhs0
                s.jac = counts["jac"] - jac0
            if after is not None:
                after(return_value, args)
            return return_value

        return traced

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_tu(self, key: str, fn: Callable) -> Callable:
        """``counted`` for a ``(t, u)`` callable such as rhs or jacobian; the
        fixed signature spares these hot calls the argument packing."""
        counts = self.counts

        def wrapper(t, u):
            counts[key] += 1
            return fn(t, u)

        return wrapper

    def timed_counted(self, key: str, fn: Callable) -> Callable:
        counts, busy = self.counts, self.busy_seconds
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[key] += clock() - start

        return wrapper

    def counted_rows(self, rows: Iterable) -> Iterable:
        for row in rows:
            self.counts["csv_rows"] += 1
            yield row

    # -- patching ----------------------------------------------------------

    def patches(self) -> list[tuple[object, str, Callable]]:
        """(module, attribute, replacement) for every traced boundary."""
        from stiffchaos import cli, diagnostics, ode, problems, transform

        counts = self.counts

        def add(key: str, amount_of: Callable):
            return lambda result, args: counts.update({key: amount_of(result, args)})

        def instrumented_spec(spec):
            problem = replace(spec.problem, rhs=self.counted_tu("rhs", spec.problem.rhs),
                              jacobian=self.counted_tu("jac", spec.problem.jacobian))
            return replace(spec, problem=problem,
                           variational_jacobian=self.counted_tu("jac", spec.variational_jacobian))

        build = self.span("cli.build_benchmark", cli.build_benchmark)
        csv_span = self.span("cli.write_csv", cli.write_csv)

        def write_csv(path, header, rows):
            csv_span(path, header, self.counted_rows(rows))
            counts["csv_bytes"] += path.stat().st_size

        def steps_and_attempts(prefix: str):
            def after(traj, args):
                counts[prefix + "_taken"] += traj.steps_taken
                counts[prefix + "_attempts"] += traj.steps_taken + traj.steps_rejected
            return after

        rk4_fixed = self.span("ode.solve_rk4_fixed", ode.solve_rk4_fixed,
                              add("rk4_fixed_steps", lambda r, a: a[1]))
        curvature = self.span("diagnostics.curvature_along", diagnostics.curvature_along)
        eig = self.counted("eig", diagnostics.local_eigenvalues)
        out = [
            (cli, "main", self.span("cli.main", cli.main)),
            (cli, "load_config", self.span("cli.load_config", cli.load_config)),
            (cli, "build_benchmark", lambda cfg: instrumented_spec(build(cfg))),
            (cli, "write_csv", write_csv),
            (cli, "write_manifest", self.span("cli.write_manifest", cli.write_manifest)),
            (cli, "reference_solution",
             self.span("ode.reference_solution", cli.reference_solution,
                       add("oracle_steps", lambda r, a: a[1] + a[1] // 2))),
            (cli, "solve_rk4_fixed", rk4_fixed),
            (ode, "solve_rk4_fixed", rk4_fixed),
            (cli, "solve_rk4_adaptive",
             self.span("ode.solve_rk4_adaptive", cli.solve_rk4_adaptive,
                       steps_and_attempts("rk4_adaptive"))),
            (cli, "solve_trapezoid_adaptive",
             self.span("ode.solve_trapezoid_adaptive", cli.solve_trapezoid_adaptive,
                       steps_and_attempts("trapezoid"))),
            (ode, "gauss_solve", self.timed_counted("gauss", ode.gauss_solve)),
            (cli, "lle_scan", self.span("problems.lle_scan", cli.lle_scan)),
            (cli, "stiffness_report",
             self.span("diagnostics.stiffness_report", cli.stiffness_report)),
            (diagnostics, "curvature_along", curvature),
            (transform, "curvature_along", curvature),
            (diagnostics, "local_eigenvalues", eig),
            (problems, "local_eigenvalues", eig),
            (transform, "local_eigenvalues", eig),
            (cli, "run_transformed",
             self.span("transform.run_transformed", cli.run_transformed,
                       add("transform_steps", lambda r, a: r.plan.n_steps))),
            (cli, "step_extension_report",
             self.span("transform.step_extension_report", cli.step_extension_report)),
        ]
        for sub in SUBCOMMANDS:
            attr = f"cmd_{sub}"
            out.append((cli, attr, self.span(f"cli.{sub}", getattr(cli, attr))))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced boundaries for the duration of the block."""
        patches = self.patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span durations minus their child spans."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.seconds
        out = dict.fromkeys(LAYERS, 0.0)
        for s, child in zip(self.spans, covered):
            out[s.name.split(".", 1)[0]] += s.seconds - child
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass; layers the workload leaves idle
        report 0."""
        total: dict[str, float] = defaultdict(float)
        rhs_in: dict[str, int] = defaultdict(int)
        for s in self.spans:
            total[s.name] += s.seconds
            rhs_in[s.name] += s.rhs
        c = self.counts

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        attempts = c["rk4_adaptive_attempts"]
        m = {
            "ode.oracle_s": total["ode.reference_solution"],
            "ode.oracle_steps": c["oracle_steps"],
            "ode.rk4_fixed_s": total["ode.solve_rk4_fixed"],
            "ode.rk4_fixed_steps": c["rk4_fixed_steps"],
            "ode.rk4_fixed_steps_per_s": rate(c["rk4_fixed_steps"],
                                              total["ode.solve_rk4_fixed"]),
            "ode.rk4_adaptive_s": total["ode.solve_rk4_adaptive"],
            "ode.rk4_adaptive_attempts": attempts,
            "ode.rk4_adaptive_accept_ratio": rate(c["rk4_adaptive_taken"], attempts),
            "ode.rk4_adaptive_rhs_per_attempt": rate(rhs_in["ode.solve_rk4_adaptive"],
                                                     attempts),
            "ode.trapezoid_s": total["ode.solve_trapezoid_adaptive"],
            "ode.trapezoid_attempts": c["trapezoid_attempts"],
            "ode.gauss_solves": c["gauss"],
            "ode.gauss_solve_s": self.busy_seconds["gauss"],
            "problems.rhs_evals": c["rhs"],
            "problems.jac_evals": c["jac"],
            "problems.lle_scan_s": total["problems.lle_scan"],
            "diagnostics.stiffness_report_s": total["diagnostics.stiffness_report"],
            "diagnostics.curvature_s": total["diagnostics.curvature_along"],
            "diagnostics.eig_calls": c["eig"],
            "transform.run_transformed_s": total["transform.run_transformed"],
            "transform.steps": c["transform_steps"],
            "transform.step_extension_s": total["transform.step_extension_report"],
            "cli.csv_s": total["cli.write_csv"],
            "cli.csv_rows": c["csv_rows"],
            "cli.csv_bytes": c["csv_bytes"],
            "cli.csv_rows_per_s": rate(c["csv_rows"], total["cli.write_csv"]),
            "cli.config_s": total["cli.load_config"],
            "cli.manifest_s": total["cli.write_manifest"],
        }
        for sub in SUBCOMMANDS:
            m[f"cli.{sub}_s"] = total[f"cli.{sub}"]
        for layer, seconds in self.self_seconds().items():
            m[f"{layer}.self_s"] = seconds
        return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(p[name] for p in passes) for name in passes[0]}
