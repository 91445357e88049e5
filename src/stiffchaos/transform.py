"""Exponential variable transformation x_i = exp(mu_i t) z_i, stepped as
Lawson's integrating-factor RK4.

With M = diag(mu_i) the substitution conjugates any problem du/dt = f(t, u)
into a z-system whose Jacobian is e^{-Mt} (J(t, x) - M) e^{Mt}: the local
Lyapunov exponents are shifted down by mu_i.  Chosen well, the mu_i make a
chaotic z-system asymptotically stable, so the fixed-step RK4 errors are
damped instead of amplified; the exact back-transformation then recovers x
far more accurately than integrating the original system.  Fixed-step RK4 on
the z-system, transformed back, is in exact arithmetic Lawson's RK4 for
x' = Mx + (f - Mx) (Lawson 1967; Hochbruck & Ostermann 2010), so
``run_transformed`` steps the x of an ``OdeProblem`` of one to three
components, one mu_i each, through the one RK4 march, ``ode._rk4_march3``,
which needs only the step factors exp(mu_i h/2) and exp(mu_i h).  The
problem's t_span is split into K intervals of N/K steps
(``TransformRun.interval_starts``), one shift per interval, the endpoint of
one interval seeding the next.

Four strategies pick the mu_i per interval, each a row of ``METHOD_RULES``:
``select_mu`` holds mu_init (method 1 throughout) until the method's mean of
the gamma_max history of J at the interval starts has a value, then takes
the multipliers times the last one (method 2) or the mean of all (method 3)
or of the last two (method 4).  A setting left out comes from the problem
(``params_for_method``): the paper's triples on Lorenz-84, elsewhere
mu_init = gamma_max of J(t0, u0) and multipliers 1.

``stiff_transform_demo`` shows the negative result for stiff problems: a
linear transform z = (u - B)/A with A(t) = A(0) exp((kf - kg) t) makes the
stiff-linear problem asymptotically stable, but resolving z then needs steps
of the same order the stiffness bound imposed on u in the first place.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .diagnostics import (
    KAPPA_STIFF_PEAK,
    LleTrace,
    curvature_along,
    dt_max,
    dt_stiff,
    eigenvalues_along,
    local_eigenvalues,
)
from .ode import (
    Jacobian,
    NonFiniteState,
    OdeProblem,
    RK4_FIXED,
    State,
    Trajectory,
    _fixed_grid,
    _freeze,
    _rk4_march3,
    problem_fingerprint,
)
from .problems import lorenz84, nearest_sample_indices, stiff_linear

class MuMethod(str, Enum):
    NONE = "none"            # identity transform, plain RK4
    FIXED_MU = "fixed_mu"            # method 1
    LOCAL_GAMMA = "local_gamma"      # method 2
    CUMULATIVE_AVG = "cumulative_avg"  # method 3
    WINDOW_AVG = "window_avg"        # method 4


METHOD_BY_NUMBER = dict(zip(("none", "1", "2", "3", "4"), MuMethod))

# Each method's steps per interval (None: one interval), the mean of the gamma_max
# history its shift follows (None: it keeps mu_init) and the TransformParams fields it reads.
ShiftRule = namedtuple("ShiftRule", "steps_per_interval mean reads")
METHOD_RULES = {
    MuMethod.NONE: ShiftRule(None, None, ()),
    MuMethod.FIXED_MU: ShiftRule(10, None, ("mu_init",)),
    MuMethod.LOCAL_GAMMA: ShiftRule(10, lambda h: h[-1], ("coeffs", "mu_init")),
    MuMethod.CUMULATIVE_AVG: ShiftRule(40, lambda h: sum(h) / len(h), ("coeffs", "mu_init")),
    MuMethod.WINDOW_AVG: ShiftRule(40, lambda h: sum(h[-2:]) / len(h[-2:]), ("coeffs", "mu_init")),
}

# Lorenz-84's defaults, the paper's triples: each method's first-interval mu,
# and the multipliers (method 2: the paper's q = 1; methods 3 and 4: DEFAULT_COEFFS)
METHOD_MU_INIT = {
    MuMethod.FIXED_MU: (2.592, 1.944, 1.539),
    MuMethod.LOCAL_GAMMA: (2.0, 2.0, 2.0),
    MuMethod.CUMULATIVE_AVG: (2.16, 1.62, 1.28),
    MuMethod.WINDOW_AVG: (2.16, 1.62, 1.28),
}
METHOD_COEFFS = {MuMethod.LOCAL_GAMMA: (1.0, 1.0, 1.0)}
DEFAULT_COEFFS = (1.5, 0.66, 0.5)


@dataclass(frozen=True)
class TransformParams:
    """Transformation constants: the multipliers of the mean gamma_max
    (methods 2-4) and the first-interval shifts mu_i (method 1 keeps them).
    Every vector has one component per state component.  The field defaults
    are not every method's: method 2 reads ``coeffs`` too, and its paper
    default (1, 1, 1) comes from ``params_for_method``."""

    coeffs: tuple[float, ...] = DEFAULT_COEFFS
    mu_init: tuple[float, ...] = (0.0, 0.0, 0.0)


def params_for_method(method: MuMethod, problem: OdeProblem | None = None, *,
                      coeffs=None, mu_init=None) -> TransformParams:
    """``method``'s TransformParams on ``problem``, a setting not given from the
    defaults: on Lorenz-84 (or no problem) the paper's triples (method 2's
    coeffs (1, 1, 1)), elsewhere mu_init = gamma_max of J(t0, u0) (a zero as
    0.0, not -0.0) in each component and coeffs = 1.  Method none shifts by 0."""
    paper = problem is None or problem.name == "lorenz84"
    dim = 3 if problem is None else problem.dim
    if method is MuMethod.NONE:
        mu_init = (0.0,) * (dim if mu_init is None else len(mu_init))
    elif mu_init is None:
        mu_init = METHOD_MU_INIT[method] if paper else (0.0 + float(local_eigenvalues(
            problem.jacobian(problem.t_span[0], problem.u0)).gamma_max),) * dim
    if coeffs is None:
        coeffs = METHOD_COEFFS.get(method, DEFAULT_COEFFS) if paper else (1.0,) * dim
    return TransformParams(tuple(coeffs), tuple(mu_init))


@dataclass(frozen=True)
class IntervalPlan:
    """N fixed steps over the problem's t_span in K intervals of N/K steps each."""

    n_steps: int
    k_intervals: int

    def __post_init__(self):
        if self.n_steps < 1 or self.k_intervals < 1:
            raise ValueError("need n_steps >= 1 and k_intervals >= 1")
        if self.n_steps % self.k_intervals:
            raise ValueError(
                f"k_intervals={self.k_intervals} must divide n_steps={self.n_steps}")

    @property
    def steps_per_interval(self) -> int:
        return self.n_steps // self.k_intervals


def shifted_jacobian(jac: Jacobian, t: float, z: State, mu: Sequence[float]):
    """J* = J(t, z) - diag(mu), the z-system's Jacobian at the start of an
    interval; in lanes (see ``OdeProblem``) when t, z and mu hold one lane
    per sample."""
    rows = []
    for i, (row, m_i) in enumerate(zip(jac(t, z), mu)):
        shifted = list(row)
        shifted[i] -= m_i
        rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=8)
def _lorenz84_problem(a: float, b: float, f: float, g: float) -> OdeProblem:
    return lorenz84(a=a, b=b, F=f, G=g).problem


def transformed_rhs(params: TransformParams, t_local: float, z: State,
                    a: float, b: float, f: float, g: float) -> State:
    """The Lorenz-84 z-system dz_i/dt = e^{-mu_i t} f_i(t, e^{M t} z) - mu_i z_i
    in interval-local time, mu = params.mu_init.  The transform itself steps
    x (``run_transformed``); this is kept only for the benchmark's rhs
    microbenchmark (ROADMAP item 5)."""
    m1, m2, m3 = params.mu_init
    x, y, w = z
    s1, s2, s3 = math.exp(m1 * t_local), math.exp(m2 * t_local), math.exp(m3 * t_local)
    d1, d2, d3 = _lorenz84_problem(a, b, f, g).rhs(t_local, (s1 * x, s2 * y, s3 * w))
    return (d1 / s1 - m1 * x, d2 / s2 - m2 * y, d3 / s3 - m3 * w)


def select_mu(method: MuMethod, history: Sequence[float],
              params: TransformParams) -> tuple[float, ...]:
    """mu for the next interval given the gamma_max of completed ones: mu_init
    until the method's mean of them (``METHOD_RULES``) has a value to take,
    then ``params.coeffs`` times that mean."""
    rule = METHOD_RULES[method]
    if rule.mean is None or not history:
        return tuple(params.mu_init)
    gamma = rule.mean(history)
    return tuple(c * gamma for c in params.coeffs)


@dataclass(frozen=True)
class TransformRun:
    """One interval-segmented transformed run over the problem's t_span."""

    plan: IntervalPlan
    method: MuMethod
    problem: OdeProblem
    mu_history: np.ndarray          # (K, dim) mu used in each interval
    gamma_max_history: np.ndarray   # (K,) gamma_max of J at each interval start
    solution: Trajectory            # N+1 samples
    reference: Trajectory           # the reference at the same N+1 times

    def __post_init__(self):
        _freeze(self, "mu_history", "gamma_max_history")

    @property
    def dt(self) -> float:
        """The fixed step, horizon / N."""
        return self.problem.horizon / self.plan.n_steps

    @property
    def interval_starts(self) -> np.ndarray:
        """(K,) start time of each interval, t_start + k (N/K) dt."""
        k = np.arange(self.plan.k_intervals)
        return self.problem.t_span[0] + (self.dt * self.plan.steps_per_interval) * k

    @property
    def errors_vs_reference(self) -> np.ndarray:
        """(N+1, dim) absolute errors of the solution against the reference."""
        return np.abs(self.solution.states - self.reference.states)

    def max_error(self, component: int = 0) -> float:
        """Headline accuracy: max over time of the absolute error of one
        component (component 0 = x, as in the reference error plots)."""
        return float(np.max(self.errors_vs_reference[:, component]))


def _align_reference(reference: Trajectory, plan: IntervalPlan,
                     problem: OdeProblem) -> int:
    """Stride from the reference grid to the run's N+1 sample times.

    The reference must span exactly the problem's t_span, start from its
    u0 exactly and, when it carries ``reference_solution``'s problem stamp,
    have been computed for the run's problem.
    """
    m = len(reference.times) - 1
    n = plan.n_steps
    if m % n:
        raise ValueError(
            f"reference resolution ({m} steps) is not a multiple of the run's {n} steps")
    t0, t1 = problem.t_span
    if abs(reference.times[0] - t0) > 1e-12 or \
            abs(reference.times[-1] - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError(
            f"reference spans [{reference.times[0]!r}, {reference.times[-1]!r}], "
            f"the run [{t0!r}, {t1!r}]")
    stamp = reference.meta.get("problem")
    if stamp is not None and stamp != problem_fingerprint(problem):
        raise ValueError(f"reference was computed for {stamp!r}, not for the run's problem")
    u_ref = tuple(map(float, reference.states[0]))
    if u_ref != problem.u0:
        raise ValueError(f"reference starts at {u_ref!r}, the run at {problem.u0!r}")
    return m // n


def run_transformed(problem: OdeProblem, plan: IntervalPlan, method: MuMethod,
                    params: TransformParams, reference: Trajectory) -> TransformRun:
    """Integrate the transformed system interval by interval over the problem's t_span.

    Per interval: a gamma_max value is recorded at its start, and N/K fixed
    steps of Lawson RK4 with that interval's shift (``ode._rk4_march3``)
    advance x from the previous interval's endpoint, the intervals in turn
    storing into the one grid store ``ode._fixed_grid`` (a dim-1 or dim-2
    problem padded, its shift by 0.0).  The run keeps ``reference`` at its
    N+1 sample times.  Every vector of ``params`` must have ``problem.dim``
    components.  A non-finite state raises ``NonFiniteState`` at its sample time.

    The recorded gamma_max history, the input to the method-2/3/4 shift
    selection, holds gamma_max of the untransformed Jacobian at each
    interval-start state: the local chaotic rate the shifts must counter.
    """
    dim = problem.dim
    for name in ("coeffs", "mu_init"):
        if len(getattr(params, name)) != dim:
            raise ValueError(f"params.{name} needs {dim} components, one per state component")
    stride = _align_reference(reference, plan, problem)
    spi = plan.steps_per_interval
    pad = (0.0,) * (3 - dim)
    mu_history: list[tuple[float, ...]] = []
    history: list[float] = []

    def march3(f3, t0, h, u3, n, out):
        for base in range(0, n, spi):
            t_k = t0 + base * h
            mu = select_mu(method, history, params)
            mu_history.append(mu)
            history.append(float(local_eigenvalues(problem.jacobian(t_k, u3[:dim])).gamma_max))
            try:
                _rk4_march3(f3, t_k, h, u3, spi, out[3 * base:], (*mu, *pad))
            except NonFiniteState as exc:
                # the march counts from t_k; report the run's sample time
                raise NonFiniteState(t0 + h * (base + round((exc.t - t_k) / h))) from None
            u3 = tuple(out[3 * (base + spi):3 * (base + spi + 1)])

    n = plan.n_steps
    times, states, _ = _fixed_grid(problem, n, march3)
    solution = Trajectory(times, states, RK4_FIXED, steps_taken=n)
    on_grid = Trajectory(reference.times[::stride], reference.states[::stride],
                         reference.solver_id, steps_taken=n)
    return TransformRun(plan=plan, method=method, problem=problem,
                        mu_history=mu_history, gamma_max_history=history,
                        solution=solution, reference=on_grid)


def jstar_scan(run: TransformRun, n_samples: int) -> LleTrace:
    """Eigenvalues of J* at equidistant scan times over a completed run.

    The interval-local z-state z = e^{-M tau} x is rebuilt from the stored
    solution, tau the time since its interval's start, and J* is evaluated
    with that interval's mu at the interval start time, one lane per scan
    sample.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    spi, sol = run.plan.steps_per_interval, run.solution
    scan_times = np.linspace(*run.problem.t_span, n_samples)
    idx = nearest_sample_indices(sol.times, scan_times)
    k = np.minimum(idx // spi, run.plan.k_intervals - 1)
    tau = (idx - k * spi) * run.dt
    mu = run.mu_history[k]
    z = sol.states[idx] * np.exp(mu * -tau[:, None])
    t_start = run.interval_starts[k]
    values = eigenvalues_along(
        lambda s: shifted_jacobian(run.problem.jacobian, t_start[s], tuple(z[s].T),
                                   tuple(mu[s].T)),
        n_samples, run.problem.dim)
    return LleTrace(times=scan_times, values=values)


def step_extension_report(run: TransformRun, eps_achieved: float) -> np.ndarray:
    """dt_max(t) from the curvature of the last component of
    ``run.reference`` (z on Lorenz-84, its least smooth one), at the run's
    sample times ``run.reference.times`` and the accuracy ``eps_achieved``.

    Returns dt_max as an (N+1,) array for comparison with the fixed step
    Delta = ``run.dt``; samples with zero curvature carry inf.
    """
    kappa = curvature_along(run.reference, run.problem, component=run.problem.dim - 1)
    return dt_max(kappa, eps_achieved)


@dataclass(frozen=True)
class StiffTransformReport:
    """Outcome of the linear-transform no-go demonstration for a stiff ODE."""

    a: float
    kappa_f: float
    kappa_g: float
    eps: float
    decay_rate: float     # kf - kg: A(t) = A(0) exp(decay_rate * t)
    kappa_z_max: float    # peak curvature of the A-driven z profile
    dt_stiff_u: float
    dt_max_z: float
    capped: bool          # dt_max_z limited by the horizon (non-stiff regime)
    ratio: float


def stiff_transform_demo(a: float, kappa_g: float, eps: float) -> StiffTransformReport:
    """Demonstrate that the linear transform cannot de-stiffen stiff-linear.

    With kappa_f = -a, the transform amplitude decays like
    A(t) = A(0) exp((kf - kg) t), so z = (u - B)/A grows like exp(|kf - kg| t).
    The peak geometric curvature of such an exponential profile is
    (2 sqrt(3)/9)|kf - kg| independent of amplitude, which puts the step
    needed to resolve z at the same order as the stiffness bound for u
    itself.  dt_max_z is capped at the problem horizon when the growth rate
    vanishes (non-stiff limit).  The demonstration assumes |kappa_g| <= 1 << a;
    an input outside 0 < a < inf, 0 < eps < inf and -inf < kappa_g < 0, or one
    whose ratio is undefined (a step bound underflowed) or escapes [0.1, 10],
    raises ValueError.
    """
    if not (0 < a < math.inf and 0 < eps < math.inf and -math.inf < kappa_g < 0):
        raise ValueError(f"need a finite a > 0, a finite eps > 0 and a finite kappa_g < 0, "
                         f"got a={a!r}, eps={eps!r}, kappa_g={kappa_g!r}")
    horizon = stiff_linear(a).problem.horizon
    kappa_f = -float(a)
    rate = kappa_f - kappa_g
    kappa_z_max = KAPPA_STIFF_PEAK * abs(rate)
    raw = dt_max(kappa_z_max, eps)
    capped = not raw < horizon
    dt_z = horizon if capped else raw
    dt_u = dt_stiff(-float(a), eps)
    ratio = dt_z / dt_u if dt_u > 0.0 else math.nan
    if not 0.1 <= ratio <= 10.0:
        raise ValueError(
            f"step-bound ratio {ratio:.3g} escaped [0.1, 10]; "
            "the demonstration assumes |kappa_g| <= 1 << a")
    return StiffTransformReport(
        a=float(a), kappa_f=kappa_f, kappa_g=float(kappa_g), eps=float(eps),
        decay_rate=rate, kappa_z_max=kappa_z_max,
        dt_stiff_u=dt_u, dt_max_z=dt_z, capped=capped, ratio=ratio,
    )
