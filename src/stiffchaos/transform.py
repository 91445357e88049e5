"""Exponential variable transformation of the Lorenz-84 system.

Substituting x_i(t) = eps_i * exp(mu_i t) * z_i(t) turns the chaotic system
into one whose local Lyapunov exponents are shifted down by mu_i (the
transformed Jacobian J* is J with the diagonal lowered by mu_i).  Chosen
well, the mu_i make the z-system asymptotically stable, so the fixed-step
RK4 errors are damped inside each interval instead of amplified; the exact
back-transformation then recovers x far more accurately than integrating the
original system.  The time domain is split into K intervals of N/K steps;
the exponential clock restarts at each interval start to keep the
exponential factors bounded, and the back-transformed endpoint seeds the
next interval.

Four strategies pick the mu_i per interval:

* method 1 (fixed_mu)       : one hand-tuned triple, held constant;
* method 2 (local_gamma)    : q times the previous interval's gamma_max of the
                              flow Jacobian J (by default);
* method 3 (cumulative_avg) : multipliers times the running mean of gamma_max;
* method 4 (window_avg)     : multipliers times the mean over the last two
                              intervals.

``stiff_transform_demo`` shows the negative result for stiff problems: a
linear transform z = (u - B)/A with A(t) = A(0) exp((kf - kg) t) makes the
stiff-linear problem asymptotically stable, but resolving z then needs steps
of the same order the stiffness bound imposed on u in the first place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .diagnostics import (
    KAPPA_STIFF_PEAK,
    EigenSet,
    LleTrace,
    curvature_along,
    dt_max,
    dt_stiff,
    local_eigenvalues,
)
from .ode import (
    NonFiniteState,
    OdeProblem,
    RK4_FIXED,
    Rhs,
    State,
    Trajectory,
    _is_bad,
    rk4_step,
)
from .problems import BenchmarkSpec, nearest_sample_indices, stiff_linear

EXP_ARG_LIMIT = 700.0


class ExponentOverflow(ArithmeticError):
    """An exponential factor exceeded exp(700): the interval is mis-sized."""


class MuMethod(str, Enum):
    NONE = "none"            # identity transform, plain RK4
    FIXED_MU = "fixed_mu"            # method 1
    LOCAL_GAMMA = "local_gamma"      # method 2
    CUMULATIVE_AVG = "cumulative_avg"  # method 3
    WINDOW_AVG = "window_avg"        # method 4


METHOD_BY_NUMBER = {
    "none": MuMethod.NONE,
    "1": MuMethod.FIXED_MU,
    "2": MuMethod.LOCAL_GAMMA,
    "3": MuMethod.CUMULATIVE_AVG,
    "4": MuMethod.WINDOW_AVG,
}

# Reference choices for each method: first-interval mu, steps per interval.
METHOD_MU_INIT = {
    MuMethod.NONE: (0.0, 0.0, 0.0),
    MuMethod.FIXED_MU: (2.592, 1.944, 1.539),
    MuMethod.LOCAL_GAMMA: (2.0, 2.0, 2.0),
    MuMethod.CUMULATIVE_AVG: (2.16, 1.62, 1.28),
    MuMethod.WINDOW_AVG: (2.16, 1.62, 1.28),
}
METHOD_STEPS_PER_INTERVAL = {
    MuMethod.NONE: None,  # single interval
    MuMethod.FIXED_MU: 10,
    MuMethod.LOCAL_GAMMA: 10,
    MuMethod.CUMULATIVE_AVG: 40,
    MuMethod.WINDOW_AVG: 40,
}
DEFAULT_COEFFS = (1.5, 0.66, 0.5)
DEFAULT_Q = 1.0

# What the per-interval gamma_max history records (feeds select_mu):
GAMMA_FLOW = "flow"                # gamma_max of the untransformed J at the
#                                    interval-start state: the local chaotic
#                                    rate the shifts must compensate (default)
GAMMA_JSTAR_START = "jstar_start"  # gamma_max of J* at the interval start
GAMMA_JSTAR_END = "jstar_end"      # gamma_max of J* at the interval-end z
GAMMA_SOURCES = (GAMMA_FLOW, GAMMA_JSTAR_START, GAMMA_JSTAR_END)


@dataclass(frozen=True)
class TransformParams:
    """Transformation constants: scales eps_i, shifts mu_i of the current
    interval, the method-2 gain q, the method-3/4 multipliers, and the
    first-interval mu triple."""

    eps_scale: tuple[float, float, float] = (1.0, 1.0, 1.0)
    mu: tuple[float, float, float] = (0.0, 0.0, 0.0)
    q: float = DEFAULT_Q
    coeffs: tuple[float, float, float] = DEFAULT_COEFFS
    mu_init: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if any(not e > 0 for e in self.eps_scale):
            raise ValueError("eps_scale components must be > 0")


def params_for_method(method: MuMethod, *, eps_scale=(1.0, 1.0, 1.0),
                      q: float = DEFAULT_Q, coeffs=DEFAULT_COEFFS,
                      mu_init=None) -> TransformParams:
    """TransformParams seeded with the reference defaults for ``method``."""
    init = tuple(METHOD_MU_INIT[method] if mu_init is None else mu_init)
    return TransformParams(eps_scale=tuple(eps_scale), mu=init, q=q,
                           coeffs=tuple(coeffs), mu_init=init)


@dataclass(frozen=True)
class IntervalPlan:
    """N total fixed steps split into K intervals of N/K steps each."""

    n_steps: int
    k_intervals: int
    t_span: tuple[float, float]

    def __post_init__(self):
        if self.n_steps < 1 or self.k_intervals < 1:
            raise ValueError("need n_steps >= 1 and k_intervals >= 1")
        if self.n_steps % self.k_intervals:
            raise ValueError(
                f"k_intervals={self.k_intervals} must divide n_steps={self.n_steps}")
        if not self.t_span[1] > self.t_span[0]:
            raise ValueError("t_span must be increasing")

    @property
    def steps_per_interval(self) -> int:
        return self.n_steps // self.k_intervals

    @property
    def dt(self) -> float:
        return (self.t_span[1] - self.t_span[0]) / self.n_steps

    @property
    def interval_length(self) -> float:
        return self.dt * self.steps_per_interval


def _check_exponents(mu: Sequence[float], t_local: float) -> None:
    m1, m2, m3 = mu
    worst = max(abs(m1), abs(m2), abs(m3),
                abs(2.0 * m2 - m1), abs(2.0 * m3 - m1),
                abs(m1 - m2 + m3), abs(m1 + m2 - m3)) * abs(t_local)
    if worst > EXP_ARG_LIMIT:
        raise ExponentOverflow(
            f"exponent argument {worst:.1f} exceeds {EXP_ARG_LIMIT:g}; "
            "use more/shorter intervals")


def _transformed_lorenz84(mu: Sequence[float], eps_scale: Sequence[float],
                          a: float, b: float, f: float, g: float) -> Rhs:
    """The transformed Lorenz-84 rhs ``(t_local, z) -> dz/dt`` for one
    interval's shifts (equations in ``transformed_rhs``)."""
    m1, m2, m3 = mu
    e1, e2, e3 = eps_scale
    k22 = e2 * e2 / e1
    k33 = e3 * e3 / e1
    kb2 = b * e1 * e3 / e2
    kb3 = b * e1 * e2 / e3
    x22 = 2.0 * m2 - m1
    x33 = 2.0 * m3 - m1
    xb2 = m1 - m2 + m3
    xb3 = m1 + m2 - m3
    af = a * f / e1
    ge = g / e2
    exp = math.exp

    def zrhs(t: float, zz: State) -> State:
        z1, z2, z3 = zz
        em1 = exp(m1 * t)
        return (
            -m1 * z1 - k22 * exp(x22 * t) * z2 * z2
            - k33 * exp(x33 * t) * z3 * z3 - a * z1 + af * exp(-m1 * t),
            -m2 * z2 + e1 * em1 * z1 * z2 - kb2 * exp(xb2 * t) * z1 * z3
            - z2 + ge * exp(-m2 * t),
            -m3 * z3 + kb3 * exp(xb3 * t) * z1 * z2 + e1 * em1 * z1 * z3 - z3,
        )

    return zrhs


def transformed_rhs(params: TransformParams, t_local: float, z: State,
                    a: float, b: float, f: float, g: float) -> State:
    """Right-hand side of the transformed system in interval-local time.

    With x_i = eps_i exp(mu_i t) z_i the Lorenz-84 equations become

      dz1/dt = -mu1 z1 - (e2^2/e1) e^{(2mu2-mu1)t} z2^2
               - (e3^2/e1) e^{(2mu3-mu1)t} z3^2 - a z1 + (aF/e1) e^{-mu1 t}
      dz2/dt = -mu2 z2 + e1 e^{mu1 t} z1 z2
               - b (e1 e3/e2) e^{(mu1-mu2+mu3)t} z1 z3 - z2 + (G/e2) e^{-mu2 t}
      dz3/dt = -mu3 z3 + b (e1 e2/e3) e^{(mu1+mu2-mu3)t} z1 z2
               + e1 e^{mu1 t} z1 z3 - z3
    """
    _check_exponents(params.mu, t_local)
    return _transformed_lorenz84(params.mu, params.eps_scale, a, b, f, g)(t_local, z)


def jstar(params: TransformParams, z: State, a: float, b: float):
    """Jacobian of the transformed system under the t=0 approximation:
    the Lorenz Jacobian at (z1, z2, z3) with the diagonal shifted by -mu_i."""
    m1, m2, m3 = params.mu
    z1, z2, z3 = z
    return (
        (-a - m1, -2.0 * z2, -2.0 * z3),
        (z2 - b * z3, z1 - 1.0 - m2, -b * z1),
        (b * z2 + z3, b * z1, z1 - 1.0 - m3),
    )


def select_mu(method: MuMethod, history: Sequence[float],
              params: TransformParams) -> tuple[float, float, float]:
    """mu triple for the next interval given the gamma_max of completed ones.

    The first interval (empty history) always uses mu_init; method 1 keeps
    its fixed triple throughout and method "none" keeps zero.
    """
    if method is MuMethod.NONE:
        return (0.0, 0.0, 0.0)
    if method is MuMethod.FIXED_MU or not history:
        return tuple(params.mu_init)  # type: ignore[return-value]
    if method is MuMethod.LOCAL_GAMMA:
        gain = params.q * history[-1]
        return (gain, gain, gain)
    if method is MuMethod.CUMULATIVE_AVG:
        avg = sum(history) / len(history)
    elif method is MuMethod.WINDOW_AVG:
        tail = history[-2:]
        avg = sum(tail) / len(tail)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown method {method!r}")
    c1, c2, c3 = params.coeffs
    return (c1 * avg, c2 * avg, c3 * avg)


@dataclass(frozen=True)
class TransformRun:
    """Result of one interval-segmented transformed integration."""

    plan: IntervalPlan
    method: MuMethod
    params: TransformParams
    problem: OdeProblem
    mu_history: np.ndarray          # (K, 3) mu used in each interval
    gamma_max_history: np.ndarray   # (K,) gamma_max per interval (see gamma_source)
    solution: Trajectory            # back-transformed, N+1 samples
    errors_vs_reference: np.ndarray  # (N+1, 3) absolute errors

    def __post_init__(self):
        for name in ("mu_history", "gamma_max_history", "errors_vs_reference"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def max_error(self, component: int = 0) -> float:
        """Headline accuracy: max over time of the absolute error of one
        component (component 0 = x, as in the reference error plots)."""
        return float(np.max(self.errors_vs_reference[:, component]))


def _align_reference(reference: Trajectory, plan: IntervalPlan) -> int:
    m = len(reference.times) - 1
    n = plan.n_steps
    if m % n:
        raise ValueError(
            f"reference resolution ({m} steps) is not a multiple of the run's {n} steps")
    if abs(reference.times[0] - plan.t_span[0]) > 1e-12 or \
            reference.times[-1] < plan.t_span[1] - 1e-9:
        raise ValueError("reference does not cover the run's t_span")
    return m // n


def run_transformed(spec: BenchmarkSpec, plan: IntervalPlan, method: MuMethod,
                    params: TransformParams, reference: Trajectory,
                    gamma_source: str = GAMMA_FLOW) -> TransformRun:
    """Integrate the transformed system interval by interval.

    Per interval: z(0) = x(t_n)/eps (local clock restarts, so all exponential
    factors are 1 at the interval start), a gamma_max value is recorded, the
    z-system is advanced N/K fixed RK4 steps, every step is back-transformed
    via x_i = eps_i exp(mu_i t_local) z_i, and the endpoint seeds the next
    interval.  Errors are measured against ``reference`` at the N+1 sample
    times.

    ``gamma_source`` decides what the recorded gamma_max history (the input
    to the method-2/3/4 shift selection) measures:

    * "flow" (default): gamma_max of the untransformed Jacobian at the
      interval-start state.  This is the local chaotic rate the shifts must
      counter; the mu iteration it induces is stable at every interval
      length tried and reproduces the reference accuracies.
    * "jstar_start": gamma_max of J* at the interval start.  Feeding this
      into the reference multipliers has no stable fixed point (the running
      mean drifts positive, flipping mu destabilizing); kept for comparison.
    * "jstar_end": gamma_max of J* at the interval-end z-state.  Stable for
      long intervals (~2 time units), unstable for short ones.
    """
    problem = spec.problem
    if problem.dim != 3 or "b" not in problem.params:
        raise ValueError("run_transformed expects the lorenz84 benchmark")
    if gamma_source not in GAMMA_SOURCES:
        raise ValueError(f"gamma_source must be one of {GAMMA_SOURCES}")
    a = problem.params["a"]
    b = problem.params["b"]
    f = problem.params["F"]
    g = problem.params["G"]
    stride = _align_reference(reference, plan)

    n = plan.n_steps
    k_intervals = plan.k_intervals
    spi = plan.steps_per_interval
    h = plan.dt
    t0 = plan.t_span[0]
    e1, e2, e3 = params.eps_scale
    exp = math.exp

    times = t0 + h * np.arange(n + 1)
    states = np.empty((n + 1, 3))
    u = problem.u0
    states[0] = u

    mu_history = np.empty((k_intervals, 3))
    gamma_history = np.empty(k_intervals)
    history: list[float] = []
    mu = select_mu(method, history, params)

    for k in range(k_intervals):
        pars = replace(params, mu=tuple(mu))
        _check_exponents(mu, spi * h)
        z = (u[0] / e1, u[1] / e2, u[2] / e3)
        mu_history[k] = mu
        if gamma_source == GAMMA_FLOW:
            gamma_history[k] = local_eigenvalues(
                problem.jacobian(t0 + k * spi * h, u)).gamma_max
        elif gamma_source == GAMMA_JSTAR_START:
            gamma_history[k] = local_eigenvalues(jstar(pars, z, a, b)).gamma_max

        zrhs = _transformed_lorenz84(mu, params.eps_scale, a, b, f, g)
        m1, m2, m3 = mu
        base = k * spi
        for j in range(spi):
            tau = j * h
            z = rk4_step(zrhs, tau, z, h, 3)
            tau_next = (j + 1) * h
            u = (e1 * exp(m1 * tau_next) * z[0],
                 e2 * exp(m2 * tau_next) * z[1],
                 e3 * exp(m3 * tau_next) * z[2])
            if _is_bad(u):
                raise NonFiniteState(t0 + (base + j + 1) * h)
            states[base + j + 1] = u
        if gamma_source == GAMMA_JSTAR_END:
            gamma_history[k] = local_eigenvalues(jstar(pars, z, a, b)).gamma_max
        history.append(float(gamma_history[k]))
        mu = select_mu(method, history, params)

    solution = Trajectory(times, states, RK4_FIXED, steps_taken=n)
    ref_states = reference.states[::stride][: n + 1]
    errors = np.abs(states - ref_states)
    return TransformRun(plan=plan, method=method, params=params, problem=problem,
                        mu_history=mu_history, gamma_max_history=gamma_history,
                        solution=solution, errors_vs_reference=errors)


def jstar_scan(run: TransformRun, n_samples: int) -> LleTrace:
    """Eigenvalues of J* at equidistant scan times over a completed run.

    The interval-local z-state is reconstructed from the stored
    back-transformed solution (z_i = x_i exp(-mu_i tau)/eps_i) and J* is
    evaluated with that interval's mu.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    plan = run.plan
    a = run.problem.params["a"]
    b = run.problem.params["b"]
    e1, e2, e3 = run.params.eps_scale
    spi = plan.steps_per_interval
    h = plan.dt
    sol = run.solution
    scan_times = np.linspace(plan.t_span[0], plan.t_span[1], n_samples)
    idx = nearest_sample_indices(sol.times, scan_times)
    eigens = []
    gmax = np.empty(n_samples)
    gmin = np.empty(n_samples)
    for s in range(n_samples):
        j = int(idx[s])
        k = min(j // spi, plan.k_intervals - 1)
        tau = (j - k * spi) * h
        mu = run.mu_history[k]
        x1, x2, x3 = sol.states[j]
        z = (x1 * math.exp(-mu[0] * tau) / e1,
             x2 * math.exp(-mu[1] * tau) / e2,
             x3 * math.exp(-mu[2] * tau) / e3)
        pars = replace(run.params, mu=(float(mu[0]), float(mu[1]), float(mu[2])))
        eig = local_eigenvalues(jstar(pars, z, a, b), t=float(sol.times[j]))
        eigens.append(eig)
        gmax[s] = eig.gamma_max
        gmin[s] = eig.gamma_min
    return LleTrace(times=scan_times, eigens=tuple(eigens), gamma_max=gmax, gamma_min=gmin)


def step_extension_report(run: TransformRun, reference: Trajectory,
                          eps_achieved: float) -> np.ndarray:
    """dt_max(t) from the curvature of the reference z-component (the least
    smooth one), at the run's sample times and the run's achieved accuracy.

    Returns an (N+1, 2) array of (t, dt_max) for comparison with the fixed
    step Delta = T/N; rows with zero curvature carry inf.
    """
    if not eps_achieved > 0:
        raise ValueError("eps_achieved must be > 0")
    stride = _align_reference(reference, run.plan)
    sub = Trajectory(reference.times[::stride][: run.plan.n_steps + 1],
                     reference.states[::stride][: run.plan.n_steps + 1],
                     reference.solver_id, steps_taken=run.plan.n_steps)
    tk = curvature_along(sub, run.problem, component=2)
    out = np.empty_like(tk)
    out[:, 0] = tk[:, 0]
    for i, kap in enumerate(tk[:, 1]):
        out[i, 1] = dt_max(float(kap), eps_achieved)
    return out


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

    @property
    def amplitude_ratio(self):
        """A(t)/A(0) as a function of t."""
        return lambda t: math.exp(self.decay_rate * t)


def stiff_transform_demo(a: float, kappa_g: float, eps: float) -> StiffTransformReport:
    """Demonstrate that the linear transform cannot de-stiffen stiff-linear.

    With kappa_f = -a, the transform amplitude decays like
    A(t) = A(0) exp((kf - kg) t), so z = (u - B)/A grows like exp(|kf - kg| t).
    The peak geometric curvature of such an exponential profile is
    (2 sqrt(3)/9)|kf - kg| independent of amplitude, which puts the step
    needed to resolve z at the same order as the stiffness bound for u
    itself.  dt_max_z is capped at the problem horizon when the growth rate
    vanishes (non-stiff limit).  The demonstration assumes |kappa_g| <= 1 << a;
    an input whose ratio escapes [0.1, 10] raises ValueError.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if not kappa_g < 0:
        raise ValueError("kappa_g must be < 0")
    spec = stiff_linear(a)
    horizon = spec.problem.horizon
    kappa_f = -float(a)
    rate = kappa_f - kappa_g
    kappa_z_max = KAPPA_STIFF_PEAK * abs(rate)
    raw = dt_max(kappa_z_max, eps)
    capped = not raw < horizon
    dt_z = horizon if capped else raw
    dt_u = dt_stiff(-float(a), eps)
    ratio = dt_z / dt_u
    if not 0.1 <= ratio <= 10.0:
        raise ValueError(
            f"step-bound ratio {ratio:.3g} escaped [0.1, 10]; "
            "the demonstration assumes |kappa_g| <= 1 << a")
    return StiffTransformReport(
        a=float(a), kappa_f=kappa_f, kappa_g=float(kappa_g), eps=float(eps),
        decay_rate=rate, kappa_z_max=kappa_z_max,
        dt_stiff_u=dt_u, dt_max_z=dt_z, capped=capped, ratio=ratio,
    )
