"""Exponential variable transformation x_i = eps_i exp(mu_i t) z_i.

With E = diag(eps_i) and M = diag(mu_i) the substitution conjugates any
problem du/dt = f(t, u) into the z-system of one interval starting at t_k,

    dz/dtau = E^-1 e^{-M tau} f(t_k + tau, E e^{M tau} z) - M z,

whose Jacobian at tau = 0 is J* = E^-1 J(t_k, E z) E - M: the local Lyapunov
exponents are shifted down by mu_i.  Chosen well, the mu_i make a chaotic
z-system asymptotically stable, so the fixed-step RK4 errors are damped
inside each interval instead of amplified; the exact back-transformation
then recovers x far more accurately than integrating the original system.
The time domain is split into K intervals of N/K steps; the exponential
clock tau restarts at each interval start to keep the factors exp(+-mu_i tau)
bounded, and the back-transformed endpoint seeds the next interval.

Four strategies pick the mu_i per interval:

* method 1 (fixed_mu)       : one hand-tuned shift vector, held constant;
* method 2 (local_gamma)    : q times the previous interval's gamma_max of the
                              flow Jacobian J at its start;
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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import mul, truediv
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
    Rhs,
    State,
    Trajectory,
    _freeze,
    _padded,
    _rk4_march3,
    problem_fingerprint,
)
from .problems import BenchmarkSpec, lorenz84, nearest_sample_indices, stiff_linear

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

# Reference choices for each method (the paper's Lorenz-84 triples):
# first-interval mu, steps per interval.
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


@dataclass(frozen=True)
class TransformParams:
    """Transformation constants: scales eps_i, the method-2 gain q, the
    method-3/4 multipliers, and the first-interval shifts mu_i (method 1
    keeps them).  Every vector has one component per state component."""

    eps_scale: tuple[float, ...] = (1.0, 1.0, 1.0)
    q: float = DEFAULT_Q
    coeffs: tuple[float, ...] = DEFAULT_COEFFS
    mu_init: tuple[float, ...] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if any(not e > 0 for e in self.eps_scale):
            raise ValueError("eps_scale components must be > 0")


def params_for_method(method: MuMethod, *, eps_scale=(1.0, 1.0, 1.0),
                      q: float = DEFAULT_Q, coeffs=DEFAULT_COEFFS,
                      mu_init=None) -> TransformParams:
    """TransformParams seeded with the reference defaults for ``method``."""
    init = tuple(METHOD_MU_INIT[method] if mu_init is None else mu_init)
    return TransformParams(eps_scale=tuple(eps_scale), q=q, coeffs=tuple(coeffs),
                           mu_init=init)


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
    worst = max(map(abs, mu)) * abs(t_local)
    if worst > EXP_ARG_LIMIT:
        raise ExponentOverflow(
            f"exponent argument {worst:g} exceeds {EXP_ARG_LIMIT:g}; "
            "use more/shorter intervals")


def _conjugated_rhs(f: Rhs, t_start: float, mu: Sequence[float],
                    eps_scale: Sequence[float]) -> Rhs:
    """The z-system ``(tau, z) -> E^-1 e^{-M tau} f(t_start + tau, E e^{M tau} z)
    - M z`` of the interval starting at ``t_start``, for a dim-3 ``f``: a
    smaller system is conjugated padded (``ode._padded``, mu by 0.0, eps by
    1.0), where 1.0 * exp(0.0) = 1.0 keeps z_i at 0.0 / 1.0 - 0.0 * 0.0."""
    m1, m2, m3 = mu
    e1, e2, e3 = eps_scale
    exp = math.exp

    def zrhs(tau: float, z: State) -> State:
        x, y, w = z
        s1 = e1 * exp(m1 * tau)
        s2 = e2 * exp(m2 * tau)
        s3 = e3 * exp(m3 * tau)
        a, b, c = f(t_start + tau, (s1 * x, s2 * y, s3 * w))
        return (a / s1 - m1 * x, b / s2 - m2 * y, c / s3 - m3 * w)

    return zrhs


def shifted_jacobian(jac: Jacobian, t: float, z: State, mu: Sequence[float],
                     eps_scale: Sequence[float]):
    """J* = E^-1 J(t, E z) E - M, the z-system's Jacobian at tau = 0; in
    lanes (see ``OdeProblem``) when t, z and mu hold one lane per sample."""
    rows = []
    for i, (row, e_i, m_i) in enumerate(zip(jac(t, tuple(map(mul, eps_scale, z))),
                                            eps_scale, mu)):
        shifted = [v * e_j / e_i for v, e_j in zip(row, eps_scale)]
        shifted[i] -= m_i
        rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=8)
def _lorenz84_problem(a: float, b: float, f: float, g: float) -> OdeProblem:
    return lorenz84(a=a, b=b, F=f, G=g).problem


def transformed_rhs(params: TransformParams, t_local: float, z: State,
                    a: float, b: float, f: float, g: float) -> State:
    """The conjugated Lorenz-84 rhs in interval-local time, mu = params.mu_init.

    With x_i = eps_i exp(mu_i t) z_i the Lorenz-84 equations become

      dz1/dt = -mu1 z1 - (e2^2/e1) e^{(2mu2-mu1)t} z2^2
               - (e3^2/e1) e^{(2mu3-mu1)t} z3^2 - a z1 + (aF/e1) e^{-mu1 t}
      dz2/dt = -mu2 z2 + e1 e^{mu1 t} z1 z2
               - b (e1 e3/e2) e^{(mu1-mu2+mu3)t} z1 z3 - z2 + (G/e2) e^{-mu2 t}
      dz3/dt = -mu3 z3 + b (e1 e2/e3) e^{(mu1+mu2-mu3)t} z1 z2
               + e1 e^{mu1 t} z1 z3 - z3
    """
    _check_exponents(params.mu_init, t_local)
    rhs = _lorenz84_problem(a, b, f, g).rhs
    return _conjugated_rhs(rhs, 0.0, params.mu_init, params.eps_scale)(t_local, z)


def select_mu(method: MuMethod, history: Sequence[float],
              params: TransformParams) -> tuple[float, ...]:
    """mu for the next interval given the gamma_max of completed ones, with
    one component per ``params.mu_init`` component.

    The first interval (empty history) always uses mu_init; method 1 keeps
    its fixed shifts throughout and method "none" keeps zero.
    """
    n = len(params.mu_init)
    if method is MuMethod.NONE:
        return (0.0,) * n
    if method is MuMethod.FIXED_MU or not history:
        return tuple(params.mu_init)
    if method is MuMethod.LOCAL_GAMMA:
        return (params.q * history[-1],) * n
    if method is MuMethod.CUMULATIVE_AVG:
        avg = sum(history) / len(history)
    elif method is MuMethod.WINDOW_AVG:
        tail = history[-2:]
        avg = sum(tail) / len(tail)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown method {method!r}")
    return tuple(c * avg for c in params.coeffs)


@dataclass(frozen=True)
class TransformRun:
    """Result of one interval-segmented transformed integration."""

    plan: IntervalPlan
    method: MuMethod
    params: TransformParams
    problem: OdeProblem
    mu_history: np.ndarray          # (K, dim) mu used in each interval
    gamma_max_history: np.ndarray   # (K,) gamma_max of J at each interval start
    solution: Trajectory            # back-transformed, N+1 samples
    errors_vs_reference: np.ndarray  # (N+1, dim) absolute errors

    def __post_init__(self):
        _freeze(self, "mu_history", "gamma_max_history", "errors_vs_reference")

    def max_error(self, component: int = 0) -> float:
        """Headline accuracy: max over time of the absolute error of one
        component (component 0 = x, as in the reference error plots)."""
        return float(np.max(self.errors_vs_reference[:, component]))


def _align_reference(reference: Trajectory, plan: IntervalPlan,
                     problem: OdeProblem) -> int:
    """Stride from the reference grid to the run's N+1 sample times.

    The reference must span exactly the run's t_span, start from the run's
    u0 exactly and, when it carries ``reference_solution``'s problem stamp,
    have been computed for the run's problem.
    """
    m = len(reference.times) - 1
    n = plan.n_steps
    if m % n:
        raise ValueError(
            f"reference resolution ({m} steps) is not a multiple of the run's {n} steps")
    t0, t1 = plan.t_span
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


def run_transformed(spec: BenchmarkSpec, plan: IntervalPlan, method: MuMethod,
                    params: TransformParams, reference: Trajectory) -> TransformRun:
    """Integrate the transformed system interval by interval.

    Per interval: z(0) = E^-1 x(t_k) (local clock restarts, so all
    exponential factors are 1 at the interval start), a gamma_max value is
    recorded, the conjugated z-system is advanced N/K fixed RK4 steps, every
    step is back-transformed via x_i = eps_i exp(mu_i tau) z_i, and the
    endpoint seeds the next interval.  Errors are measured against
    ``reference`` at the N+1 sample times.  Every vector of ``params`` must
    have ``spec.problem.dim`` components.  A dim-1 or dim-2 problem is padded
    once per run and its padded rhs conjugated (see ``_conjugated_rhs``).

    The recorded gamma_max history, the input to the method-2/3/4 shift
    selection, holds gamma_max of the untransformed Jacobian at each
    interval-start state: the local chaotic rate the shifts must counter.
    """
    problem = spec.problem
    dim = problem.dim
    for name in ("eps_scale", "coeffs", "mu_init"):
        if len(getattr(params, name)) != dim:
            raise ValueError(f"params.{name} needs {dim} components, one per state component")
    stride = _align_reference(reference, plan, problem)

    n = plan.n_steps
    k_intervals = plan.k_intervals
    spi = plan.steps_per_interval
    h = plan.dt
    t0 = plan.t_span[0]
    eps = params.eps_scale
    jac = problem.jacobian
    f3, _ = _padded(problem.rhs, problem.u0)
    pad = 3 - dim
    e1, e2, e3 = eps3 = (*eps, *(1.0,) * pad)
    taus = [(j + 1) * h for j in range(spi)]

    times = t0 + h * np.arange(n + 1)
    states = np.zeros((n + 1, 3))
    u = problem.u0
    states[0, :dim] = u

    mu_history = np.empty((k_intervals, dim))
    gamma_history = np.empty(k_intervals)
    history: list[float] = []
    mu = select_mu(method, history, params)

    with memoryview(states.reshape(-1)) as out:
        for k in range(k_intervals):
            _check_exponents(mu, spi * h)
            t_k = t0 + k * spi * h
            mu_history[k] = mu
            gamma_history[k] = local_eigenvalues(jac(t_k, u)).gamma_max

            m1, m2, m3 = mu3 = (*mu, *(0.0,) * pad)
            base = k * spi
            try:
                _rk4_march3(_conjugated_rhs(f3, t_k, mu3, eps3), 0.0, h,
                            (*map(truediv, u, eps), *(0.0,) * pad), spi, out[3 * base:])
            except NonFiniteState as exc:
                # the march stores no state from tau = i h on; marking row i
                # stops the row check below there, or at an earlier bad row
                states[base + round(exc.t / h)] = math.nan
            block = states[base + 1:base + spi + 1]
            with np.errstate(over="ignore", invalid="ignore"):
                # x_i = eps_i exp(mu_i tau) z_i; ``_is_bad`` is a row sum check
                block *= [(e1 * math.exp(m1 * tau), e2 * math.exp(m2 * tau),
                           e3 * math.exp(m3 * tau)) for tau in taus]
                finite = np.isfinite(block.sum(axis=1))
            if not finite.all():
                raise NonFiniteState(t0 + (base + int(finite.argmin()) + 1) * h)
            u = tuple(block[-1, :dim].tolist())
            history.append(float(gamma_history[k]))
            mu = select_mu(method, history, params)

    states = states[:, :dim]
    solution = Trajectory(times, states, RK4_FIXED, steps_taken=n)
    errors = np.abs(states - reference.states[::stride])
    return TransformRun(plan=plan, method=method, params=params, problem=problem,
                        mu_history=mu_history, gamma_max_history=gamma_history,
                        solution=solution, errors_vs_reference=errors)


def jstar_scan(run: TransformRun, n_samples: int) -> LleTrace:
    """Eigenvalues of J* at equidistant scan times over a completed run.

    The interval-local z-state is reconstructed from the stored
    back-transformed solution (z = e^{-M tau} E^-1 x) and J* is evaluated
    with that interval's mu at the interval start time, one lane per scan
    sample.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    plan, sol = run.plan, run.solution
    spi, h = plan.steps_per_interval, plan.dt
    scan_times = np.linspace(plan.t_span[0], plan.t_span[1], n_samples)
    idx = nearest_sample_indices(sol.times, scan_times)
    k = np.minimum(idx // spi, plan.k_intervals - 1)
    tau = (idx - k * spi) * h
    mu = run.mu_history[k]
    z = sol.states[idx] * np.exp(mu * -tau[:, None]) / run.params.eps_scale
    t_start = plan.t_span[0] + k * spi * h
    values = eigenvalues_along(
        lambda s: shifted_jacobian(run.problem.jacobian, t_start[s], tuple(z[s].T),
                                   tuple(mu[s].T), run.params.eps_scale),
        n_samples, run.problem.dim)
    return LleTrace(times=scan_times, values=values)


def step_extension_report(run: TransformRun, reference: Trajectory,
                          eps_achieved: float) -> np.ndarray:
    """dt_max(t) from the curvature of the reference z-component (the least
    smooth one), at the run's sample times and the run's achieved accuracy.

    Returns an (N+1, 2) array of (t, dt_max) for comparison with the fixed
    step Delta = T/N; rows with zero curvature carry inf.
    """
    stride = _align_reference(reference, run.plan, run.problem)
    sub = Trajectory(reference.times[::stride], reference.states[::stride],
                     reference.solver_id, steps_taken=run.plan.n_steps)
    tk = curvature_along(sub, run.problem, component=2)
    return np.column_stack([tk[:, 0], dt_max(tk[:, 1], eps_achieved)])


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
    an input that is not finite, or whose ratio escapes [0.1, 10], raises
    ValueError.
    """
    if not (math.isfinite(a) and 0 < eps < math.inf and -math.inf < kappa_g < 0):
        raise ValueError(f"need a finite a, a finite eps > 0 and a finite kappa_g < 0, "
                         f"got a={a!r}, eps={eps!r}, kappa_g={kappa_g!r}")
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
