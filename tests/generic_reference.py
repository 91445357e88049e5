"""The per-component integrators that the library's unrolled dim-3 code
replaced, kept as references: ``_rk4_stepn``, ``_rk4_attempt`` and
``_gbs_march`` are copied unchanged from ``stiffchaos.ode`` as it was before
dim-1 and dim-2 problems ran through the dim-3 code zero-padded, and
``fixed_states`` is the fixed-step loop ``solve_rk4_fixed`` ran on them.  The
tests pin the library to these bit for bit, for every dimension;
``_gbs_march``'s row-by-row Aitken-Neville loop is also the reference for the
library's straight-line ``_neville6``.

``_adaptive_loop`` is the accept/reject loop with the elementary step-size
controller 0.9 * (tol / est)**exponent, copied unchanged from
``stiffchaos.ode`` as it was before the PI controller replaced it; the
library's loop with gains (exponent, 0.0) must equal it bit for bit.

``zsystem_run`` is the paper's formulation of the transform, the interval
loop ``stiffchaos.transform.run_transformed`` ran before it stepped x as
Lawson RK4: per interval, the z-system of x_i = exp(mu_i tau) z_i
(``_conjugated_rhs``, its clock tau restarting at each interval start) is
advanced one RK4 step at a time by ``_rk4_stepn`` and each step is
transformed back by ``_scales``, with the exponent check max|mu_i| tau <= 700
that the interval clock needs.  The two agree in exact arithmetic; the
tests bound how far rounding takes them apart.

``transformed_run`` is ``run_transformed``'s loop written per component and
per step: Lawson RK4 in the operation order of ``ode._rk4_march3``, which
``run_transformed`` must equal bit for bit, blow-up times included.

``dt_max``, ``kappa_stiff`` and ``dt_stiff_at`` are the per-sample step
bounds of floats, copied unchanged from ``stiffchaos.diagnostics`` as they
were before they took arrays; ``stiffness_report`` called ``dt_stiff_at``
once per sample.  The library's lanes must lie within 4 ulp of them wherever
they return, and take the large-|w| limit where they raise
``OverflowError``.  ``q_unity_crossing`` is the loop of
``StiffnessReport.q_unity_crossing`` as it was before it used numpy, which
must give the same crossing.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, sub, truediv
from typing import Callable, Sequence

import numpy as np

from stiffchaos.diagnostics import SQRT8, NonNegativeGamma, local_eigenvalues
from stiffchaos.ode import (
    _GBS_NEVILLE,
    _GBS_SUBSTEPS,
    _GROW_MAX,
    _SAFETY,
    _SHRINK_MAX,
    _STAGE_BLOWUP,
    AdaptiveConfig,
    NonFiniteState,
    OdeProblem,
    Rhs,
    State,
    Trajectory,
    _is_bad,
    _scaled_diff,
)
from stiffchaos.transform import _align_reference, select_mu


def _rk4_stepn(f: Rhs, t: float, u: State, h: float, k1: Sequence[float]):
    h2 = 0.5 * h
    k2 = f(t + h2, tuple(ui + h2 * ki for ui, ki in zip(u, k1)))
    k3 = f(t + h2, tuple(ui + h2 * ki for ui, ki in zip(u, k2)))
    k4 = f(t + h, tuple(ui + h * ki for ui, ki in zip(u, k3)))
    s = h / 6.0
    return tuple(
        ui + s * (a + 2.0 * (b + c) + d)
        for ui, a, b, c, d in zip(u, k1, k2, k3, k4)
    ), k2, k3, k4


def _rk4_attempt(f: Rhs, t: float, u: State, h: float) -> tuple[State, float]:
    """One step-doubling attempt of ``solve_rk4_adaptive``: (the two half
    steps' state, scaled error estimate), or (u, inf) for a rejected trial."""
    k1 = f(t, u)
    full, k2, k3, k4 = _rk4_stepn(f, t, u, h, k1)
    h2 = 0.5 * h
    mid = _rk4_stepn(f, t, u, h2, k1)[0]
    half = _rk4_stepn(f, t + h2, mid, h2, f(t + h2, mid))[0]
    if _is_bad(half) or _is_bad(full):
        return u, math.inf
    # the stages are finite here: a non-finite stage makes ``full`` bad
    m0 = max(map(abs, k1))
    if not max(max(map(abs, k)) for k in (k2, k3, k4)) <= _STAGE_BLOWUP * m0 + 1.0:
        return u, math.inf
    return half, _scaled_diff(full, half, u, floor=1e-6) / 15.0


def _gbs_march(f: Rhs, t0: float, h: float, u: State, states: np.ndarray) -> None:
    """GBS macro steps of size ``h`` from ``u`` at ``t0``; state i + 1 goes
    to ``states[i + 1]``.  Raises ``NonFiniteState`` at the end of the first
    macro step whose state is not finite."""
    for i in range(len(states) - 1):
        t = t0 + i * h
        f0 = f(t, u)
        row: list[State] = []
        for n, factors in zip(_GBS_SUBSTEPS, _GBS_NEVILLE):
            hs = h / n
            h2 = 2.0 * hs
            z0 = u
            z1 = tuple(a + hs * b for a, b in zip(u, f0))
            for k in range(1, n):
                z0, z1 = z1, tuple(a + h2 * b for a, b in zip(z0, f(t + k * hs, z1)))
            s = tuple(0.5 * (a + b + hs * c) for a, b, c in zip(z0, z1, f(t + h, z1)))
            new = [s]
            for prev, c in zip(row, factors):
                s = tuple(a + (a - b) * c for a, b in zip(s, prev))
                new.append(s)
            row = new
        u = row[-1]
        if _is_bad(u):
            raise NonFiniteState(t0 + (i + 1) * h)
        states[i + 1] = u


def _scales(mu: Sequence[float], tau: float) -> State:
    """The diagonal of e^{M tau}."""
    return tuple(map(math.exp, map(mul, mu, repeat(tau))))


def _conjugated_rhs(f: Rhs, t_start: float, mu: Sequence[float]) -> Rhs:
    """The z-system ``(tau, z) -> e^{-M tau} f(t_start + tau, e^{M tau} z) - M z``
    of the interval starting at ``t_start``."""
    def zrhs(tau: float, z: State) -> State:
        s = _scales(mu, tau)
        fx = f(t_start + tau, tuple(map(mul, s, z)))
        return tuple(map(sub, map(truediv, fx, s), map(mul, mu, z)))

    return zrhs


def fixed_states(problem: OdeProblem, n_steps: int) -> np.ndarray:
    """The states of ``solve_rk4_fixed`` by the per-component loop it ran on
    dim-1 and dim-2 problems before; raises its ``NonFiniteState``."""
    t0, t1 = problem.t_span
    h = (t1 - t0) / n_steps
    f = problem.rhs
    states = np.empty((n_steps + 1, problem.dim))
    u = problem.u0
    states[0] = u
    for i in range(n_steps):
        t = t0 + i * h
        u = _rk4_stepn(f, t, u, h, f(t, u))[0]
        if _is_bad(u):
            raise NonFiniteState(t0 + (i + 1) * h)
        states[i + 1] = u
    return states


def _adaptive_loop(
    problem: OdeProblem,
    u0: State,
    cfg: AdaptiveConfig,
    attempt: Callable[[float, State, float], tuple[State, float]],
    exponent: float,
    solver_id: str,
) -> Trajectory:
    """Shared accept/reject loop: step-doubling estimate, power-law resize.

    ``attempt(t, u, h)`` returns (proposed state, scaled error estimate); an
    inf estimate marks a failed/non-finite attempt.  A step is accepted when
    est <= tol, and the step is resized by 0.9 * (tol/est)**exponent,
    clamped to [h/4, 4h].  The run starts from ``u0``, which is
    ``problem.u0`` or, for the explicit solver, that padded to three
    components; the trajectory keeps the first ``problem.dim`` of them.
    """
    t0, t1 = problem.t_span
    end_eps = 1e-12 * max(1.0, abs(t1))

    times = [t0]
    states = [u0]
    t = t0
    u = u0
    h = min(cfg.dt_init, t1 - t0)
    taken = 0
    rejected = 0
    stagnated = False

    while t < t1 - end_eps:
        if taken >= cfg.max_steps:
            stagnated = True
            break
        h = min(h, t1 - t)
        u_new, est = attempt(t, u, h)
        target = cfg.tol
        if est <= target:
            t += h
            u = u_new
            times.append(t)
            states.append(u)
            taken += 1
        else:
            rejected += 1
            if h <= cfg.dt_min * (1.0 + 1e-12):
                stagnated = True
                break
        if est > 0.0 and math.isfinite(est):
            factor = _SAFETY * (target / est) ** exponent
            factor = min(_GROW_MAX, max(_SHRINK_MAX, factor))
        elif est == 0.0:
            factor = _GROW_MAX
        else:
            factor = _SHRINK_MAX
        h = min(cfg.dt_max, max(cfg.dt_min, h * factor))

    return Trajectory(
        np.array(times),
        np.array(states)[:, :problem.dim],
        solver_id,
        steps_taken=taken,
        steps_rejected=rejected,
        stagnated=stagnated,
    )


def zsystem_run(spec, plan, method, params, reference) -> tuple[np.ndarray, ...]:
    """``run_transformed``'s (states, errors_vs_reference, mu_history,
    gamma_max_history) by the z-system loop; raises ``NonFiniteState`` at the
    first non-finite back-transformed state, and ``OverflowError`` where an
    interval's exponent argument max|mu_i| tau would exceed 700."""
    problem = spec.problem
    dim = problem.dim
    stride = _align_reference(reference, plan, problem)
    n, k_intervals = plan.n_steps, plan.k_intervals
    spi, h, t0 = plan.steps_per_interval, plan.dt, plan.t_span[0]
    jac = problem.jacobian

    states = np.empty((n + 1, dim))
    u = problem.u0
    states[0] = u
    mu_history = np.empty((k_intervals, dim))
    gamma_history = np.empty(k_intervals)
    history: list[float] = []
    mu = select_mu(method, history, params)

    for k in range(k_intervals):
        worst = max(map(abs, mu)) * (spi * h)
        if worst > 700.0:
            raise OverflowError(f"exponent argument {worst:g} exceeds 700")
        t_k = t0 + k * spi * h
        z = u
        mu_history[k] = mu
        gamma_history[k] = local_eigenvalues(jac(t_k, u)).gamma_max

        zrhs = _conjugated_rhs(problem.rhs, t_k, mu)
        base = k * spi
        for j in range(spi):
            tau = j * h
            z = _rk4_stepn(zrhs, tau, z, h, zrhs(tau, z))[0]
            u = tuple(map(mul, _scales(mu, (j + 1) * h), z))
            if _is_bad(u):
                raise NonFiniteState(t0 + (base + j + 1) * h)
            states[base + j + 1] = u
        history.append(float(gamma_history[k]))
        mu = select_mu(method, history, params)

    errors = np.abs(states - reference.states[::stride])
    return states, errors, mu_history, gamma_history


def _lawson_step(f: Rhs, t: float, u: State, h: float, mu: Sequence[float]) -> State:
    """One Lawson RK4 step of x' = Mx + (f - Mx), written per component in
    the operation order of ``ode._rk4_march3``."""
    h2 = 0.5 * h
    s = h / 6.0
    p = [math.exp(m * h2) for m in mu]
    q = [math.exp(m * h) for m in mu]

    def shifted(t: float, x: Sequence[float]) -> list[float]:
        return [a - m * v for a, m, v in zip(f(t, tuple(x)), mu, x)]

    k1 = shifted(t, u)
    x2 = [pi * (ui + h2 * ki) for pi, ui, ki in zip(p, u, k1)]
    k2 = shifted(t + h2, x2)
    x3 = [pi * ui + h2 * ki for pi, ui, ki in zip(p, u, k2)]
    k3 = shifted(t + h2, x3)
    x4 = [qi * ui + (h * pi) * ki for qi, pi, ui, ki in zip(q, p, u, k3)]
    k4 = shifted(t + h, x4)
    return tuple(qi * ui + s * (qi * a + (2.0 * pi) * (b + c) + d)
                 for qi, pi, ui, a, b, c, d in zip(q, p, u, k1, k2, k3, k4))


def transformed_run(spec, plan, method, params, reference) -> tuple[np.ndarray, ...]:
    """``run_transformed``'s (states, errors_vs_reference, mu_history,
    gamma_max_history) by the per-step Lawson loop; raises its
    ``NonFiniteState``, at the interval's first step where a step factor
    exp(mu_i h) overflows."""
    problem = spec.problem
    dim = problem.dim
    stride = _align_reference(reference, plan, problem)
    n, k_intervals = plan.n_steps, plan.k_intervals
    spi, h, t0 = plan.steps_per_interval, plan.dt, plan.t_span[0]
    jac = problem.jacobian

    states = np.empty((n + 1, dim))
    u = problem.u0
    states[0] = u
    mu_history = np.empty((k_intervals, dim))
    gamma_history = np.empty(k_intervals)
    history: list[float] = []
    mu = select_mu(method, history, params)

    for k in range(k_intervals):
        base = k * spi
        t_k = t0 + base * h
        mu_history[k] = mu
        gamma_history[k] = local_eigenvalues(jac(t_k, u)).gamma_max
        for j in range(spi):
            try:
                u = _lawson_step(problem.rhs, t_k + j * h, u, h, mu)
            except OverflowError:
                raise NonFiniteState(t0 + (base + j + 1) * h) from None
            if _is_bad(u):
                raise NonFiniteState(t0 + (base + j + 1) * h)
            states[base + j + 1] = u
        history.append(float(gamma_history[k]))
        mu = select_mu(method, history, params)

    errors = np.abs(states - reference.states[::stride])
    return states, errors, mu_history, gamma_history


def dt_max(kappa: float, eps: float) -> float:
    """Largest step approximating a curve of curvature kappa by a secant to
    accuracy eps: 2*sqrt(2)*sqrt(eps/kappa).  Unbounded (inf) on a straight
    line."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if kappa == 0.0:
        return math.inf
    return SQRT8 * math.sqrt(eps / kappa)


def kappa_stiff(gamma: float, eps: float, t_star: float) -> float:
    """Curvature of the perturbation eps*exp(gamma*t) at elapsed time t_star:

        eps*gamma^2*exp(gamma t*) / (1 + eps^2 gamma^2 exp(2 gamma t*))^(3/2)

    Its maximum over t* is (2*sqrt(3)/9)*|gamma|, attained at
    t*_max = -ln(2 gamma^2 eps^2)/(2 gamma) whenever that is positive.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    g = gamma * t_star
    if g > 350.0:
        # growing branch far past the curvature peak: kappa ~ exp(-2g)/(eps^2|gamma|)
        return 0.0
    x = math.exp(g)
    return eps * gamma * gamma * x / (1.0 + (eps * gamma * x) ** 2) ** 1.5


def dt_stiff_at(gamma: float, eps: float, t_star: float) -> float:
    """Per-sample stiffness bound: the secant step resolving the perturbation
    curvature at elapsed time t_star, 2 sqrt(2) sqrt(eps/kappa_stiff(t*))."""
    if gamma >= 0:
        raise NonNegativeGamma(f"dt_stiff undefined for gamma={gamma!r} >= 0")
    return dt_max(kappa_stiff(gamma, eps, t_star), eps)


def q_unity_crossing(times: np.ndarray, q: np.ndarray) -> float | None:
    """First time the stiffness flag Q drops through 1 (linear bracket
    midpoint between the samples), or None if Q never starts above 1."""
    if q[0] <= 1.0:
        return None
    for k in range(1, len(q)):
        if q[k] <= 1.0:
            return 0.5 * (float(times[k - 1]) + float(times[k]))
    return None
