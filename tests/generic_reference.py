"""The per-component integrators that the library's unrolled dim-3 code
replaced, kept as references: ``_rk4_stepn``, ``_rk4_attempt`` and
``_gbs_march`` are copied from ``stiffchaos.ode`` as it was before dim-1 and
dim-2 problems ran through the dim-3 code zero-padded, and
``fixed_states`` is the fixed-step loop ``solve_rk4_fixed`` ran on them.  The
tests pin the library to these bit for bit, for every dimension;
``_gbs_march``'s row-by-row Aitken-Neville loop, which builds each row as a
new list, is also the reference for the library's in-place row update, and
it ends a macro step by the library's rule, once the tableau settles.  Its
levels and tolerance are this module's own constants, not the library's.
By default it extrapolates each level's midpoint end value as the library
does; with ``smooth`` it first takes Gragg's smoothing step, as the oracle
did before it took eight levels.  ``gbs6_oracle`` is the oracle
``reference_solution`` was, bit for bit, before it took seven levels at one
macro step per run step: six smoothed levels (``GBS6_SUBSTEPS``) at two.
``gbs7_oracle`` is the one after it, before each macro step ended once its
tableau settled: all seven smoothed levels on every macro step.  The tests
bound the library's oracle by both.

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

``select_mu`` is the shift selection as a chain of one branch per method,
copied unchanged from ``stiffchaos.transform`` as it was before each method
became a row of ``METHOD_RULES``; the two reference runs above select their
shifts with it, and the library's table must equal it bit for bit, the
sign of a zero included.

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
from stiffchaos.transform import MuMethod, TransformParams, _align_reference


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


# the GBS levels n_j = 2j, j = 1..8, of ``reference_solution``, and the seven
# and six of the smoothed oracles before it; a macro step ends after the first
# of levels 4-7 whose last two diagonal entries agree within GBS_SETTLE_TOL *
# (1 + |u_i|) in every component, and after level 8 otherwise
GBS_SUBSTEPS = (2, 4, 6, 8, 10, 12, 14, 16)
GBS7_SUBSTEPS = GBS_SUBSTEPS[:7]
GBS6_SUBSTEPS = GBS_SUBSTEPS[:6]
GBS_MIN_LEVELS = 4
GBS_SETTLE_TOL = 1e-14


def _gbs_march(f: Rhs, t0: float, h: float, u: State, states: np.ndarray,
               substeps: Sequence[int] = GBS_SUBSTEPS,
               settle: float | None = GBS_SETTLE_TOL, smooth: bool = False) -> None:
    """GBS macro steps of size ``h`` from ``u`` at ``t0``; state i + 1 goes
    to ``states[i + 1]``.  Raises ``NonFiniteState`` at the end of the first
    macro step whose state is not finite.  With ``settle`` None every macro
    step runs all of ``substeps``' levels.  Each level's end value z_n is
    extrapolated as it is, or with ``smooth`` after Gragg's smoothing step
    (z_{n-1} + z_n + h f(t + H, z_n)) / 2, one rhs call more."""
    neville = tuple(
        tuple(1.0 / ((n / substeps[j - k - 1]) ** 2 - 1.0) for k in range(j))
        for j, n in enumerate(substeps)
    )
    for i in range(len(states) - 1):
        t = t0 + i * h
        f0 = f(t, u)
        row: list[State] = []
        for level, (n, factors) in enumerate(zip(substeps, neville), 1):
            hs = h / n
            h2 = 2.0 * hs
            z0 = u
            z1 = tuple(a + hs * b for a, b in zip(u, f0))
            for k in range(1, n):
                z0, z1 = z1, tuple(a + h2 * b for a, b in zip(z0, f(t + k * hs, z1)))
            s = z1
            if smooth:
                s = tuple(0.5 * (a + b + hs * c) for a, b, c in zip(z0, z1, f(t + h, z1)))
            new = [s]
            for prev, c in zip(row, factors):
                s = tuple(a + (a - b) * c for a, b in zip(s, prev))
                new.append(s)
            row = new
            if settle is not None and level >= GBS_MIN_LEVELS and all(
                    abs(a - b) <= settle * (1.0 + abs(c))
                    for a, b, c in zip(row[-1], row[-2], u)):
                break
        u = row[-1]
        if _is_bad(u):
            raise NonFiniteState(t0 + (i + 1) * h)
        states[i + 1] = u


def _fixed_level_oracle(problem: OdeProblem, n_steps: int, refine: int,
                        substeps: Sequence[int]) -> tuple[np.ndarray, float]:
    """The smoothed oracle of ``substeps``' levels, every one on every macro step, at
    ``refine`` macro steps per run step: its states on the grid of
    ``n_steps`` run steps and its gate's max|difference| from half as many
    macro steps."""
    t0, t1 = problem.t_span
    runs = []
    for n in (refine * n_steps, refine * n_steps // 2):
        states = np.empty((n + 1, problem.dim))
        states[0] = problem.u0
        _gbs_march(problem.rhs, t0, (t1 - t0) / n, problem.u0, states, substeps, None,
                   smooth=True)
        runs.append(states)
    fine = runs[0][::refine]
    return fine, float(np.max(np.abs(runs[0][::2] - runs[1])))


def gbs6_oracle(problem: OdeProblem, n_steps: int) -> tuple[np.ndarray, float]:
    """The six-level oracle on the grid of ``n_steps`` run steps: the states
    of 2 ``n_steps`` macro steps at every other sample, and its gate's
    max|difference| from ``n_steps`` macro steps."""
    return _fixed_level_oracle(problem, n_steps, 2, GBS6_SUBSTEPS)


def gbs7_oracle(problem: OdeProblem, n_steps: int) -> tuple[np.ndarray, float]:
    """The seven-level oracle of one macro step per run step (``n_steps``
    even), every level on every macro step, and its gate's max|difference|
    from ``n_steps // 2`` macro steps."""
    return _fixed_level_oracle(problem, n_steps, 1, GBS7_SUBSTEPS)


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
        return tuple(c * history[-1] for c in params.coeffs)
    if method is MuMethod.CUMULATIVE_AVG:
        avg = sum(history) / len(history)
    else:  # MuMethod.WINDOW_AVG
        tail = history[-2:]
        avg = sum(tail) / len(tail)
    return tuple(c * avg for c in params.coeffs)


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


def zsystem_run(problem, plan, method, params, reference) -> tuple[np.ndarray, ...]:
    """``run_transformed``'s (states, errors_vs_reference, mu_history,
    gamma_max_history) by the z-system loop; raises ``NonFiniteState`` at the
    first non-finite back-transformed state, and ``OverflowError`` where an
    interval's exponent argument max|mu_i| tau would exceed 700."""
    dim = problem.dim
    stride = _align_reference(reference, plan, problem)
    n, k_intervals = plan.n_steps, plan.k_intervals
    spi, h, t0 = plan.steps_per_interval, problem.horizon / n, problem.t_span[0]
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


def transformed_run(problem, plan, method, params, reference) -> tuple[np.ndarray, ...]:
    """``run_transformed``'s (states, errors_vs_reference, mu_history,
    gamma_max_history) by the per-step Lawson loop; raises its
    ``NonFiniteState``, at the interval's first step where a step factor
    exp(mu_i h) overflows."""
    dim = problem.dim
    stride = _align_reference(reference, plan, problem)
    n, k_intervals = plan.n_steps, plan.k_intervals
    spi, h, t0 = plan.steps_per_interval, problem.horizon / n, problem.t_span[0]
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
