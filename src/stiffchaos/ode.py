"""ODE problem abstraction, the three integrators used by the experiments,
and the extrapolation oracle their errors are measured against.

Solvers operate on plain float tuples internally (the benchmark systems have
1-3 components and single runs take 10^3-10^5 steps, so per-step numpy
overhead would dominate).  Trajectories are returned as read-only numpy
arrays.  Fixed-step RK4 and the oracle's Gragg-Bulirsch-Stoer march each
have one loop unrolled for dim-3 systems that stores through a flat
memoryview: a kernel call per step plus a numpy row store from a tuple cost
about 30% of an RK4 step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

State = tuple[float, ...]
Rhs = Callable[[float, State], Sequence[float]]
Jacobian = Callable[[float, State], Sequence[Sequence[float]]]

RK4_FIXED = "rk4_fixed"
RK4_ADAPTIVE = "rk4_adaptive"
TRAPEZOID_ADAPTIVE = "trapezoid_adaptive"
GBS_EXTRAPOLATION = "gbs_extrapolation"


class NonFiniteState(ArithmeticError):
    """A state component became inf/nan (blow-up or instability)."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"non-finite state encountered at t={t!r}")


class NewtonDivergence(ArithmeticError):
    """Newton iteration failed to converge even at the floor step size."""


class OracleNotConverged(ArithmeticError):
    """Reference solution failed its step-halving self-consistency check."""


@dataclass(frozen=True)
class OdeProblem:
    """First-order system du/dt = f(t, u) with analytic Jacobian.

    ``rhs`` and ``jacobian`` receive the state as a tuple of floats and must
    return a sequence (tuple per component / tuple of rows).  ``rhs_dt`` is
    the explicit time derivative of the right-hand side; when present it
    enables exact chain-rule curvature evaluation along trajectories.
    """

    name: str
    dim: int
    params: dict[str, float]
    rhs: Rhs
    jacobian: Jacobian
    u0: State
    t_span: tuple[float, float]
    rhs_dt: Callable[[float, State], Sequence[float]] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if len(self.u0) != self.dim:
            raise ValueError(f"u0 has {len(self.u0)} components, expected {self.dim}")
        t0, t1 = map(float, self.t_span)
        if not t1 > t0:
            raise ValueError(f"t_span must satisfy t_end > t_start, got {self.t_span}")
        object.__setattr__(self, "u0", tuple(float(x) for x in self.u0))
        object.__setattr__(self, "t_span", (t0, t1))

    @property
    def horizon(self) -> float:
        return self.t_span[1] - self.t_span[0]


@dataclass(frozen=True)
class Trajectory:
    """Ordered (time, state) samples plus solver bookkeeping.

    ``times`` is strictly increasing; ``states[0]`` equals the initial state
    of the generating run exactly.  Arrays are frozen after construction.
    """

    times: np.ndarray
    states: np.ndarray
    solver_id: str
    steps_taken: int
    steps_rejected: int = 0
    stagnated: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        states = np.ascontiguousarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or len(times) != len(states):
            raise ValueError("times must be (n,), states (n, dim) with matching n")
        if len(times) < 1:
            raise ValueError("a trajectory needs at least the initial sample")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def t_reached(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_at(self, index: int) -> State:
        return tuple(self.states[index])


@dataclass(frozen=True)
class AdaptiveConfig:
    """Step-size controller settings shared by the adaptive solvers."""

    tol: float
    dt_init: float
    dt_min: float = 1e-12
    dt_max: float = math.inf
    max_steps: int = 100_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


# ---------------------------------------------------------------------------
# RK4 stepping kernels.  Both take the first stage k1 = f(t, u) from the
# caller (step doubling shares it between the full and the first half step)
# and return (u_next, k2, k3, k4), so the adaptive solver can inspect the
# stages.  The dim-3 kernel is unrolled because Lorenz-84 and Robertson runs
# take 10^4-10^5 steps each; ``_rk4_kernel`` picks the kernel for
# ``rk4_step``, the adaptive solver and the transform driver.
#
# Fixed-step dim-3 runs go through ``_rk4_march3`` instead:
# ``_rk4_step3`` inlined into the loop with the same expressions in the same
# order, so its states are bit-identical to iterating ``rk4_step``.  Per step
# it saves the kernel call, the returned 4-tuple, the ``_is_bad`` call and
# the numpy row store from a tuple (about 0.7 us, against 0.14 us for three
# memoryview writes), together about 30% of a Lorenz-84 step.

def _rk4_step3(f: Rhs, t: float, u: State, h: float, k1: Sequence[float]):
    x, y, z = u
    a1, b1, c1 = k1
    h2 = 0.5 * h
    k2 = a2, b2, c2 = f(t + h2, (x + h2 * a1, y + h2 * b1, z + h2 * c1))
    k3 = a3, b3, c3 = f(t + h2, (x + h2 * a2, y + h2 * b2, z + h2 * c2))
    k4 = a4, b4, c4 = f(t + h, (x + h * a3, y + h * b3, z + h * c3))
    s = h / 6.0
    return (
        x + s * (a1 + 2.0 * (a2 + a3) + a4),
        y + s * (b1 + 2.0 * (b2 + b3) + b4),
        z + s * (c1 + 2.0 * (c2 + c3) + c4),
    ), k2, k3, k4


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


def _rk4_kernel(dim: int) -> Callable:
    return _rk4_step3 if dim == 3 else _rk4_stepn


def rk4_step(f: Rhs, t: float, u: State, h: float, dim: int) -> State:
    return _rk4_kernel(dim)(f, t, u, h, f(t, u))[0]


def _is_bad(u: State) -> bool:
    # sum(u) is nan/inf iff some component is (or the state already overflowed)
    s = sum(u)
    return (s - s) != 0.0


def solve_rk4_fixed(problem: OdeProblem, n_steps: int) -> Trajectory:
    """Classical 4-stage Runge-Kutta with equidistant steps.

    Raises ``NonFiniteState`` as soon as a component blows up.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    t0, t1 = problem.t_span
    h = (t1 - t0) / n_steps
    dim = problem.dim
    f = problem.rhs

    times = t0 + h * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, dim))
    u = problem.u0
    states[0] = u
    if dim == 3:
        with memoryview(states.reshape(-1)) as out:
            _rk4_march3(f, t0, h, u, n_steps, out)
    else:
        for i in range(n_steps):
            t = t0 + i * h
            u = _rk4_stepn(f, t, u, h, f(t, u))[0]
            if _is_bad(u):
                raise NonFiniteState(t0 + (i + 1) * h)
            states[i + 1] = u
    return Trajectory(times, states, RK4_FIXED, steps_taken=n_steps)


def _rk4_march3(f: Rhs, t0: float, h: float, u: State, n: int,
                out: memoryview) -> None:
    """``n`` fixed RK4 steps of a dim-3 system from ``u`` at ``t0``; state
    i + 1 goes to ``out[3i + 3 : 3i + 6]`` of the flat row-major store."""
    x, y, z = u
    h2 = 0.5 * h
    s = h / 6.0
    j = 3
    for i in range(n):
        t = t0 + i * h
        a1, b1, c1 = f(t, (x, y, z))
        a2, b2, c2 = f(t + h2, (x + h2 * a1, y + h2 * b1, z + h2 * c1))
        a3, b3, c3 = f(t + h2, (x + h2 * a2, y + h2 * b2, z + h2 * c2))
        a4, b4, c4 = f(t + h, (x + h * a3, y + h * b3, z + h * c3))
        x = x + s * (a1 + 2.0 * (a2 + a3) + a4)
        y = y + s * (b1 + 2.0 * (b2 + b3) + b4)
        z = z + s * (c1 + 2.0 * (c2 + c3) + c4)
        # ``_is_bad`` inlined: the sum is nan/inf iff some component is
        w = x + y + z
        if w - w != 0.0:
            raise NonFiniteState(t0 + (i + 1) * h)
        out[j] = x
        out[j + 1] = y
        out[j + 2] = z
        j += 3


def _scaled_diff(full: State, half: State, u_start: State, floor: float) -> float:
    # max abs difference, components weighted by 1/(floor + |u|) at the step
    # START: the Robertson components span ten orders of magnitude, and
    # scaling by the pre-step state keeps a blown-up trial pair from
    # endorsing itself.
    m = 0.0
    for a, b, u in zip(full, half, u_start):
        d = abs(a - b) / (floor + abs(u))
        if d > m:
            m = d
    return m


_GROW_MAX = 4.0
_SHRINK_MAX = 0.25
_SAFETY = 0.9


def _adaptive_loop(
    problem: OdeProblem,
    cfg: AdaptiveConfig,
    attempt: Callable[[float, State, float], tuple[State, float]],
    exponent: float,
    solver_id: str,
) -> Trajectory:
    """Shared accept/reject loop: step-doubling estimate, power-law resize.

    ``attempt(t, u, h)`` returns (proposed state, scaled error estimate); an
    inf estimate marks a failed/non-finite attempt.  A step is accepted when
    est <= tol, and the step is resized by 0.9 * (tol/est)**exponent,
    clamped to [h/4, 4h].
    """
    t0, t1 = problem.t_span
    end_eps = 1e-12 * max(1.0, abs(t1))

    times = [t0]
    states = [problem.u0]
    t = t0
    u = problem.u0
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
        np.array(states),
        solver_id,
        steps_taken=taken,
        steps_rejected=rejected,
        stagnated=stagnated,
    )


_STAGE_BLOWUP = 10.0


def solve_rk4_adaptive(problem: OdeProblem, cfg: AdaptiveConfig) -> Trajectory:
    """RK4 with step-doubling error control.

    One full step is compared against two half steps; the scaled difference
    /15 estimates the local error of the half-step result, which is the one
    propagated.  The error norm is relative per component (scale
    1e-6 + |u_i|): beyond the stability boundary a trial can move a small
    component (Robertson's y) across zero by an amount that is far below any
    absolute tolerance yet lethal, because the negative-y branch has a
    finite-time singularity.  Relative control rejects such steps and keeps
    the solver marching at the stability limit, which is the documented
    Robertson behavior.  A trial whose internal stage derivatives exceed the
    step-start derivative scale by an order of magnitude is rejected
    outright as well.  The full step and the first half step share the
    stage k1 = f(t, u), so an attempt costs 11 rhs evaluations.  Hitting
    dt_min or the step budget before t_end is not an error: the partial
    trajectory is returned with ``stagnated=True`` (the expected outcome on
    Robertson).
    """
    f = problem.rhs
    step = _rk4_kernel(problem.dim)

    def attempt(t: float, u: State, h: float) -> tuple[State, float]:
        k1 = f(t, u)
        full, k2, k3, k4 = step(f, t, u, h, k1)
        h2 = 0.5 * h
        mid = step(f, t, u, h2, k1)[0]
        half = step(f, t + h2, mid, h2, f(t + h2, mid))[0]
        if _is_bad(half) or _is_bad(full):
            return u, math.inf
        # the stages are finite here: a non-finite stage makes ``full`` bad
        m0 = max(map(abs, k1))
        if not max(max(map(abs, k)) for k in (k2, k3, k4)) <= _STAGE_BLOWUP * m0 + 1.0:
            return u, math.inf
        return half, _scaled_diff(full, half, u, floor=1e-6) / 15.0

    return _adaptive_loop(problem, cfg, attempt, exponent=0.2,
                          solver_id=RK4_ADAPTIVE)


# ---------------------------------------------------------------------------
# Implicit trapezoid with Newton iteration.

def gauss_solve(a: list[list[float]], b: list[float]) -> list[float] | None:
    """Solve a small dense system by Gaussian elimination with partial
    pivoting.  Returns None on a (numerically) singular matrix."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) < 1e-300:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            fac = m[r][col] * inv
            if fac != 0.0:
                for c in range(col, n + 1):
                    m[r][c] -= fac * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


_NEWTON_MAX_ITER = 25


def _trapezoid_newton(
    problem: OdeProblem, t: float, u: State, h: float, res_tol: float
) -> State | None:
    """One implicit trapezoid step solved by Newton iteration.

    Converges the scaled residual well below ``res_tol`` when it can (the
    extra iterations are nearly free at dim <= 3 and keep linear invariants
    such as the Robertson mass balance at machine accuracy).  Returns None on
    divergence so the caller can reject and halve the step.
    """
    f = problem.rhs
    jac = problem.jacobian
    dim = problem.dim
    t1 = t + h
    h2 = 0.5 * h
    f0 = f(t, u)
    v = u
    best_res = math.inf
    res = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        fv = f(t1, v)
        g = [v[i] - u[i] - h2 * (f0[i] + fv[i]) for i in range(dim)]
        res = max(abs(g[i]) / (1.0 + abs(v[i])) for i in range(dim))
        if not math.isfinite(res):
            return None
        if res <= 1e-6 * res_tol:
            return v
        if res > 4.0 * best_res:
            return None
        best_res = min(best_res, res)
        jv = jac(t1, v)
        a = [[(1.0 if i == j else 0.0) - h2 * jv[i][j] for j in range(dim)] for i in range(dim)]
        delta = gauss_solve(a, [-gi for gi in g])
        if delta is None:
            return None
        v = tuple(v[i] + delta[i] for i in range(dim))
    return v if res <= res_tol else None


def solve_trapezoid_adaptive(problem: OdeProblem, cfg: AdaptiveConfig) -> Trajectory:
    """A-stable implicit trapezoid, step-doubling estimate, adaptive steps.

    The error norm here is relative per component (scale 1e-6 + |u_i|): with
    the additive (1 + |u|) scale a tol = 1e-3 run takes late Robertson steps
    whose absolute error rivals the small x-component itself, walks x across
    zero, and the off-manifold branch then runs away.  Relative control
    keeps the per-step damage proportional to each component.

    Newton residual per step is kept below tol/10 (usually far below, which
    preserves linear invariants such as the Robertson mass balance at
    machine level).  A diverging Newton iteration rejects the step;
    ``NewtonDivergence`` is raised only if that happens at dt_min.
    Setting dt_min == dt_init == dt_max forces fixed-step trapezoid.
    """
    res_tol = cfg.tol / 10.0

    def attempt(t: float, u: State, h: float) -> tuple[State, float]:
        full = _trapezoid_newton(problem, t, u, h, res_tol)
        if full is None:
            if h <= cfg.dt_min * (1.0 + 1e-12):
                raise NewtonDivergence(f"Newton diverged at t={t!r} with dt at dt_min")
            return u, math.inf
        h2 = 0.5 * h
        mid = _trapezoid_newton(problem, t, u, h2, res_tol)
        half = None if mid is None else _trapezoid_newton(problem, t + h2, mid, h2, res_tol)
        if half is None or _is_bad(half):
            if h <= cfg.dt_min * (1.0 + 1e-12):
                raise NewtonDivergence(f"Newton diverged at t={t!r} with dt at dt_min")
            return u, math.inf
        return half, _scaled_diff(full, half, u, floor=1e-6) / 3.0

    return _adaptive_loop(problem, cfg, attempt, exponent=1.0 / 3.0,
                          solver_id=TRAPEZOID_ADAPTIVE)


# ---------------------------------------------------------------------------
# Gragg-Bulirsch-Stoer extrapolation, the reference oracle's integrator
# (Bulirsch & Stoer 1966; Hairer-Norsett-Wanner I, section II.9).  A macro
# step of size H from (t, u) runs Gragg's modified midpoint rule once per
# level j with n_j substeps of h = H / n_j, all levels starting from the one
# shared f(t, u):
#     z_1 = u + h f(t, u),   z_{k+1} = z_{k-1} + 2 h f(t + k h, z_k),
# smooths the end value,
#     S_j = (z_{n-1} + z_n + h f(t + H, z_n)) / 2,
# and extrapolates the S_j to h = 0 by Aitken-Neville in h^2,
#     T_{j,k+1} = T_{j,k} + (T_{j,k} - T_{j-1,k}) / ((n_j / n_{j-k})^2 - 1).
# With n_j = 2j, j = 1..6, T_{6,6} is of order 12 at 1 + 42 = 43 rhs calls
# per macro step.  The level count is fixed: on Lorenz-84 at two macro steps
# per run step six levels clear the 1e-8 gate 50-fold, and beyond about
# eight levels roundoff undoes what the extra calls buy.
#
# ``_gbs_march3`` is ``_gbs_march`` unrolled for dim-3 systems (state in
# locals, flat memoryview stores) with the same expressions in the same
# order, so the two give bit-identical states.

_GBS_SUBSTEPS = (2, 4, 6, 8, 10, 12)
_GBS_NEVILLE = tuple(
    tuple(1.0 / ((n / _GBS_SUBSTEPS[j - k - 1]) ** 2 - 1.0) for k in range(j))
    for j, n in enumerate(_GBS_SUBSTEPS)
)
_GBS_RHS_PER_STEP = 1 + sum(_GBS_SUBSTEPS)


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


def _gbs_march3(f: Rhs, t0: float, h: float, u: State, states: np.ndarray) -> None:
    """``_gbs_march`` for a dim-3 system, bit-identical to it.  The
    substep sizes and time offsets k * h / n_j, the same for every macro
    step, are computed once."""
    levels = tuple((h / n, 2.0 * (h / n), tuple(k * (h / n) for k in range(1, n)), factors)
                   for n, factors in zip(_GBS_SUBSTEPS, _GBS_NEVILLE))
    x, y, z = u
    j = 3
    with memoryview(states.reshape(-1)) as out:
        for i in range(len(states) - 1):
            t = t0 + i * h
            t_end = t + h
            a0, b0, c0 = f(t, (x, y, z))
            px = py = pz = ()
            for hs, h2, offsets, factors in levels:
                x0, y0, z0 = x, y, z
                x1, y1, z1 = x + hs * a0, y + hs * b0, z + hs * c0
                for dt in offsets:
                    a, b, c = f(t + dt, (x1, y1, z1))
                    x0, x1 = x1, x0 + h2 * a
                    y0, y1 = y1, y0 + h2 * b
                    z0, z1 = z1, z0 + h2 * c
                a, b, c = f(t_end, (x1, y1, z1))
                sx = 0.5 * (x0 + x1 + hs * a)
                sy = 0.5 * (y0 + y1 + hs * b)
                sz = 0.5 * (z0 + z1 + hs * c)
                rx, ry, rz = [sx], [sy], [sz]
                for qx, qy, qz, c in zip(px, py, pz, factors):
                    sx = sx + (sx - qx) * c
                    sy = sy + (sy - qy) * c
                    sz = sz + (sz - qz) * c
                    rx.append(sx)
                    ry.append(sy)
                    rz.append(sz)
                px, py, pz = rx, ry, rz
            x, y, z = sx, sy, sz
            # ``_is_bad`` inlined: the sum is nan/inf iff some component is
            w = x + y + z
            if w - w != 0.0:
                raise NonFiniteState(t0 + (i + 1) * h)
            out[j] = x
            out[j + 1] = y
            out[j + 2] = z
            j += 3


def _gbs_states(problem: OdeProblem, n_steps: int) -> np.ndarray:
    t0, t1 = problem.t_span
    states = np.empty((n_steps + 1, problem.dim))
    states[0] = problem.u0
    march = _gbs_march3 if problem.dim == 3 else _gbs_march
    march(problem.rhs, t0, (t1 - t0) / n_steps, problem.u0, states)
    return states


def problem_fingerprint(problem: OdeProblem) -> tuple:
    """(name, params, u0, t_span): what a reference solution was computed for."""
    return (problem.name, dict(problem.params), problem.u0, problem.t_span)


ORACLE_CHECK_TOL = 1e-8


def reference_solution(problem: OdeProblem, n_steps: int) -> Trajectory:
    """Gragg-Bulirsch-Stoer oracle with a built-in self-consistency gate.

    Takes ``n_steps`` equidistant GBS macro steps, one per output sample,
    and again ``n_steps // 2``, and compares the two on the shared coarse
    grid: if halving the macro step from n/2 to n still moves any state
    component by >= 1e-8, the oracle is not trustworthy at this resolution
    and ``OracleNotConverged`` is raised.  ``n_steps`` must be even.
    ``meta`` records the gate's ``oracle_check_delta``, ``oracle_n_steps``,
    the rhs calls of both runs (``oracle_rhs_evals``) and the ``problem``
    fingerprint (name, params, u0, t_span) that ``run_transformed`` checks.
    """
    if n_steps < 2 or n_steps % 2:
        raise ValueError("n_steps must be even and >= 2")
    fine = _gbs_states(problem, n_steps)
    coarse = _gbs_states(problem, n_steps // 2)
    diff = fine[::2] - coarse
    np.abs(diff, out=diff)  # in place: one n/2 x dim temporary, not two
    delta = float(diff.max())
    if not delta < ORACLE_CHECK_TOL:
        raise OracleNotConverged(
            f"oracle self-consistency check failed for {problem.name}: "
            f"halving the step still moves the solution by {delta:.3e} "
            f"(limit {ORACLE_CHECK_TOL:.1e}); increase the refinement"
        )
    t0, t1 = problem.t_span
    times = t0 + ((t1 - t0) / n_steps) * np.arange(n_steps + 1)
    meta = {
        "oracle_check_delta": delta,
        "oracle_n_steps": n_steps,
        "oracle_rhs_evals": _GBS_RHS_PER_STEP * (n_steps + n_steps // 2),
        "problem": problem_fingerprint(problem),
    }
    return Trajectory(times, fine, GBS_EXTRAPOLATION, n_steps, meta=meta)


def check_jacobian(problem: OdeProblem, states: Sequence[State],
                   times: Sequence[float] | None = None, rtol: float = 1e-5) -> float:
    """Largest relative mismatch between the analytic Jacobian and central
    finite differences of the rhs over the given states.  Raises if it
    exceeds ``rtol``."""
    worst = 0.0
    for k, u in enumerate(states):
        t = 0.0 if times is None else times[k]
        j_analytic = problem.jacobian(t, tuple(u))
        scale = max(1.0, max(abs(j_analytic[i][j])
                             for i in range(problem.dim) for j in range(problem.dim)))
        for j in range(problem.dim):
            hj = 1e-7 * (1.0 + abs(u[j]))
            up = tuple(x + (hj if i == j else 0.0) for i, x in enumerate(u))
            dn = tuple(x - (hj if i == j else 0.0) for i, x in enumerate(u))
            fp = problem.rhs(t, up)
            fm = problem.rhs(t, dn)
            for i in range(problem.dim):
                fd = (fp[i] - fm[i]) / (2.0 * hj)
                err = abs(fd - j_analytic[i][j]) / scale
                worst = max(worst, err)
    if worst > rtol:
        raise AssertionError(
            f"Jacobian of {problem.name} deviates from finite differences by "
            f"{worst:.3e} (relative), above {rtol:.1e}"
        )
    return worst
