"""ODE problem abstraction, the three integrators used by the experiments,
and the extrapolation oracle their errors are measured against.

Solvers operate on plain float tuples internally (the benchmark systems have
1-3 components and single runs take 10^3-10^5 steps, so per-step numpy
overhead would dominate) and store their output in flat float buffers;
trajectories are returned as read-only numpy arrays.  The explicit
integrators exist once, unrolled for three components with the state in
locals; a dim-1 or dim-2 problem runs through them with its rhs and start
state padded by components that are 0.0 and stay 0.0 (see ``_padded``).
Fixed-step RK4, also in the transform driver and ``rk4_step``, and the
oracle's Gragg-Bulirsch-Stoer march store through a flat memoryview: a
kernel call per step plus a numpy row store from a tuple cost about 30% of
an RK4 step.  The adaptive RK4 step-doubling attempt inlines its three
kernel calls, its checks and its error norm: they cost about a third of a
Robertson attempt.  The oracle's march updates one Aitken-Neville row per
level in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
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
    return a sequence (tuple per component / tuple of rows).  ``rhs_dt``, the
    explicit time derivative of the right-hand side, is required: with the
    Jacobian it gives the solution's curvature exactly by the chain rule
    (``diagnostics.curvature_along``).  A problem has 1, 2 or 3 components.

    Lane contract: all three may also be called with ``t`` a 1-D array and
    each state component a 1-D array of the same length, one lane per
    sample.  Each returned entry is then an array of that length, equal lane
    by lane to the float calls, or a scalar (stiff-linear's ``-a``) that the
    caller broadcasts.  The solvers call with floats, the scans once per
    block of at most ``EIG_BLOCK`` samples.
    """

    name: str
    dim: int
    params: dict[str, float]
    rhs: Rhs
    jacobian: Jacobian
    u0: State
    t_span: tuple[float, float]
    rhs_dt: Callable[[float, State], Sequence[float]]

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.u0) != self.dim:
            raise ValueError(f"u0 has {len(self.u0)} components, expected {self.dim}")
        if len(self.t_span) != 2:
            raise ValueError(f"t_span must be two numbers (t_start, t_end), got {self.t_span}")
        t0, t1 = map(float, self.t_span)
        u0 = tuple(float(x) for x in self.u0)
        # an infinite t_end would make the adaptive loop's end test t < nan
        if not all(map(math.isfinite, (t0, t1, *u0))):
            raise ValueError(f"t_span and u0 must be finite, got {self.t_span} and {self.u0}")
        # a nan or inf parameter would integrate and then fail as a non-finite state
        if not all(map(math.isfinite, self.params.values())):
            raise ValueError(f"params must be finite, got {self.params}")
        # an infinite length would make the first step inf, which no shrink ends
        if not 0 < t1 - t0 < math.inf:
            raise ValueError(f"t_span must satisfy t_end > t_start with a finite length "
                             f"t_end - t_start, got {self.t_span}")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "t_span", (t0, t1))

    @property
    def horizon(self) -> float:
        return self.t_span[1] - self.t_span[0]


def _freeze(obj, *names: str, dtype=float) -> None:
    """Store each named field of a frozen dataclass as a read-only contiguous array."""
    for name in names:
        arr = np.ascontiguousarray(getattr(obj, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


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
        _freeze(self, "times", "states")
        if self.times.ndim != 1 or self.states.ndim != 2 or len(self.times) != len(self.states):
            raise ValueError("times must be (n,), states (n, dim) with matching n")
        if len(self.times) < 1:
            raise ValueError("a trajectory needs at least the initial sample")

    @property
    def t_reached(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def lanes(self, index) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(t, u) of the samples at ``index`` (a slice or index array) in lanes."""
        return self.times[index], tuple(self.states[index].T)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Step-size controller settings shared by the adaptive solvers."""

    tol: float
    dt_init: float
    dt_min: float = 1e-12
    dt_max: float = math.inf
    max_steps: int = 100_000

    def __post_init__(self):
        # an inf tol would accept the inf estimate of an outright-failed trial
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


# ---------------------------------------------------------------------------
# Lanes.  A scan evaluates a problem once per block of at most EIG_BLOCK
# samples: the per-call overhead is paid once per block, and the bound keeps
# memory flat (solving all 60,001 Jacobians of a 60,000-step Lorenz-84
# diagnose at once raised its peak RSS from 42.6 to 52.2 MB).

EIG_BLOCK = 1024


def _lane_blocks(n: int):
    """Slices that cover range(n) in blocks of at most EIG_BLOCK."""
    return (slice(k, min(k + EIG_BLOCK, n)) for k in range(0, n, EIG_BLOCK))


def _lane_matrix(rows: Sequence[Sequence], m: int) -> np.ndarray:
    """A matrix returned in m lanes as an (m, dim, dim) array, with scalar
    entries broadcast."""
    out = np.empty((m, len(rows), len(rows)))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[:, i, j] = entry
    return out


# ---------------------------------------------------------------------------
# RK4 stepping kernels.  Every explicit integrator below is written once, for
# three components.  A dim-1 or dim-2 problem runs through it padded by
# ``_padded``: its rhs is wrapped once to return 0.0 for the missing
# components, and its start state gets 0.0 there.  A padded component then
# stays exactly 0.0 (0.0 + h * 0.0 and the Neville update of zeros are 0.0),
# so the real components see the same IEEE operations in the same order as
# in a per-component loop: the non-finite check ``x + 0.0 + 0.0`` fails
# exactly when ``sum((x,))`` does, and the stage blow-up and error-norm
# maxima only gain zero terms.  ``tests/generic_reference.py`` keeps the
# per-component integrators and pins the padded runs to them bit for bit.
#
# Fixed-step runs, the intervals of ``run_transformed`` (with their shift)
# and ``rk4_step`` go through ``_rk4_march3``: the state in locals, the
# stages inline, and each state stored through a flat memoryview.  Against a
# kernel call per step that returns (u_next, k2, k3, k4), followed by an
# ``_is_bad`` call and a numpy row store from a tuple (about 0.7 us, against
# 0.14 us for three memoryview writes), this saves about 30% of a Lorenz-84
# step.
#
# Adaptive runs take their step-doubling attempts from ``_rk4_attempt3``:
# three RK4 steps (the full step and the first half step share k1), both
# ``_is_bad`` calls, the stage blow-up test and ``_scaled_diff`` inlined,
# the stages written as in ``_rk4_march3``.  Per attempt it saves three
# kernel calls and their returned 4-tuples, two ``_is_bad`` calls, a
# generator-fed ``max`` and a ``zip`` loop.  On Robertson it takes about
# 7 us, 11 rhs calls of 0.3 us each included, against 10 us for the same
# attempt built from three calls of a per-step kernel.

def _padded(f: Rhs, u: State) -> tuple[Rhs, State]:
    """The rhs ``f`` and state ``u`` of a system with ``len(u)`` components
    as those of a dim-3 system whose extra components are 0.0; ``f`` and
    ``u`` themselves for dim 3."""
    dim = len(u)
    if dim == 3:
        return f, u
    pad = (0.0,) * (3 - dim)

    def f3(t: float, v: State) -> State:
        return (*f(t, v[:dim]), *pad)

    return f3, (*u, *pad)


def rk4_step(f: Rhs, t: float, u: State, h: float, dim: int) -> State:
    """One classical RK4 step of the ``dim``-component system ``f`` from
    ``u`` at ``t``.  Raises ``NonFiniteState`` at t + h when the new state
    is not finite."""
    f3, u3 = _padded(f, u)
    out = [0.0] * 6
    _rk4_march3(f3, t, h, u3, 1, out)
    return tuple(out[3:3 + dim])


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
    times, states, _ = _fixed_grid(problem, n_steps, _rk4_march3)
    return Trajectory(times, states, RK4_FIXED, steps_taken=n_steps)


def _fixed_grid(problem: OdeProblem, n_steps: int,
                march3) -> tuple[np.ndarray, np.ndarray, object]:
    """The times and states of ``n_steps`` equidistant steps over the
    problem's t_span, marched by ``march3(f, t0, h, u, n, out)`` (``_rk4_march3``,
    ``_gbs_march3`` or ``run_transformed``'s interval loop) on the padded
    system into a flat (n + 1) x 3 store, and what ``march3`` returned."""
    t0, t1 = problem.t_span
    h = (t1 - t0) / n_steps
    f, u = _padded(problem.rhs, problem.u0)
    states = np.empty((n_steps + 1, 3))
    states[0] = u
    with memoryview(states.reshape(-1)) as out:
        result = march3(f, t0, h, u, n_steps, out)
    return t0 + h * np.arange(n_steps + 1), states[:, :problem.dim], result


def _rk4_march3(f: Rhs, t0: float, h: float, u: State, n: int,
                out: memoryview, mu: State = (0.0, 0.0, 0.0)) -> None:
    """``n`` fixed RK4 steps of a dim-3 system from ``u`` at ``t0``; state
    i + 1 goes to ``out[3i + 3 : 3i + 6]`` of the flat row-major store.
    Raises ``NonFiniteState`` at the end of the first step whose state is
    not finite, before storing it.

    The steps are Lawson's integrating-factor RK4 (Lawson 1967) for
    x' = Mx + (f(t, x) - Mx) with the shift M = diag(mu): with
    p = exp(mu h/2) and k_i = f(X_i) - mu X_i,

        X_2 = p (x + h/2 k_1),  X_3 = p x + h/2 k_2,  X_4 = p^2 x + h p k_3,
        x' = p^2 x + h/6 (p^2 k_1 + 2 p (k_2 + k_3) + k_4).

    With mu = 0, p = 1.0 multiplies exactly and 0.0 * x subtracts exactly,
    so this is classical RK4 bit for bit.  A step factor exp(mu h) that
    overflows makes the first state infinite."""
    x, y, z = u
    m1, m2, m3 = mu
    h2 = 0.5 * h
    s = h / 6.0
    exp = math.exp
    try:
        p1, p2, p3 = exp(m1 * h2), exp(m2 * h2), exp(m3 * h2)
        q1, q2, q3 = exp(m1 * h), exp(m2 * h), exp(m3 * h)
    except OverflowError:
        raise NonFiniteState(t0 + h) from None
    hp1, hp2, hp3 = h * p1, h * p2, h * p3
    tp1, tp2, tp3 = 2.0 * p1, 2.0 * p2, 2.0 * p3
    j = 3
    for i in range(n):
        t = t0 + i * h
        a1, b1, c1 = f(t, (x, y, z))
        a1 -= m1 * x
        b1 -= m2 * y
        c1 -= m3 * z
        x2, y2, z2 = p1 * (x + h2 * a1), p2 * (y + h2 * b1), p3 * (z + h2 * c1)
        a2, b2, c2 = f(t + h2, (x2, y2, z2))
        a2 -= m1 * x2
        b2 -= m2 * y2
        c2 -= m3 * z2
        x3, y3, z3 = p1 * x + h2 * a2, p2 * y + h2 * b2, p3 * z + h2 * c2
        a3, b3, c3 = f(t + h2, (x3, y3, z3))
        a3 -= m1 * x3
        b3 -= m2 * y3
        c3 -= m3 * z3
        x4, y4, z4 = q1 * x + hp1 * a3, q2 * y + hp2 * b3, q3 * z + hp3 * c3
        a4, b4, c4 = f(t + h, (x4, y4, z4))
        a4 -= m1 * x4
        b4 -= m2 * y4
        c4 -= m3 * z4
        x = q1 * x + s * (q1 * a1 + tp1 * (a2 + a3) + a4)
        y = q2 * y + s * (q2 * b1 + tp2 * (b2 + b3) + b4)
        z = q3 * z + s * (q3 * c1 + tp3 * (c2 + c3) + c4)
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
# (ki, kp) of ``_adaptive_loop``.  RK4 takes Gustafsson's PI gains
# (0.7/k, 0.4/k) for the order k = 5 of its error estimate; the trapezoid
# rule keeps the elementary controller with the exponent 1/3 of its estimate.
_RK4_GAINS = (0.14, 0.08)
_TRAPEZOID_GAINS = (1.0 / 3.0, 0.0)


def _adaptive_loop(
    problem: OdeProblem,
    u0: State,
    cfg: AdaptiveConfig,
    attempt: Callable[[float, State, float], tuple[State, float]],
    gains: tuple[float, float],
    solver_id: str,
) -> Trajectory:
    """Shared accept/reject loop: step-doubling estimate, PI step control.

    ``attempt(t, u, h)`` returns (proposed state, scaled error estimate); an
    inf estimate marks a failed/non-finite attempt.  A step is accepted when
    est <= tol.  With ``gains = (ki, kp)`` the step is resized by

        0.9 * (tol / est)**ki * (prev / tol)**kp,

    clamped to [h/4, 4h], where ``prev`` is the estimate of the last
    accepted step (tol before the first).  The proportional term damps the
    step-size oscillation of an explicit method marching at its stability
    boundary (Gustafsson 1991; Hairer-Wanner II, section IV.2).  kp = 0 is
    the elementary controller 0.9 * (tol / est)**ki, bit for bit: x**0.0 is
    1.0, and y * 1.0 is y.  The run starts from ``u0``, which is
    ``problem.u0`` or, for the explicit solver, that padded to three
    components; the trajectory keeps the first ``problem.dim`` of them.

    Accepted steps are appended to ``array("d")`` buffers of times and
    row-major states, which the result views without a copy: about 34 B a
    Robertson RK4 step, against 240 B for lists of tuples.  They grow per
    step; ``max_steps`` does not size them.
    """
    # imported here, so that runs without an adaptive solver do not map the
    # extension module (0.15 MB of peak RSS)
    from array import array

    t0, t1 = problem.t_span
    t_end = t1 - 1e-12 * max(1.0, abs(t1))
    # read once per run: attribute loads per attempt cost time on a 1e5-step run
    tol, dt_min, dt_max, max_steps = cfg.tol, cfg.dt_min, cfg.dt_max, cfg.max_steps
    h_floor = dt_min * (1.0 + 1e-12)
    inf = math.inf

    times = array("d", (t0,))
    states = array("d", u0)
    t = t0
    u = u0
    h = min(cfg.dt_init, t1 - t0)
    ki, kp = gains
    prev = tol
    taken = 0
    rejected = 0
    stagnated = False

    # each clamp by comparisons gives what min(hi, max(lo, x)) gives, nan included
    while t < t_end:
        if taken >= max_steps:
            stagnated = True
            break
        if t1 - t < h:
            h = t1 - t
        u_new, est = attempt(t, u, h)
        accepted = est <= tol
        if accepted:
            t += h
            u = u_new
            times.append(t)
            states.extend(u)
            taken += 1
        else:
            rejected += 1
            if h <= h_floor:
                stagnated = True
                break
        if 0.0 < est < inf:
            factor = _SAFETY * (tol / est) ** ki * (prev / tol) ** kp
            if factor > _SHRINK_MAX:
                if factor > _GROW_MAX:
                    factor = _GROW_MAX
            else:
                factor = _SHRINK_MAX
            if accepted:
                prev = est
        elif est == 0.0:
            factor = _GROW_MAX
        else:
            factor = _SHRINK_MAX
        h *= factor
        if h > dt_min:
            if h > dt_max:
                h = dt_max
        else:
            h = dt_min

    return Trajectory(
        np.frombuffer(times),
        np.frombuffer(states).reshape(-1, len(u0))[:, :problem.dim],
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
    stage k1 = f(t, u), so an attempt costs 11 rhs evaluations.

    The step size follows ``_adaptive_loop``'s PI controller with
    Gustafsson's gains (0.14, 0.08).  At the stability boundary the
    elementary controller 0.9 * (tol/est)**(1/5) alternated between too
    large and too small steps: on Robertson it rejected about 28% of its
    attempts, and from some start steps it shrank the step to dt_min within
    t = 14.  The PI controller rejects a handful of attempts there and
    marches at the stability limit from every start step tried.  Hitting
    dt_min or the step budget before t_end is not an error: the partial
    trajectory is returned with ``stagnated=True`` (the expected outcome on
    Robertson, where the budget runs out).
    """
    f, u0 = _padded(problem.rhs, problem.u0)
    return _adaptive_loop(problem, u0, cfg, partial(_rk4_attempt3, f), _RK4_GAINS,
                          solver_id=RK4_ADAPTIVE)


def _rk4_attempt3(f: Rhs, t: float, u: State, h: float) -> tuple[State, float]:
    """One step-doubling attempt of ``solve_rk4_adaptive``: (the two half
    steps' state, scaled error estimate), or (u, inf) for a rejected trial."""
    x, y, z = u
    a1, b1, c1 = f(t, u)
    # the full step
    h2 = 0.5 * h
    a2, b2, c2 = f(t + h2, (x + h2 * a1, y + h2 * b1, z + h2 * c1))
    a3, b3, c3 = f(t + h2, (x + h2 * a2, y + h2 * b2, z + h2 * c2))
    a4, b4, c4 = f(t + h, (x + h * a3, y + h * b3, z + h * c3))
    s = h / 6.0
    fx = x + s * (a1 + 2.0 * (a2 + a3) + a4)
    fy = y + s * (b1 + 2.0 * (b2 + b3) + b4)
    fz = z + s * (c1 + 2.0 * (c2 + c3) + c4)
    # the first half step, sharing k1
    h4 = 0.5 * h2
    p2, q2, r2 = f(t + h4, (x + h4 * a1, y + h4 * b1, z + h4 * c1))
    p3, q3, r3 = f(t + h4, (x + h4 * p2, y + h4 * q2, z + h4 * r2))
    p4, q4, r4 = f(t + h2, (x + h2 * p3, y + h2 * q3, z + h2 * r3))
    s2 = h2 / 6.0
    mx = x + s2 * (a1 + 2.0 * (p2 + p3) + p4)
    my = y + s2 * (b1 + 2.0 * (q2 + q3) + q4)
    mz = z + s2 * (c1 + 2.0 * (r2 + r3) + r4)
    # the second half step
    tm = t + h2
    p1, q1, r1 = f(tm, (mx, my, mz))
    p2, q2, r2 = f(tm + h4, (mx + h4 * p1, my + h4 * q1, mz + h4 * r1))
    p3, q3, r3 = f(tm + h4, (mx + h4 * p2, my + h4 * q2, mz + h4 * r2))
    p4, q4, r4 = f(tm + h2, (mx + h2 * p3, my + h2 * q3, mz + h2 * r3))
    hx = mx + s2 * (p1 + 2.0 * (p2 + p3) + p4)
    hy = my + s2 * (q1 + 2.0 * (q2 + q3) + q4)
    hz = mz + s2 * (r1 + 2.0 * (r2 + r3) + r4)
    # ``_is_bad`` inlined: the sum is nan/inf iff some component is
    w = hx + hy + hz
    if w - w != 0.0:
        return u, math.inf
    w = fx + fy + fz
    if w - w != 0.0:
        return u, math.inf
    # the stages are finite (the sums above are), so no comparison meets a nan
    m = _STAGE_BLOWUP * max(abs(a1), abs(b1), abs(c1)) + 1.0
    if not (-m <= a2 <= m and -m <= b2 <= m and -m <= c2 <= m
            and -m <= a3 <= m and -m <= b3 <= m and -m <= c3 <= m
            and -m <= a4 <= m and -m <= b4 <= m and -m <= c4 <= m):
        return u, math.inf
    # ``_scaled_diff`` inlined, floor 1e-6
    return (hx, hy, hz), max(abs(fx - hx) / (1e-6 + abs(x)),
                             abs(fy - hy) / (1e-6 + abs(y)),
                             abs(fz - hz) / (1e-6 + abs(z))) / 15.0


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
        h2 = 0.5 * h
        full = _trapezoid_newton(problem, t, u, h, res_tol)
        mid = None if full is None else _trapezoid_newton(problem, t, u, h2, res_tol)
        half = None if mid is None else _trapezoid_newton(problem, t + h2, mid, h2, res_tol)
        if half is None or _is_bad(half):
            if h <= cfg.dt_min * (1.0 + 1e-12):
                raise NewtonDivergence(f"Newton diverged at t={t!r} with dt at dt_min")
            return u, math.inf
        return half, _scaled_diff(full, half, u, floor=1e-6) / 3.0

    return _adaptive_loop(problem, problem.u0, cfg, attempt, _TRAPEZOID_GAINS,
                          solver_id=TRAPEZOID_ADAPTIVE)


# ---------------------------------------------------------------------------
# Gragg-Bulirsch-Stoer extrapolation, the reference oracle's integrator
# (Bulirsch & Stoer 1966; Hairer-Norsett-Wanner I, section II.9).  A macro
# step of size H from (t, u) runs Gragg's modified midpoint rule once per
# level j with n_j substeps of h = H / n_j, all levels starting from the one
# shared f(t, u):
#     z_1 = u + h f(t, u),   z_{k+1} = z_{k-1} + 2 h f(t + k h, z_k),
# and extrapolates the end values S_j = z_{n_j} to h = 0 by Aitken-Neville
# in h^2 (n_j even; no smoothing step, as in ODEX),
#     T_{j,k+1} = T_{j,k} + (T_{j,k} - T_{j-1,k}) / ((n_j / n_{j-k})^2 - 1).
# With n_j = 2j, j = 1..8, T_{8,8} is of order 16 at 1 + 64 = 65 rhs calls
# per macro step, at first one macro step per run step.  The order is
# controlled per macro step (Deuflhard 1983; Hairer-Norsett-Wanner I,
# section II.9): the step ends at the first of levels 4-7 whose T_{k,k} and
# T_{k,k-1} agree within ``ORACLE_SETTLE_TOL`` relative to the start state,
# after 17, 26, 37 or 50 rhs calls, and takes T_{8,8} otherwise.  On
# Lorenz-84 over [0, 30] the fine and the gate's run make 37,002 calls at
# N = 600 macro steps (41.1 a step), 65,034 at N = 1620 (26.8) and 367,200
# at N = 14400 (17, four levels on every step).  The 1e-8 gate moves by
# 6.3e-11 at N = 600 and by 2.4e-11 at N = 1620; it passes at the first
# count for every even N >= 346 and doubles N = 300 to 600.  Seven levels
# without smoothing pass at the first count only from N = 474 up.
#
# ``_gbs_march3`` is written for three components (state in locals) and
# stores as ``_rk4_march3`` does, into the padded grid of ``_fixed_grid``, so
# dim-1 and dim-2 problems run through it padded, like the RK4 solvers; a
# padded component is 0.0 on every level, so it never changes where a step
# ends.  Each component keeps its tableau row T_{j,1..j} in one list, reset
# per macro step: level j overwrites T_{j-1,k} by T_{j,k} as it reads it and
# appends T_{j,j}, the same operations in the same order as a row-by-row
# loop (precomputed Lagrange weights would round differently), so a step
# that runs all eight levels gives the T_{8,8} of a fixed eight-level step
# bit for bit.  A fresh list per level made the march 5-8% slower (Lorenz-84
# at N = 600, 2-core VM, CPython 3.11.7).

_GBS_SUBSTEPS = (2, 4, 6, 8, 10, 12, 14, 16)
_GBS_NEVILLE = tuple(
    tuple(1.0 / ((n / _GBS_SUBSTEPS[j - k - 1]) ** 2 - 1.0) for k in range(j))
    for j, n in enumerate(_GBS_SUBSTEPS)
)


def _gbs_march3(f: Rhs, t0: float, h: float, u: State, n: int,
                out: memoryview) -> int:
    """``n`` GBS macro steps of size ``h`` of a dim-3 system from ``u`` at
    ``t0``; state i + 1 goes to ``out[3i + 3 : 3i + 6]`` of the flat
    row-major store.  Returns the rhs calls it made.  Raises
    ``NonFiniteState`` at the end of the first macro step whose state is not
    finite, before storing it.  Each level's substep sizes, time offsets
    k * h / n_j and rhs calls, the same for every macro step, are computed once.

    Each macro step runs levels 1-4, then stops after the first of levels
    4-7 whose T_{k,k} and T_{k,k-1} agree within ``ORACLE_SETTLE_TOL``
    * (1 + |u_i|) in every component, u the step's start state, and takes
    T_{k,k}; otherwise it takes T_{8,8}.  A NaN or inf fails every
    comparison, so a non-finite step runs all eight levels."""
    # (h / n_j, 2 h / n_j, offsets, (k, c_{j,k}) pairs, rhs calls up to level
    # j (the shared f(t, u) and n_i - 1 per level i), whether level j may end
    # the step)
    levels = tuple((h / m, 2.0 * (h / m), tuple(k * (h / m) for k in range(1, m)),
                    tuple(enumerate(_GBS_NEVILLE[j])), 1 + sum(_GBS_SUBSTEPS[:j + 1]) - (j + 1),
                    3 <= j < 7) for j, m in enumerate(_GBS_SUBSTEPS))
    x, y, z = u
    j = 3
    calls = 0
    for i in range(n):
        t = t0 + i * h
        ex = ORACLE_SETTLE_TOL * (1.0 + abs(x))
        ey = ORACLE_SETTLE_TOL * (1.0 + abs(y))
        ez = ORACLE_SETTLE_TOL * (1.0 + abs(z))
        rx, ry, rz = [], [], []  # the tableau row T_{j,1..j} of each component
        a0, b0, c0 = f(t, (x, y, z))
        for hs, h2, offsets, neville, cost, settles in levels:
            x0, y0, z0 = x, y, z
            x1, y1, z1 = x + hs * a0, y + hs * b0, z + hs * c0
            for dt in offsets:
                a, b, c = f(t + dt, (x1, y1, z1))
                x0, x1 = x1, x0 + h2 * a
                y0, y1 = y1, y0 + h2 * b
                z0, z1 = z1, z0 + h2 * c
            tx, ty, tz = x1, y1, z1
            # T_{j,1} = S_j; T_{j,k+1} from T_{j,k} and T_{j-1,k}, which it replaces
            for k, ck in neville:
                px, py, pz = rx[k], ry[k], rz[k]
                rx[k], ry[k], rz[k] = tx, ty, tz
                tx += (tx - px) * ck
                ty += (ty - py) * ck
                tz += (tz - pz) * ck
            rx.append(tx)
            ry.append(ty)
            rz.append(tz)
            if settles and (abs(tx - rx[-2]) <= ex and abs(ty - ry[-2]) <= ey
                            and abs(tz - rz[-2]) <= ez):
                break
        calls += cost
        x, y, z = tx, ty, tz
        # ``_is_bad`` inlined: the sum is nan/inf iff some component is
        w = x + y + z
        if w - w != 0.0:
            raise NonFiniteState(t0 + (i + 1) * h)
        out[j] = x
        out[j + 1] = y
        out[j + 2] = z
        j += 3
    return calls


def problem_fingerprint(problem: OdeProblem) -> tuple:
    """(name, params, u0, t_span): what a reference solution was computed for."""
    return (problem.name, dict(problem.params), problem.u0, problem.t_span)


ORACLE_CHECK_TOL = 1e-8
# a GBS macro step ends once two diagonal entries agree within this, relative
ORACLE_SETTLE_TOL = 1e-14


def reference_solution(problem: OdeProblem, n_steps: int) -> Trajectory:
    """Gragg-Bulirsch-Stoer oracle sized by its own self-consistency gate.

    Takes n equidistant GBS macro steps, one per output sample, and again
    n / 2, and compares the two on the shared coarse grid; n is ``n_steps``,
    or 2 ``n_steps`` when that is odd.  While halving the macro step still
    moves some state component by >= 1e-8, n doubles and the refused run
    serves as the next half-resolution check.  Once a doubling fails to at
    least halve that delta, as at the round-off floor of a long chaotic run,
    ``OracleNotConverged`` is raised; a non-finite state raises
    ``NonFiniteState`` at once.  Each macro step ends its extrapolation once
    the tableau settles, after 17 to 65 rhs calls (on Lorenz-84 over
    [0, 30]: 41.1 a step at n = 600, 26.8 at n = 1620).  ``meta`` records
    the last gate's ``oracle_check_delta``, ``oracle_n_steps``, the rhs
    calls all runs made (``oracle_rhs_evals``) and the ``problem``
    fingerprint (name, params, u0, t_span) that ``run_transformed`` checks.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    n = n_steps * (1 + n_steps % 2)
    times, fine, calls = _fixed_grid(problem, n, _gbs_march3)
    coarse, coarse_calls = _fixed_grid(problem, n // 2, _gbs_march3)[1:]
    calls += coarse_calls
    last = math.inf
    while True:
        diff = fine[::2] - coarse
        np.abs(diff, out=diff)  # in place: one n/2 x dim temporary, not two
        delta = float(diff.max())
        if delta < ORACLE_CHECK_TOL:
            break
        if not delta <= 0.5 * last:
            raise OracleNotConverged(
                f"oracle self-consistency check failed for {problem.name}: "
                f"halving the step still moves the solution by {delta:.3e} at {n} "
                f"macro steps, {last:.3e} at {n // 2} (limit {ORACLE_CHECK_TOL:.1e}), "
                f"so more macro steps do not bring it down"
            )
        last, coarse, n = delta, fine, 2 * n
        times, fine, fine_calls = _fixed_grid(problem, n, _gbs_march3)
        calls += fine_calls
    meta = {
        "oracle_check_delta": delta,
        "oracle_n_steps": n,
        "oracle_rhs_evals": calls,
        "problem": problem_fingerprint(problem),
    }
    return Trajectory(times, fine, GBS_EXTRAPOLATION, n, meta=meta)


def check_jacobian(problem: OdeProblem, states: Sequence[State],
                   times: Sequence[float] | None = None, rtol: float = 1e-5) -> float:
    """Largest relative mismatch between the analytic Jacobian and central
    finite differences of the rhs over the given states.  Raises if it
    exceeds ``rtol``."""
    states = np.asarray(states, dtype=float)
    times = np.zeros(len(states)) if times is None else np.asarray(times, dtype=float)
    worst = 0.0
    for s in _lane_blocks(len(states)):
        t, u = times[s], states[s]
        j_analytic = _lane_matrix(problem.jacobian(t, tuple(u.T)), len(t))
        scale = np.maximum(1.0, np.max(np.abs(j_analytic), axis=(1, 2)))
        for j in range(problem.dim):
            step = np.zeros_like(u)
            step[:, j] = hj = 1e-7 * (1.0 + np.abs(u[:, j]))
            fp, fm = problem.rhs(t, tuple((u + step).T)), problem.rhs(t, tuple((u - step).T))
            for i in range(problem.dim):
                fd = (fp[i] - fm[i]) / (2.0 * hj)
                worst = max(worst, float(np.max(np.abs(fd - j_analytic[:, i, j]) / scale)))
    if worst > rtol:
        raise AssertionError(
            f"Jacobian of {problem.name} deviates from finite differences by "
            f"{worst:.3e} (relative), above {rtol:.1e}"
        )
    return worst
