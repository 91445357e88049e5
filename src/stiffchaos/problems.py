"""The four benchmark systems, with analytic Jacobians and variational systems.

* stiff-linear : du/dt = -a u + a t + a + 1, exact solution 1 + t (+ transient)
* flame        : du/dt = u^2 - u^3, explosive combustion, stiff past t = 1/d
* robertson    : autocatalytic reaction kinetics, the classic stiff 3-system
* lorenz84     : Lorenz's 1984 Hadley-circulation model, chaotic 3-system
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# local_eigenvalues is unused here but stays a module attribute: the benchmark's
# tracer saves and patches it in every module that imported it.
from .diagnostics import LleTrace, eigenvalues_along, local_eigenvalues  # noqa: F401
from .ode import OdeProblem, State, Trajectory


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark problem plus its variational Jacobian and exact solution.

    For these first-order systems the variational Jacobian (of the
    perturbation system d(du)/dt = J du) is the rhs Jacobian, and the scans
    read ``problem.jacobian``; the separate field is kept for callers that
    rebuild specs with it.  ``exact`` (t -> state tuple) is present where a
    closed form exists.
    """

    problem: OdeProblem
    variational_jacobian: Callable[[float, State], Sequence[Sequence[float]]]
    exact: Callable[[float], State] | None


# Every factory takes its parameters under the names ``problem.params`` uses,
# plus ``u0`` (a state tuple) and ``t_span`` where the problem allows them;
# ``make_problem`` relies on that to pass a config through unchanged.


def stiff_linear(a: float = 300.0, u0: State = (1.0,),
                 t_span: tuple[float, float] = (0.0, 1.0)) -> BenchmarkSpec:
    """du/dt = -a*u + a*t + a + 1, u(t0) = u0.

    General solution 1 + t + c*exp(-a (t - t0)) with c = u0 - 1 - t0;
    asymptotically stable for moderate a > 0 and stiff for a >> 1.  The
    perturbation system is d(du)/dt = -a du.
    """
    if not a > 0:
        raise ValueError("a must be > 0")
    a = float(a)

    def rhs(t: float, u: State) -> State:
        return (-a * u[0] + a * t + a + 1.0,)

    def jac(t: float, u: State):
        return ((-a,),)

    def rhs_dt(t: float, u: State) -> State:
        return (a,)

    problem = OdeProblem(
        name="stiff-linear", dim=1, params={"a": a}, rhs=rhs, jacobian=jac,
        u0=u0, t_span=t_span, rhs_dt=rhs_dt,
    )
    t0 = problem.t_span[0]
    c = problem.u0[0] - 1.0 - t0

    def exact(t: float) -> State:
        return (1.0 + t + c * math.exp(-a * (t - t0)),)

    return BenchmarkSpec(problem, jac, exact)


def flame(d: float = 0.01, t_span: tuple[float, float] | None = None) -> BenchmarkSpec:
    """du/dt = u^2 - u^3, u(t0) = d on [0, 2/d] by default: flame propagation.

    Stiff for t > 1/d when d is small (the solution parks at the u = 1 fixed
    point where perturbations decay like exp(-(t - t0))).  The exact solution
    is recovered from the implicit relation

        1/u + ln((1-u)/u) = 1/d + ln((1-d)/d) - (t - t0)

    by bisection on u in (0, 1); the left side is strictly decreasing.  There
    is no ``u0`` parameter: the start value is ``d``.
    """
    if not 0.0 < d < 1.0:
        raise ValueError("d must lie in (0, 1)")
    d = float(d)

    def rhs(t: float, u: State) -> State:
        x = u[0]
        return (x * x * (1.0 - x),)

    def jac(t: float, u: State):
        x = u[0]
        return ((2.0 * x - 3.0 * x * x,),)

    def rhs_dt(t: float, u: State) -> State:
        return (0.0,)

    problem = OdeProblem(
        name="flame", dim=1, params={"d": d}, rhs=rhs, jacobian=jac,
        u0=(d,), t_span=(0.0, 2.0 / d) if t_span is None else t_span, rhs_dt=rhs_dt,
    )
    t0 = problem.t_span[0]
    c0 = 1.0 / d + math.log((1.0 - d) / d)

    def exact(t: float) -> State:
        target = c0 - (t - t0)
        lo, hi = 1e-300, 1.0 - 1e-16
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1.0 / mid + math.log((1.0 - mid) / mid) > target:
                lo = mid  # value too large -> u is larger
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, lo):
                break
        return (0.5 * (lo + hi),)

    return BenchmarkSpec(problem, jac, exact)


def robertson(a: float = 0.04, b: float = 1e4, c: float = 3e7,
              u0: State = (1.0, 0.0, 0.0),
              t_span: tuple[float, float] = (1e-6, 1e6)) -> BenchmarkSpec:
    """Robertson's autocatalytic reaction system, by default on [1e-6, 1e6].

        dx/dt = -a x + b y z
        dy/dt =  a x - b y z - c y^2
        dz/dt =  c y^2

    The rhs components sum to zero, so x + y + z is conserved (= 1).
    """
    if not (a > 0 and b > 0 and c > 0):
        raise ValueError("a, b, c must be > 0")
    a, b, c = float(a), float(b), float(c)

    def rhs(t: float, u: State) -> State:
        x, y, z = u
        byz = b * y * z
        cy2 = c * y * y
        return (-a * x + byz, a * x - byz - cy2, cy2)

    def jac(t: float, u: State):
        x, y, z = u
        return (
            (-a, b * z, b * y),
            (a, -b * z - 2.0 * c * y, -b * y),
            (0.0, 2.0 * c * y, 0.0),
        )

    def rhs_dt(t: float, u: State) -> State:
        return (0.0, 0.0, 0.0)

    problem = OdeProblem(
        name="robertson", dim=3, params={"a": a, "b": b, "c": c}, rhs=rhs,
        jacobian=jac, u0=u0, t_span=t_span, rhs_dt=rhs_dt,
    )
    return BenchmarkSpec(problem, jac, None)


def lorenz84(a: float = 0.25, b: float = 4.0, F: float = 8.0, G: float = 1.0,
             u0: State = (0.96, -1.1, 0.5),
             t_span: tuple[float, float] = (0.0, 30.0)) -> BenchmarkSpec:
    """Lorenz's 1984 Hadley-circulation model.

        dx/dt = -y^2 - z^2 - a x + a F
        dy/dt =  x y - b x z - y + G
        dz/dt =  b x y + x z - z

    Chaotic (not stiff) at the default parameters; the forcing terms F and G
    drop out of the Jacobian, so they do not affect the local Lyapunov
    exponents on a given trajectory.
    """
    a, b, f, g = float(a), float(b), float(F), float(G)

    def rhs(t: float, u: State) -> State:
        x, y, z = u
        return (
            -y * y - z * z - a * x + a * f,
            x * y - b * x * z - y + g,
            b * x * y + x * z - z,
        )

    def jac(t: float, u: State):
        x, y, z = u
        return (
            (-a, -2.0 * y, -2.0 * z),
            (y - b * z, x - 1.0, -b * x),
            (b * y + z, b * x, x - 1.0),
        )

    def rhs_dt(t: float, u: State) -> State:
        return (0.0, 0.0, 0.0)

    problem = OdeProblem(
        name="lorenz84", dim=3, params={"a": a, "b": b, "F": f, "G": g},
        rhs=rhs, jacobian=jac, u0=u0, t_span=t_span, rhs_dt=rhs_dt,
    )
    return BenchmarkSpec(problem, jac, None)


PROBLEM_FACTORIES: dict[str, Callable[..., BenchmarkSpec]] = {
    "stiff-linear": stiff_linear,
    "flame": flame,
    "robertson": robertson,
    "lorenz84": lorenz84,
}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def make_problem(name: str, params: dict | None = None,
                 u0: Sequence[float] | None = None,
                 t_span: Sequence[float] | None = None) -> BenchmarkSpec:
    """Instantiate a registered benchmark with optional overrides.

    ``params`` keys are the factory's keyword names (``problem.params``);
    ``u0`` and ``t_span`` go to the factory's keywords of the same name.
    """
    if name not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {name!r}; pick one of {sorted(PROBLEM_FACTORIES)}")
    factory = PROBLEM_FACTORIES[name]
    accepted = set(inspect.signature(factory).parameters)
    if not isinstance(params, (dict, type(None))):
        raise ValueError(f"params of {name} must be a mapping, got {params!r}")
    kwargs = dict(params or {})
    unknown = sorted(set(kwargs) - (accepted - {"u0", "t_span"}))
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {unknown}")
    for key, value in kwargs.items():
        if not _is_number(value):
            raise ValueError(f"parameter {key} of {name} must be a number, got {value!r}")
    for key, value in (("u0", u0), ("t_span", t_span)):
        if value is None:
            continue
        if key not in accepted:
            raise ValueError(f"{name} takes no {key}")
        if not (isinstance(value, (list, tuple, np.ndarray)) and all(map(_is_number, value))):
            raise ValueError(f"{key} of {name} must be a list of numbers, got {value!r}")
        kwargs[key] = value
    return factory(**kwargs)


def nearest_sample_indices(times: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the nearest accepted sample for each target time."""
    if len(times) == 1:
        return np.zeros(len(targets), dtype=np.intp)
    idx = np.searchsorted(times, targets)
    idx = np.clip(idx, 1, len(times) - 1)
    left_closer = (targets - times[idx - 1]) <= (times[idx] - targets)
    return np.where(left_closer, idx - 1, idx)


def lle_scan(problem: OdeProblem, traj: Trajectory, n_samples: int,
             window: tuple[float, float] | None = None) -> LleTrace:
    """Local Lyapunov exponents at equidistant scan times.

    The problem's Jacobian is evaluated on the state of the nearest
    accepted trajectory sample, without interpolation, so the scan is only
    as accurate as the trajectory's sample spacing: pass one sampled much
    finer than the scan (the acceptance suite's 400-point scan reads a
    16,200-step oracle over [0, 30]).  One sample scans the window's start.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    t0 = float(traj.times[0]) if window is None else float(window[0])
    t1 = float(traj.times[-1]) if window is None else float(window[1])
    if t0 < traj.times[0] - 1e-12 or t1 > traj.times[-1] + 1e-12:
        raise ValueError("scan window not covered by the trajectory")
    scan_times = np.linspace(t0, t1, n_samples)
    idx = nearest_sample_indices(traj.times, scan_times)
    jac = problem.jacobian
    values = eigenvalues_along(lambda s: jac(*traj.lanes(idx[s])), n_samples, problem.dim)
    return LleTrace(times=scan_times, values=values)
