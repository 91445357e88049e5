"""Local Lyapunov exponents, curvature, and the step-size bounds.

The local Lyapunov exponents gamma_i of an interval are the eigenvalues of
the (variational) Jacobian there.  From the curvature kappa of the solution
and the decay rate gamma of an accuracy-sized perturbation two step bounds
follow:

* ``dt_max``   -- largest step resolving the solution curve itself to
                  accuracy eps (secant-vs-arc bound, 2*sqrt(2)*sqrt(eps/kappa));
* ``dt_stiff`` -- largest step resolving the decaying perturbation
                  eps*exp(gamma*t).

Their ratio Q = dt_max/dt_stiff flags local stiffness (Q > 1: the
perturbation, not the solution, limits the step).  R = |gamma_min|/kappa is
the classical nonlinear stiffness measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ode import OdeProblem, Trajectory

SQRT8 = 2.0 * math.sqrt(2.0)
KAPPA_STIFF_PEAK = 2.0 * math.sqrt(3.0) / 9.0


class NonNegativeGamma(ValueError):
    """dt_stiff is undefined for non-negative local Lyapunov exponents."""


class InsufficientSamples(ValueError):
    """Trajectory too short for curvature estimation."""


# ---------------------------------------------------------------------------
# Eigenvalues of small real matrices.
#
# Every eigenvalue goes through numpy's batched LAPACK ``eigvals``, which
# handles huge entries, repeated roots and any dimension.  A scan stacks its
# Jacobians and solves them in blocks of EIG_BLOCK: one call per block pays
# numpy's per-call overhead once for many small matrices, and the bound keeps
# memory flat.  Solving all 60,001 Jacobians of a 60,000-step Lorenz-84
# diagnose in one call raised the run's peak RSS from 42.6 to 52.2 MB.

EIG_BLOCK = 1024


def eigenvalues_along(jac_at: Callable[[int], Sequence[Sequence[float]]],
                      n: int, dim: int) -> np.ndarray:
    """Eigenvalues of ``jac_at(k)`` for k < n as an (n, dim) complex array.

    Each row is sorted by descending real part, then descending imaginary
    part.
    """
    out = np.empty((n, dim), dtype=complex)
    block = np.empty((min(n, EIG_BLOCK), dim, dim))
    for start in range(0, n, EIG_BLOCK):
        m = min(n - start, EIG_BLOCK)
        for k in range(m):
            block[k] = jac_at(start + k)
        vals = np.linalg.eigvals(block[:m])
        # argsort of the negated values orders (-re, -im) ascending; taking
        # the unnegated values keeps a real block's +0.0 imaginary parts
        order = np.argsort(-vals, axis=1)
        out[start:start + m] = np.take_along_axis(vals, order, axis=1)
    return out


@dataclass(frozen=True)
class EigenSet:
    """Eigenvalue triple (or pair/singleton) of a local Jacobian."""

    values: tuple[complex, ...]
    t: float = 0.0

    @property
    def gamma_max(self) -> float:
        return max(v.real for v in self.values)

    @property
    def gamma_min(self) -> float:
        return min(v.real for v in self.values)


def local_eigenvalues(jac: Sequence[Sequence[float]], t: float = 0.0) -> EigenSet:
    """All eigenvalues of a real matrix, sorted by descending real part.

    These are the local Lyapunov exponents of the interval when ``jac`` is
    the variational Jacobian evaluated on the trajectory.
    """
    row = eigenvalues_along(lambda k: jac, 1, len(jac))[0]
    return EigenSet(values=tuple(map(complex, row)), t=t)


@dataclass(frozen=True)
class LleTrace:
    """Per-sample local Lyapunov exponents along a scan window.

    ``values`` is (n, dim) complex, each row ordered as ``eigenvalues_along``
    orders it, so gamma_max and gamma_min are its first and last columns.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name, dtype in (("times", float), ("values", complex)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def gamma_max(self) -> np.ndarray:
        return self.values[:, 0].real

    @property
    def gamma_min(self) -> np.ndarray:
        return self.values[:, -1].real


# ---------------------------------------------------------------------------
# Curvature.


def curvature(u_prime: float, u_double_prime: float) -> float:
    """Absolute local curvature |u''| / (1 + u'^2)^(3/2)."""
    return abs(u_double_prime) / (1.0 + u_prime * u_prime) ** 1.5


def curvature_along(traj: Trajectory, problem: OdeProblem, component: int = 0) -> np.ndarray:
    """Curvature of one solution component along a trajectory.

    Returns an (n, 2) array of (t, kappa).  When the problem carries both an
    analytic Jacobian and rhs_dt, u' = f and u'' = df/dt + J f are evaluated
    exactly from the states; otherwise centered finite differences on the
    (possibly non-uniform) sample grid are used.
    """
    n = len(traj.times)
    if n < 5:
        raise InsufficientSamples(f"need >= 5 samples, got {n}")
    if component < 0 or component >= problem.dim:
        raise ValueError(f"component {component} out of range for dim {problem.dim}")

    times = traj.times
    kap = np.empty(n)
    if problem.rhs_dt is not None:
        rhs, rhs_dt, jac = problem.rhs, problem.rhs_dt, problem.jacobian
        dim = problem.dim
        for k in range(n):
            t = float(times[k])
            u = tuple(traj.states[k])
            f = rhs(t, u)
            jrow = jac(t, u)[component]
            u2 = rhs_dt(t, u)[component] + sum(jrow[j] * f[j] for j in range(dim))
            kap[k] = curvature(f[component], u2)
    else:
        y = traj.states[:, component]
        d1 = np.empty(n)
        d2 = np.empty(n)
        for k in range(1, n - 1):
            hl = times[k] - times[k - 1]
            hr = times[k + 1] - times[k]
            d1[k] = (
                -hr / (hl * (hl + hr)) * y[k - 1]
                + (hr - hl) / (hl * hr) * y[k]
                + hl / (hr * (hl + hr)) * y[k + 1]
            )
            d2[k] = 2.0 * (
                y[k - 1] / (hl * (hl + hr)) - y[k] / (hl * hr) + y[k + 1] / (hr * (hl + hr))
            )
        d1[0], d2[0] = d1[1], d2[1]
        d1[-1], d2[-1] = d1[-2], d2[-2]
        for k in range(n):
            kap[k] = curvature(d1[k], d2[k])
    return np.column_stack([times, kap])


# ---------------------------------------------------------------------------
# Step-size bounds.


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


def t_star_peak(gamma: float, eps: float) -> float:
    """Time of maximal perturbation curvature, -ln(2 gamma^2 eps^2)/(2 gamma)."""
    return -math.log(2.0 * gamma * gamma * eps * eps) / (2.0 * gamma)


def dt_stiff(gamma: float, eps: float) -> float:
    """Largest step resolving the decaying perturbation eps*exp(gamma*t) at
    accuracy eps, evaluated at the point of maximal perturbation curvature.

    For 2 gamma^2 eps^2 >= 1 the curvature peak lies inside the interval and
        dt_stiff = 6 sqrt(eps / (sqrt(3) |gamma|)).
    Otherwise the peak sits at the interval start and the bound reduces to
        dt_stiff = 2 sqrt(2) / |gamma|,
    the operative form used throughout the reference results (the neglected
    factor (1 + eps^2 gamma^2)^(3/4) is below 1.36 on this branch and below
    1.07 for eps|gamma| <= 0.3).
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if gamma >= 0:
        raise NonNegativeGamma(f"dt_stiff undefined for gamma={gamma!r} >= 0")
    if 2.0 * (gamma * eps) ** 2 >= 1.0:
        return 6.0 * math.sqrt(eps / (math.sqrt(3.0) * abs(gamma)))
    return SQRT8 / abs(gamma)


def dt_stiff_at(gamma: float, eps: float, t_star: float) -> float:
    """Per-sample stiffness bound: the secant step resolving the perturbation
    curvature at elapsed time t_star, 2 sqrt(2) sqrt(eps/kappa_stiff(t*))."""
    if gamma >= 0:
        raise NonNegativeGamma(f"dt_stiff undefined for gamma={gamma!r} >= 0")
    return dt_max(kappa_stiff(gamma, eps, t_star), eps)


# ---------------------------------------------------------------------------
# Combined report.


@dataclass(frozen=True)
class StiffnessReport:
    """Per-sample kappa, dt_max, dt_stiff, Q and R for one trajectory.

    Q uses the problem horizon T as a proxy for an unbounded dt_max (straight
    line samples), and is 0 where gamma_min >= 0 (no decaying perturbation,
    hence no stiffness).  R = |gamma_min|/kappa is nan where kappa == 0.
    """

    times: np.ndarray
    kappa: np.ndarray
    dt_max: np.ndarray
    dt_stiff: np.ndarray
    q: np.ndarray
    r: np.ndarray
    gamma_min: np.ndarray
    gamma_max: np.ndarray
    eps: float
    horizon: float

    def __post_init__(self):
        for name in ("times", "kappa", "dt_max", "dt_stiff", "q", "r",
                      "gamma_min", "gamma_max"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def q_unity_crossing(self) -> float | None:
        """First time the stiffness flag Q drops through 1 (linear bracket
        midpoint between the samples), or None if Q never starts above 1."""
        q = self.q
        if q[0] <= 1.0:
            return None
        for k in range(1, len(q)):
            if q[k] <= 1.0:
                return 0.5 * (float(self.times[k - 1]) + float(self.times[k]))
        return None


def stiffness_report(
    traj: Trajectory,
    problem: OdeProblem,
    variational_jac: Callable[[float, tuple[float, ...]], Sequence[Sequence[float]]],
    eps: float,
    component: int = 0,
) -> StiffnessReport:
    """Evaluate the stiffness diagnostics along a trajectory.

    Per sample: trajectory curvature (via ``curvature_along``), the local
    Lyapunov exponents of the variational Jacobian, dt_max from the
    curvature, dt_stiff from gamma_min for an eps-perturbation that has been
    decaying since the window start (t* = t - t0), and the ratios Q, R.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    # only the two gamma columns are kept: the (n, dim) complex array is
    # dropped before the curvature and the per-sample arrays are allocated,
    # so a long trajectory's peak memory does not grow by it
    values = eigenvalues_along(
        lambda k: variational_jac(float(traj.times[k]), tuple(traj.states[k])),
        len(traj.times), problem.dim)
    gmax = values[:, 0].real.copy()
    gmin = values[:, -1].real.copy()
    del values
    tk = curvature_along(traj, problem, component)
    times = tk[:, 0]
    kappa = tk[:, 1]
    n = len(times)
    t0 = float(times[0])
    horizon = problem.horizon

    dtmax = np.empty(n)
    dtstiff = np.empty(n)
    q = np.empty(n)
    r = np.empty(n)
    for k in range(n):
        dtmax[k] = dt_max(float(kappa[k]), eps)
        if gmin[k] < 0.0:
            dtstiff[k] = dt_stiff_at(float(gmin[k]), eps, float(times[k]) - t0)
            q[k] = (dtmax[k] / dtstiff[k]) if math.isfinite(dtmax[k]) else horizon / dtstiff[k]
        else:
            dtstiff[k] = math.nan
            q[k] = 0.0
        r[k] = abs(gmin[k]) / kappa[k] if kappa[k] > 0.0 else math.nan
    return StiffnessReport(times, kappa, dtmax, dtstiff, q, r, gmin, gmax,
                           eps=eps, horizon=horizon)
