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

``curvature``, ``dt_max``, ``kappa_stiff`` and ``dt_stiff_at`` take floats or
arrays element by element, within 4 ulp of the per-sample libm form (``dt_max``
exactly); where that form overflows, ``kappa_stiff`` takes the limit |gamma|/w^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .ode import OdeProblem, Trajectory, _freeze, _lane_blocks, _lane_matrix

SQRT8 = 2.0 * math.sqrt(2.0)
KAPPA_STIFF_PEAK = 2.0 * math.sqrt(3.0) / 9.0


class NonNegativeGamma(ValueError):
    """dt_stiff is undefined for non-negative local Lyapunov exponents."""


# ---------------------------------------------------------------------------
# Eigenvalues of small real matrices.
#
# Every eigenvalue goes through numpy's batched LAPACK ``eigvals``, which
# handles huge entries, repeated roots and any dimension.  A scan evaluates
# its Jacobians in lanes (see ``OdeProblem``) and solves them in blocks of
# EIG_BLOCK with one call per block.


def eigenvalues_along(jac_in: Callable[[slice], Sequence[Sequence]],
                      n: int, dim: int) -> np.ndarray:
    """Eigenvalues of n Jacobians as an (n, dim) complex array.

    ``jac_in(s)`` returns the Jacobians of the samples in the slice ``s`` in
    lanes: entry (i, j) is an array over the block or a scalar shared by it.
    Each row is sorted by descending real part, then descending imaginary
    part.
    """
    out = np.empty((n, dim), dtype=complex)
    for s in _lane_blocks(n):
        out[s] = _sorted_eigenvalues(jac_in(s), s.stop - s.start)
    return out


def _sorted_eigenvalues(jac: Sequence[Sequence], m: int) -> np.ndarray:
    """Eigenvalues of m Jacobians in lanes, each row ordered as
    ``eigenvalues_along`` orders it."""
    vals = np.linalg.eigvals(_lane_matrix(jac, m))
    # argsort of the negated values orders (-re, -im) ascending; taking
    # the unnegated values keeps a real block's +0.0 imaginary parts
    return np.take_along_axis(vals, np.argsort(-vals, axis=1), axis=1)


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
    row = eigenvalues_along(lambda s: jac, 1, len(jac))[0]
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
        _freeze(self, "times")
        _freeze(self, "values", dtype=complex)

    @property
    def gamma_max(self) -> np.ndarray:
        return self.values[:, 0].real

    @property
    def gamma_min(self) -> np.ndarray:
        return self.values[:, -1].real


# ---------------------------------------------------------------------------
# Curvature.


def curvature(u_prime, u_double_prime):
    """Absolute local curvature |u''| / (1 + u'^2)^(3/2), of floats or of
    arrays element by element; an overflowing u'^2 or 3/2 power gives 0."""
    with np.errstate(over="ignore"):
        # the ufunc, so a float is lane 0 of an array and its overflow is inf
        return abs(u_double_prime) / np.power(1.0 + u_prime * u_prime, 1.5)


def curvature_along(traj: Trajectory, problem: OdeProblem, component: int = 0) -> np.ndarray:
    """Curvature of one solution component along a trajectory.

    Returns an (n, 2) array of (t, kappa), one row per sample.  By the chain
    rule u' = f and u'' = df/dt + J f, evaluated exactly from the states with
    the problem's ``rhs``, ``jacobian`` and ``rhs_dt``, in lanes.
    """
    if component < 0 or component >= problem.dim:
        raise ValueError(f"component {component} out of range for dim {problem.dim}")
    n = len(traj.times)
    kap = np.empty(n)
    for s in _lane_blocks(n):
        t, u = traj.lanes(s)
        f = problem.rhs(t, u)
        jrow = problem.jacobian(t, u)[component]
        u2 = problem.rhs_dt(t, u)[component] + sum(map(mul, jrow, f))
        kap[s] = curvature(f[component], u2)
    return np.column_stack([traj.times, kap])


# ---------------------------------------------------------------------------
# Step-size bounds.


def dt_max(kappa, eps: float):
    """Largest step approximating a curve of curvature kappa by a secant to
    accuracy eps: 2*sqrt(2)*sqrt(eps/kappa), of a float or of an array
    element by element.  Unbounded (inf) on a straight line."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if np.any(kappa < 0):
        raise ValueError("kappa must be >= 0")
    with np.errstate(divide="ignore", over="ignore"):
        return SQRT8 * np.sqrt(np.divide(eps, kappa))


def kappa_stiff(gamma, eps: float, t_star):
    """Curvature of the perturbation eps*exp(gamma*t) at elapsed time t_star,
    of floats or of arrays element by element:

        eps*gamma^2*exp(gamma t*) / (1 + w^2)^(3/2),   w = eps*gamma*exp(gamma t*).

    Where that overflows it is |gamma| |w| / (1 + w^2)^(3/2) through log|w|:
    for large |w| the limit |gamma|/w^2, 0.0 once that underflows.

    Its maximum over t* is (2*sqrt(3)/9)*|gamma|, attained at
    t*_max = -ln(2 gamma^2 eps^2)/(2 gamma) whenever that is positive.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    g = gamma * t_star
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.exp(g)
        w = eps * gamma * x
        den = np.power(1.0 + w * w, 1.5)  # the ufunc, so a float is lane 0 of an array
        kappa = eps * gamma * gamma * x / den
        far = ~(np.isfinite(den) & np.isfinite(kappa))
        if np.any(far):  # only then, as numpy's log loops add to a run's resident memory
            log_a, log_w = np.log(np.abs(gamma)), np.log(eps) + np.log(np.abs(gamma)) + g
            kappa = np.where(far, np.exp(log_a + log_w - 1.5 * np.logaddexp(0.0, 2.0 * log_w)),
                             kappa)
    return kappa[()]


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
    g = gamma * eps  # 2 g^2 only picks the branch, so it may overflow to inf
    if 2.0 * g * g >= 1.0:
        return 6.0 * math.sqrt(eps / (math.sqrt(3.0) * abs(gamma)))
    return SQRT8 / abs(gamma)


def dt_stiff_at(gamma, eps: float, t_star):
    """Per-sample stiffness bound, of floats or of arrays element by element: the
    secant step resolving the perturbation curvature, dt_max(kappa_stiff(t*), eps)."""
    if np.any(gamma >= 0):
        raise NonNegativeGamma(f"dt_stiff undefined for gamma={float(np.nanmax(gamma))!r} >= 0")
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
        _freeze(self, "times", "kappa", "dt_max", "dt_stiff", "q", "r", "gamma_min", "gamma_max")

    def q_unity_crossing(self) -> float | None:
        """First time the stiffness flag Q drops through 1 (linear bracket
        midpoint between the samples), or None if Q never starts above 1."""
        # the first Q <= 1, found by bytes.find: np.argmax pages in more numpy code
        k = (self.q <= 1.0).tobytes().find(1)
        return None if k < 1 else 0.5 * (float(self.times[k - 1]) + float(self.times[k]))


def stiffness_report(traj: Trajectory, problem: OdeProblem, eps: float,
                     component: int = 0) -> StiffnessReport:
    """Evaluate the stiffness diagnostics along a trajectory.

    Per sample: trajectory curvature (via ``curvature_along``), the local
    Lyapunov exponents of the problem's Jacobian (its variational Jacobian),
    dt_max from the curvature, dt_stiff from gamma_min for an
    eps-perturbation that has been decaying since the window start
    (t* = t - t0), and the ratios Q, R.

    One pass over blocks of ``EIG_BLOCK`` samples writes every column, so no
    whole-run eigenvalue array is held; ``times`` is the trajectory's array.
    """
    # the curvature's (n, 2) stack goes before the other columns are allocated
    kappa = curvature_along(traj, problem, component)[:, 1].copy()
    times, t0, n, horizon = traj.times, float(traj.times[0]), len(kappa), problem.horizon
    gmax, gmin, dtmax, dtstiff, q, r = (np.empty(n) for _ in range(6))
    for s in _lane_blocks(n):
        vals = _sorted_eigenvalues(problem.jacobian(*traj.lanes(s)), s.stop - s.start)
        gmax[s], gmin[s] = vals[:, 0].real, vals[:, -1].real
        g, k, dtm, dts = gmin[s], kappa[s], dtmax[s], dtstiff[s]
        dtm[:] = dt_max(k, eps)
        stiff = g < 0.0
        dts[:] = math.nan
        dts[stiff] = dt_stiff_at(g[stiff], eps, times[s][stiff] - t0)
        q[s] = np.where(stiff, np.where(np.isfinite(dtm), dtm, horizon) / dts, 0.0)
        r[s] = np.divide(np.abs(g), k, out=np.full(len(k), math.nan), where=k > 0.0)
    return StiffnessReport(times, kappa, dtmax, dtstiff, q, r, gmin, gmax,
                           eps=eps, horizon=horizon)
