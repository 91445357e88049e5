"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline)."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from stiffchaos import (
    AdaptiveConfig,
    IntervalPlan,
    MuMethod,
    check_jacobian,
    dt_stiff,
    jstar_scan,
    kappa_stiff,
    lle_scan,
    local_eigenvalues,
    lorenz84,
    make_problem,
    params_for_method,
    robertson,
    run_transformed,
    shifted_jacobian,
    solve_rk4_adaptive,
    solve_rk4_fixed,
    solve_trapezoid_adaptive,
    stiff_linear,
    stiffness_report,
    step_extension_report,
    stiff_transform_demo,
    t_star_peak,
    TransformParams,
)
from stiffchaos.diagnostics import KAPPA_STIFF_PEAK


def report(criterion: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}  {detail}  ({time.perf_counter() - t0:.2f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_eigenvalue_reproduction(lorenz_spec, robertson_spec):
    t0 = time.perf_counter()
    eig = local_eigenvalues(lorenz_spec.problem.jacobian(0.0, (0.96, -1.1, 0.5)))
    vals = sorted(eig.values, key=lambda z: (-z.real, -z.imag))
    ok_lorenz = (
        abs(vals[0].real - 1.9) <= 0.1 and abs(vals[0].imag) <= 0.1
        and abs(vals[1].real + 1.1) <= 0.1 and abs(vals[1].imag - 4.5) <= 0.1
        and abs(vals[2].real + 1.1) <= 0.1 and abs(vals[2].imag + 4.5) <= 0.1
    )
    eig0 = local_eigenvalues(robertson_spec.problem.jacobian(0.0, (1.0, 0.0, 0.0)))
    reals = sorted(v.real for v in eig0.values)
    ok_rob0 = (abs(reals[0] + 0.04) <= 1e-6 and abs(reals[1]) <= 1e-6
               and abs(reals[2]) <= 1e-6)
    eig1 = local_eigenvalues(robertson_spec.problem.jacobian(0.0, (1.0, 1e-6, 0.0)))
    dominant = min(v.real for v in eig1.values)
    ok_rob1 = abs(dominant + 60.0) / 60.0 <= 0.10
    report(1, ok_lorenz and ok_rob0 and ok_rob1,
           f"lorenz {vals[0].real:.3f},{vals[1].real:.3f}±{abs(vals[1].imag):.3f}i; "
           f"robertson dominant {dominant:.2f}", t0)


def test_criterion_2_stiffness_formulas():
    t0 = time.perf_counter()
    val = dt_stiff(-300.0, 1e-3)
    ok_value = abs(val - 0.0094) / 0.0094 <= 0.02

    rng = np.random.default_rng(2024)
    checked = 0
    ok_peak = True
    for _ in range(1000):
        gamma = -(10.0 ** rng.uniform(-2, 4))
        eps = 10.0 ** rng.uniform(-6, -0.3)
        if 2.0 * (gamma * eps) ** 2 >= 1.0:
            ts = t_star_peak(gamma, eps)
            peak = kappa_stiff(gamma, eps, ts)
            if not math.isclose(peak, KAPPA_STIFF_PEAK * abs(gamma), rel_tol=1e-9):
                ok_peak = False
            checked += 1
        else:
            # subcritical sanity: the bound exists and is positive
            if not dt_stiff(gamma, eps) > 0:
                ok_peak = False
    report(2, ok_value and ok_peak and checked > 20,
           f"dt_stiff(-300,1e-3)={val:.6f} (target 0.0094±2%); "
           f"analytic peak verified on {checked} supercritical draws", t0)


def test_criterion_3_fig1_reproduction():
    t0 = time.perf_counter()
    spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.02))
    traj = solve_rk4_fixed(spec.problem, 20000)
    rep = stiffness_report(traj, spec.problem, eps=1e-3)
    crossing = rep.q_unity_crossing()
    ok = crossing is not None and 0.003 <= crossing <= 0.005
    report(3, ok, f"Q=1 crossing at t={crossing:.5f} (window [0.003, 0.005])", t0)


def test_criterion_4_rk4_on_stiff_linear():
    # The quoted step counts are only realizable on the transient window
    # [0, 0.1] with the 1.05-perturbed start (25 equidistant steps on [0, 1]
    # put h*a = 12, far beyond the RK4 stability boundary 2.785, and the
    # computed solution blows up to ~1e46; see test_ode_solvers).
    t0 = time.perf_counter()
    spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1))

    def rel_err(n):
        traj = solve_rk4_fixed(spec.problem, n)
        exact = np.array([spec.exact(t)[0] for t in traj.times])
        return float(np.max(np.abs(traj.states[:, 0] - exact) / np.abs(exact)))

    err25 = rel_err(25)
    err12 = rel_err(12)
    ok = err25 <= 1e-3 and 0.015 <= err12 <= 0.045
    report(4, ok, f"25 steps: rel err {err25:.2e} (<=1e-3); "
                  f"12 steps: rel err {err12:.3f} (0.03±50%)", t0)


def test_criterion_5_robertson_solver_contrast(robertson_trapezoid):
    t0 = time.perf_counter()
    prob = robertson().problem
    cfg = AdaptiveConfig(tol=1e-3, dt_init=1e-6, dt_min=1e-12, dt_max=1e5,
                         max_steps=100_000)
    rk = solve_rk4_adaptive(prob, cfg)
    ok_rk = rk.stagnated and rk.t_reached < 1000.0 and rk.steps_taken >= 10_000
    trap = robertson_trapezoid
    ok_trap = (not trap.stagnated and trap.t_reached == pytest.approx(1e6)
               and 60 <= trap.steps_taken <= 400)
    report(5, ok_rk and ok_trap,
           f"adaptive RK4 stagnated at t={rk.t_reached:.0f} after {rk.steps_taken} steps; "
           f"trapezoid completed in {trap.steps_taken} steps", t0)


def test_criterion_6_chaos_mitigation_headline(lorenz_spec, lorenz_oracle):
    t0 = time.perf_counter()
    plan3 = IntervalPlan(600, 15, (0.0, 30.0))
    run3 = run_transformed(lorenz_spec, plan3, MuMethod.CUMULATIVE_AVG,
                           params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
    plan0 = IntervalPlan(600, 1, (0.0, 30.0))
    run0 = run_transformed(lorenz_spec, plan0, MuMethod.NONE,
                           params_for_method(MuMethod.NONE), lorenz_oracle)
    err3 = run3.max_error(0)
    err0 = run0.max_error(0)
    ratio = err0 / err3
    ok = err3 <= 0.05 and 0.2 <= err0 <= 5.0 and ratio >= 20.0
    report(6, ok, f"method-3 max|x err|={err3:.4f} (<=0.05), "
                  f"standard={err0:.3f} ([0.2,5]), improvement {ratio:.0f}x (>=20)", t0)


def test_criterion_7_step_extension(lorenz_spec, lorenz_oracle):
    t0 = time.perf_counter()
    plan = IntervalPlan(1620, 60, (0.0, 30.0))
    run = run_transformed(lorenz_spec, plan, MuMethod.CUMULATIVE_AVG,
                          params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
    err = run.max_error(0)
    ext = step_extension_report(run, lorenz_oracle, err)
    finite = ext[np.isfinite(ext[:, 1]), 1]
    delta = plan.dt
    ratio = float(np.min(finite)) / delta
    # "within a factor 3" per the stated band [0.3, 3] for this run
    ok = err <= 0.005 and 0.3 <= ratio <= 3.0
    report(7, ok, f"N=1620 K=60 max|x err|={err:.5f} (<=0.005); "
                  f"min dt_max/Delta={ratio:.3f} with Delta={delta:.4f}", t0)


def test_criterion_8_chaotic_fraction_drop(lorenz_spec, lorenz_oracle):
    t0 = time.perf_counter()
    base = lle_scan(lorenz_spec.problem, lorenz_oracle, 400)
    frac_plain = float(np.mean(base.gamma_max > 0))
    plan = IntervalPlan(600, 60, (0.0, 30.0))
    run = run_transformed(lorenz_spec, plan, MuMethod.FIXED_MU,
                          params_for_method(MuMethod.FIXED_MU), lorenz_oracle)
    frac_m1 = float(np.mean(jstar_scan(run, 400).gamma_max > 0))
    ok = frac_m1 < frac_plain
    report(8, ok, f"fraction gamma_max>0: {frac_plain:.3f} -> {frac_m1:.3f} "
                  f"under method-1 shifts", t0)


def test_criterion_9_stiff_no_go():
    t0 = time.perf_counter()
    rep = stiff_transform_demo(300.0, -1.0, 1e-3)
    ok = 0.1 <= rep.ratio <= 10.0
    report(9, ok, f"dt_max(z)/dt_stiff(u) = {rep.dt_max_z:.5f}/{rep.dt_stiff_u:.5f} "
                  f"= {rep.ratio:.3f} (in [0.1, 10])", t0)


def test_criterion_10_property_suites(lorenz_spec, lorenz_oracle, robertson_trapezoid):
    t0 = time.perf_counter()
    notes = []

    # RK4 order on a smooth window
    prob = lorenz84(t_span=(0.0, 2.0)).problem
    ref = solve_rk4_fixed(prob, 51200)
    errs = [float(np.max(np.abs(solve_rk4_fixed(prob, n).states
                                - ref.states[::51200 // n])))
            for n in (100, 200)]
    rk4_order = math.log2(errs[0] / errs[1])
    ok = 3.7 <= rk4_order <= 4.3
    notes.append(f"RK4 order {rk4_order:.2f}")

    # trapezoid order on exponential decay (fixed steps via pinned config)
    from stiffchaos import OdeProblem
    decay = OdeProblem("exp", 1, {}, lambda t, u: (-u[0],),
                       lambda t, u: ((-1.0,),), (1.0,), (0.0, 1.0),
                       rhs_dt=lambda t, u: (0.0,))
    terrs = []
    for n in (50, 100):
        h = 1.0 / n
        cfg = AdaptiveConfig(tol=1.0, dt_init=h, dt_min=h, dt_max=h, max_steps=n + 5)
        traj = solve_trapezoid_adaptive(decay, cfg)
        terrs.append(abs(float(traj.states[-1, 0]) - math.exp(-1.0)))
    trap_order = math.log2(terrs[0] / terrs[1])
    ok = ok and 1.7 <= trap_order <= 2.3
    notes.append(f"trapezoid order {trap_order:.2f}")

    # transformation round trip over [0, 3]
    spec3 = lorenz84(t_span=(0.0, 3.0))
    direct = solve_rk4_fixed(spec3.problem, 3000)
    run = run_transformed(spec3, IntervalPlan(3000, 6, (0.0, 3.0)),
                          MuMethod.FIXED_MU, params_for_method(MuMethod.FIXED_MU),
                          solve_rk4_fixed(spec3.problem, 12000))
    dev = float(np.max(np.abs(run.solution.states - direct.states)))
    ok = ok and dev <= 1e-7
    notes.append(f"round trip {dev:.1e}")

    # Jacobians against finite differences on trajectory states
    rng = np.random.default_rng(31)
    for name in ("stiff-linear", "flame", "robertson", "lorenz84"):
        spec = make_problem(name)
        if name == "lorenz84":
            src = lorenz_oracle
        elif name == "robertson":
            src = robertson_trapezoid
        else:
            src = solve_rk4_fixed(spec.problem, 2000)
        idx = rng.integers(0, len(src.times), 100)
        check_jacobian(spec.problem, [tuple(src.states[i]) for i in idx],
                       [float(src.times[i]) for i in idx], rtol=1e-5)
    notes.append("jacobians ok")

    # Robertson conservation within 10x solver tolerance
    drift = float(np.max(np.abs(np.sum(robertson_trapezoid.states, axis=1) - 1.0)))
    ok = ok and drift <= 10 * 1e-3
    notes.append(f"conservation drift {drift:.1e}")

    # mu-shift eigenvalue law on 100 random states
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        z = tuple(rng.uniform(-2.5, 2.5, 3))
        m = float(rng.uniform(-3, 3))
        params = TransformParams(mu_init=(m, m, m))
        shifted = local_eigenvalues(shifted_jacobian(
            lorenz84(a=0.25, b=4.0).problem.jacobian, 0.0, z, params.mu_init))
        plain = local_eigenvalues(lorenz_spec.problem.jacobian(0.0, z))
        got = sorted(shifted.values, key=lambda v: (v.real, v.imag))
        want = sorted((v - m for v in plain.values), key=lambda v: (v.real, v.imag))
        worst = max(worst, max(abs(p - q) for p, q in zip(got, want)))
    ok = ok and worst <= 1e-8
    notes.append(f"mu-shift law {worst:.1e}")

    report(10, ok, "; ".join(notes), t0)
