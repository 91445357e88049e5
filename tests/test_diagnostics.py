from __future__ import annotations

import math

import numpy as np
import pytest

from stiffchaos import (
    InsufficientSamples,
    NonNegativeGamma,
    OdeProblem,
    Trajectory,
    curvature,
    curvature_along,
    dt_max,
    dt_stiff,
    dt_stiff_at,
    eigenvalues_along,
    flame,
    kappa_stiff,
    local_eigenvalues,
    lorenz84,
    robertson,
    solve_rk4_fixed,
    stiff_linear,
    stiffness_report,
    t_star_peak,
)
from stiffchaos.diagnostics import EIG_BLOCK, KAPPA_STIFF_PEAK


class TestCurvature:
    def test_flat_tangent(self):
        assert curvature(0.0, 2.0) == 2.0

    def test_unit_slope(self):
        assert curvature(1.0, 1.0) == pytest.approx(2.0 ** -1.5)

    def test_straight_line(self):
        assert curvature(1.0, 0.0) == 0.0


class TestDtMax:
    def test_unit_curvature(self):
        assert dt_max(1.0, 1e-3) == pytest.approx(0.08944, abs=1e-5)

    def test_zero_curvature_unbounded(self):
        assert dt_max(0.0, 0.5) == math.inf

    def test_kappa_ninety(self):
        assert dt_max(90.0, 1e-3) == pytest.approx(0.00943, abs=1e-5)

    def test_monotonic_in_eps_and_kappa(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            kap = rng.uniform(1e-3, 1e3)
            eps = rng.uniform(1e-6, 0.5)
            assert dt_max(kap, eps * 2) > dt_max(kap, eps)
            assert dt_max(kap * 2, eps) < dt_max(kap, eps)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dt_max(1.0, 0.0)
        with pytest.raises(ValueError):
            dt_max(-1.0, 1e-3)


class TestKappaStiff:
    def test_reference_case_exact_formula(self):
        # eps*gamma^2 / (1 + eps^2 gamma^2)^1.5 = 90/1.09^1.5 = 79.1 (the
        # numerator-only shortcut would give 90)
        assert kappa_stiff(-300.0, 1e-3, 0.0) == pytest.approx(79.1, abs=0.5)

    def test_analytic_maximum(self):
        gamma, eps = -3.0, 0.5
        assert 2.0 * gamma * gamma * eps * eps > 1.0
        ts = t_star_peak(gamma, eps)
        assert ts == pytest.approx(math.log(4.5) / 6.0, abs=1e-12)
        peak = kappa_stiff(gamma, eps, ts)
        assert peak == pytest.approx(KAPPA_STIFF_PEAK * abs(gamma), abs=1e-9)

    def test_vanishing_perturbation(self):
        assert kappa_stiff(-1.0, 1e-12, 0.0) == pytest.approx(1e-12, rel=1e-6)

    def test_peak_property_over_random_inputs(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(1000):
            gamma = -(10.0 ** rng.uniform(-2, 4))
            eps = 10.0 ** rng.uniform(-6, -0.3)
            if 2.0 * (gamma * eps) ** 2 >= 1.0:
                ts = t_star_peak(gamma, eps)
                assert ts > 0
                peak = kappa_stiff(gamma, eps, ts)
                assert peak == pytest.approx(KAPPA_STIFF_PEAK * abs(gamma), rel=1e-9)
                checked += 1
        assert checked > 20


class TestDtStiff:
    def test_reference_subcritical_value(self):
        # 2*gamma^2*eps^2 = 0.18 < 1: the operative value 2*sqrt(2)/|gamma|
        val = dt_stiff(-300.0, 1e-3)
        assert abs(val - 0.0094) / 0.0094 < 0.02

    def test_supercritical_value(self):
        # 2*gamma^2*eps^2 = 8e4 >= 1
        assert dt_stiff(-2000.0, 0.1) == pytest.approx(0.03224, abs=2e-5)

    def test_branch_continuity_factor(self):
        # at the regime boundary the two branches differ by the documented
        # constant 6^(3/4)/2^(3/2) ~ 1.355 (the subcritical branch drops the
        # (1+eps^2 gamma^2)^(3/4) correction)
        gamma = -50.0
        eps = 1.0 / (math.sqrt(2.0) * abs(gamma))
        hi = dt_stiff(gamma, eps * (1 + 1e-12))
        lo = dt_stiff(gamma, eps * (1 - 1e-12))
        assert hi / lo == pytest.approx(6.0 ** 0.75 / 2.0 ** 1.5, rel=1e-6)

    def test_monotone_decreasing_in_gamma_magnitude(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            eps = 10.0 ** rng.uniform(-6, -1)
            gamma = -(10.0 ** rng.uniform(-1, 4))
            # stay on the subcritical branch for both points
            if 2.0 * (2.0 * gamma * eps) ** 2 < 1.0:
                assert dt_stiff(2.0 * gamma, eps) < dt_stiff(gamma, eps)

    def test_rejects_nonnegative_gamma(self):
        with pytest.raises(NonNegativeGamma):
            dt_stiff(0.0, 1e-3)
        with pytest.raises(NonNegativeGamma):
            dt_stiff(1.5, 1e-3)

    def test_per_sample_form_reduces_to_eq11_at_start(self):
        gamma, eps = -300.0, 1e-3
        expect = 2.0 * math.sqrt(2.0) / abs(gamma) * (1 + (eps * gamma) ** 2) ** 0.75
        assert dt_stiff_at(gamma, eps, 0.0) == pytest.approx(expect, rel=1e-12)


class TestEigenvalues:
    def test_robertson_at_start(self, robertson_spec):
        eig = local_eigenvalues(robertson_spec.problem.jacobian(0.0, (1.0, 0.0, 0.0)))
        reals = sorted(v.real for v in eig.values)
        assert reals[0] == pytest.approx(-0.04, abs=1e-6)
        assert reals[1] == pytest.approx(0.0, abs=1e-6)
        assert reals[2] == pytest.approx(0.0, abs=1e-6)

    def test_robertson_stiffening_state(self, robertson_spec):
        eig = local_eigenvalues(robertson_spec.problem.jacobian(0.0, (1.0, 1e-6, 0.0)))
        reals = sorted(v.real for v in eig.values)
        assert abs(reals[0] + 60.0) / 60.0 < 0.10
        assert reals[1] == pytest.approx(-0.05, abs=5e-3)
        assert reals[2] == pytest.approx(0.0, abs=1e-9)

    def test_lorenz_at_initial_state(self, lorenz_spec):
        eig = local_eigenvalues(lorenz_spec.problem.jacobian(0.0, (0.96, -1.1, 0.5)))
        vals = sorted(eig.values, key=lambda z: -z.real)
        assert vals[0].real == pytest.approx(1.9, abs=0.1)
        assert abs(vals[0].imag) < 1e-9
        assert vals[1].real == pytest.approx(-1.1, abs=0.1)
        assert abs(vals[1].imag) == pytest.approx(4.5, abs=0.1)
        assert vals[2] == vals[1].conjugate()

    def test_lorenz_large_damping_nonchaotic(self):
        spec = lorenz84(a=3.1)
        eig = local_eigenvalues(spec.problem.jacobian(0.0, spec.problem.u0))
        assert eig.gamma_max <= 0.0

    def test_residual_conjugacy_and_trace_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = rng.uniform(-1e4, 1e4, (3, 3))
            eig = local_eigenvalues(m)
            tr = float(np.trace(m))
            max_mag = max(abs(v) for v in eig.values)
            # characteristic polynomial residual
            for v in eig.values:
                assert abs(np.polyval(np.poly(m), v)) <= 1e-8 * (1.0 + abs(v)) ** 3
            # conjugate symmetry
            assert abs(sum(v.imag for v in eig.values)) <= 1e-9 * max(1.0, max_mag)
            # trace
            total = sum(v.real for v in eig.values)
            assert abs(total - tr) <= 1e-8 * max(1.0, abs(tr))

    def test_one_and_two_dimensional(self):
        eig = local_eigenvalues(((-3.5,),))
        assert eig.values == (complex(-3.5, 0.0),)
        eig = local_eigenvalues(((0.0, 1.0), (-1.0, 0.0)))
        assert eig.gamma_max == pytest.approx(0.0, abs=1e-12)
        assert sorted(v.imag for v in eig.values) == pytest.approx([-1.0, 1.0])

    def test_four_dimensional_falls_back(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(-10, 10, (4, 4))
        eig = local_eigenvalues(m)
        got = sorted((round(v.real, 6), round(v.imag, 6)) for v in eig.values)
        want = sorted((round(v.real, 6), round(v.imag, 6))
                      for v in np.linalg.eigvals(m))
        assert got == want

    def test_huge_entries_are_scaled(self):
        m = [[1e200, 0.0, 0.0], [0.0, -2e200, 0.0], [0.0, 0.0, 3e200]]
        eig = local_eigenvalues(m)
        assert eig.gamma_max == pytest.approx(3e200, rel=1e-9)

    def test_robertson_start_is_exact(self, robertson_spec):
        # the rows of Robertson's Jacobian sum to zero, so 0 is an exact root
        eig = local_eigenvalues(robertson_spec.problem.jacobian(0.0, (1.0, 0.0, 0.0)))
        assert eig.values == (0.0, 0.0, -0.04)
        assert all(v.imag == 0.0 for v in eig.values)

    def test_robertson_zero_root_along_trapezoid_run(self, robertson_spec, robertson_trapezoid):
        traj = robertson_trapezoid
        jac = robertson_spec.problem.jacobian
        report = stiffness_report(traj, robertson_spec.problem, jac, eps=1e-3)
        scale = np.array([np.max(np.abs(jac(float(t), tuple(u))))
                          for t, u in zip(traj.times, traj.states)])
        assert np.all(np.abs(report.gamma_max) <= 1e-14 * scale)

    def test_repeated_roots_match_constructed_spectrum(self):
        # Q diag(lam, lam, mu) Q^T with Q orthogonal: a normal matrix, so even
        # a double or triple root is well conditioned and must come out to
        # roundoff; the reference is the constructed spectrum
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entry = st.floats(-1e3, 1e3, allow_subnormal=False)

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(q=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
                          lam=entry, mu=entry, triple=st.booleans())
        def check(q, lam, mu, triple):
            if triple:
                mu = lam
            basis = np.linalg.qr(np.reshape(q, (3, 3)))[0]
            m = basis @ np.diag([lam, lam, mu]) @ basis.T
            tol = 1e-12 * float(np.max(np.abs(m)))
            got = local_eigenvalues(m).values
            want = sorted([lam, lam, mu], reverse=True)
            assert all(abs(v.real - w) <= tol for v, w in zip(got, want))
            assert all(abs(v.imag) <= tol for v in got)

        check()

    def test_blocked_scan_matches_single_matrix_bit_for_bit(self, lorenz_spec):
        jac = lorenz_spec.problem.jacobian
        rng = np.random.default_rng(11)
        states = rng.uniform(-2.5, 2.5, (2 * EIG_BLOCK + 1, 3))
        values = eigenvalues_along(lambda k: jac(0.0, tuple(states[k])), len(states), 3)
        assert values.shape == (len(states), 3)
        for k, u in enumerate(states):
            single = np.array(local_eigenvalues(jac(0.0, tuple(u))).values)
            assert values[k].tobytes() == single.tobytes()


def _sampled_trajectory(fn, t0, t1, n, dim=1):
    times = np.linspace(t0, t1, n)
    states = np.array([[fn(t)] for t in times]) if dim == 1 else np.array([fn(t) for t in times])
    return Trajectory(times, states, "rk4_fixed", steps_taken=n - 1)


class TestCurvatureAlong:
    def test_straight_line_has_zero_curvature(self):
        spec = stiff_linear(300.0)  # u0 = 1: exact solution is the line 1 + t
        traj = solve_rk4_fixed(spec.problem, 400)
        tk = curvature_along(traj, spec.problem, 0)
        assert np.all(tk[:, 1] <= 1e-9)

    def test_sine_peak_chain_rule(self):
        prob = OdeProblem(
            name="sine", dim=1, params={},
            rhs=lambda t, u: (math.cos(t),),
            jacobian=lambda t, u: ((0.0,),),
            u0=(0.0,), t_span=(0.0, math.pi),
            rhs_dt=lambda t, u: (-math.sin(t),),
        )
        traj = solve_rk4_fixed(prob, 2000)
        tk = curvature_along(traj, prob, 0)
        at_peak = tk[np.argmin(np.abs(tk[:, 0] - math.pi / 2)), 1]
        assert at_peak == pytest.approx(1.0, abs=1e-3)

    def test_sine_peak_finite_difference_fallback(self):
        prob = OdeProblem(
            name="sine-fd", dim=1, params={},
            rhs=lambda t, u: (math.cos(t),),
            jacobian=lambda t, u: ((0.0,),),
            u0=(0.0,), t_span=(0.0, math.pi),
        )
        traj = _sampled_trajectory(math.sin, 0.0, math.pi, 3001)
        tk = curvature_along(traj, prob, 0)
        at_peak = tk[np.argmin(np.abs(tk[:, 0] - math.pi / 2)), 1]
        assert at_peak == pytest.approx(1.0, abs=1e-3)

    def test_too_few_samples(self):
        spec = stiff_linear(300.0)
        traj = _sampled_trajectory(lambda t: 1.0 + t, 0.0, 1.0, 4)
        with pytest.raises(InsufficientSamples):
            curvature_along(traj, spec.problem, 0)


class TestStiffnessReport:
    def test_stiff_linear_q_crossing_matches_reference_window(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.02))
        traj = solve_rk4_fixed(spec.problem, 20000)
        report = stiffness_report(traj, spec.problem, spec.variational_jacobian,
                                  eps=1e-3)
        crossing = report.q_unity_crossing()
        assert crossing is not None
        assert 0.003 <= crossing <= 0.005
        # stiff exactly below the crossover: a single sign change of Q-1
        above = report.q > 1.0
        assert above[0]
        assert int(np.sum(above[1:] != above[:-1])) == 1

    def test_flame_windows_flag_stiffness(self):
        # perturbations about the u = 1 fixed point on the windows past the
        # front: the trajectory is a straight line (kappa = 0), so dt_max is
        # unbounded and Q falls back to horizon/dt_stiff
        spec = flame(0.01)
        for window in ((105.0, 110.0), (115.0, 120.0)):
            times = np.linspace(*window, 201)
            traj = Trajectory(times, np.ones((201, 1)), "rk4_fixed", steps_taken=200)
            report = stiffness_report(traj, spec.problem, spec.variational_jacobian,
                                      eps=1e-3)
            assert np.all(np.isinf(report.dt_max))
            assert np.all(report.q > 1.0)

    def test_nonnegative_gamma_reports_q_zero(self):
        prob = OdeProblem(
            name="growth", dim=1, params={},
            rhs=lambda t, u: (u[0],),
            jacobian=lambda t, u: ((1.0,),),
            u0=(1.0,), t_span=(0.0, 1.0),
            rhs_dt=lambda t, u: (0.0,),
        )
        traj = solve_rk4_fixed(prob, 100)
        report = stiffness_report(traj, prob, prob.jacobian, eps=1e-3)
        assert np.all(report.q == 0.0)
        assert np.all(np.isnan(report.dt_stiff))

    def test_q_and_r_recompute_bit_exactly(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.02))
        traj = solve_rk4_fixed(spec.problem, 500)
        report = stiffness_report(traj, spec.problem, spec.variational_jacobian,
                                  eps=1e-3)
        for k in range(len(report.times)):
            if math.isfinite(report.dt_max[k]):
                assert report.q[k] == report.dt_max[k] / report.dt_stiff[k]
            else:
                assert report.q[k] == report.horizon / report.dt_stiff[k]
            if report.kappa[k] > 0:
                assert report.r[k] == abs(report.gamma_min[k]) / report.kappa[k]
            else:
                assert math.isnan(report.r[k])

    def test_r_is_gamma_over_kappa(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.02))
        traj = solve_rk4_fixed(spec.problem, 500)
        report = stiffness_report(traj, spec.problem, spec.variational_jacobian,
                                  eps=1e-3)
        k = 10
        assert report.gamma_min[k] == pytest.approx(-300.0)
        assert report.r[k] == pytest.approx(300.0 / report.kappa[k])
