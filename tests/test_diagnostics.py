from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from stiffchaos import (
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
from stiffchaos.diagnostics import KAPPA_STIFF_PEAK
from stiffchaos.ode import EIG_BLOCK

import generic_reference as ref


class TestCurvature:
    def test_flat_tangent(self):
        assert curvature(0.0, 2.0) == 2.0

    def test_unit_slope(self):
        assert curvature(1.0, 1.0) == pytest.approx(2.0 ** -1.5)

    def test_straight_line(self):
        assert curvature(1.0, 0.0) == 0.0

    def test_overflowing_slope_is_flat_without_a_warning(self):
        # u'^2, or for 1e154 its 3/2 power, overflows to inf, so the
        # curvature is 0, quietly, of an array as of a float
        assert curvature(np.array([1e200]), np.array([1.0])).tolist() == [0.0]
        assert curvature(1e154, 1.0) == 0.0


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

    def test_huge_gamma_takes_the_supercritical_branch(self):
        # (gamma * eps) ** 2 would raise OverflowError here
        val = dt_stiff(-1e300, 1e-3)
        assert val == 6.0 * math.sqrt(1e-3 / (math.sqrt(3.0) * 1e300))

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
        report = stiffness_report(traj, robertson_spec.problem, eps=1e-3)
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
        values = eigenvalues_along(lambda s: jac(0.0, tuple(states[s].T)), len(states), 3)
        assert values.shape == (len(states), 3)
        for k, u in enumerate(states):
            single = np.array(local_eigenvalues(jac(0.0, tuple(u))).values)
            assert values[k].tobytes() == single.tobytes()


class TestCurvatureAlong:
    def test_straight_line_has_zero_curvature(self):
        spec = stiff_linear(300.0)  # u0 = 1: exact solution is the line 1 + t
        traj = solve_rk4_fixed(spec.problem, 400)
        tk = curvature_along(traj, spec.problem, 0)
        assert np.all(tk[:, 1] <= 1e-9)

    def test_sine_peak_chain_rule(self):
        prob = OdeProblem(
            name="sine", dim=1, params={},
            rhs=lambda t, u: (np.cos(t),),
            jacobian=lambda t, u: ((0.0,),),
            u0=(0.0,), t_span=(0.0, math.pi),
            rhs_dt=lambda t, u: (-np.sin(t),),
        )
        traj = solve_rk4_fixed(prob, 2000)
        tk = curvature_along(traj, prob, 0)
        at_peak = tk[np.argmin(np.abs(tk[:, 0] - math.pi / 2)), 1]
        assert at_peak == pytest.approx(1.0, abs=1e-3)


def _within_ulps(got: np.ndarray, want: np.ndarray, ulps: int) -> bool:
    with np.errstate(invalid="ignore"):  # inf - inf, where both are inf
        return bool(np.all((got == want) | (np.abs(got - want) <= ulps * np.spacing(
            np.maximum(np.abs(got), np.abs(want))))))


class TestCurvatureLanes:
    # curvature() takes the 3/2 power with numpy's pow for a float and for
    # a block of lanes alike, but a long block may run a vectorised pow loop
    # that differs from the one-element call in the last bit

    @pytest.mark.parametrize("spec", [lorenz84(), stiff_linear(300.0, u0=(1.05,),
                                                            t_span=(0.0, 0.02))],
                             ids=["lorenz84", "stiff-linear"])
    def test_chain_rule_within_four_ulp_of_per_sample_floats(self, spec):
        # stiff-linear is non-autonomous: its rhs_dt is a, not 0
        prob = spec.problem
        traj = solve_rk4_fixed(prob, 2 * EIG_BLOCK + 100)
        for c in range(prob.dim):
            want = []
            for t, u in zip(traj.times, traj.states):
                t, u = float(t), tuple(map(float, u))
                f = prob.rhs(t, u)
                jrow = prob.jacobian(t, u)[c]
                u2 = prob.rhs_dt(t, u)[c] + sum(jrow[j] * f[j] for j in range(prob.dim))
                want.append(curvature(f[c], u2))
            tk = curvature_along(traj, prob, c)
            assert tk[:, 0].tobytes() == traj.times.tobytes()
            assert _within_ulps(tk[:, 1], np.array(want), 4)

    @pytest.mark.parametrize("spec", [lorenz84(), stiff_linear(300.0, u0=(1.05,))],
                             ids=["lorenz84", "stiff-linear"])
    def test_one_sample_matches_the_per_sample_float_formula(self, spec):
        # a run that stops before its first step has only its start sample
        prob = spec.problem
        traj = Trajectory(np.array([prob.t_span[0]]), np.array([prob.u0]), "rk4_adaptive",
                          steps_taken=0, stagnated=True)
        t, u = prob.t_span[0], prob.u0
        for c in range(prob.dim):
            f = prob.rhs(t, u)
            jrow = prob.jacobian(t, u)[c]
            u2 = prob.rhs_dt(t, u)[c] + sum(jrow[j] * f[j] for j in range(prob.dim))
            tk = curvature_along(traj, prob, c)
            assert tk.shape == (1, 2)
            assert tk[0, 0] == t
            assert _within_ulps(tk[:, 1], np.array([curvature(f[c], u2)]), 4)


def _exact_kappa_stiff(gamma: float, eps: float, t_star: float) -> float:
    """|gamma| |w| / (1 + w^2)^(3/2), w = eps*gamma*exp(gamma t*), in 50-digit
    decimal arithmetic, rounded once to a float."""
    with localcontext() as ctx:
        ctx.prec = 50
        g, e, t = Decimal(gamma), Decimal(eps), Decimal(t_star)
        w = e * g * (g * t).exp()
        base = 1 + w * w
        return float(abs(g) * abs(w) / (base * base.sqrt()))


class TestStepBoundLanes:
    # dt_max, kappa_stiff and dt_stiff_at on arrays: numpy's exp and pow may
    # differ from libm's in the last bits, and where the per-sample form
    # raised OverflowError the lanes take the large-|w| limit |gamma|/w^2

    def test_lanes_match_per_sample_reference_or_take_the_limit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        decade = st.floats(-300.0, 300.0)
        lane = st.tuples(decade, st.floats(0.0, 1e3))
        seen = {"returned": 0, "raised": 0, "non-finite": 0}

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(eps_decade=decade, lanes=st.lists(lane, min_size=1, max_size=16))
        def check(eps_decade, lanes):
            eps = 10.0 ** eps_decade
            gamma = np.array([-(10.0 ** d) for d, _ in lanes])
            t_star = np.array([t for _, t in lanes])
            kap = kappa_stiff(gamma, eps, t_star)
            dts = dt_stiff_at(gamma, eps, t_star)
            for k, (g, t) in enumerate(zip(gamma.tolist(), t_star.tolist())):
                # a float call equals its lane of an array call, bit for bit
                assert kappa_stiff(g, eps, t).tobytes() == kap[k].tobytes()
                assert dt_stiff_at(g, eps, t).tobytes() == dts[k].tobytes()
                try:
                    want = ref.kappa_stiff(g, eps, t)
                except OverflowError:
                    want = None
                if want is not None and math.isfinite(want):
                    seen["returned"] += 1
                    assert _within_ulps(kap[k], want, 4)
                    assert _within_ulps(dts[k], ref.dt_stiff_at(g, eps, t), 4)
                    continue
                assert math.isfinite(kap[k]) and kap[k] >= 0.0
                assert dts[k].tobytes() == dt_max(kap[k], eps).tobytes()
                if want is None:
                    # (1 + w^2)^(3/2) overflowed: the limit |gamma|/w^2
                    seen["raised"] += 1
                    w = eps * g * math.exp(g * t)
                    assert kap[k] == pytest.approx(abs(g) / w / w, rel=1e-12, abs=1e-300)
                else:
                    # eps*gamma^2 overflowed, and the per-sample form returned inf or nan
                    seen["non-finite"] += 1
                    assert kap[k] == pytest.approx(_exact_kappa_stiff(g, eps, t),
                                                   rel=1e-12, abs=1e-300)

        check()
        assert min(seen.values()) >= 20, seen

    def test_dt_max_lanes_equal_per_sample_floats(self):
        rng = np.random.default_rng(23)
        kappa = np.concatenate([[0.0], 10.0 ** rng.uniform(-320, 300, 1000)])
        for eps in (1e-3, 1e300):
            want = np.array([ref.dt_max(float(k), eps) for k in kappa])
            assert dt_max(kappa, eps).tobytes() == want.tobytes()
            assert np.array([dt_max(float(k), eps) for k in kappa]).tobytes() == want.tobytes()

    def test_checks_apply_to_any_lane(self):
        with pytest.raises(ValueError):
            dt_max(np.array([1.0, -1.0]), 1e-3)
        with pytest.raises(ValueError):
            kappa_stiff(np.array([-1.0, -2.0]), 0.0, np.zeros(2))
        with pytest.raises(NonNegativeGamma):
            dt_stiff_at(np.array([-1.0, 0.0, -2.0]), 1e-3, np.zeros(3))


class TestStiffnessReport:
    def test_gamma_columns_equal_per_sample_eigenvalues(self, lorenz_spec):
        prob = lorenz_spec.problem
        traj = solve_rk4_fixed(prob, 2 * EIG_BLOCK + 100)
        report = stiffness_report(traj, prob, eps=1e-3)
        eigs = [local_eigenvalues(prob.jacobian(float(t), tuple(map(float, u))))
                for t, u in zip(traj.times, traj.states)]
        assert report.gamma_max.tobytes() == np.array([e.gamma_max for e in eigs]).tobytes()
        assert report.gamma_min.tobytes() == np.array([e.gamma_min for e in eigs]).tobytes()

    def test_stiff_linear_q_crossing_matches_reference_window(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.02))
        traj = solve_rk4_fixed(spec.problem, 20000)
        report = stiffness_report(traj, spec.problem, eps=1e-3)
        crossing = report.q_unity_crossing()
        assert crossing is not None
        assert 0.003 <= crossing <= 0.005
        # stiff exactly below the crossover: a single sign change of Q-1
        above = report.q > 1.0
        assert above[0]
        assert int(np.sum(above[1:] != above[:-1])) == 1

    def test_step_bound_columns_match_per_sample_floats(self, lorenz_spec):
        prob = lorenz_spec.problem
        traj = solve_rk4_fixed(prob, 2 * EIG_BLOCK + 100)
        report = stiffness_report(traj, prob, eps=1e-3)
        t0 = float(report.times[0])
        want = np.array([ref.dt_max(float(k), 1e-3) for k in report.kappa])
        assert report.dt_max.tobytes() == want.tobytes()
        want = np.array([ref.dt_stiff_at(float(g), 1e-3, float(t) - t0) if g < 0.0 else math.nan
                         for g, t in zip(report.gamma_min, report.times)])
        assert np.array_equal(np.isnan(report.dt_stiff), np.isnan(want))
        stiff = ~np.isnan(want)
        assert stiff.sum() > EIG_BLOCK
        assert _within_ulps(report.dt_stiff[stiff], want[stiff], 4)
        assert report.kappa.tobytes() == curvature_along(traj, prob)[:, 1].tobytes()
        want_q = [(float(dm) if math.isfinite(dm) else report.horizon) / float(ds) if g < 0.0
                  else 0.0 for dm, ds, g in zip(report.dt_max, report.dt_stiff, report.gamma_min)]
        want_r = [abs(float(g)) / float(k) if k > 0.0 else math.nan
                  for g, k in zip(report.gamma_min, report.kappa)]
        for got, per_sample in ((report.q, np.array(want_q)), (report.r, np.array(want_r))):
            assert np.array_equal(np.isnan(got), np.isnan(per_sample))
            assert got[~np.isnan(got)].tobytes() == per_sample[~np.isnan(per_sample)].tobytes()
        # a one-sample trajectory gives the first row of every column
        one = stiffness_report(Trajectory(traj.times[:1], traj.states[:1], "rk4_fixed",
                                          steps_taken=0), prob, eps=1e-3)
        for f in fields(one):
            if f.name not in ("eps", "horizon"):
                assert getattr(one, f.name).tobytes() == getattr(report, f.name)[:1].tobytes()

    def test_report_holds_no_whole_run_intermediate(self, lorenz_spec):
        # seven 8-byte columns are kept (times is the trajectory's own); the
        # eigenvalues and the curvature stack are never whole-run arrays
        # beside them, so the peak stays within 64 B per sample
        prob = lorenz_spec.problem
        traj = solve_rk4_fixed(prob, 60_000)
        tracemalloc.start()
        try:
            report = stiffness_report(traj, prob, eps=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(traj.times) <= 64
        assert np.shares_memory(report.times, traj.times)

    def test_q_unity_crossing_equals_the_sample_loop(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.02))
        fig1 = stiffness_report(solve_rk4_fixed(spec.problem, 4000), spec.problem, eps=1e-3)
        # flame past its front (see below): Q > 1 at every sample
        window = Trajectory(np.linspace(105.0, 110.0, 201), np.ones((201, 1)), "rk4_fixed",
                            steps_taken=200)
        flame_run = stiffness_report(window, flame(0.01).problem, eps=1e-3)
        times = np.linspace(0.0, 1.0, 50)
        below = np.full(50, 0.5)
        never = np.full(50, 2.0)
        late = np.where(times < 0.99, 2.0, 1.0)  # crosses at the last sample
        reports = [fig1, flame_run] + [
            replace(fig1, times=times, q=q, kappa=times, dt_max=times, dt_stiff=times,
                    r=times, gamma_min=times, gamma_max=times)
            for q in (below, never, late)]
        crossings = [r.q_unity_crossing() for r in reports]
        assert crossings == [ref.q_unity_crossing(r.times, r.q) for r in reports]
        assert crossings[0] == 0.0039675000000000005
        assert crossings[1:] == [None, None, None, 0.5 * (float(times[-2]) + 1.0)]

    def test_flame_windows_flag_stiffness(self):
        # perturbations about the u = 1 fixed point on the windows past the
        # front: the trajectory is a straight line (kappa = 0), so dt_max is
        # unbounded and Q falls back to horizon/dt_stiff
        spec = flame(0.01)
        for window in ((105.0, 110.0), (115.0, 120.0)):
            times = np.linspace(*window, 201)
            traj = Trajectory(times, np.ones((201, 1)), "rk4_fixed", steps_taken=200)
            report = stiffness_report(traj, spec.problem, eps=1e-3)
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
        report = stiffness_report(traj, prob, eps=1e-3)
        assert np.all(report.q == 0.0)
        assert np.all(np.isnan(report.dt_stiff))

    def test_q_and_r_recompute_bit_exactly(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.02))
        traj = solve_rk4_fixed(spec.problem, 500)
        report = stiffness_report(traj, spec.problem, eps=1e-3)
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
        report = stiffness_report(traj, spec.problem, eps=1e-3)
        k = 10
        assert report.gamma_min[k] == pytest.approx(-300.0)
        assert report.r[k] == pytest.approx(300.0 / report.kappa[k])
