from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from stiffchaos import (
    ExponentOverflow,
    IntervalPlan,
    MuMethod,
    PROBLEM_FACTORIES,
    TransformParams,
    jstar,
    jstar_scan,
    lle_scan,
    local_eigenvalues,
    lorenz84,
    make_problem,
    params_for_method,
    reference_solution,
    run_transformed,
    select_mu,
    solve_rk4_fixed,
    step_extension_report,
    stiff_transform_demo,
    transformed_rhs,
)
from stiffchaos import cli
from stiffchaos.ode import rk4_step
from stiffchaos.transform import (
    GAMMA_FLOW,
    GAMMA_JSTAR_END,
    GAMMA_JSTAR_START,
    METHOD_MU_INIT,
    _align_reference,
    _shifted_jacobian,
)


LORENZ_ARGS = dict(a=0.25, b=4.0, f=8.0, g=1.0)
SHIFT_LAW_TOL = 1e-13  # measured 1.1e-14 (scaled) over 500 examples per problem


def lorenz84_z_reference(mu, eps, t, z, a, b, f, g):
    """The paper's hand-expanded transformed Lorenz-84 equations, written
    out independently of the conjugation used by the package."""
    m1, m2, m3 = mu
    e1, e2, e3 = eps
    z1, z2, z3 = z
    exp = math.exp
    return (
        -m1 * z1 - (e2 * e2 / e1) * exp((2 * m2 - m1) * t) * z2 * z2
        - (e3 * e3 / e1) * exp((2 * m3 - m1) * t) * z3 * z3 - a * z1
        + (a * f / e1) * exp(-m1 * t),
        -m2 * z2 + e1 * exp(m1 * t) * z1 * z2
        - b * (e1 * e3 / e2) * exp((m1 - m2 + m3) * t) * z1 * z3 - z2
        + (g / e2) * exp(-m2 * t),
        -m3 * z3 + b * (e1 * e2 / e3) * exp((m1 + m2 - m3) * t) * z1 * z2
        + e1 * exp(m1 * t) * z1 * z3 - z3,
    )


class TestTransformedRhs:
    def test_identity_transform_matches_original(self, lorenz_spec):
        params = TransformParams()
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = float(rng.uniform(0, 3))
            z = tuple(rng.uniform(-2.5, 2.5, 3))
            got = transformed_rhs(params, t, z, **LORENZ_ARGS)
            want = lorenz_spec.problem.rhs(t, z)
            assert got == pytest.approx(want, rel=1e-14)

    def test_start_of_interval_includes_mu_shift(self, lorenz_spec):
        # at t_local = 0 all exponentials are 1, so dz_i/dt = f_i(z) - mu_i z_i
        params = TransformParams(mu=(2.592, 1.944, 1.539))
        z = (0.96, -1.1, 0.5)
        got = transformed_rhs(params, 0.0, z, **LORENZ_ARGS)
        base = lorenz_spec.problem.rhs(0.0, z)
        for i in range(3):
            assert got[i] == pytest.approx(base[i] - params.mu[i] * z[i], rel=1e-14)

    def test_one_step_roundtrip_is_fifth_order(self, lorenz_spec):
        # the z-step back-transformed must agree with the direct RK4 step to
        # the next order in dt; verified by step-halving
        params = TransformParams(mu=(2.592, 1.944, 1.539))
        u0 = lorenz_spec.problem.u0

        def zrhs(t, z):
            return transformed_rhs(params, t, z, **LORENZ_ARGS)

        diffs = []
        for dt in (0.05, 0.025, 0.0125):
            z1 = rk4_step(zrhs, 0.0, u0, dt, 3)
            back = tuple(math.exp(m * dt) * z for m, z in zip(params.mu, z1))
            direct = rk4_step(lorenz_spec.problem.rhs, 0.0, u0, dt, 3)
            diffs.append(max(abs(p - q) for p, q in zip(back, direct)))
        assert 20.0 <= diffs[0] / diffs[1] <= 50.0
        assert 20.0 <= diffs[1] / diffs[2] <= 50.0
        assert diffs[2] <= 1e-8

    def test_matches_hand_expanded_lorenz84_equations(self):
        # the conjugation against the paper's expanded z-equations
        # (measured max scaled difference 9.5e-15 over these 2000 draws)
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(2000):
            t = float(rng.uniform(0.0, 0.5))
            z = tuple(rng.uniform(-2.5, 2.5, 3))
            mu = tuple(rng.uniform(-3.0, 3.0, 3))
            eps = tuple(10.0 ** rng.uniform(-1.0, 1.0, 3))
            got = transformed_rhs(TransformParams(eps_scale=eps, mu=mu), t, z, **LORENZ_ARGS)
            want = lorenz84_z_reference(mu, eps, t, z, **LORENZ_ARGS)
            scale = max(1.0, max(map(abs, want)))
            worst = max(worst, max(abs(p - q) for p, q in zip(got, want)) / scale)
        assert worst <= 1e-13

    def test_exponent_overflow_guard(self):
        params = TransformParams(mu=(400.0, 0.0, 0.0))
        with pytest.raises(ExponentOverflow):
            transformed_rhs(params, 2.0, (1.0, 1.0, 1.0), **LORENZ_ARGS)
        # only exp(+-mu_i tau) appears: max|mu_i| tau = 600 is in range
        params = TransformParams(mu=(300.0, -300.0, 0.0))
        assert all(map(math.isfinite, transformed_rhs(params, 2.0, (0.0, 0.0, 0.0),
                                                      **LORENZ_ARGS)))

    def test_eps_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            TransformParams(eps_scale=(1.0, 0.0, 1.0))


class TestJstar:
    def test_zero_mu_reduces_to_lorenz_jacobian(self, lorenz_spec):
        rng = np.random.default_rng(8)
        params = TransformParams()
        for _ in range(20):
            z = tuple(rng.uniform(-2, 2, 3))
            got = np.asarray(jstar(params, z, 0.25, 4.0))
            want = np.asarray(lorenz_spec.problem.jacobian(0.0, z))
            assert np.array_equal(got, want)

    def test_uniform_shift_law(self, lorenz_spec):
        # eig(J - m I) = eig(J) - m
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = tuple(rng.uniform(-2.5, 2.5, 3))
            m = float(rng.uniform(-3, 3))
            shifted = local_eigenvalues(jstar(TransformParams(mu=(m, m, m)), z, 0.25, 4.0))
            plain = local_eigenvalues(lorenz_spec.problem.jacobian(0.0, z))
            got = sorted(shifted.values, key=lambda v: (v.real, v.imag))
            want = sorted((v - m for v in plain.values), key=lambda v: (v.real, v.imag))
            for p, q in zip(got, want):
                assert p == pytest.approx(q, abs=1e-8)

    def test_reference_mu_lowers_the_leading_exponent(self, lorenz_spec):
        params = TransformParams(mu=(2.592, 1.944, 1.539))
        eig = local_eigenvalues(jstar(params, lorenz_spec.problem.u0, 0.25, 4.0))
        assert eig.gamma_max < 1.9

    @pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
    def test_uniform_shift_law_for_any_scaling(self, name):
        # eig(E^-1 J(E z) E - m I) = eig(J(E z)) - m on every problem, matched
        # nearest first because hypothesis finds repeated roots (z = 0)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        problem = make_problem(name).problem
        dim = problem.dim

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(z=st.tuples(*[st.floats(-2.5, 2.5)] * dim),
                          eps=st.tuples(*[st.floats(0.1, 10.0)] * dim),
                          m=st.floats(-3.0, 3.0), t=st.floats(0.0, 1.0))
        def check(z, eps, m, t):
            shifted = np.linalg.eigvals(
                _shifted_jacobian(problem.jacobian, t, z, (m,) * dim, eps))
            plain = np.linalg.eigvals(
                problem.jacobian(t, tuple(e * v for e, v in zip(eps, z))))
            scale = max(1.0, float(np.max(np.abs(plain))))
            remaining = list(plain - m)
            for p in shifted:
                q = min(remaining, key=lambda v: abs(v - p))
                remaining.remove(q)
                assert abs(p - q) / scale <= SHIFT_LAW_TOL

        check()


class TestSelectMu:
    def test_method_one_is_fixed(self):
        params = params_for_method(MuMethod.FIXED_MU)
        assert select_mu(MuMethod.FIXED_MU, [], params) == (2.592, 1.944, 1.539)
        assert select_mu(MuMethod.FIXED_MU, [-5.0, 2.0], params) == (2.592, 1.944, 1.539)

    def test_method_two_tracks_last_gamma(self):
        params = TransformParams(q=1.0, mu_init=(2.0, 2.0, 2.0))
        assert select_mu(MuMethod.LOCAL_GAMMA, [0.5, -1.3], params) == \
            pytest.approx((-1.3, -1.3, -1.3))
        assert select_mu(MuMethod.LOCAL_GAMMA, [], params) == (2.0, 2.0, 2.0)

    def test_method_three_scales_cumulative_mean(self):
        params = TransformParams(coeffs=(-1.5, -0.66, -0.5), mu_init=(2.16, 1.62, 1.28))
        got = select_mu(MuMethod.CUMULATIVE_AVG, [-1.0, -3.0], params)
        assert got == pytest.approx((3.0, 1.32, 1.0))

    def test_method_four_uses_two_interval_window(self):
        params = TransformParams(coeffs=(-1.5, -0.66, -0.5), mu_init=(2.16, 1.62, 1.28))
        got = select_mu(MuMethod.WINDOW_AVG, [10.0, -1.0, -3.0], params)
        assert got == pytest.approx((3.0, 1.32, 1.0))
        # single completed interval starts the window
        got = select_mu(MuMethod.WINDOW_AVG, [-2.0], params)
        assert got == pytest.approx((3.0, 1.32, 1.0))

    def test_method_none_is_zero(self):
        assert select_mu(MuMethod.NONE, [1.0], TransformParams()) == (0.0, 0.0, 0.0)

    def test_one_component_per_mu_init_component(self):
        params = TransformParams(coeffs=(2.0,), mu_init=(0.5,))
        for method in MuMethod:
            assert len(select_mu(method, [1.0, 3.0], params)) == 1
        assert select_mu(MuMethod.LOCAL_GAMMA, [1.0, 3.0], params) == (3.0,)
        assert select_mu(MuMethod.CUMULATIVE_AVG, [1.0, 3.0], params) == (4.0,)

    def test_reference_defaults(self):
        assert METHOD_MU_INIT[MuMethod.FIXED_MU] == (2.592, 1.944, 1.539)
        assert METHOD_MU_INIT[MuMethod.LOCAL_GAMMA] == (2.0, 2.0, 2.0)
        assert METHOD_MU_INIT[MuMethod.CUMULATIVE_AVG] == (2.16, 1.62, 1.28)


class TestIntervalPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalPlan(600, 7, (0.0, 30.0))
        with pytest.raises(ValueError):
            IntervalPlan(600, 60, (30.0, 0.0))
        plan = IntervalPlan(600, 60, (0.0, 30.0))
        assert plan.steps_per_interval == 10
        assert plan.dt == pytest.approx(0.05)
        assert plan.interval_length == pytest.approx(0.5)


class TestRunTransformed:
    def test_exactness_of_transformation_over_short_window(self):
        # with fixed mu the back-transformed z-solution equals the direct
        # solution up to integrator accuracy
        spec = lorenz84(t_span=(0.0, 3.0))
        direct = solve_rk4_fixed(spec.problem, 3000)
        reference = solve_rk4_fixed(spec.problem, 12000)
        plan = IntervalPlan(3000, 6, (0.0, 3.0))
        run = run_transformed(spec, plan, MuMethod.FIXED_MU,
                              params_for_method(MuMethod.FIXED_MU), reference)
        assert float(np.max(np.abs(run.solution.states - direct.states))) <= 1e-7

    def test_initial_state_exact_and_history_lengths(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15, (0.0, 30.0))
        run = run_transformed(lorenz_spec, plan, MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        assert tuple(run.solution.states[0]) == lorenz_spec.problem.u0
        assert run.mu_history.shape == (15, 3)
        assert run.gamma_max_history.shape == (15,)
        assert run.errors_vs_reference.shape == (601, 3)
        assert np.all(run.mu_history[0] == (2.16, 1.62, 1.28))

    def test_determinism(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15, (0.0, 30.0))
        runs = [run_transformed(lorenz_spec, plan, MuMethod.CUMULATIVE_AVG,
                                params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
                for _ in range(2)]
        assert np.array_equal(runs[0].mu_history, runs[1].mu_history)
        assert np.array_equal(runs[0].errors_vs_reference, runs[1].errors_vs_reference)

    def test_method_errors_reproduce_reference_ordering(self, lorenz_spec, lorenz_oracle):
        errs = {}
        for method, k in ((MuMethod.NONE, 1), (MuMethod.FIXED_MU, 60),
                          (MuMethod.LOCAL_GAMMA, 60), (MuMethod.CUMULATIVE_AVG, 15),
                          (MuMethod.WINDOW_AVG, 15)):
            plan = IntervalPlan(600, k, (0.0, 30.0))
            run = run_transformed(lorenz_spec, plan, method,
                                  params_for_method(method), lorenz_oracle)
            errs[method] = run.max_error(0)
        assert errs[MuMethod.CUMULATIVE_AVG] < errs[MuMethod.FIXED_MU] < errs[MuMethod.NONE]
        assert errs[MuMethod.WINDOW_AVG] < errs[MuMethod.FIXED_MU]
        assert errs[MuMethod.LOCAL_GAMMA] < errs[MuMethod.NONE]

    def test_jstar_start_source_feedback_is_unstable(self, lorenz_spec, lorenz_oracle):
        # documented: feeding gamma_max of J* at interval starts into the
        # reference multipliers has no stable fixed point; the run either
        # degrades to standard-RK4 error levels or overflows
        plan = IntervalPlan(600, 15, (0.0, 30.0))
        params = params_for_method(MuMethod.CUMULATIVE_AVG,
                                   coeffs=(-1.5, -0.66, -0.5))
        try:
            run = run_transformed(lorenz_spec, plan, MuMethod.CUMULATIVE_AVG,
                                  params, lorenz_oracle,
                                  gamma_source=GAMMA_JSTAR_START)
        except ExponentOverflow:
            return
        assert run.max_error(0) > 0.5

    @pytest.mark.parametrize("method, gamma_source", [
        *(pytest.param(m, GAMMA_FLOW, id=m.value) for m in MuMethod),
        # method 2 overflows by design when fed J* (gamma_max positive)
        *(pytest.param(MuMethod.CUMULATIVE_AVG, g, id=f"cumulative_avg-{g}")
          for g in (GAMMA_JSTAR_START, GAMMA_JSTAR_END)),
    ])
    def test_eps_scale_matches_unit_scale(self, method, gamma_source):
        # x = eps exp(mu t) z is exact for any eps > 0 and J* is similar to
        # the unit-scale J*, so the scaled run differs from the unit run by
        # rounding only (measured <= 1.7e-14, J* scan <= 1.2e-14)
        spec = lorenz84(t_span=(0.0, 3.0))
        reference = solve_rk4_fixed(spec.problem, 12000)
        plan = IntervalPlan(600, 15, (0.0, 3.0))
        unit, scaled = (run_transformed(spec, plan, method,
                                        params_for_method(method, eps_scale=eps), reference,
                                        gamma_source)
                        for eps in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.5)))
        assert np.max(np.abs(scaled.solution.states - unit.solution.states)) <= 1e-12
        assert np.max(np.abs(scaled.mu_history - unit.mu_history)) <= 1e-12
        assert np.max(np.abs(scaled.gamma_max_history - unit.gamma_max_history)) <= 1e-12
        assert np.max(np.abs(jstar_scan(scaled, 400).gamma_max
                             - jstar_scan(unit, 400).gamma_max)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
    def test_none_is_plain_rk4(self, name):
        # with mu = 0 and unit eps the conjugation is the identity, and the
        # real time t_k + tau reaches non-autonomous problems (stiff-linear)
        t_span = (1e-6, 0.01) if name == "robertson" else None
        spec = make_problem(name, t_span=t_span)
        dim = spec.problem.dim
        direct = solve_rk4_fixed(spec.problem, 600)
        params = params_for_method(MuMethod.NONE, eps_scale=(1.0,) * dim,
                                   coeffs=(1.0,) * dim, mu_init=(0.0,) * dim)
        run = run_transformed(spec, IntervalPlan(600, 1, spec.problem.t_span),
                              MuMethod.NONE, params, direct)
        assert np.array_equal(run.solution.states, direct.states)
        assert run.mu_history.shape == (1, dim)
        assert run.max_error(0) == 0.0

    @pytest.mark.parametrize("field", ["eps_scale", "mu", "coeffs", "mu_init"])
    def test_component_count_must_match_dim(self, field):
        spec = lorenz84(t_span=(0.0, 3.0))
        reference = solve_rk4_fixed(spec.problem, 600)
        params = params_for_method(MuMethod.CUMULATIVE_AVG)
        bad = replace(params, **{field: getattr(params, field)[:2]})
        with pytest.raises(ValueError, match=field):
            run_transformed(spec, IntervalPlan(600, 15, (0.0, 3.0)),
                            MuMethod.CUMULATIVE_AVG, bad, reference)

    def test_reference_grid_must_align(self, lorenz_spec, lorenz_oracle):
        with pytest.raises(ValueError):
            run_transformed(lorenz_spec, IntervalPlan(7, 7, (0.0, 30.0)),
                            MuMethod.NONE, TransformParams(), lorenz_oracle)


class TestReferenceAlignment:
    """A reference is accepted only for the run it was computed for."""

    def none_error(self, spec, reference) -> float:
        run = run_transformed(spec, IntervalPlan(600, 1, (0.0, 30.0)), MuMethod.NONE,
                              params_for_method(MuMethod.NONE), reference)
        return run.max_error(0)

    @pytest.mark.parametrize("t1, n_steps", [(60.0, 76800), (29.0, 1200)],
                             ids=["ends-later", "ends-earlier"])
    def test_reference_over_another_span_is_rejected(self, lorenz_spec, t1, n_steps):
        # 76,800 steps over [0, 60] divide by 600, and stride 128 would
        # sample [0, 60] (max|x err| 2.03 instead of 1.47)
        other = solve_rk4_fixed(lorenz84(t_span=(0.0, t1)).problem, n_steps)
        with pytest.raises(ValueError, match="spans"):
            self.none_error(lorenz_spec, other)

    @pytest.mark.parametrize("change", [{"F": 9.0}, {"u0": (0.9, -1.0, 0.4)}],
                             ids=["forcing", "u0"])
    def test_stamped_reference_from_another_problem_is_rejected(self, lorenz_spec, change):
        # same grid and span; max|x err| 2.39 if the u0 case were accepted
        other = reference_solution(lorenz84(**change).problem, 1200)
        with pytest.raises(ValueError, match="computed for"):
            self.none_error(lorenz_spec, other)

    def test_reference_from_another_initial_state_is_rejected(self, lorenz_spec):
        # unstamped, so only its first state tells
        other = solve_rk4_fixed(lorenz84(u0=(0.9, -1.0, 0.4)).problem, 1200)
        with pytest.raises(ValueError, match="starts at"):
            self.none_error(lorenz_spec, other)

    def test_plain_trajectory_of_the_run_problem_is_accepted(self):
        # the criterion-10 round trip passes an unstamped fixed-step run
        spec = lorenz84(t_span=(0.0, 3.0))
        plain = solve_rk4_fixed(spec.problem, 12000)
        assert "problem" not in plain.meta
        assert _align_reference(plain, IntervalPlan(3000, 6, (0.0, 3.0)), spec.problem) == 4

    def test_headline_errors_match_the_rk4_oracle_values(self, lorenz_spec):
        # the CLI's oracle (GBS, refine 2) against the values the 256x
        # fine-RK4 oracle gave: measured 0.019541232429 and 5.447039194e-4
        refine = cli.DEFAULT_ORACLE_REFINE
        cases = ((600, 15, 0.019541232335), (1620, 60, 5.447038850e-4))
        for n, k, rk4_value in cases:
            oracle = reference_solution(lorenz_spec.problem, n * refine)
            run = run_transformed(lorenz_spec, IntervalPlan(n, k, (0.0, 30.0)),
                                  MuMethod.CUMULATIVE_AVG,
                                  params_for_method(MuMethod.CUMULATIVE_AVG), oracle)
            assert abs(run.max_error(0) - rk4_value) <= 1e-9


class TestJstarScan:
    def test_method_one_reduces_chaotic_fraction(self, lorenz_spec, lorenz_oracle):
        base = lle_scan(lorenz_spec, lorenz_oracle, 400)
        frac_plain = float(np.mean(base.gamma_max > 0))
        plan = IntervalPlan(600, 60, (0.0, 30.0))
        run = run_transformed(lorenz_spec, plan, MuMethod.FIXED_MU,
                              params_for_method(MuMethod.FIXED_MU), lorenz_oracle)
        trace = jstar_scan(run, 400)
        frac_transformed = float(np.mean(trace.gamma_max > 0))
        assert frac_transformed < frac_plain
        assert frac_plain > 0.9
        assert frac_transformed < 0.5


class TestStepExtension:
    def test_n600_step_is_near_the_allowed_minimum(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15, (0.0, 30.0))
        run = run_transformed(lorenz_spec, plan, MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        report = step_extension_report(run, lorenz_oracle, run.max_error(0))
        assert report.shape == (601, 2)
        finite = report[np.isfinite(report[:, 1]), 1]
        ratio = float(np.min(finite)) / plan.dt
        assert 0.3 <= ratio <= 3.0

    def test_zero_curvature_rows_are_unbounded(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15, (0.0, 30.0))
        run = run_transformed(lorenz_spec, plan, MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        report = step_extension_report(run, lorenz_oracle, 1e-3)
        assert np.all(report[np.isinf(report[:, 1]), 1] > 0)  # inf rows, if any, positive

    def test_requires_positive_accuracy(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15, (0.0, 30.0))
        run = run_transformed(lorenz_spec, plan, MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        with pytest.raises(ValueError):
            step_extension_report(run, lorenz_oracle, 0.0)


class TestStiffTransformDemo:
    def test_reference_case_same_order(self):
        rep = stiff_transform_demo(300.0, -1.0, 1e-3)
        assert 0.1 <= rep.ratio <= 10.0
        assert rep.ratio == pytest.approx(0.884, abs=0.02)
        assert not rep.capped

    def test_amplitude_decay_law(self):
        rep = stiff_transform_demo(300.0, -1.0, 1e-3)
        assert rep.decay_rate == pytest.approx(-299.0)
        assert rep.amplitude_ratio(0.01) == pytest.approx(math.exp(-2.99), rel=1e-12)

    def test_nonstiff_limit_still_same_order(self):
        rep = stiff_transform_demo(1.0000001, -1.0, 1e-3)
        assert 0.1 <= rep.ratio <= 10.0
        assert rep.capped
        assert rep.dt_stiff_u == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stiff_transform_demo(300.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            stiff_transform_demo(300.0, -1.0, 0.0)
