from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from stiffchaos import (
    IntervalPlan,
    MuMethod,
    NonFiniteState,
    OdeProblem,
    PROBLEM_FACTORIES,
    Trajectory,
    TransformParams,
    curvature_along,
    dt_max,
    jstar_scan,
    lle_scan,
    local_eigenvalues,
    lorenz84,
    make_problem,
    params_for_method,
    reference_solution,
    run_transformed,
    select_mu,
    shifted_jacobian,
    flame,
    solve_rk4_fixed,
    step_extension_report,
    stiff_linear,
    stiff_transform_demo,
    transformed_rhs,
)
from stiffchaos.ode import EIG_BLOCK, _padded, _rk4_march3, rk4_step
from stiffchaos.problems import nearest_sample_indices
from stiffchaos.transform import METHOD_MU_INIT, METHOD_RULES, _align_reference

import generic_reference
from generic_reference import transformed_run, zsystem_run
from test_ode_solvers import blowup_dim3, forced_dim2


LORENZ_ARGS = dict(a=0.25, b=4.0, f=8.0, g=1.0)
SHIFT_LAW_TOL = 1e-13  # measured 1.1e-14 (scaled) over 500 examples per problem


def lorenz84_z_reference(mu, t, z, a, b, f, g):
    """The paper's hand-expanded transformed Lorenz-84 equations, written
    out independently of the conjugation used by the package."""
    m1, m2, m3 = mu
    z1, z2, z3 = z
    exp = math.exp
    return (
        -m1 * z1 - exp((2 * m2 - m1) * t) * z2 * z2
        - exp((2 * m3 - m1) * t) * z3 * z3 - a * z1 + a * f * exp(-m1 * t),
        -m2 * z2 + exp(m1 * t) * z1 * z2
        - b * exp((m1 - m2 + m3) * t) * z1 * z3 - z2 + g * exp(-m2 * t),
        -m3 * z3 + b * exp((m1 + m2 - m3) * t) * z1 * z2
        + exp(m1 * t) * z1 * z3 - z3,
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
        params = TransformParams(mu_init=(2.592, 1.944, 1.539))
        z = (0.96, -1.1, 0.5)
        got = transformed_rhs(params, 0.0, z, **LORENZ_ARGS)
        base = lorenz_spec.problem.rhs(0.0, z)
        for i in range(3):
            assert got[i] == pytest.approx(base[i] - params.mu_init[i] * z[i], rel=1e-14)

    def test_one_step_roundtrip_is_fifth_order(self, lorenz_spec):
        # the z-step back-transformed must agree with the direct RK4 step to
        # the next order in dt; verified by step-halving
        params = TransformParams(mu_init=(2.592, 1.944, 1.539))
        u0 = lorenz_spec.problem.u0

        def zrhs(t, z):
            return transformed_rhs(params, t, z, **LORENZ_ARGS)

        diffs = []
        for dt in (0.05, 0.025, 0.0125):
            z1 = rk4_step(zrhs, 0.0, u0, dt, 3)
            back = tuple(math.exp(m * dt) * z for m, z in zip(params.mu_init, z1))
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
            got = transformed_rhs(TransformParams(mu_init=mu), t, z, **LORENZ_ARGS)
            want = lorenz84_z_reference(mu, t, z, **LORENZ_ARGS)
            scale = max(1.0, max(map(abs, want)))
            worst = max(worst, max(abs(p - q) for p, q in zip(got, want)) / scale)
        assert worst <= 1e-13


class TestJstar:
    def test_zero_mu_reduces_to_lorenz_jacobian(self, lorenz_spec):
        rng = np.random.default_rng(8)
        params = TransformParams()
        for _ in range(20):
            z = tuple(rng.uniform(-2, 2, 3))
            got = np.asarray(shifted_jacobian(
                lorenz84(a=0.25, b=4.0).problem.jacobian, 0.0, z, params.mu_init))
            want = np.asarray(lorenz_spec.problem.jacobian(0.0, z))
            assert np.array_equal(got, want)

    def test_uniform_shift_law(self, lorenz_spec):
        # eig(J - m I) = eig(J) - m
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = tuple(rng.uniform(-2.5, 2.5, 3))
            m = float(rng.uniform(-3, 3))
            params = TransformParams(mu_init=(m, m, m))
            shifted = local_eigenvalues(shifted_jacobian(
                lorenz84(a=0.25, b=4.0).problem.jacobian, 0.0, z, params.mu_init))
            plain = local_eigenvalues(lorenz_spec.problem.jacobian(0.0, z))
            got = sorted(shifted.values, key=lambda v: (v.real, v.imag))
            want = sorted((v - m for v in plain.values), key=lambda v: (v.real, v.imag))
            for p, q in zip(got, want):
                assert p == pytest.approx(q, abs=1e-8)

    def test_reference_mu_lowers_the_leading_exponent(self, lorenz_spec):
        params = TransformParams(mu_init=(2.592, 1.944, 1.539))
        eig = local_eigenvalues(shifted_jacobian(
            lorenz84(a=0.25, b=4.0).problem.jacobian, 0.0, lorenz_spec.problem.u0,
            params.mu_init))
        assert eig.gamma_max < 1.9

    @pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
    def test_uniform_shift_law_for_any_scaling(self, name):
        # eig(J(z) - m I) = eig(J(z)) - m on every problem and at states of
        # any scale, matched nearest first because hypothesis finds repeated
        # roots (z = 0)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        problem = make_problem(name).problem
        dim = problem.dim

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(z=st.tuples(*[st.floats(-25.0, 25.0)] * dim),
                          m=st.floats(-3.0, 3.0), t=st.floats(0.0, 1.0))
        def check(z, m, t):
            shifted = np.linalg.eigvals(shifted_jacobian(problem.jacobian, t, z, (m,) * dim))
            plain = np.linalg.eigvals(problem.jacobian(t, z))
            scale = max(1.0, float(np.max(np.abs(plain))))
            remaining = list(plain - m)
            for p in shifted:
                q = min(remaining, key=lambda v: abs(v - p))
                remaining.remove(q)
                assert abs(p - q) / scale <= SHIFT_LAW_TOL

        check()


class TestLawsonMarchMatchesReference:
    """A step of the unrolled Lawson march on the padded system equals the
    per-component Lawson step bit for bit, and keeps the padded components
    at 0.0."""

    @pytest.mark.parametrize("problem", [
        stiff_linear(300.0).problem, forced_dim2(), lorenz84().problem,
    ], ids=lambda p: p.name)
    def test_padded_bitwise(self, problem):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        dim = problem.dim
        pad = (0.0,) * (3 - dim)
        f3, _ = _padded(problem.rhs, problem.u0)

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(t=st.floats(0.0, 30.0), h=st.floats(1e-4, 0.1),
                          u=st.tuples(*[st.floats(-10.0, 10.0)] * dim),
                          mu=st.tuples(*[st.floats(-300.0, 300.0)] * dim))
        def check(t, h, u, mu):
            out = [0.0] * 6
            _rk4_march3(f3, t, h, (*u, *pad), 1, out, (*mu, *pad))
            want = generic_reference._lawson_step(problem.rhs, t, u, h, mu)
            assert np.array(out[3:3 + dim]).tobytes() == np.array(want).tobytes()
            assert np.array(out[3 + dim:]).tobytes() == np.zeros(len(pad)).tobytes()

        check()


class TestSelectMu:
    def test_method_one_is_fixed(self):
        params = params_for_method(MuMethod.FIXED_MU)
        assert select_mu(MuMethod.FIXED_MU, [], params) == (2.592, 1.944, 1.539)
        assert select_mu(MuMethod.FIXED_MU, [-5.0, 2.0], params) == (2.592, 1.944, 1.539)

    def test_method_two_tracks_last_gamma(self):
        params = TransformParams(coeffs=(1.0, 1.0, 1.0), mu_init=(2.0, 2.0, 2.0))
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
        assert select_mu(MuMethod.LOCAL_GAMMA, [1.0, 3.0], params) == (6.0,)
        assert select_mu(MuMethod.CUMULATIVE_AVG, [1.0, 3.0], params) == (4.0,)

    def test_reference_defaults(self):
        assert METHOD_MU_INIT[MuMethod.FIXED_MU] == (2.592, 1.944, 1.539)
        assert METHOD_MU_INIT[MuMethod.LOCAL_GAMMA] == (2.0, 2.0, 2.0)
        assert METHOD_MU_INIT[MuMethod.CUMULATIVE_AVG] == (2.16, 1.62, 1.28)


SHIFTED_METHODS = [m for m in MuMethod if m is not MuMethod.NONE]


def bits(values) -> bytes:
    """The IEEE bits of a tuple of floats, so that 0.0 and -0.0 differ."""
    return np.array(values, dtype=float).tobytes()


class TestShiftTable:
    """``select_mu`` reads each method's row of ``METHOD_RULES``; it equals
    the chain of one branch per method that it replaced
    (``generic_reference.select_mu``) bit for bit.  A lone -0.0 shows why
    method 2 takes its last value as it is: sum([-0.0]) is 0.0, which
    methods 3 and 4 take and the multipliers times the last value do not.
    ``mu_history.csv`` writes either zero as 0."""

    HISTORIES = [[], [-0.0], [0.0], [-0.0, 1.25], [-0.0, -0.0], [1.25, -0.0],
                 [-0.0, -0.0, -0.0], [0.3, -1.7, 2.9], [1e308, 1e308, -1e308],
                 [-2.5, 0.1, 0.7, -0.0]]
    # (coeffs, mu_init), cut to the problem's dim
    SETTINGS = [((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
                ((-0.75, -0.75, -0.75), (2.0, 2.0, 2.0)),
                ((-1.5, 0.66, -0.5), (2.16, -1.62, 1.28)),
                ((0.25, -2.0, 7.0), (-300.0, 0.0197, -0.0))]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("method", list(MuMethod), ids=lambda m: m.value)
    def test_table_equals_the_branch_chain(self, method, dim):
        rng = np.random.default_rng(dim)
        histories = self.HISTORIES + [rng.normal(size=n).tolist() for n in range(1, 45, 4)]
        for coeffs, mu_init in self.SETTINGS:
            params = params_for_method(method, coeffs=coeffs[:dim], mu_init=mu_init[:dim])
            for history in histories:
                got = select_mu(method, history, params)
                assert type(got) is tuple and len(got) == dim
                assert bits(got) == bits(generic_reference.select_mu(method, history, params))

    def test_signed_zero_of_a_lone_minus_zero(self):
        params = TransformParams(coeffs=(1.0,), mu_init=(0.5,))
        assert bits(select_mu(MuMethod.LOCAL_GAMMA, [-0.0], params)) == bits((-0.0,))
        for method in (MuMethod.CUMULATIVE_AVG, MuMethod.WINDOW_AVG):
            assert bits(select_mu(method, [-0.0], params)) == bits((0.0,))
            assert bits(select_mu(method, [-0.0, 2.0], params)) == bits((1.0,))

    def test_a_method_reads_only_its_settings(self):
        assert {m: METHOD_RULES[m].reads for m in MuMethod} == {
            MuMethod.NONE: (), MuMethod.FIXED_MU: ("mu_init",),
            MuMethod.LOCAL_GAMMA: ("coeffs", "mu_init"),
            MuMethod.CUMULATIVE_AVG: ("coeffs", "mu_init"),
            MuMethod.WINDOW_AVG: ("coeffs", "mu_init")}


class TestProblemDefaults:
    """Lorenz-84 keeps the paper's triples; every other problem starts at
    gamma_max of J(t0, u0) in each component with multipliers 1, and method
    none shifts by zero."""

    def test_lorenz84_keeps_the_paper_triples(self):
        problem = lorenz84(a=0.3, u0=(1.0, 0.0, 0.0)).problem
        for method in SHIFTED_METHODS:
            coeffs = (1.0,) * 3 if method is MuMethod.LOCAL_GAMMA else (1.5, 0.66, 0.5)
            want = TransformParams(coeffs=coeffs, mu_init=METHOD_MU_INIT[method])
            assert params_for_method(method) == params_for_method(method, problem) == want
        assert params_for_method(MuMethod.NONE, problem).mu_init == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name, gamma", [("stiff-linear", -300.0), ("flame", 0.0197),
                                             ("robertson", 0.0)])
    def test_other_problems_start_at_gamma_max(self, name, gamma):
        problem = make_problem(name).problem
        for method in SHIFTED_METHODS:
            params = params_for_method(method, problem)
            assert params.mu_init == pytest.approx((gamma,) * problem.dim, rel=1e-12)
            assert params.coeffs == (1.0,) * problem.dim
            assert bits(params.mu_init) == bits((params.mu_init[0] + 0.0,) * problem.dim)
        assert params_for_method(MuMethod.NONE, problem).mu_init == (0.0,) * problem.dim
        # a setting given wins over the default
        explicit = params_for_method(MuMethod.FIXED_MU, problem,
                                     coeffs=(3.0,) * problem.dim, mu_init=(4.0,) * problem.dim)
        assert explicit == TransformParams((3.0,) * problem.dim, (4.0,) * problem.dim)

    def test_robertson_minus_zero_start_is_written_as_zero(self):
        # gamma_max of J(t0, u0) on Robertson is -0.0; its default is 0.0
        problem = make_problem("robertson").problem
        gamma = local_eigenvalues(problem.jacobian(problem.t_span[0], problem.u0)).gamma_max
        assert bits((gamma,)) == bits((-0.0,))
        assert bits(params_for_method(MuMethod.FIXED_MU, problem).mu_init) == bits((0.0,) * 3)


class TestIntervalPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalPlan(600, 7)
        # a run spans its problem's t_span, which the problem checks
        with pytest.raises(ValueError, match="t_end > t_start"):
            lorenz84(t_span=(30.0, 0.0))
        plan = IntervalPlan(600, 60)
        assert plan.steps_per_interval == 10


class TestRunTransformed:
    def test_exactness_of_transformation_over_short_window(self):
        # with fixed mu the back-transformed z-solution equals the direct
        # solution up to integrator accuracy
        spec = lorenz84(t_span=(0.0, 3.0))
        direct = solve_rk4_fixed(spec.problem, 3000)
        reference = solve_rk4_fixed(spec.problem, 12000)
        plan = IntervalPlan(3000, 6)
        run = run_transformed(spec.problem, plan, MuMethod.FIXED_MU,
                              params_for_method(MuMethod.FIXED_MU), reference)
        assert float(np.max(np.abs(run.solution.states - direct.states))) <= 1e-7

    def test_initial_state_exact_and_history_lengths(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15)
        run = run_transformed(lorenz_spec.problem, plan, MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        assert tuple(run.solution.states[0]) == lorenz_spec.problem.u0
        assert run.mu_history.shape == (15, 3)
        assert run.gamma_max_history.shape == (15,)
        assert run.errors_vs_reference.shape == (601, 3)
        assert np.all(run.mu_history[0] == (2.16, 1.62, 1.28))
        assert run.dt == pytest.approx(0.05)
        # 40 steps of 0.05 an interval: interval k starts at 2k
        assert run.interval_starts.tolist() == [2.0 * k for k in range(15)]

    def test_determinism(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15)
        runs = [run_transformed(lorenz_spec.problem, plan, MuMethod.CUMULATIVE_AVG,
                                params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
                for _ in range(2)]
        assert np.array_equal(runs[0].mu_history, runs[1].mu_history)
        assert np.array_equal(runs[0].errors_vs_reference, runs[1].errors_vs_reference)

    @pytest.mark.parametrize("n_steps, stride", [(16200, 1), (600, 27)])
    def test_run_keeps_the_reference_on_its_grid(self, lorenz_spec, lorenz_oracle,
                                                 n_steps, stride):
        run = run_transformed(lorenz_spec.problem, IntervalPlan(n_steps, n_steps // 40),
                              MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        want = lorenz_oracle.states[::stride]
        assert run.reference.states.tobytes() == want.tobytes()
        assert run.reference.times.tobytes() == lorenz_oracle.times[::stride].tobytes()
        # at stride 1 the run views the oracle's states instead of copying them
        assert np.shares_memory(run.reference.states, lorenz_oracle.states) == (stride == 1)
        # the errors are the ones the run once stored
        assert np.array_equal(run.errors_vs_reference, np.abs(run.solution.states - want))

    def test_method_errors_reproduce_reference_ordering(self, lorenz_spec, lorenz_oracle):
        errs = {}
        for method, k in ((MuMethod.NONE, 1), (MuMethod.FIXED_MU, 60),
                          (MuMethod.LOCAL_GAMMA, 60), (MuMethod.CUMULATIVE_AVG, 15),
                          (MuMethod.WINDOW_AVG, 15)):
            plan = IntervalPlan(600, k)
            run = run_transformed(lorenz_spec.problem, plan, method,
                                  params_for_method(method), lorenz_oracle)
            errs[method] = run.max_error(0)
        assert errs[MuMethod.CUMULATIVE_AVG] < errs[MuMethod.FIXED_MU] < errs[MuMethod.NONE]
        assert errs[MuMethod.WINDOW_AVG] < errs[MuMethod.FIXED_MU]
        assert errs[MuMethod.LOCAL_GAMMA] < errs[MuMethod.NONE]

    @pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
    def test_none_is_plain_rk4(self, name):
        # with mu = 0 the Lawson step is the classical one, bit for bit, on
        # autonomous and non-autonomous (stiff-linear) problems alike
        t_span = (1e-6, 0.01) if name == "robertson" else None
        spec = make_problem(name, t_span=t_span)
        dim = spec.problem.dim
        direct = solve_rk4_fixed(spec.problem, 600)
        params = params_for_method(MuMethod.NONE, coeffs=(1.0,) * dim, mu_init=(0.0,) * dim)
        run = run_transformed(spec.problem, IntervalPlan(600, 1),
                              MuMethod.NONE, params, direct)
        assert np.array_equal(run.solution.states, direct.states)
        assert run.mu_history.shape == (1, dim)
        assert run.max_error(0) == 0.0

    @pytest.mark.parametrize("field", ["coeffs", "mu_init"])
    def test_component_count_must_match_dim(self, field):
        spec = lorenz84(t_span=(0.0, 3.0))
        reference = solve_rk4_fixed(spec.problem, 600)
        params = params_for_method(MuMethod.CUMULATIVE_AVG)
        bad = replace(params, **{field: getattr(params, field)[:2]})
        with pytest.raises(ValueError, match=field):
            run_transformed(spec.problem, IntervalPlan(600, 15),
                            MuMethod.CUMULATIVE_AVG, bad, reference)

    def test_reference_grid_must_align(self, lorenz_spec, lorenz_oracle):
        with pytest.raises(ValueError):
            run_transformed(lorenz_spec.problem, IntervalPlan(7, 7),
                            MuMethod.NONE, TransformParams(), lorenz_oracle)


def run_outcome(run):
    """``run()``'s arrays as bytes, or its ``NonFiniteState`` time."""
    try:
        return tuple(a.tobytes() for a in run())
    except NonFiniteState as exc:
        return ("NonFiniteState", exc.t)


def library_outcome(problem, plan, method, params, reference):
    def run():
        r = run_transformed(problem, plan, method, params, reference)
        return (r.solution.states, r.errors_vs_reference, r.mu_history,
                r.gamma_max_history)
    return run_outcome(run)


# dim-1 problems with a run plan, a reference on its grid and the mu_init
# and coeffs of the interval-averaging methods
DIM1_CASES = {
    "stiff-linear": (stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1)).problem,
                     IntervalPlan(40, 4), 640),
    "flame": (flame(0.1).problem, IntervalPlan(300, 30), 1200),
}


class TestDriverMatchesStepLoop:
    """``run_transformed`` marches each interval; its states, errors, mu and
    gamma_max histories and blow-up outcomes equal the per-step loop's bit
    for bit."""

    @pytest.mark.parametrize("method", list(MuMethod), ids=lambda m: m.value)
    def test_lorenz84(self, lorenz_spec, lorenz_oracle, method):
        spi = METHOD_RULES[method].steps_per_interval
        plan = IntervalPlan(600, 1 if spi is None else 600 // spi)
        args = (lorenz_spec.problem, plan, method, params_for_method(method), lorenz_oracle)
        assert library_outcome(*args) == run_outcome(lambda: transformed_run(*args))

    @pytest.mark.parametrize("case", sorted(DIM1_CASES))
    def test_dim1(self, case):
        problem, plan, ref_steps = DIM1_CASES[case]
        reference = solve_rk4_fixed(problem, ref_steps)
        for method in MuMethod:
            params = params_for_method(method, coeffs=(1.5,), mu_init=(2.0,))
            args = (problem, plan, method, params, reference)
            assert library_outcome(*args) == run_outcome(lambda: transformed_run(*args))

    def test_dim2(self):
        problem = forced_dim2()
        plan = IntervalPlan(120, 12)
        reference = solve_rk4_fixed(problem, 480)
        for method in MuMethod:
            params = params_for_method(method, coeffs=(1.5, 0.66), mu_init=(2.0, -1.0))
            args = (problem, plan, method, params, reference)
            assert library_outcome(*args) == run_outcome(lambda: transformed_run(*args))

    @pytest.mark.parametrize("method", [MuMethod.NONE, MuMethod.FIXED_MU],
                             ids=lambda m: m.value)
    def test_blowup_time(self, method):
        problem = blowup_dim3()
        times = np.linspace(0.0, 3.0, 601)
        reference = Trajectory(times, np.tile(problem.u0, (601, 1)), "none", 600)
        args = (problem, IntervalPlan(600, 60), method,
                params_for_method(method), reference)
        want = ("NonFiniteState", 1.0150000000000001)
        assert run_outcome(lambda: transformed_run(*args)) == want
        assert library_outcome(*args) == want

    def test_back_transform_overflow_with_finite_z(self):
        # du/dt = 0 at mu h = 50: a Lawson step multiplies x by e^50 R(-50),
        # where R(-50) = 2.4e5 is RK4's amplification of the z-system, so x
        # overflows at step 8 while z = e^{-mu t} x stays near 1e143
        problem = OdeProblem("still", 1, {}, lambda t, u: (0.0,), lambda t, u: ((0.0,),),
                             (1e100,), (0.0, 1.0), rhs_dt=lambda t, u: (0.0,))
        reference = Trajectory(np.linspace(0.0, 1.0, 11), np.full((11, 1), 1e100), "none", 10)
        params = params_for_method(MuMethod.FIXED_MU, coeffs=(1.0,), mu_init=(500.0,))
        args = (problem, IntervalPlan(10, 1), MuMethod.FIXED_MU, params, reference)
        assert run_outcome(lambda: transformed_run(*args)) == ("NonFiniteState", 0.8)
        assert library_outcome(*args) == ("NonFiniteState", 0.8)


# how far rounding may take ``run_transformed`` from the z-system loop of the
# paper's formulation (measured: at most 6.1e-15 over the first interval;
# over the whole run 1.4e-11 on lorenz84, method 2 at N=600 and method 1 at
# N=1620, and 6.7e-15 on the dim-1 and dim-2 cases, which are not chaotic)
ZSYSTEM_FIRST_INTERVAL_TOL = 1e-13
ZSYSTEM_RUN_TOL = {"lorenz84": 5e-11, "stiff-linear": 1e-13, "flame": 1e-13,
                   "forced-dim2": 1e-13}


def assert_near_zsystem(problem, plan, method, params, reference):
    run = run_transformed(problem, plan, method, params, reference)
    states, _, mu_history, _ = zsystem_run(problem, plan, method, params, reference)
    gap = np.abs(run.solution.states - states)
    assert np.max(gap[:plan.steps_per_interval + 1]) <= ZSYSTEM_FIRST_INTERVAL_TOL
    assert np.max(gap) <= ZSYSTEM_RUN_TOL[problem.name]
    assert np.array_equal(run.mu_history[0], mu_history[0])


class TestRunMatchesZsystem:
    """The interval-clock z-system loop and Lawson RK4 in x are one method in
    exact arithmetic; ``run_transformed`` stays within rounding bounds of
    the first."""

    @pytest.mark.parametrize("method", SHIFTED_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("n_steps", [600, 1620])
    def test_lorenz84(self, lorenz_spec, method, n_steps):
        # the reference K per method at N=600, and the N=1620 extension's K=60
        k = 600 // METHOD_RULES[method].steps_per_interval if n_steps == 600 else 60
        reference = solve_rk4_fixed(lorenz_spec.problem, n_steps)
        assert_near_zsystem(lorenz_spec.problem, IntervalPlan(n_steps, k), method,
                            params_for_method(method), reference)

    @pytest.mark.parametrize("case", sorted(DIM1_CASES))
    @pytest.mark.parametrize("method", SHIFTED_METHODS, ids=lambda m: m.value)
    def test_dim1(self, case, method):
        problem, plan, ref_steps = DIM1_CASES[case]
        params = params_for_method(method, coeffs=(1.5,), mu_init=(2.0,))
        assert_near_zsystem(problem, plan, method, params, solve_rk4_fixed(problem, ref_steps))

    @pytest.mark.parametrize("method", SHIFTED_METHODS, ids=lambda m: m.value)
    def test_dim2(self, method):
        problem = forced_dim2()
        params = params_for_method(method, coeffs=(1.5, 0.66), mu_init=(2.0, -1.0))
        assert_near_zsystem(problem, IntervalPlan(120, 12), method, params,
                            solve_rk4_fixed(problem, 480))


# max|x err| against the closed form on stiff-linear (a = 300, u0 = 1.05,
# t_span (0, 0.1)), method 1 over one interval, at N = 10, 20, 40, 100, 400,
# to two significant digits; the plain RK4 row, from N=20 on, is more accurate
STIFF_LINEAR_N = (10, 20, 40, 100, 400)
STIFF_LINEAR_ROWS = {
    -300.0: (0.025, 0.0018, 0.00012, 3.1e-6, 1.2e-8),
    -150.0: (0.045, 0.0030, 0.00019, 4.6e-6, 1.8e-8),
}


@pytest.mark.parametrize("mu", sorted(STIFF_LINEAR_ROWS))
def test_stiff_linear_shifted_errors(mu):
    spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1))
    got = []
    for n in STIFF_LINEAR_N:
        times = np.linspace(0.0, 0.1, n + 1)
        exact = Trajectory(times, np.array([spec.exact(float(t)) for t in times]), "exact", n)
        params = params_for_method(MuMethod.FIXED_MU, coeffs=(1.0,), mu_init=(mu,))
        run = run_transformed(spec.problem, IntervalPlan(n, 1), MuMethod.FIXED_MU,
                              params, exact)
        got.append(float(f"{run.max_error(0):.2g}"))
    assert tuple(got) == STIFF_LINEAR_ROWS[mu]


class TestReferenceAlignment:
    """A reference is accepted only for the run it was computed for."""

    def none_error(self, problem, reference) -> float:
        run = run_transformed(problem, IntervalPlan(600, 1), MuMethod.NONE,
                              params_for_method(MuMethod.NONE), reference)
        return run.max_error(0)

    @pytest.mark.parametrize("t1, n_steps", [(60.0, 76800), (29.0, 1200)],
                             ids=["ends-later", "ends-earlier"])
    def test_reference_over_another_span_is_rejected(self, lorenz_spec, t1, n_steps):
        # 76,800 steps over [0, 60] divide by 600, and stride 128 would
        # sample [0, 60] (max|x err| 2.03 instead of 1.47)
        other = solve_rk4_fixed(lorenz84(t_span=(0.0, t1)).problem, n_steps)
        with pytest.raises(ValueError, match="spans"):
            self.none_error(lorenz_spec.problem, other)

    @pytest.mark.parametrize("change", [{"F": 9.0}, {"u0": (0.9, -1.0, 0.4)}],
                             ids=["forcing", "u0"])
    def test_stamped_reference_from_another_problem_is_rejected(self, lorenz_spec, change):
        # same grid and span; max|x err| 2.39 if the u0 case were accepted
        other = reference_solution(lorenz84(**change).problem, 1200)
        with pytest.raises(ValueError, match="computed for"):
            self.none_error(lorenz_spec.problem, other)

    def test_reference_from_another_initial_state_is_rejected(self, lorenz_spec):
        # unstamped, so only its first state tells
        other = solve_rk4_fixed(lorenz84(u0=(0.9, -1.0, 0.4)).problem, 1200)
        with pytest.raises(ValueError, match="starts at"):
            self.none_error(lorenz_spec.problem, other)

    def test_plain_trajectory_of_the_run_problem_is_accepted(self):
        # the criterion-10 round trip passes an unstamped fixed-step run
        spec = lorenz84(t_span=(0.0, 3.0))
        plain = solve_rk4_fixed(spec.problem, 12000)
        assert "problem" not in plain.meta
        assert _align_reference(plain, IntervalPlan(3000, 6), spec.problem) == 4

    def test_headline_errors_match_the_rk4_oracle_values(self, lorenz_spec):
        # the CLI's oracle (GBS, one macro step per run step) against the
        # values the 256x fine-RK4 oracle gave: measured 0.019541232421 and
        # 5.447038478e-4
        cases = ((600, 15, 0.019541232335), (1620, 60, 5.447038850e-4))
        for n, k, rk4_value in cases:
            oracle = reference_solution(lorenz_spec.problem, n)
            run = run_transformed(lorenz_spec.problem, IntervalPlan(n, k),
                                  MuMethod.CUMULATIVE_AVG,
                                  params_for_method(MuMethod.CUMULATIVE_AVG), oracle)
            assert abs(run.max_error(0) - rk4_value) <= 1e-9


class TestJstarScan:
    def test_method_one_reduces_chaotic_fraction(self, lorenz_spec, lorenz_oracle):
        base = lle_scan(lorenz_spec.problem, lorenz_oracle, 400)
        frac_plain = float(np.mean(base.gamma_max > 0))
        plan = IntervalPlan(600, 60)
        run = run_transformed(lorenz_spec.problem, plan, MuMethod.FIXED_MU,
                              params_for_method(MuMethod.FIXED_MU), lorenz_oracle)
        trace = jstar_scan(run, 400)
        frac_transformed = float(np.mean(trace.gamma_max > 0))
        assert frac_transformed < frac_plain
        assert frac_plain > 0.9
        assert frac_transformed < 0.5


    def test_lanes_match_per_sample_shifted_jacobians(self):
        # z is rebuilt with np.exp instead of math.exp, which may differ in
        # the last bit; measured 2.0e-15 of each sample's largest |gamma|
        spec = lorenz84(t_span=(0.0, 3.0))
        reference = solve_rk4_fixed(spec.problem, 12000)
        plan = IntervalPlan(600, 15)
        method = MuMethod.CUMULATIVE_AVG
        run = run_transformed(spec.problem, plan, method, params_for_method(method), reference)
        trace = jstar_scan(run, 2 * EIG_BLOCK + 1)
        spi, h = plan.steps_per_interval, run.dt
        want = []
        for j in nearest_sample_indices(run.solution.times, trace.times):
            k = min(int(j) // spi, plan.k_intervals - 1)
            tau = (int(j) - k * spi) * h
            mu = tuple(map(float, run.mu_history[k]))
            z = tuple(x * math.exp(m * -tau) for x, m in zip(run.solution.states[j], mu))
            t_k = spec.problem.t_span[0] + k * spi * h
            jstar_k = shifted_jacobian(spec.problem.jacobian, t_k, z, mu)
            want.append(local_eigenvalues(jstar_k).values)
        want = np.array(want)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(trace.values - want) <= 1e-12 * scale)


class TestStepExtension:
    def test_n600_step_is_near_the_allowed_minimum(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15)
        run = run_transformed(lorenz_spec.problem, plan, MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        report = step_extension_report(run, run.max_error(0))
        assert report.shape == (601, 2)
        finite = report[np.isfinite(report[:, 1]), 1]
        ratio = float(np.min(finite)) / run.dt
        assert 0.3 <= ratio <= 3.0

    def test_zero_curvature_rows_are_unbounded(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15)
        run = run_transformed(lorenz_spec.problem, plan, MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        report = step_extension_report(run, 1e-3)
        assert np.all(report[np.isinf(report[:, 1]), 1] > 0)  # inf rows, if any, positive

    def test_lorenz84_report_is_the_z_component_report(self, lorenz_spec, lorenz_oracle):
        # the last component of a three-component run is z: the report is,
        # bit for bit, the one taken from component 2
        run = run_transformed(lorenz_spec.problem, IntervalPlan(600, 15),
                              MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        tk = curvature_along(run.reference, run.problem, component=2)
        want = np.column_stack([tk[:, 0], dt_max(tk[:, 1], run.max_error(0))])
        assert np.array_equal(step_extension_report(run, run.max_error(0)), want)

    def test_one_component_run_reads_component_zero(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1))
        reference = reference_solution(spec.problem, 40)
        params = params_for_method(MuMethod.FIXED_MU, coeffs=(1.0,), mu_init=(-300.0,))
        run = run_transformed(spec.problem, IntervalPlan(40, 4), MuMethod.FIXED_MU,
                              params, reference)
        report = step_extension_report(run, 1e-3)
        assert report.shape == (41, 2)
        tk = curvature_along(run.reference, spec.problem, component=0)
        assert np.array_equal(report[:, 0], run.solution.times)
        assert np.array_equal(report[:, 1], dt_max(tk[:, 1], 1e-3))

    def test_requires_positive_accuracy(self, lorenz_spec, lorenz_oracle):
        plan = IntervalPlan(600, 15)
        run = run_transformed(lorenz_spec.problem, plan, MuMethod.CUMULATIVE_AVG,
                              params_for_method(MuMethod.CUMULATIVE_AVG), lorenz_oracle)
        with pytest.raises(ValueError):
            step_extension_report(run, 0.0)


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
        for a, kappa_g, eps in [(math.inf, -1.0, 1e-3), (math.nan, -1.0, 1e-3),
                                (300.0, -math.inf, 1e-3), (300.0, -1.0, math.inf),
                                (300.0, -1.0, math.nan)]:
            with pytest.raises(ValueError, match="finite"):
                stiff_transform_demo(a, kappa_g, eps)

    def test_undefined_ratio_is_refused(self):
        # dt_stiff_u underflows to 0.0 (for a = 1e308 dt_max_z too): the ratio
        # is undefined, which is the ratio refusal, raised without a warning
        for a, kappa_g, eps in [(1e200, -1e200, 1e-199), (1e308, -1.0, 1e-300)]:
            with pytest.raises(ValueError, match="escaped"):
                stiff_transform_demo(a, kappa_g, eps)

    def test_huge_stiffness_is_same_order(self):
        # 2 (a eps)^2 overflows to inf, which only picks dt_stiff's branch
        rep = stiff_transform_demo(1e300, -1.0, 1e-3)
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)
        assert 0.0 < rep.dt_stiff_u < 1e-150
