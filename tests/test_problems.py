from __future__ import annotations

import math

import numpy as np
import pytest

from stiffchaos import (
    PROBLEM_FACTORIES,
    Trajectory,
    check_jacobian,
    flame,
    lle_scan,
    local_eigenvalues,
    lorenz84,
    make_problem,
    robertson,
    solve_rk4_fixed,
    stiff_linear,
)
from stiffchaos.problems import nearest_sample_indices


class TestStiffLinear:
    def test_exact_solution_is_line_plus_transient(self):
        spec = stiff_linear(300.0, u0=(1.05,))
        for t in (0.0, 0.003, 0.01, 0.5):
            assert spec.exact(t)[0] == pytest.approx(
                1.0 + t + 0.05 * math.exp(-300.0 * t), rel=1e-14)

    def test_unperturbed_endpoint_exact(self):
        spec = stiff_linear(300.0)
        assert spec.exact(1.0)[0] == 2.0

    def test_exact_satisfies_the_ode(self):
        spec = stiff_linear(300.0, u0=(1.05,))
        for t in np.linspace(0.001, 0.9, 25):
            h = 1e-6
            deriv = (spec.exact(t + h)[0] - spec.exact(t - h)[0]) / (2 * h)
            assert deriv == pytest.approx(spec.problem.rhs(t, spec.exact(t))[0], abs=1e-5)

    def test_variational_decay_matches_closed_form(self):
        # d(du)/dt = -a du integrated over 0.01 must give exp(-3)
        spec = stiff_linear(300.0)
        var_prob = make_problem("stiff-linear", params={"a": 300.0},
                                t_span=(0.0, 0.01)).problem
        # integrate the variational system directly
        from stiffchaos import OdeProblem
        vp = OdeProblem(
            name="variational", dim=1, params={},
            rhs=lambda t, u: (spec.variational_jacobian(t, (1.0 + t,))[0][0] * u[0],),
            jacobian=spec.variational_jacobian,
            u0=(1.0,), t_span=(0.0, 0.01),
            rhs_dt=lambda t, u: (0.0,),
        )
        traj = solve_rk4_fixed(vp, 500)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-3.0), abs=1e-9)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            stiff_linear(0.0)

    def test_exact_starts_at_u0_for_a_shifted_start(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.5, 1.0))
        assert abs(spec.exact(0.5)[0] - 1.05) <= 1e-15
        for t in np.linspace(0.501, 0.9, 25):
            h = 1e-6
            deriv = (spec.exact(t + h)[0] - spec.exact(t - h)[0]) / (2 * h)
            assert deriv == pytest.approx(spec.problem.rhs(t, spec.exact(t))[0], abs=1e-5)


class TestFlame:
    def test_transition_near_one_over_d(self):
        spec = flame(0.01)
        assert spec.exact(0.0)[0] == pytest.approx(0.01, abs=1e-9)
        assert spec.exact(80.0)[0] < 0.05
        assert spec.exact(120.0)[0] > 0.99

    def test_fixed_point_and_variational_rate(self):
        spec = flame(0.01)
        assert spec.problem.rhs(0.0, (1.0,))[0] == 0.0
        assert spec.variational_jacobian(0.0, (1.0,))[0][0] == -1.0

    def test_half_start_slope(self):
        spec = flame(0.5)
        assert spec.problem.u0 == (0.5,)
        assert spec.problem.rhs(0.0, (0.5,))[0] == pytest.approx(0.125)

    def test_default_span_scales_with_d(self):
        assert flame(0.1).problem.t_span == (0.0, 20.0)

    def test_implicit_solution_residual(self):
        # bisected exact solution must satisfy the ODE to 1e-8
        spec = flame(0.01)
        for t in (1.0, 50.0, 95.0, 102.0, 105.0, 130.0, 199.0):
            h = 1e-4
            deriv = (spec.exact(t + h)[0] - spec.exact(t - h)[0]) / (2 * h)
            assert abs(deriv - spec.problem.rhs(t, spec.exact(t))[0]) <= 1e-8

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            flame(1.5)

    def test_exact_starts_at_d_for_a_shifted_start(self):
        # 1e-11 leaves room for the bisection tolerance (measured 9.1e-14)
        spec = flame(0.1, t_span=(5.0, 20.0))
        assert abs(spec.exact(5.0)[0] - 0.1) <= 1e-11
        for t in (6.0, 12.0, 15.0, 19.0):
            h = 1e-4
            deriv = (spec.exact(t + h)[0] - spec.exact(t - h)[0]) / (2 * h)
            assert abs(deriv - spec.problem.rhs(t, spec.exact(t))[0]) <= 1e-8


class TestRobertson:
    def test_rhs_components_sum_to_zero(self, robertson_spec):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = tuple(rng.uniform(0, 1, 3))
            assert sum(robertson_spec.problem.rhs(0.0, u)) == pytest.approx(0.0, abs=1e-12)

    def test_jacobian_at_start(self, robertson_spec):
        j = robertson_spec.problem.jacobian(0.0, (1.0, 0.0, 0.0))
        assert j == ((-0.04, 0.0, 0.0), (0.04, 0.0, 0.0), (0.0, 0.0, 0.0))

    def test_long_time_limit(self, robertson_trapezoid):
        final = robertson_trapezoid.states[-1]
        assert abs(final[2] - 1.0) < 1e-2
        assert abs(final[0]) < 1e-2

    def test_defaults(self, robertson_spec):
        prob = robertson_spec.problem
        assert prob.u0 == (1.0, 0.0, 0.0)
        assert prob.t_span == (1e-6, 1e6)

    def test_trapezoid_end_state_matches_radau(self, robertson_spec, robertson_trapezoid):
        # an independent stiff integrator (scipy's Radau IIA at rtol 1e-10,
        # atol 1e-14, analytic Jacobian): the worst relative difference of the
        # 80-step tol-1e-3 trapezoid end state at t = 1e6 measured 2.7e-3 (in x)
        integrate = pytest.importorskip("scipy.integrate")
        p = robertson_spec.problem
        sol = integrate.solve_ivp(lambda t, u: p.rhs(t, tuple(u)), p.t_span, p.u0,
                                  method="Radau", rtol=1e-10, atol=1e-14,
                                  jac=lambda t, u: p.jacobian(t, tuple(u)))
        assert sol.success
        assert robertson_trapezoid.times[-1] == sol.t[-1] == 1e6
        ref = sol.y[:, -1]
        assert np.max(np.abs(robertson_trapezoid.states[-1] - ref) / np.abs(ref)) < 1e-2


class TestLorenz84:
    def test_jacobian_matches_displayed_matrix(self, lorenz_spec):
        j = lorenz_spec.problem.jacobian(0.0, (0.96, -1.1, 0.5))
        assert j[0] == (-0.25, 2.2, -1.0)
        assert j[1][2] == pytest.approx(-3.84)  # entry (2,3) = -b*x
        assert j[1] == (-1.1 - 2.0, 0.96 - 1.0, -3.84)
        assert j[2] == (4.0 * -1.1 + 0.5, 3.84, 0.96 - 1.0)

    def test_initial_eigenvalues(self, lorenz_spec):
        from stiffchaos import local_eigenvalues
        eig = local_eigenvalues(lorenz_spec.problem.jacobian(0.0, lorenz_spec.problem.u0))
        assert eig.gamma_max == pytest.approx(1.9, abs=0.1)

    def test_forcing_terms_absent_from_jacobian(self, lorenz_oracle):
        base = lorenz84(F=8.0, G=1.0)
        forced = lorenz84(F=80.0, G=-3.0)
        t1 = lle_scan(base.problem, lorenz_oracle, 100)
        t2 = lle_scan(forced.problem, lorenz_oracle, 100)
        assert np.array_equal(t1.gamma_max, t2.gamma_max)
        assert np.array_equal(t1.gamma_min, t2.gamma_min)

    def test_defaults(self, lorenz_spec):
        prob = lorenz_spec.problem
        assert prob.params == {"a": 0.25, "b": 4.0, "F": 8.0, "G": 1.0}
        assert prob.u0 == (0.96, -1.1, 0.5)
        assert prob.t_span == (0.0, 30.0)


class TestJacobianConsistency:
    @pytest.mark.parametrize("name", ["stiff-linear", "flame", "robertson", "lorenz84"])
    def test_analytic_jacobian_matches_finite_differences(self, name, lorenz_oracle,
                                                          robertson_trapezoid):
        spec = make_problem(name)
        rng = np.random.default_rng(19)
        if name == "lorenz84":
            idx = rng.integers(0, len(lorenz_oracle.times), 100)
            states = [tuple(lorenz_oracle.states[i]) for i in idx]
            times = [float(lorenz_oracle.times[i]) for i in idx]
        elif name == "robertson":
            idx = rng.integers(0, len(robertson_trapezoid.times), 100)
            states = [tuple(robertson_trapezoid.states[i]) for i in idx]
            times = [float(robertson_trapezoid.times[i]) for i in idx]
        else:
            traj = solve_rk4_fixed(spec.problem, 2000)
            idx = rng.integers(0, len(traj.times), 100)
            states = [tuple(traj.states[i]) for i in idx]
            times = [float(traj.times[i]) for i in idx]
        check_jacobian(spec.problem, states, times, rtol=1e-5)

    @pytest.mark.parametrize("name", ["stiff-linear", "flame", "robertson", "lorenz84"])
    def test_variational_jacobian_coincides_with_rhs_jacobian(self, name):
        spec = make_problem(name)
        rng = np.random.default_rng(23)
        for _ in range(20):
            u = tuple(rng.uniform(0.05, 1.0, spec.problem.dim))
            a = np.asarray(spec.problem.jacobian(0.3, u), dtype=float)
            b = np.asarray(spec.variational_jacobian(0.3, u), dtype=float)
            assert np.array_equal(a, b)


def _in_lanes(entries, n: int) -> np.ndarray:
    """Entries returned in n lanes, each an (n,) array or a scalar, stacked
    with the lane axis last and the scalars broadcast."""
    for entry in entries:
        assert np.ndim(entry) == 0 or np.shape(entry) == (n,)
    return np.stack([np.broadcast_to(np.asarray(e, dtype=float), (n,)) for e in entries])


class TestLaneContract:
    @pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
    def test_lanes_equal_float_calls_bit_for_bit(self, name):
        problem = make_problem(name).problem
        n = 257
        rng = np.random.default_rng(43)
        t = rng.uniform(*problem.t_span, n)
        u = rng.uniform(-2.0, 2.0, (n, problem.dim))
        lanes = tuple(u.T)
        for fn in (problem.rhs, problem.rhs_dt):
            got = _in_lanes(fn(t, lanes), n).T
            want = np.array([fn(float(tk), tuple(map(float, uk))) for tk, uk in zip(t, u)])
            assert got.tobytes() == want.tobytes()
        jac = problem.jacobian(t, lanes)
        got = np.stack([_in_lanes(row, n) for row in jac]).transpose(2, 0, 1)
        want = np.array([problem.jacobian(float(tk), tuple(map(float, uk)))
                         for tk, uk in zip(t, u)])
        assert got.tobytes() == want.tobytes()


class TestLleScan:
    def test_lorenz_scan_mostly_chaotic_with_dip_near_fourteen(self, lorenz_spec,
                                                               lorenz_oracle):
        trace = lle_scan(lorenz_spec.problem, lorenz_oracle, 400)
        assert len(trace.times) == 400
        assert float(np.mean(trace.gamma_max > 0)) > 0.90
        window = trace.gamma_max[(trace.times >= 13.0) & (trace.times <= 15.0)]
        assert np.min(window) <= 0.0

    def test_gamma_ordering_invariant(self, lorenz_spec, lorenz_oracle):
        trace = lle_scan(lorenz_spec.problem, lorenz_oracle, 150)
        assert np.all(trace.gamma_min <= trace.gamma_max)

    def test_robertson_extreme_stiffness_in_slow_phase(self, robertson_spec,
                                                       robertson_trapezoid):
        trace = lle_scan(robertson_spec.problem, robertson_trapezoid, 200, window=(1.0, 1e5))
        assert float(np.min(trace.gamma_min)) < -2400.0

    def test_stiff_linear_scan_single_eigenvalue(self):
        spec = stiff_linear(300.0)
        traj = solve_rk4_fixed(spec.problem, 500)
        trace = lle_scan(spec.problem, traj, 50)
        assert np.all(trace.gamma_max == -300.0)
        assert np.all(trace.gamma_min == -300.0)

    def test_one_sample_trajectory_scans_its_start_state(self, robertson_spec):
        # an adaptive run that stagnates before its first step
        problem = robertson_spec.problem
        t0 = problem.t_span[0]
        traj = Trajectory(np.array([t0]), np.array([problem.u0]), "rk4_adaptive",
                          steps_taken=0, stagnated=True)
        idx = nearest_sample_indices(traj.times, np.full(5, t0))
        assert idx.tolist() == [0] * 5
        trace = lle_scan(problem, traj, 5)
        want = np.array(local_eigenvalues(problem.jacobian(t0, problem.u0)).values)
        assert trace.times.tolist() == [t0] * 5
        assert all(row.tobytes() == want.tobytes() for row in trace.values)

    def test_window_must_be_covered(self, lorenz_spec, lorenz_oracle):
        with pytest.raises(ValueError):
            lle_scan(lorenz_spec.problem, lorenz_oracle, 10, window=(0.0, 60.0))


class TestRegistry:
    def test_known_names(self):
        for name in ("stiff-linear", "flame", "robertson", "lorenz84"):
            spec = make_problem(name)
            assert spec.problem.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_problem("lorenz63")

    def test_parameter_overrides(self):
        spec = make_problem("lorenz84", params={"a": 3.1, "b": 2.0})
        assert spec.problem.params["a"] == 3.1
        assert spec.problem.params["b"] == 2.0
        spec = make_problem("stiff-linear", params={"a": 20.0}, u0=[1.5],
                            t_span=[0.0, 2.0])
        assert spec.problem.params["a"] == 20.0
        assert spec.problem.u0 == (1.5,)
        assert spec.problem.t_span == (0.0, 2.0)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            make_problem("robertson", params={"rho": 28.0})

    @pytest.mark.parametrize("params", [5, [["a", 1.0]], "a"])
    def test_params_that_are_not_a_mapping_rejected(self, params):
        with pytest.raises(ValueError, match="params of robertson must be a mapping"):
            make_problem("robertson", params=params)

    @pytest.mark.parametrize("name", ["stiff-linear", "flame", "robertson", "lorenz84"])
    def test_params_round_trip_through_the_factory(self, name):
        # problem.params keys are the factory's keyword names
        params = {k: 2.0 * v for k, v in make_problem(name).problem.params.items()}
        if name == "flame":
            params["d"] = 0.3
        assert make_problem(name, params=params).problem.params == params

    def test_state_and_span_overrides_reach_every_factory(self):
        spec = make_problem("robertson", u0=[0.5, 0.0, 0.5], t_span=[0.0, 2.0])
        assert spec.problem.u0 == (0.5, 0.0, 0.5)
        assert spec.problem.t_span == (0.0, 2.0)
        spec = make_problem("lorenz84", params={"F": 6.0}, u0=[1.0, 0.0, 0.0])
        assert spec.problem.params["F"] == 6.0
        assert spec.problem.u0 == (1.0, 0.0, 0.0)
        assert make_problem("flame", t_span=[1.0, 3.0]).problem.t_span == (1.0, 3.0)

    @pytest.mark.parametrize("name, kwargs", [
        ("stiff-linear", {"params": {"a": [1]}}),
        ("lorenz84", {"params": {"G": "1"}}),
        ("robertson", {"params": {"a": True}}),
        ("robertson", {"params": {"u0": 1.0}}),
        ("flame", {"u0": [0.5]}),
        ("stiff-linear", {"u0": []}),
        ("lorenz84", {"t_span": 5.0}),
    ], ids=["param-list", "param-string", "param-bool", "param-named-u0", "flame-u0",
            "u0-empty", "t-span-scalar"])
    def test_malformed_overrides_are_value_errors(self, name, kwargs):
        with pytest.raises(ValueError):
            make_problem(name, **kwargs)
