from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from stiffchaos import (
    AdaptiveConfig,
    NonFiniteState,
    OdeProblem,
    OracleNotConverged,
    Trajectory,
    check_jacobian,
    flame,
    lorenz84,
    reference_solution,
    robertson,
    solve_rk4_adaptive,
    solve_rk4_fixed,
    solve_trapezoid_adaptive,
    stiff_linear,
)
from stiffchaos.ode import (
    ORACLE_CHECK_TOL,
    _gbs_march,
    _gbs_march3,
    _rk4_step3,
    _rk4_stepn,
    rk4_step,
)


def exp_decay(t_span=(0.0, 1.0)) -> OdeProblem:
    return OdeProblem(
        name="exp-decay", dim=1, params={},
        rhs=lambda t, u: (-u[0],),
        jacobian=lambda t, u: ((-1.0,),),
        u0=(1.0,), t_span=t_span,
        rhs_dt=lambda t, u: (0.0,),
    )


def forced_dim3() -> OdeProblem:
    # non-autonomous and starting at t0 != 0, so a stage evaluated at the
    # wrong time changes the states
    return OdeProblem(
        name="forced-dim3", dim=3, params={},
        rhs=lambda t, u: (u[1], -u[0] + math.cos(3.0 * t), -u[2] + t * t),
        jacobian=lambda t, u: ((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, -1.0)),
        u0=(1.0, 0.0, 0.5), t_span=(0.3, 4.0),
    )


def step_kernel_loop(problem: OdeProblem, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 written as a loop over ``rk4_step``: the states, or
    ``NonFiniteState`` at the end of the first step whose component sum is
    not finite."""
    t0, t1 = problem.t_span
    h = (t1 - t0) / n_steps
    u = problem.u0
    states = [u]
    for i in range(n_steps):
        u = rk4_step(problem.rhs, t0 + i * h, u, h, problem.dim)
        if not math.isfinite(sum(u)):
            raise NonFiniteState(t0 + (i + 1) * h)
        states.append(u)
    return np.array(states)


def blowup_dim3() -> OdeProblem:
    # du_i/dt = u_i^2 blows up at t = 1/u_i(0); the first component goes first
    return OdeProblem(
        name="blowup-dim3", dim=3, params={},
        rhs=lambda t, u: (u[0] * u[0], u[1] * u[1], u[2] * u[2]),
        jacobian=lambda t, u: ((2.0 * u[0], 0.0, 0.0), (0.0, 2.0 * u[1], 0.0),
                               (0.0, 0.0, 2.0 * u[2])),
        u0=(1.0, 0.5, 0.25), t_span=(0.0, 3.0),
    )


def gbs_states(problem: OdeProblem, n_steps: int, march) -> np.ndarray:
    """The states of ``n_steps`` GBS macro steps over the problem's span."""
    t0, t1 = problem.t_span
    states = np.empty((n_steps + 1, problem.dim))
    states[0] = problem.u0
    march(problem.rhs, t0, (t1 - t0) / n_steps, problem.u0, states)
    return states


def rhs_counted(problem: OdeProblem) -> tuple[OdeProblem, list[int]]:
    """``problem`` with an rhs that counts its calls in ``calls[0]``."""
    calls = [0]

    def rhs(t, u):
        calls[0] += 1
        return problem.rhs(t, u)

    return replace(problem, rhs=rhs), calls


def max_rel_err(traj: Trajectory, exact) -> float:
    vals = np.array([exact(t)[0] for t in traj.times])
    return float(np.max(np.abs(traj.states[:, 0] - vals) / np.abs(vals)))


class TestRk4Fixed:
    def test_exp_decay_ten_steps(self):
        traj = solve_rk4_fixed(exp_decay(), 10)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)
        assert traj.steps_taken == 10
        assert len(traj.times) == 11
        assert traj.states[0, 0] == 1.0

    def test_stiff_linear_25_steps_hits_milli_accuracy(self):
        # a=300 with the 1.05-perturbed start on the transient window [0, 0.1]
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1))
        traj = solve_rk4_fixed(spec.problem, 25)
        assert max_rel_err(traj, spec.exact) <= 1e-3

    def test_stiff_linear_12_steps_stable_at_three_percent(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1))
        traj = solve_rk4_fixed(spec.problem, 12)
        assert np.all(np.isfinite(traj.states))
        err = max_rel_err(traj, spec.exact)
        assert 0.015 <= err <= 0.045  # ~0.03 +/- 50%

    def test_stiff_linear_25_steps_on_unit_interval_is_unstable(self):
        # 25 equidistant steps on [0, 1] put h*a = 12, far beyond the RK4
        # stability boundary |h*a| <= 2.785: rounding noise amplifies by
        # ~637 per step and the computed solution is garbage.  (The milli
        # accuracy quoted for 25 steps is only attainable on the transient
        # window, as covered above.)
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 1.0))
        try:
            traj = solve_rk4_fixed(spec.problem, 25)
        except NonFiniteState:
            return
        assert max_rel_err(traj, spec.exact) > 1e6

    def test_finite_time_blowup_raises(self):
        prob = OdeProblem(
            name="blowup", dim=1, params={},
            rhs=lambda t, u: (u[0] * u[0],),
            jacobian=lambda t, u: ((2.0 * u[0],),),
            u0=(1.0,), t_span=(0.0, 3.0),
        )
        with pytest.raises(NonFiniteState):
            solve_rk4_fixed(prob, 3000)

    def test_finite_time_blowup_raises_dim3(self):
        # the unrolled dim-3 loop must stop where the step-kernel loop stops
        prob = blowup_dim3()
        with pytest.raises(NonFiniteState) as unrolled:
            solve_rk4_fixed(prob, 3000)
        with pytest.raises(NonFiniteState) as reference:
            step_kernel_loop(prob, 3000)
        assert unrolled.value.t == reference.value.t
        assert 1.0 < unrolled.value.t < 1.1

    @pytest.mark.parametrize("problem, n_steps", [
        (lorenz84().problem, 600),
        (replace(robertson().problem, t_span=(1e-6, 1.0)), 5000),
        (forced_dim3(), 777),
    ], ids=["lorenz84", "robertson", "non-autonomous"])
    def test_unrolled_dim3_loop_matches_step_kernel_loop_bitwise(self, problem, n_steps):
        traj = solve_rk4_fixed(problem, n_steps)
        assert traj.states.tobytes() == step_kernel_loop(problem, n_steps).tobytes()

    @pytest.mark.parametrize("problem", [lorenz84().problem, exp_decay()],
                             ids=["lorenz84-dim3", "exp-decay-dim1"])
    def test_costs_four_rhs_calls_per_step(self, problem):
        counted, calls = rhs_counted(problem)
        solve_rk4_fixed(counted, 600)
        assert calls[0] == 4 * 600

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError):
            solve_rk4_fixed(exp_decay(), 0)

    def test_fourth_order_convergence(self):
        prob = lorenz84(t_span=(0.0, 2.0)).problem
        ref = solve_rk4_fixed(prob, 51200)
        errs = []
        for n in (100, 200):
            traj = solve_rk4_fixed(prob, n)
            stride = 51200 // n
            errs.append(np.max(np.abs(traj.states - ref.states[::stride])))
        order = math.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_deterministic(self):
        a = solve_rk4_fixed(lorenz84().problem, 600)
        b = solve_rk4_fixed(lorenz84().problem, 600)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_trajectory_arrays_are_frozen(self):
        traj = solve_rk4_fixed(exp_decay(), 10)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 5.0


class TestRk4Adaptive:
    def test_exp_decay(self):
        traj = solve_rk4_adaptive(exp_decay(), AdaptiveConfig(tol=1e-6, dt_init=1e-3))
        assert not traj.stagnated
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-5)

    def test_flame_mild_stiffness_completes(self):
        spec = flame(0.1)
        cfg = AdaptiveConfig(tol=1e-3, dt_init=1e-3, dt_max=5.0)
        traj = solve_rk4_adaptive(spec.problem, cfg)
        assert not traj.stagnated
        assert traj.t_reached == pytest.approx(20.0)
        exact = np.array([spec.exact(t)[0] for t in traj.times])
        assert np.max(np.abs(traj.states[:, 0] - exact)) <= 5e-3

    def test_stagnates_on_step_budget(self):
        cfg = AdaptiveConfig(tol=1e-6, dt_init=1e-4, dt_max=1e-4, max_steps=50)
        traj = solve_rk4_adaptive(exp_decay(), cfg)
        assert traj.stagnated
        assert traj.steps_taken == 50
        assert traj.t_reached < 1.0

    def test_stagnates_at_dt_min(self):
        # forcing dt_min == dt_max on a too-coarse grid leaves no room to refine
        prob = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 1.0)).problem
        cfg = AdaptiveConfig(tol=1e-12, dt_init=0.25, dt_min=0.25, dt_max=0.25)
        traj = solve_rk4_adaptive(prob, cfg)
        assert traj.stagnated

    def test_robertson_stagnates_like_reference_account(self):
        # the documented behavior: marches at the stability limit, then the
        # step budget runs out around t = O(100) after >= 10^4 steps
        cfg = AdaptiveConfig(tol=1e-3, dt_init=1e-6, dt_min=1e-12, dt_max=1e5,
                             max_steps=25_000)
        traj = solve_rk4_adaptive(robertson().problem, cfg)
        assert traj.stagnated
        assert traj.steps_taken == 25_000
        assert 1.0 < traj.t_reached < 1000.0
        # the small y component never leaves its physical scale
        assert np.min(traj.states[:, 1]) > -1e-3


class TestRk4Kernels:
    @pytest.mark.parametrize("problem, cfg", [
        (robertson().problem,
         AdaptiveConfig(tol=1e-3, dt_init=1e-6, dt_min=1e-12, dt_max=1e5, max_steps=300)),
        (exp_decay((0.0, 5.0)), AdaptiveConfig(tol=1e-9, dt_init=1.0)),
    ], ids=["robertson-dim3", "exp-decay-dim1"])
    def test_adaptive_attempt_costs_eleven_rhs_calls(self, problem, cfg):
        # the full step and the first half step share k1 = f(t, u)
        counted, calls = rhs_counted(problem)
        traj = solve_rk4_adaptive(counted, cfg)
        assert traj.steps_rejected > 0
        assert calls[0] == 11 * (traj.steps_taken + traj.steps_rejected)

    @pytest.mark.parametrize("spec, scale, log10_h", [
        (lorenz84(), (2.0, 2.0, 2.0), (-4.0, -1.0)),
        (robertson(), (1.0, 4e-5, 1.0), (-7.0, -2.0)),
    ], ids=["lorenz84", "robertson"])
    def test_unrolled_and_generic_kernels_agree_bitwise(self, spec, scale, log10_h):
        rng = np.random.default_rng(31)
        f = spec.problem.rhs
        for _ in range(200):
            u = tuple(float(x) for x in rng.uniform(-1.0, 1.0, 3) * np.array(scale))
            t = float(rng.uniform(0.0, 10.0))
            h = 10.0 ** float(rng.uniform(*log10_h))
            k1 = f(t, u)
            assert _rk4_step3(f, t, u, h, k1) == _rk4_stepn(f, t, u, h, k1)


class TestTrapezoid:
    def test_fixed_step_second_order(self):
        errs = []
        for n in (50, 100):
            h = 1.0 / n
            cfg = AdaptiveConfig(tol=1e-3, dt_init=h, dt_min=h, dt_max=h,
                                 max_steps=n + 10)
            traj = solve_trapezoid_adaptive(exp_decay(), cfg)
            assert traj.steps_taken == n
            errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        order = math.log2(errs[0] / errs[1])
        assert 1.7 <= order <= 2.3

    def test_stiff_linear_fixed_forty_steps_reach_milli_accuracy(self):
        # the reference count: ~40 trapezoid steps resolve the a=300
        # transient to 1e-3
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1))
        h = 0.1 / 40
        cfg = AdaptiveConfig(tol=1e-3, dt_init=h, dt_min=h, dt_max=h, max_steps=50)
        traj = solve_trapezoid_adaptive(spec.problem, cfg)
        assert traj.steps_taken == 40
        assert max_rel_err(traj, spec.exact) <= 1e-3

    def test_stiff_linear_adaptive(self):
        spec = stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1))
        cfg = AdaptiveConfig(tol=1e-3, dt_init=1e-4, dt_max=0.05)
        traj = solve_trapezoid_adaptive(spec.problem, cfg)
        assert not traj.stagnated
        assert max_rel_err(traj, spec.exact) <= 1e-3
        assert 5 <= traj.steps_taken <= 100

    def test_robertson_completes_with_reference_step_count(self, robertson_trapezoid):
        traj = robertson_trapezoid
        assert not traj.stagnated
        assert traj.t_reached == pytest.approx(1e6)
        assert 60 <= traj.steps_taken <= 400
        # the trajectory stays on the physical branch
        assert np.min(traj.states[:, 0]) > 0.0
        assert abs(traj.states[-1, 2] - 1.0) < 1e-2

    def test_robertson_conservation(self, robertson_trapezoid):
        drift = np.max(np.abs(np.sum(robertson_trapezoid.states, axis=1) - 1.0))
        assert drift <= 10 * 1e-3

    def test_newton_residual_preserves_linear_invariant_tightly(self, robertson_trapezoid):
        # Newton converges far below tol/10, so the mass balance holds at
        # machine level rather than at the contract bound
        drift = np.max(np.abs(np.sum(robertson_trapezoid.states, axis=1) - 1.0))
        assert drift < 1e-10


class TestReferenceSolution:
    def test_exp_decay_matches_closed_form(self):
        traj = reference_solution(exp_decay(), 6400)
        exact = np.exp(-traj.times)
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-12

    def test_stiff_linear_matches_exact_line(self):
        spec = stiff_linear(300.0)
        traj = reference_solution(spec.problem, 3200)
        mask = traj.times > 0.05
        exact = 1.0 + traj.times[mask]
        assert np.max(np.abs(traj.states[mask, 0] - exact)) < 1e-9

    def test_gate_rejects_coarse_lorenz(self, lorenz_spec):
        with pytest.raises(OracleNotConverged):
            reference_solution(lorenz_spec.problem, 600)

    def test_gate_passes_fine_lorenz(self, lorenz_oracle):
        assert lorenz_oracle.meta["oracle_check_delta"] < 1e-8
        assert lorenz_oracle.meta["oracle_n_steps"] == len(lorenz_oracle.times) - 1

    def test_rhs_calls_match_the_recorded_count(self):
        # 43 per macro step of the fine run (n) and of the gate's run (n/2)
        counted, calls = rhs_counted(lorenz84(t_span=(0.0, 1.0)).problem)
        traj = reference_solution(counted, 1000)
        assert calls[0] == traj.meta["oracle_rhs_evals"] == 43 * (1000 + 500)

    def test_records_the_problem_it_was_computed_for(self):
        spec = lorenz84(t_span=(0.0, 1.0))
        traj = reference_solution(spec.problem, 100)
        assert traj.meta["problem"] == (
            "lorenz84", {"a": 0.25, "b": 4.0, "F": 8.0, "G": 1.0},
            (0.96, -1.1, 0.5), (0.0, 1.0))
        assert traj.steps_taken == traj.meta["oracle_n_steps"] == 100

    @pytest.mark.parametrize("problem, n_steps", [
        (lorenz84().problem, 1200),
        (replace(robertson().problem, t_span=(1e-6, 1.0)), 2000),
        (forced_dim3(), 777),
    ], ids=["lorenz84", "robertson", "non-autonomous"])
    def test_unrolled_dim3_march_matches_generic_march_bitwise(self, problem, n_steps):
        unrolled = gbs_states(problem, n_steps, _gbs_march3)
        assert np.all(np.isfinite(unrolled))
        assert unrolled.tobytes() == gbs_states(problem, n_steps, _gbs_march).tobytes()

    def test_blowup_raises_at_the_same_time_on_both_marches(self):
        prob = blowup_dim3()
        with pytest.raises(NonFiniteState) as unrolled:
            gbs_states(prob, 300, _gbs_march3)
        with pytest.raises(NonFiniteState) as generic:
            gbs_states(prob, 300, _gbs_march)
        assert unrolled.value.t == generic.value.t
        assert 1.0 <= unrolled.value.t < 1.1

    def test_lorenz_oracle_agrees_with_fine_rk4(self, lorenz_spec):
        # an independent integrator: fixed-step RK4 at 256x the N=600 grid;
        # measured max|diff| 3.8e-10 on that grid over [0, 30], mostly the
        # RK4 run's own error (6.3e-11 against RK4 at 1024x)
        oracle = reference_solution(lorenz_spec.problem, 1200)
        rk4 = solve_rk4_fixed(lorenz_spec.problem, 600 * 256)
        diff = np.max(np.abs(oracle.states[::2] - rk4.states[::256]))
        assert diff < ORACLE_CHECK_TOL

    def test_lorenz_oracle_agrees_with_dop853(self, lorenz_spec, lorenz_oracle):
        # an independent integrator (scipy's DOP853 at rtol = atol = 1e-13) on
        # the N=600 grid: measured max|diff| 4.4e-10 over [0, 30] (largest in
        # y and z near t = 29.4), bounded by the oracle's own halving gate
        integrate = pytest.importorskip("scipy.integrate")
        p = lorenz_spec.problem
        stride = (len(lorenz_oracle.times) - 1) // 600
        grid = lorenz_oracle.times[::stride]
        sol = integrate.solve_ivp(lambda t, u: p.rhs(t, tuple(u)), p.t_span, p.u0,
                                  method="DOP853", rtol=1e-13, atol=1e-13, t_eval=grid)
        assert sol.success
        assert np.max(np.abs(lorenz_oracle.states[::stride] - sol.y.T)) < ORACLE_CHECK_TOL

    def test_requires_even_steps(self):
        with pytest.raises(ValueError):
            reference_solution(exp_decay(), 101)


class TestProblemValidation:
    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for spec in (stiff_linear(300.0), flame(0.01), robertson(), lorenz84()):
            dim = spec.problem.dim
            states = [tuple(rng.uniform(0.05, 1.0, dim)) for _ in range(20)]
            check_jacobian(spec.problem, states, rtol=1e-5)

    def test_invalid_spans_rejected(self):
        with pytest.raises(ValueError):
            OdeProblem("bad", 1, {}, lambda t, u: (0.0,),
                       lambda t, u: ((0.0,),), (1.0,), (1.0, 0.0))

    def test_adaptive_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(tol=-1.0, dt_init=1e-3)
        with pytest.raises(ValueError):
            AdaptiveConfig(tol=1e-3, dt_init=1e-3, dt_min=1e-2)
