from __future__ import annotations

import hashlib
import inspect
import math
import tracemalloc
from dataclasses import replace
from functools import partial

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
from stiffchaos import ode
from stiffchaos.ode import (
    EIG_BLOCK,
    ORACLE_CHECK_TOL,
    RK4_ADAPTIVE,
    TRAPEZOID_ADAPTIVE,
    _RK4_GAINS,
    _adaptive_loop,
    _gbs_march3,
    _rk4_attempt3,
    rk4_step,
)

import generic_reference
from generic_reference import (
    _gbs_march,
    _rk4_attempt,
    _rk4_stepn,
    fixed_states,
    gbs6_oracle,
    gbs7_oracle,
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
        rhs_dt=lambda t, u: (0.0, -3.0 * math.sin(3.0 * t), 2.0 * t),
    )


def step_kernel_loop(problem: OdeProblem, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 written as a loop over the per-component step
    ``_rk4_stepn``: the states, or ``NonFiniteState`` at the end of the first
    step whose component sum is not finite."""
    t0, t1 = problem.t_span
    h = (t1 - t0) / n_steps
    f = problem.rhs
    u = problem.u0
    states = [u]
    for i in range(n_steps):
        t = t0 + i * h
        u = _rk4_stepn(f, t, u, h, f(t, u))[0]
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
        rhs_dt=lambda t, u: (0.0, 0.0, 0.0),
    )


def wall_dim3() -> OdeProblem:
    # the first component's rate turns infinite at u_1 = 2 (t = 1): a trial
    # step whose stages cross that wall has a non-finite state
    return OdeProblem(
        name="wall-dim3", dim=3, params={},
        rhs=lambda t, u: (1.0 if u[0] < 2.0 else math.inf, -u[1], t),
        jacobian=lambda t, u: ((0.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0)),
        u0=(1.0, 1.0, 0.0), t_span=(0.0, 3.0),
        rhs_dt=lambda t, u: (0.0, 0.0, 1.0),
    )


def blowup_dim1() -> OdeProblem:
    # du/dt = u^2 blows up at t = 1
    return OdeProblem(
        name="blowup", dim=1, params={},
        rhs=lambda t, u: (u[0] * u[0],),
        jacobian=lambda t, u: ((2.0 * u[0],),),
        u0=(1.0,), t_span=(0.0, 3.0),
        rhs_dt=lambda t, u: (0.0,),
    )


def forced_dim2() -> OdeProblem:
    # a forced oscillator from t0 != 0, the one dim-2 system of the suite
    return OdeProblem(
        name="forced-dim2", dim=2, params={},
        rhs=lambda t, u: (u[1], -u[0] + math.cos(3.0 * t)),
        jacobian=lambda t, u: ((0.0, 1.0), (-1.0, 0.0)),
        u0=(1.0, -0.5), t_span=(0.3, 4.0),
        rhs_dt=lambda t, u: (0.0, -3.0 * math.sin(3.0 * t)),
    )


def outcome(run):
    """``run()``'s states as bytes, or the time of its ``NonFiniteState``."""
    try:
        return run().tobytes()
    except NonFiniteState as exc:
        return ("NonFiniteState", exc.t)


def adaptive_run(attempt, problem: OdeProblem, cfg: AdaptiveConfig):
    """The adaptive RK4 run of ``problem`` driven by ``attempt``: its times
    and states as bytes and its counters, and the number of trial steps the
    attempt rejected outright (an inf estimate)."""
    outright = [0]

    def counted(t, u, h):
        u_new, est = attempt(problem.rhs, t, u, h)
        outright[0] += est == math.inf
        return u_new, est

    traj = _adaptive_loop(problem, problem.u0, cfg, counted, _RK4_GAINS, RK4_ADAPTIVE)
    return run_signature(traj), outright[0]


def run_signature(traj: Trajectory) -> tuple:
    return (traj.times.tobytes(), traj.states.tobytes(), traj.steps_taken,
            traj.steps_rejected, traj.stagnated)


STAGE_BLOWUP_CASE = (blowup_dim3(),
                     AdaptiveConfig(tol=1e-3, dt_init=0.1, dt_min=1e-9, max_steps=5000))
NON_FINITE_CASE = (wall_dim3(),
                   AdaptiveConfig(tol=1e-6, dt_init=0.5, dt_min=1e-9, max_steps=5000))


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
        with pytest.raises(NonFiniteState):
            solve_rk4_fixed(blowup_dim1(), 3000)

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
            assert rk4_step(f, t, u, h, 3) == _rk4_stepn(f, t, u, h, f(t, u))[0]

    @pytest.mark.parametrize("problem", [blowup_dim3(), blowup_dim1()],
                             ids=["dim3", "dim1"])
    def test_rk4_step_raises_on_a_non_finite_state(self, problem):
        # one step of du/dt = u^2 from 1e200 overflows the first component
        u = (1e200, *problem.u0[1:])
        with pytest.raises(NonFiniteState) as exc:
            rk4_step(problem.rhs, 0.25, u, 0.5, problem.dim)
        assert exc.value.t == 0.75

    @pytest.mark.parametrize("problem, cfg", [
        (robertson().problem,
         AdaptiveConfig(tol=1e-3, dt_init=1e-6, dt_min=1e-12, dt_max=1e5, max_steps=5000)),
        (lorenz84().problem, AdaptiveConfig(tol=1e-8, dt_init=0.01, max_steps=5000)),
        (forced_dim3(), AdaptiveConfig(tol=1e-10, dt_init=0.5)),
        STAGE_BLOWUP_CASE,
        NON_FINITE_CASE,
    ], ids=["robertson", "lorenz84", "forced-t0-nonzero", "stage-blowup", "non-finite"])
    def test_unrolled_attempt_matches_generic_attempt_bitwise(self, problem, cfg):
        generic = adaptive_run(_rk4_attempt, problem, cfg)
        assert generic[0][3] > 0  # the run rejects trial steps
        assert adaptive_run(_rk4_attempt3, problem, cfg) == generic
        assert run_signature(solve_rk4_adaptive(problem, cfg)) == generic[0]

    @pytest.mark.parametrize("poison", [math.inf, -math.inf, math.nan, 1e308])
    def test_attempts_agree_when_one_rhs_call_is_poisoned(self, poison):
        # each of an attempt's 11 rhs calls in turn returns ``poison`` in one
        # component, so every non-finite check sees a bad state on its own
        base = lorenz84().problem.rhs
        for call in range(11):
            for component in range(3):
                results = []
                for attempt in (_rk4_attempt, _rk4_attempt3):
                    calls = [0]

                    def f(t, u):
                        calls[0] += 1
                        k = list(base(t, u))
                        if calls[0] == call + 1:
                            k[component] = poison
                        return tuple(k)

                    results.append(attempt(f, 0.3, (1.0, 0.5, -0.2), 0.05))
                    assert calls[0] == 11
                assert repr(results[0]) == repr(results[1])
                if not math.isfinite(poison):
                    assert results[0] == ((1.0, 0.5, -0.2), math.inf)

    @pytest.mark.parametrize("case, cause", [
        (STAGE_BLOWUP_CASE, "stage-blowup"), (NON_FINITE_CASE, "non-finite"),
    ], ids=["stage-blowup", "non-finite"])
    @pytest.mark.parametrize("attempt", [_rk4_attempt, _rk4_attempt3], ids=["generic", "dim3"])
    def test_outright_rejections_have_the_intended_cause(self, monkeypatch, case, cause,
                                                         attempt):
        # with the stage test switched off, only non-finite trials are
        # rejected outright
        _, outright = adaptive_run(attempt, *case)
        for module in (ode, generic_reference):
            monkeypatch.setattr(module, "_STAGE_BLOWUP", math.inf)
        _, non_finite = adaptive_run(attempt, *case)
        assert outright > 0
        assert non_finite == (0 if cause == "stage-blowup" else outright)


# dim-1 and dim-2 problems with a fixed step count, an adaptive setting and
# an oracle step count; the blow-up at t = 1 ends the fixed and oracle runs
# with ``NonFiniteState``
PADDED_CASES = {
    "exp-decay": (exp_decay(), 40, AdaptiveConfig(tol=1e-9, dt_init=1.0), 200),
    "stiff-linear-t0-nonzero": (
        stiff_linear(300.0, u0=(1.05,), t_span=(0.2, 1.0)).problem, 400,
        AdaptiveConfig(tol=1e-6, dt_init=0.01, max_steps=5000), 2000),
    "stiff-linear-unstable": (stiff_linear(300.0, u0=(1.05,)).problem, 25,
                              AdaptiveConfig(tol=1e-3, dt_init=0.1), 3200),
    # a start step at dt_max: the PI-controlled run from dt_init 1e-3 rejects
    # nothing, and this one still has its first steps rejected
    "flame": (flame(0.1).problem, 300, AdaptiveConfig(tol=1e-3, dt_init=5.0, dt_max=5.0),
              400),
    "blowup-dim1": (blowup_dim1(), 3000,
                    AdaptiveConfig(tol=1e-3, dt_init=0.1, dt_min=1e-9, max_steps=5000), 300),
    "forced-dim2": (forced_dim2(), 777, AdaptiveConfig(tol=1e-10, dt_init=0.5), 778),
}


@pytest.mark.parametrize("case", sorted(PADDED_CASES))
class TestPaddedDimsMatchGenericReference:
    """Dim-1 and dim-2 problems run through the dim-3 code zero-padded;
    every result equals the per-component reference bit for bit."""

    def test_fixed(self, case):
        problem, n_steps, _, _ = PADDED_CASES[case]
        got = outcome(lambda: solve_rk4_fixed(problem, n_steps).states)
        assert got == outcome(lambda: fixed_states(problem, n_steps))
        if case == "blowup-dim1":
            assert 1.0 < got[1] < 1.1
        else:
            assert len(got) == 8 * problem.dim * (n_steps + 1)

    def test_adaptive(self, case):
        problem, _, cfg, _ = PADDED_CASES[case]
        counted, calls = rhs_counted(problem)
        got = run_signature(solve_rk4_adaptive(counted, cfg))
        got_calls = calls[0]
        calls[0] = 0
        want, outright = adaptive_run(_rk4_attempt, counted, cfg)
        assert got == want
        assert got_calls == calls[0] == 11 * (want[2] + want[3])
        assert want[3] > 0 or case == "forced-dim2"
        if case == "blowup-dim1":
            assert outright > 0  # trials rejected for a blown-up stage or state

    def test_oracle(self, case):
        problem, _, _, n_steps = PADDED_CASES[case]
        if case == "blowup-dim1":
            with pytest.raises(NonFiniteState) as exc:
                reference_solution(problem, n_steps)
            want = outcome(lambda: gbs_states(problem, n_steps, _gbs_march))
            assert ("NonFiniteState", exc.value.t) == want
            assert 1.0 <= exc.value.t < 1.1
            return
        traj = reference_solution(problem, n_steps)
        fine = gbs_states(problem, n_steps, _gbs_march)
        coarse = gbs_states(problem, n_steps // 2, _gbs_march)
        assert traj.states.tobytes() == fine.tobytes()
        assert traj.meta["oracle_check_delta"] == np.max(np.abs(fine[::2] - coarse))

    def test_rk4_step(self, case):
        problem = PADDED_CASES[case][0]
        f, dim = problem.rhs, problem.dim
        rng = np.random.default_rng(41)
        for _ in range(200):
            u = tuple(float(x) for x in rng.uniform(-1.5, 1.5, dim))
            t = float(rng.uniform(*problem.t_span))
            h = 10.0 ** float(rng.uniform(-5.0, -1.0))
            got = rk4_step(f, t, u, h, dim)
            assert repr(got) == repr(_rk4_stepn(f, t, u, h, f(t, u))[0])


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


def traced_loop(monkeypatch, solve, problem: OdeProblem, cfg: AdaptiveConfig):
    """``solve(problem, cfg)`` and the arguments it passed to
    ``_adaptive_loop``, by name."""
    loop = ode._adaptive_loop
    seen = []

    def spy(*args, **kwargs):
        seen.append(inspect.signature(loop).bind(*args, **kwargs).arguments)
        return loop(*args, **kwargs)

    monkeypatch.setattr(ode, "_adaptive_loop", spy)
    traj = solve(problem, cfg)
    monkeypatch.undo()
    return traj, seen[0]


def robertson_rk4_config(dt_init_scale: float, max_steps: int) -> AdaptiveConfig:
    """The acceptance configuration of the Robertson RK4 run (criterion 5)
    with its dt_init of 1e-6 scaled."""
    return AdaptiveConfig(tol=1e-3, dt_init=1e-6 * dt_init_scale, dt_min=1e-12, dt_max=1e5,
                          max_steps=max_steps)


# 2**(k/4) for k = -8..8, and the scales next to 1 on which the elementary
# controller split: from x0.99 it collapsed at t = 13.9, from x1 and x1.01 it
# reached t = 147.5
DT_INIT_SCALES = sorted({2.0 ** (k / 4) for k in range(-8, 9)} | {0.99, 1.01, 1.1})
# enough steps for every collapse the elementary controller showed on these
# scales with a budget of 100,000 (after 246 to 6,211 steps)
ROBUSTNESS_STEPS = 7_000


class TestStepController:
    """``_adaptive_loop``'s PI step control.  Gains (ki, 0.0) are the
    elementary controller of the reference loop bit for bit; RK4's gains
    march Robertson at the stability boundary from any start step."""

    @pytest.mark.parametrize("problem, cfg", [
        (robertson().problem, AdaptiveConfig(tol=1e-3, dt_init=0.1)),
        (robertson().problem, AdaptiveConfig(tol=1e-6, dt_init=0.1)),
        (flame(0.001).problem, AdaptiveConfig(tol=1e-3, dt_init=1e-3)),
    ], ids=["robertson-tol1e-3", "robertson-tol1e-6", "flame"])
    def test_trapezoid_keeps_the_elementary_controller(self, monkeypatch, problem, cfg):
        traj, args = traced_loop(monkeypatch, solve_trapezoid_adaptive, problem, cfg)
        assert args["gains"] == (1.0 / 3.0, 0.0)
        want = generic_reference._adaptive_loop(problem, problem.u0, cfg, args["attempt"],
                                                1.0 / 3.0, TRAPEZOID_ADAPTIVE)
        assert want.steps_rejected > 0
        assert run_signature(traj) == run_signature(want)

    @pytest.mark.parametrize("problem, cfg", [
        (robertson().problem, robertson_rk4_config(1.0, 5000)),
        (flame(0.1).problem, AdaptiveConfig(tol=1e-3, dt_init=5.0, dt_max=5.0)),
    ], ids=["robertson", "flame-padded"])
    def test_rk4_with_elementary_gains_is_the_elementary_loop(self, monkeypatch, problem, cfg):
        _, args = traced_loop(monkeypatch, solve_rk4_adaptive, problem, cfg)
        assert args["gains"] == _RK4_GAINS == (0.14, 0.08)
        u0, attempt = args["u0"], args["attempt"]
        got = _adaptive_loop(problem, u0, cfg, attempt, (0.2, 0.0), RK4_ADAPTIVE)
        want = generic_reference._adaptive_loop(problem, u0, cfg, attempt, 0.2, RK4_ADAPTIVE)
        assert want.steps_rejected > 0
        assert run_signature(got) == run_signature(want)

    @pytest.mark.parametrize("scale", DT_INIT_SCALES, ids=lambda s: f"x{s:.4g}")
    def test_robertson_marches_from_every_start_step(self, scale):
        traj = solve_rk4_adaptive(robertson().problem,
                                  robertson_rk4_config(scale, ROBUSTNESS_STEPS))
        # a stagnated run short of its budget stopped at dt_min
        assert traj.stagnated and traj.steps_taken == ROBUSTNESS_STEPS
        # the elementary controller rejected about 28% of its attempts
        assert traj.steps_rejected <= 10

    def test_elementary_controller_collapses_at_dt_min(self):
        # what the PI gains remove: from dt_init x 2**(3/4) the elementary
        # controller shrinks the step to dt_min at t = 0.41
        problem = robertson().problem
        cfg = robertson_rk4_config(2.0 ** 0.75, ROBUSTNESS_STEPS)
        traj = _adaptive_loop(problem, problem.u0, cfg, partial(_rk4_attempt3, problem.rhs),
                              (0.2, 0.0), RK4_ADAPTIVE)
        assert traj.stagnated and traj.steps_taken < 500
        assert traj.t_reached < 1.0


def logged_loop(monkeypatch, solve, problem: OdeProblem, cfg: AdaptiveConfig):
    """``solve(problem, cfg)``, the ``u0`` it passed to ``_adaptive_loop``
    and a log of every attempt the loop made, as (t, u, h, u_new, est)."""
    loop = ode._adaptive_loop
    seen = []
    log = []

    def spy(*args, **kwargs):
        bound = inspect.signature(loop).bind(*args, **kwargs)
        attempt = bound.arguments["attempt"]

        def logged(t, u, h):
            u_new, est = attempt(t, u, h)
            log.append((t, u, h, u_new, est))
            return u_new, est

        bound.arguments["attempt"] = logged
        seen.append(bound.arguments["u0"])
        return loop(*bound.args, **bound.kwargs)

    monkeypatch.setattr(ode, "_adaptive_loop", spy)
    traj = solve(problem, cfg)
    monkeypatch.undo()
    return traj, seen[0], log


class TestAdaptiveStore:
    """What ``_adaptive_loop`` stores: the start and every accepted attempt,
    in order, and nothing per step beyond the numbers themselves."""

    @pytest.mark.parametrize("solve, problem, cfg", [
        (solve_rk4_adaptive, robertson().problem, robertson_rk4_config(1.0, 5000)),
        (solve_rk4_adaptive, flame(0.1).problem,
         AdaptiveConfig(tol=1e-3, dt_init=5.0, dt_max=5.0)),
        (solve_trapezoid_adaptive, robertson().problem, AdaptiveConfig(tol=1e-3, dt_init=0.1)),
    ], ids=["rk4-robertson", "rk4-flame-padded", "trapezoid-robertson"])
    def test_store_is_the_accepted_attempts(self, monkeypatch, solve, problem, cfg):
        traj, u0, log = logged_loop(monkeypatch, solve, problem, cfg)
        times = [problem.t_span[0]]
        states = [u0]
        for t, u, h, u_new, est in log:
            # each attempt starts from the last stored sample
            assert (t, u) == (times[-1], states[-1])
            if est <= cfg.tol:
                times.append(t + h)
                states.append(u_new)
        taken = len(times) - 1
        assert traj.times.tobytes() == np.array(times).tobytes()
        assert traj.states.tobytes() == np.array(states)[:, :problem.dim].tobytes()
        assert (traj.steps_taken, traj.steps_rejected) == (taken, len(log) - taken)
        assert traj.steps_rejected > 0

    def test_robertson_rk4_stores_under_64_bytes_per_accepted_step(self):
        # 8 B of time and 24 B of state is the floor
        problem = robertson().problem
        tracemalloc.start()
        try:
            traj = solve_rk4_adaptive(problem, robertson_rk4_config(1.0, 5000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.steps_taken == 5000
        assert peak / traj.steps_taken < 64


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
        # halving the step from 150 to 300 macro steps moves the state by
        # 7.1e-8, so the oracle doubles to 600, where it moves by 6.3e-11:
        # the 600-step oracle, after the calls of its 150-, 300- and 600-step runs
        p = lorenz_spec.problem
        doubled = reference_solution(p, 300)
        direct = reference_solution(p, 600)
        assert doubled.meta["oracle_n_steps"] == doubled.steps_taken == 600
        assert doubled.times.tobytes() == direct.times.tobytes()
        assert doubled.states.tobytes() == direct.states.tobytes()
        assert doubled.meta["oracle_check_delta"] == direct.meta["oracle_check_delta"] < 1e-10
        calls = [ode._fixed_grid(p, n, _gbs_march3)[2] for n in (150, 300, 600)]
        assert doubled.meta["oracle_rhs_evals"] == sum(calls) == 46_347

    def test_gate_boundary_on_lorenz(self, lorenz_spec):
        # the gate accepts every even N >= 346 at its first count: 5.4e-9 at
        # N = 360; N = 340 is refused at 1.35e-8 and served at 680
        for n, served in ((360, 360), (340, 680)):
            meta = reference_solution(lorenz_spec.problem, n).meta
            assert meta["oracle_n_steps"] == served
            assert meta["oracle_check_delta"] < 1e-8

    def test_round_off_floor_is_refused(self):
        # over [0, 100] the gate reads 1.2e-5 at 2000 macro steps, 1.9e-6 at
        # 4000 and 7.8e-6 at 8000: a doubling that does not halve it ends the search
        with pytest.raises(OracleNotConverged, match="at 8000 macro steps"):
            reference_solution(lorenz84(t_span=(0.0, 100.0)).problem, 2000)

    def test_gate_passes_fine_lorenz(self, lorenz_oracle):
        assert lorenz_oracle.meta["oracle_check_delta"] < 1e-8
        assert lorenz_oracle.meta["oracle_n_steps"] == len(lorenz_oracle.times) - 1

    def test_rhs_calls_match_the_recorded_count(self):
        # the calls of the fine run (n macro steps) and of the gate's run
        # (n/2), each macro step between 17 (four levels) and 65 (eight)
        counted, calls = rhs_counted(lorenz84(t_span=(0.0, 1.0)).problem)
        traj = reference_solution(counted, 1000)
        assert calls[0] == traj.meta["oracle_rhs_evals"]
        assert 17 * 1500 <= calls[0] < 65 * 1500

    def test_fewer_levels_at_a_smaller_step(self, lorenz_spec):
        # Lorenz-84 over [0, 30]: 37,002 calls for 600 + 300 macro steps (41.1
        # a step), 136,764 for 4800 + 2400 (19.0 a step)
        per_step = [reference_solution(lorenz_spec.problem, n).meta["oracle_rhs_evals"]
                    / (n + n // 2) for n in (600, 4800)]
        assert per_step[1] < per_step[0] < 65

    def test_unsettled_steps_take_all_eight_levels(self, lorenz_spec):
        # at 80 macro steps over [0, 30] no Lorenz-84 tableau settles: every
        # step makes 65 calls and takes T_88 of the fixed eight-level march
        counted, calls = rhs_counted(lorenz_spec.problem)
        unrolled, unrolled_calls = ode._fixed_grid(counted, 80, _gbs_march3)[1:]
        assert unrolled_calls == calls[0] == 65 * 80
        fixed = gbs_states(lorenz_spec.problem, 80, partial(_gbs_march, settle=None))
        assert unrolled.tobytes() == fixed.tobytes()

    @pytest.mark.parametrize("start", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)],
                             ids=["nan", "inf"])
    def test_non_finite_start_takes_all_eight_levels_and_raises(self, lorenz_spec, start):
        counted, calls = rhs_counted(lorenz_spec.problem)
        out = np.zeros(6)
        with pytest.raises(NonFiniteState) as exc, memoryview(out) as view:
            _gbs_march3(counted.rhs, 0.0, 0.05, start, 1, view)
        assert exc.value.t == 0.05
        assert calls[0] == 65
        assert not out[3:].any()  # nothing stored

    def test_records_the_problem_it_was_computed_for(self):
        spec = lorenz84(t_span=(0.0, 1.0))
        traj = reference_solution(spec.problem, 100)
        assert traj.meta["problem"] == (
            "lorenz84", {"a": 0.25, "b": 4.0, "F": 8.0, "G": 1.0},
            (0.96, -1.1, 0.5), (0.0, 1.0))
        assert traj.steps_taken == traj.meta["oracle_n_steps"] == 100

    # the macro steps end at levels 4-6 in the first three cases; at N = 600,
    # the gate's own N, 167 end at level 5, 329 at 6 and 104 at 7; at N = 100
    # one ends at level 7 and 99 run all eight levels after failing the
    # settle test at 4-7
    @pytest.mark.parametrize("problem, n_steps", [
        (lorenz84().problem, 1200),
        (replace(robertson().problem, t_span=(1e-6, 1.0)), 2000),
        (forced_dim3(), 777),
        (lorenz84().problem, 600),
        (lorenz84().problem, 100),
    ], ids=["lorenz84", "robertson", "non-autonomous", "lorenz84-level-7",
            "lorenz84-level-8"])
    def test_unrolled_dim3_march_matches_generic_march_bitwise(self, problem, n_steps):
        unrolled = ode._fixed_grid(problem, n_steps, _gbs_march3)[1]
        assert np.all(np.isfinite(unrolled))
        assert unrolled.tobytes() == gbs_states(problem, n_steps, _gbs_march).tobytes()

    def test_blowup_raises_at_the_same_time_on_both_marches(self):
        prob = blowup_dim3()
        with pytest.raises(NonFiniteState) as unrolled:
            ode._fixed_grid(prob, 300, _gbs_march3)
        with pytest.raises(NonFiniteState) as generic:
            gbs_states(prob, 300, _gbs_march)
        assert unrolled.value.t == generic.value.t
        assert 1.0 <= unrolled.value.t < 1.1

    def test_lorenz_oracle_agrees_with_fine_rk4(self, lorenz_spec):
        # an independent integrator: fixed-step RK4 at 256x the N=600 grid;
        # measured max|diff| 3.2e-10 on that grid over [0, 30], mostly the
        # RK4 run's own error (6.3e-11 against RK4 at 1024x)
        oracle = reference_solution(lorenz_spec.problem, 1200)
        rk4 = solve_rk4_fixed(lorenz_spec.problem, 600 * 256)
        diff = np.max(np.abs(oracle.states[::2] - rk4.states[::256]))
        assert diff < ORACLE_CHECK_TOL

    @pytest.mark.parametrize("n_steps", [600, 1620])
    def test_lorenz_oracle_agrees_with_the_six_level_oracle(self, lorenz_spec, n_steps):
        # six smoothed levels at two macro steps per run step, gated at
        # 2.0e-10 (N=600) and 1.2e-10 (N=1620); measured max|diff| 4.7e-11
        # and 1.1e-10 on the run grid
        oracle = reference_solution(lorenz_spec.problem, n_steps)
        six, delta = gbs6_oracle(lorenz_spec.problem, n_steps)
        assert delta < 1e-9
        assert np.max(np.abs(oracle.states - six)) < 1e-9

    @pytest.mark.parametrize("n_steps", [600, 1620])
    def test_lorenz_oracle_agrees_with_the_seven_level_oracle(self, lorenz_spec, n_steps):
        # all seven smoothed levels on every macro step at one per run step,
        # gated at 1.75e-10 (N=600) and 3.0e-10 (N=1620); measured max|diff|
        # 1.1e-11 and 1.7e-10 on the run grid
        oracle = reference_solution(lorenz_spec.problem, n_steps)
        seven, delta = gbs7_oracle(lorenz_spec.problem, n_steps)
        assert delta < 1e-9
        assert np.max(np.abs(oracle.states - seven)) < 1e-9

    def test_lorenz_oracle_agrees_with_dop853(self, lorenz_spec, lorenz_oracle):
        # an independent integrator (scipy's DOP853 at rtol = atol = 1e-13) on
        # the N=600 grid, against the session oracle (N = 16,200) and against
        # the oracle at the gate's own N = 600: measured max|diff| 3.4e-10 and
        # 4.7e-10 over [0, 30] (largest near t = 29.4, where the chaotic flow
        # has amplified both integrators' errors), and 1.0e-12 over [0, 5] at
        # N = 600
        integrate = pytest.importorskip("scipy.integrate")
        p = lorenz_spec.problem
        oracle = reference_solution(p, 600)
        stride = (len(lorenz_oracle.times) - 1) // 600
        sol = integrate.solve_ivp(lambda t, u: p.rhs(t, tuple(u)), p.t_span, p.u0,
                                  method="DOP853", rtol=1e-13, atol=1e-13,
                                  t_eval=oracle.times)
        assert sol.success
        assert np.max(np.abs(lorenz_oracle.states[::stride] - sol.y.T)) < ORACLE_CHECK_TOL
        diff = np.abs(oracle.states - sol.y.T)
        assert np.max(diff) < 2e-9
        assert np.max(diff[oracle.times <= 5.0]) < 5e-12

    def test_requires_even_steps(self):
        # the gate halves the oracle's count, so an odd n takes the 2n oracle
        odd, even = (reference_solution(exp_decay(), n) for n in (101, 202))
        assert odd.states.tobytes() == even.states.tobytes()
        assert odd.meta == even.meta
        assert odd.meta["oracle_n_steps"] == 202
        with pytest.raises(ValueError):
            reference_solution(exp_decay(), 0)


class TestProblemValidation:
    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for spec in (stiff_linear(300.0), flame(0.01), robertson(), lorenz84()):
            dim = spec.problem.dim
            states = [tuple(rng.uniform(0.05, 1.0, dim)) for _ in range(20)]
            check_jacobian(spec.problem, states, rtol=1e-5)

    def test_wrong_entry_is_measured_per_sample_in_every_block(self):
        # entry (1, 2) off by 0.01 on every state: the mismatch is 0.01 over
        # each sample's own scale max(1, max|J|), found across block edges
        good = lorenz84().problem
        offset = 0.01

        def wrong(t, u):
            rows = good.jacobian(t, u)
            return rows[0], (rows[1][0], rows[1][1], rows[1][2] + offset), rows[2]

        states = np.random.default_rng(3).uniform(-2.0, 2.0, (2 * EIG_BLOCK + 1, 3))
        scales = [max(1.0, float(np.max(np.abs(wrong(0.0, tuple(u)))))) for u in states]
        worst = check_jacobian(replace(good, jacobian=wrong), states, rtol=1.0)
        assert worst == pytest.approx(offset / min(scales), rel=1e-6)
        with pytest.raises(AssertionError):
            check_jacobian(replace(good, jacobian=wrong), states[-1:], rtol=1e-5)

    def test_more_than_three_components_rejected(self):
        with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
            OdeProblem("dim4", 4, {}, lambda t, u: (0.0,) * 4,
                       lambda t, u: ((0.0,) * 4,) * 4, (1.0,) * 4, (0.0, 1.0),
                       rhs_dt=lambda t, u: (0.0,) * 4)

    def test_rhs_dt_is_required(self):
        with pytest.raises(TypeError, match="rhs_dt"):
            OdeProblem("no-rhs-dt", 1, {}, lambda t, u: (0.0,),
                       lambda t, u: ((0.0,),), (1.0,), (0.0, 1.0))

    def test_invalid_spans_rejected(self):
        with pytest.raises(ValueError):
            OdeProblem("bad", 1, {}, lambda t, u: (0.0,),
                       lambda t, u: ((0.0,),), (1.0,), (1.0, 0.0), rhs_dt=lambda t, u: (0.0,))

    @pytest.mark.parametrize("u0, t_span", [
        ((1.0,), (0.0, math.inf)), ((1.0,), (-math.inf, 1.0)), ((1.0,), (0.0, math.nan)),
        ((math.inf,), (0.0, 1.0)), ((math.nan,), (0.0, 1.0)),
    ], ids=["t-end-inf", "t-start-inf", "t-end-nan", "u0-inf", "u0-nan"])
    def test_non_finite_span_or_start_rejected(self, u0, t_span):
        with pytest.raises(ValueError, match="t_span and u0 must be finite"):
            OdeProblem("bad", 1, {}, lambda t, u: (0.0,),
                       lambda t, u: ((0.0,),), u0, t_span, rhs_dt=lambda t, u: (0.0,))

    @pytest.mark.parametrize("t_span, message", [
        ((0.0, 1.0, 2.0), "t_span must be two numbers"), ((5.0,), "t_span must be two numbers"),
        ((-1e308, 1e308), "t_span must satisfy t_end > t_start with a finite length"),
    ], ids=["three-numbers", "one-number", "length-overflows"])
    def test_span_of_wrong_length_or_infinite_length_rejected(self, t_span, message):
        # finite ends 2e308 apart would make the first step inf, and no
        # shrink of the adaptive loop would end it
        with pytest.raises(ValueError, match=message):
            OdeProblem("bad", 1, {}, lambda t, u: (0.0,),
                       lambda t, u: ((0.0,),), (1.0,), t_span, rhs_dt=lambda t, u: (0.0,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_parameter_rejected(self, value):
        # it would integrate and then fail as a NonFiniteState
        with pytest.raises(ValueError, match="params must be finite"):
            OdeProblem("bad", 1, {"a": 1.0, "b": value}, lambda t, u: (0.0,),
                       lambda t, u: ((0.0,),), (1.0,), (0.0, 1.0), rhs_dt=lambda t, u: (0.0,))
        with pytest.raises(ValueError, match="params must be finite"):
            lorenz84(F=value)

    def test_adaptive_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(tol=-1.0, dt_init=1e-3)
        with pytest.raises(ValueError):
            AdaptiveConfig(tol=1e-3, dt_init=1e-3, dt_min=1e-2)


class TestPlainRk4KeepsItsBytes:
    """Fixed-step RK4 is the Lawson march with mu = 0, where p = 1.0
    multiplies and 0.0 * x subtracts exactly: the states keep the bytes the
    classical march gave (SHA-256 of the state array, and ``repr`` of a
    step, recorded from it)."""

    @pytest.mark.parametrize("problem, n_steps, digest", [
        (lorenz84().problem, 60_000,
         "990239a6dfe140b5a4e6ae5d21a8a7996d4495b404ceacd032d7381848434551"),
        (stiff_linear(300.0, u0=(1.05,), t_span=(0.0, 0.1)).problem, 40,
         "b1bb4e6abc5a6ab61bd2a25413c21e6cdb87641c2436e64c6d62eaa3e45e8e27"),
        (forced_dim2(), 777,
         "d4953e00f043cef3cb978f2984d5d9255276f9b83bcc41b95ebb4f05f227d8e0"),
    ], ids=["lorenz84", "stiff-linear", "forced-dim2"])
    def test_solve_rk4_fixed(self, problem, n_steps, digest):
        states = solve_rk4_fixed(problem, n_steps).states
        assert hashlib.sha256(states.tobytes()).hexdigest() == digest

    def test_rk4_step(self):
        problem = lorenz84().problem
        assert repr(rk4_step(problem.rhs, 0.5, problem.u0, 0.05, 3)) == \
            "(0.9777976608339611, -1.1241648837532676, 0.2833247388068347)"
