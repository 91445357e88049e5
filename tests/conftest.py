from __future__ import annotations

import math

import pytest

from stiffchaos import (
    AdaptiveConfig,
    lorenz84,
    reference_solution,
    robertson,
    solve_trapezoid_adaptive,
)

# a common multiple of 600 and 1620, so one gated oracle serves every lorenz84
# experiment grid in the suite; its samples are dense enough for the
# nearest-sample 400-point scans of criterion 8
LORENZ_ORACLE_STEPS = math.lcm(600, 1620)


@pytest.fixture(scope="session")
def lorenz_spec():
    return lorenz84()


@pytest.fixture(scope="session")
def lorenz_oracle(lorenz_spec):
    return reference_solution(lorenz_spec.problem, LORENZ_ORACLE_STEPS)


@pytest.fixture(scope="session")
def robertson_spec():
    return robertson()


@pytest.fixture(scope="session")
def robertson_trapezoid(robertson_spec):
    cfg = AdaptiveConfig(tol=1e-3, dt_init=0.1, dt_min=1e-10, dt_max=1e5,
                         max_steps=100_000)
    return solve_trapezoid_adaptive(robertson_spec.problem, cfg)
