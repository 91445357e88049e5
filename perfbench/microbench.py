"""Call-rate microbenchmarks on public functions of each layer.

Each rate is calls per second over a fixed number of calls, the median of
three repeats, on the unwrapped functions (tracing is not installed).
"""

from __future__ import annotations

import time
from statistics import median

REPEATS = 3


def _rate(call, n: int) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(n):
            call()
        times.append(time.perf_counter() - start)
    return n / median(times)


def call_rates() -> dict[str, float]:
    from stiffchaos import diagnostics, ode, problems, transform

    lorenz = problems.lorenz84().problem
    robertson = problems.robertson().problem
    u_lorenz = lorenz.u0
    u_rob = (0.9, 1e-5, 0.1)
    f_lorenz, f_rob = lorenz.rhs, robertson.rhs
    jac = lorenz.jacobian(0.0, u_lorenz)
    h2 = 0.05
    jr = robertson.jacobian(0.0, u_rob)
    newton_matrix = [[(1.0 if i == j else 0.0) - h2 * jr[i][j] for j in range(3)]
                     for i in range(3)]
    rhs_vector = [1e-3, -2e-3, 1e-3]
    params = transform.params_for_method(transform.MuMethod.CUMULATIVE_AVG)
    a, b = lorenz.params["a"], lorenz.params["b"]
    f, g = lorenz.params["F"], lorenz.params["G"]
    return {
        "problems.lorenz84_rhs_per_s": _rate(lambda: f_lorenz(0.0, u_lorenz), 100_000),
        "problems.robertson_rhs_per_s": _rate(lambda: f_rob(0.0, u_rob), 100_000),
        "ode.rk4_step_per_s": _rate(lambda: ode.rk4_step(f_lorenz, 0.0, u_lorenz, 0.01, 3),
                                    30_000),
        "ode.gauss_solve_per_s": _rate(lambda: ode.gauss_solve(newton_matrix, rhs_vector),
                                       10_000),
        "diagnostics.eig3_per_s": _rate(lambda: diagnostics.local_eigenvalues(jac), 10_000),
        "transform.transformed_rhs_per_s": _rate(
            lambda: transform.transformed_rhs(params, 0.01, u_lorenz, a, b, f, g), 30_000),
    }
