"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run a few passes of each workload, so they take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import microbench
from tracing import Tracer
from workloads import ROOT, WORKLOADS, import_cli, run_pass

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return import_cli()


def test_names_are_well_formed_and_unique():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_what_the_benchmark_measures(cli):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    measured = set(Tracer().metrics()) | set(microbench.call_rates()) | {"trace.overhead_s"}
    assert measured == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_passes_its_checks_and_tracing_keeps_outputs(cli, workload, tmp_path):
    plain = run_pass(cli, workload, 0, tmp_path / "plain")
    assert {c.label: c.failures for c in plain.commands if c.failures} == {}
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(cli, workload, 0, tmp_path / "traced")
    assert {c.label: c.failures for c in traced.commands if c.failures} == {}
    assert traced.digests == plain.digests
    assert tracer.metrics()["cli.csv_rows"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_passes_its_checks_on_a_perturbed_seed(cli, workload, tmp_path):
    result = run_pass(cli, workload, 7, tmp_path)
    assert {c.label: c.failures for c in result.commands if c.failures} == {}


def test_only_lorenz_commands_take_the_seed():
    for workload, commands in WORKLOADS.items():
        for plain, seeded in zip(commands(0), commands(7)):
            assert (plain.argv != seeded.argv) == ("lorenz84" in plain.argv), plain.label


def test_wrappers_return_what_the_wrapped_calls_return(cli):
    from stiffchaos import diagnostics, ode, problems

    spec = problems.robertson()
    short_lorenz = problems.lorenz84(t_span=(0.0, 1.0)).problem
    prob = spec.problem
    u = (0.9, 1e-5, 0.1)
    jac = prob.jacobian(0.0, u)
    matrix = [[(1.0 if i == j else 0.0) - 0.05 * jac[i][j] for j in range(3)] for i in range(3)]
    plain = (prob.rhs(0.0, u), ode.gauss_solve(matrix, [1.0, 2.0, 3.0]),
             diagnostics.local_eigenvalues(jac, t=0.5),
             ode.solve_rk4_fixed(short_lorenz, 50).states)
    tracer = Tracer()
    with tracer.installed():
        counted_rhs = tracer.counted_tu("rhs", prob.rhs)
        wrapped = (counted_rhs(0.0, u), ode.gauss_solve(matrix, [1.0, 2.0, 3.0]),
                   diagnostics.local_eigenvalues(jac, t=0.5),
                   ode.solve_rk4_fixed(short_lorenz, 50).states)
    assert wrapped[:3] == plain[:3]
    assert np.array_equal(wrapped[3], plain[3])
    assert tracer.counts["rhs"] == 1 and tracer.counts["gauss"] == 1
    assert tracer.counts["eig"] == 1 and tracer.counts["rk4_fixed_steps"] == 50
    assert ode.gauss_solve.__module__ == "stiffchaos.ode"  # restored on exit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lorenz-chaos", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
