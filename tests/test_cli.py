from __future__ import annotations

import csv
import io
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stiffchaos import cli
from stiffchaos.cli import CSV_BLOCK, fmt, main, table_rows, write_csv
from stiffchaos.ode import EIG_BLOCK, NonFiniteState


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Path):
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_cell(cell) for cell in row] for row in reader]
    return header, rows


def manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


class TestFloatFormatting:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            x = float(rng.uniform(-1e6, 1e6)) * 10.0 ** float(rng.integers(-12, 12))
            assert float(fmt(x)) == x
        assert math.isinf(float(fmt(math.inf)))
        assert math.isnan(float(fmt(math.nan)))


def reference_csv(header: list[str], rows) -> bytes:
    """``header`` and ``rows`` as csv.writer writes them, cells through ``fmt``."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])
    return buf.getvalue().encode("utf-8")


class TestCsvContract:
    HEADER = ["method", "n", "x", "y", "z", "w"]
    ROWS = [
        ["none", 0, 0.1, np.float64(1.0 / 3.0), -0.0, math.inf],
        ["3", -7, 5e-324, np.float64(-0.0), 1e308, -math.inf],
        ["method1", 2**53 + 1, math.nan, np.float64(math.nan), np.float32(0.1), 1e-308],
        ["2", True, -1e308, np.float64(-5e-324), np.int64(12), 123456789.123456789],
    ]

    @pytest.mark.parametrize("rows", [ROWS, ROWS[:1], []], ids=["mixed", "one-row", "header-only"])
    def test_bytes_equal_csv_writer_reference(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        write_csv(path, self.HEADER, rows)
        assert path.read_bytes() == reference_csv(self.HEADER, rows)

    def test_rows_from_a_generator(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, self.HEADER, (row for row in self.ROWS))
        assert path.read_bytes() == reference_csv(self.HEADER, self.ROWS)

    @pytest.mark.parametrize("n", [CSV_BLOCK + 1, EIG_BLOCK, EIG_BLOCK + 1, 2 * EIG_BLOCK + 1])
    def test_bytes_equal_csv_writer_reference_across_blocks(self, tmp_path, n):
        # write_csv formats CSV_BLOCK rows per block, and table_rows stacks
        # EIG_BLOCK rows at a time: one row past a block, whole blocks, and
        # one row past them
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(0.0, 1.0, n))
        states = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        rows = list(table_rows(t, states))
        path = tmp_path / "t.csv"
        write_csv(path, ["t", "u1", "u2", "u3"], iter(rows))
        assert path.read_bytes() == reference_csv(["t", "u1", "u2", "u3"], rows)

    def test_str_cells_across_blocks(self, tmp_path):
        rows = list(itertools.islice(itertools.cycle(self.ROWS), 2 * CSV_BLOCK + 3))
        path = tmp_path / "t.csv"
        write_csv(path, self.HEADER, (row for row in rows))
        assert path.read_bytes() == reference_csv(self.HEADER, rows)

    @pytest.mark.parametrize("n", [1, EIG_BLOCK, EIG_BLOCK + 1])
    def test_table_rows_equal_per_row_indexing(self, n):
        rng = np.random.default_rng(n)
        t, states, errs = rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=(n, 2))
        rows = list(table_rows(t, states, errs))
        assert rows == [[t[i]] + list(states[i]) + list(errs[i]) for i in range(n)]
        assert all(type(cell) is float for row in rows for cell in row)


class TestSolveCommand:
    def test_lorenz_row_count(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["solve", "--problem", "lorenz84", "--solver", "rk4",
                   "--steps", "600", "--tf", "30", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "solution.csv")
        assert header == ["t", "u1", "u2", "u3"]
        assert len(rows) == 601
        m = manifest(out)
        assert m["summary"]["steps_taken"] == 600
        assert not m["summary"]["stagnated"]

    def test_robertson_trapezoid(self, tmp_path):
        out = tmp_path / "rob"
        rc = main(["solve", "--problem", "robertson", "--solver", "trapezoid",
                   "--tol", "1e-3", "--dt-init", "0.1", "--out", str(out)])
        assert rc == 0
        m = manifest(out)
        assert 60 <= m["summary"]["steps_taken"] <= 400
        assert m["summary"]["t_reached"] == pytest.approx(1e6)

    def test_robertson_adaptive_rk4_stagnates_with_exit_zero(self, tmp_path):
        out = tmp_path / "roba"
        rc = main(["solve", "--problem", "robertson", "--solver", "rk4-adaptive",
                   "--tol", "1e-3", "--dt-init", "1e-6", "--max-steps", "20000",
                   "--out", str(out)])
        assert rc == 0
        m = manifest(out)
        assert m["summary"]["stagnated"]
        assert m["summary"]["t_reached"] < 1000.0
        assert m["summary"]["steps_taken"] == 20000

    def test_robertson_adaptive_rk4_numbers_on_the_benchmark_config(self, tmp_path):
        # dt_init defaults to 1e-4 of the horizon; the PI controller rejects
        # 14 attempts where the elementary one rejected 37,941 (t = 147.517)
        out = tmp_path / "robb"
        rc = main(["solve", "--problem", "robertson", "--solver", "rk4-adaptive",
                   "--tol", "1e-3", "--max-steps", "100000", "--out", str(out)])
        assert rc == 0
        s = manifest(out)["summary"]
        assert (s["stagnated"], s["steps_taken"], s["steps_rejected"]) == (True, 100_000, 14)
        assert s["t_reached"] == 148.1839934140513

    def test_manifest_matches_emitted_csv(self, tmp_path):
        out = tmp_path / "chk"
        main(["solve", "--problem", "flame", "--solver", "rk4", "--steps", "200",
              "--out", str(out), "--problem.params.d", "0.1"])
        m = manifest(out)
        _, rows = read_csv(out / "solution.csv")
        assert len(rows) == m["summary"]["steps_taken"] + 1
        assert rows[-1][0] == m["summary"]["t_reached"]
        assert rows[-1][1:] == m["summary"]["final_state"]


class TestDiagnoseCommand:
    def test_stiff_linear_reproduction(self, tmp_path):
        out = tmp_path / "diag"
        rc = main(["diagnose", "--problem", "stiff-linear", "--solver", "rk4",
                   "--steps", "4000", "--eps", "0.001", "--out", str(out),
                   "--problem.params.a", "300", "--problem.u0", "1.05",
                   "--problem.t_span", "0,0.02"])
        assert rc == 0
        header, rows = read_csv(out / "stiffness.csv")
        assert header == ["t", "kappa", "dt_max", "dt_stiff", "Q", "R"]
        crossing = manifest(out)["summary"]["q_unity_crossing"]
        assert 0.003 <= crossing <= 0.005
        # a real eigenvalue's imaginary part is written as 0, never as -0
        rows = (out / "lle.csv").read_text().splitlines()[1:]
        assert rows and all(cell != "-0" for row in rows for cell in row.split(","))

    def test_lorenz_lle_columns_and_chaotic_fraction(self, tmp_path):
        out = tmp_path / "lle"
        rc = main(["diagnose", "--problem", "lorenz84", "--solver", "rk4",
                   "--steps", "3000", "--samples", "400", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "lle.csv")
        assert header == ["t", "re_g1", "im_g1", "re_g2", "im_g2", "re_g3",
                          "im_g3", "gamma_max", "gamma_min"]
        assert len(rows) == 400
        frac = manifest(out)["summary"]["gamma_max_positive_fraction"]
        assert frac > 0.9

    def test_default_eps_recorded(self, tmp_path):
        out = tmp_path / "diag"
        rc = main(["diagnose", "--problem", "stiff-linear", "--solver", "rk4",
                   "--steps", "200", "--out", str(out)])
        assert rc == 0
        assert manifest(out)["summary"]["eps"] == 0.001

    def test_robertson_gamma_min_recorded(self, tmp_path):
        out = tmp_path / "robd"
        rc = main(["diagnose", "--problem", "robertson", "--solver", "trapezoid",
                   "--tol", "1e-3", "--dt-init", "0.1", "--samples", "200",
                   "--out", str(out)])
        assert rc == 0
        assert manifest(out)["summary"]["gamma_min_overall"] < -2400.0

    def test_huge_eps_takes_the_large_perturbation_limit(self, tmp_path):
        # (eps*gamma*exp(gamma t*))**2 overflows here; the per-sample bound
        # raised OverflowError and the command exited 2
        out = tmp_path / "huge"
        rc = main(["diagnose", "--problem", "robertson", "--solver", "trapezoid",
                   "--tol", "1e-3", "--eps", "1e100", "--out", str(out)])
        assert rc == 0
        assert manifest(out)["summary"]["eps"] == 1e100
        header, rows = read_csv(out / "stiffness.csv")
        dt_stiff = np.array([row[header.index("dt_stiff")] for row in rows])
        q = np.array([row[header.index("Q")] for row in rows])
        stiff = ~np.isnan(dt_stiff)
        assert stiff.any()
        assert np.all(dt_stiff[stiff] > 0.0)
        assert np.all(np.isfinite(q)) and np.all(q >= 0.0)


class TestTransformCommand:
    def test_method3_outputs(self, tmp_path):
        out = tmp_path / "tr"
        rc = main(["transform", "--problem", "lorenz84", "--method", "3",
                   "--steps", "600", "--intervals", "15", "--out", str(out)])
        assert rc == 0
        for name in ("solution.csv", "errors.csv", "mu_history.csv",
                     "step_extension.csv"):
            assert (out / name).exists()
        header, rows = read_csv(out / "errors.csv")
        assert header == ["t", "err_x", "err_y", "err_z"]
        assert len(rows) == 601
        header, rows = read_csv(out / "mu_history.csv")
        assert header == ["interval", "t_start", "mu1", "mu2", "mu3", "gamma_max"]
        assert len(rows) == 15
        header, rows = read_csv(out / "step_extension.csv")
        assert header == ["t", "dt_max", "delta"]
        assert rows[0][2] == pytest.approx(0.05)
        m = manifest(out)
        assert m["summary"]["max_abs_error"]["x"] <= 0.05

    @pytest.mark.parametrize("command", ["transform", "compare"])
    def test_manifest_records_the_oracle_cost(self, tmp_path, command):
        # refine 2: 1200 GBS macro steps plus 600 for the gate, 43 rhs calls each
        out = tmp_path / command
        rc = main([command, "--problem", "lorenz84", "--method", "none",
                   "--steps", "600", "--out", str(out)])
        assert rc == 0
        summary = manifest(out)["summary"]
        assert summary["oracle_n_steps"] == 1200
        assert summary["oracle_rhs_evals"] == 43 * (1200 + 600)
        assert summary["oracle_check_delta"] < 1e-9

    def test_manifest_error_matches_csv(self, tmp_path):
        out = tmp_path / "trc"
        main(["transform", "--problem", "lorenz84", "--method", "1",
              "--steps", "600", "--intervals", "60", "--out", str(out)])
        m = manifest(out)
        _, rows = read_csv(out / "errors.csv")
        assert max(r[1] for r in rows) == m["summary"]["max_abs_error"]["x"]

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["transform", "--problem", "lorenz84", "--method", "3",
                  "--steps", "600", "--intervals", "15", "--out", str(out)])
            outs.append((out / "errors.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_wrong_problem_rejected(self, tmp_path, monkeypatch, capsys):
        # the reference triples do not fit the one-component stiff-linear
        # problem: rejected before the oracle runs, and no --out is created
        def no_oracle(*args):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(cli, "reference_solution", no_oracle)
        rc = main(["transform", "--problem", "stiff-linear", "--out",
                   str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("configuration error: transform.")
        assert not (tmp_path / "x").exists()

    def test_robertson_default_span_blows_up_in_the_oracle(self, tmp_path, capsys):
        rc = main(["transform", "--problem", "robertson", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("numerical failure: NonFiniteState: ")
        assert len(err.splitlines()) == 1

    def test_robertson_short_span_runs(self, tmp_path):
        out = tmp_path / "rob"
        rc = main(["transform", "--problem", "robertson", "--tf", "0.01",
                   "--steps", "600", "--method", "none", "--out", str(out)])
        assert rc == 0
        for name in ("solution.csv", "errors.csv", "mu_history.csv",
                     "step_extension.csv"):
            assert (out / name).exists()
        m = manifest(out)
        assert m["summary"]["oracle_check_delta"] < 1e-8
        assert m["summary"]["max_abs_error"]["x"] < 1e-6

    @pytest.mark.parametrize("steps, refine, message", [
        ("601", "1", "oracle.refine x steps = 601 must be even"),
        ("600", "0", "oracle.refine must be >= 1"),
        # the step-extension report needs 5 samples
        ("2", "2", "solver.steps must be >= 4 for transform"),
    ], ids=["odd-oracle-steps", "refine-0", "steps-2"])
    def test_oracle_refine_is_checked_before_the_oracle(self, tmp_path, capsys, monkeypatch,
                                                        steps, refine, message):
        def no_oracle(*args):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(cli, "reference_solution", no_oracle)
        rc = main(["transform", "--problem", "lorenz84", "--method", "none",
                   "--steps", steps, "--oracle-refine", refine,
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"configuration error: {message}")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

    def test_exponent_overflow_message_is_short(self, tmp_path, capsys):
        # the second interval's shift q gamma_max makes exp(mu h) overflow, so
        # its first state, at t = 11 h, is not finite
        rc = main(["transform", "--problem", "lorenz84", "--steps", "600", "--method", "2",
                   "--q", "1e300", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "numerical failure: NonFiniteState: non-finite state encountered at t=0.55\n")
        assert not (tmp_path / "x").exists()

    def test_unconverged_oracle_is_numerical_failure(self, tmp_path):
        rc = main(["transform", "--problem", "lorenz84", "--method", "3",
                   "--steps", "600", "--intervals", "15",
                   "--oracle-refine", "1", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestCompareCommand:
    def test_per_component_vectors_as_flags(self, tmp_path):
        # --mu-init/--coeffs take one number per state component, and are
        # echoed as their dotted spellings are: a bare number for one
        out = tmp_path / "cmp"
        rc = main(["compare", "--problem", "stiff-linear", "--tf", "0.1", "--steps", "40",
                   "--mu-init", "0.5", "--coeffs", "1", "--out", str(out)])
        assert rc == 0
        section = manifest(out)["config"]["transform"]
        assert section["mu_init"] == 0.5
        assert section["coeffs"] == 1

    def test_bare_number_is_a_one_component_vector(self, tmp_path):
        csvs = []
        for name, mu_init in (("list", "[0.5]"), ("bare", "0.5")):
            out = tmp_path / name
            rc = main(["compare", "--problem", "stiff-linear", "--tf", "0.1", "--steps", "40",
                       "--mu-init", mu_init, "--coeffs", "1", "--out", str(out)])
            assert rc == 0
            csvs.append((out / "compare.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_none_row_keeps_its_bytes(self, tmp_path):
        # plain RK4 is the Lawson march with mu = 0, bit for bit the classical
        # march that gave this row
        out = tmp_path / "cmp"
        rc = main(["compare", "--problem", "lorenz84", "--method", "none,3", "--steps", "600",
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "compare.csv").read_bytes().split(b"\r\n")
        assert rows[1] == b"none,1.4682381441020718,0.14817664710674477,1"

    def test_method_sweep_ranks_averaging_methods_best(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--problem", "lorenz84",
                   "--method", "none,1,2,3,4", "--steps", "600",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "compare.csv")
        assert header == ["method", "max_error", "mean_error", "improvement_ratio"]

        m = manifest(out)
        errs = m["summary"]["max_errors"]
        best_two = sorted(errs, key=errs.get)[:2]
        assert set(best_two) == {"cumulative_avg", "window_avg"}
        assert m["summary"]["improvement_ratios"]["cumulative_avg"] >= 20.0

    def test_identical_baselines_give_unit_ratio(self, tmp_path):
        # a repeated method is refused (test_repeated_method_is_rejected);
        # the baseline is compared with itself in its own row
        out = tmp_path / "dup"
        rc = main(["compare", "--problem", "lorenz84", "--method", "none,1",
                   "--steps", "600", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "compare.csv")
        assert len(rows) == 2
        assert rows[0][3] == 1.0

    @pytest.mark.parametrize("flags", [
        ["--method", "3,3"], ["--method", "none, 3,none"], ["--transform.method", "[3, 3.0]"],
    ], ids=["string", "string-spaced", "list"])
    def test_repeated_method_is_rejected(self, tmp_path, capsys, monkeypatch, flags):
        # the summary's max_errors and improvement_ratios keep one key per
        # method, so a repeat would write a row the summary does not show;
        # refused before the earlier manifest is removed
        def no_oracle(*args):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(cli, "reference_solution", no_oracle)
        out = tmp_path / "o"
        out.mkdir()
        (out / "manifest.json").write_text("{}")
        rc = main(["compare", "--problem", "lorenz84", "--steps", "600", "--out", str(out)]
                  + flags)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: transform.method: ")
        assert "each once" in err and len(err.splitlines()) == 1
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == "{}"

    def test_method_list_as_flag_or_dotted_key(self, tmp_path):
        # "1,3" reads as the list [1.0, 3.0], which names methods 1 and 3
        csvs = []
        for flag in ("--method", "--transform.method"):
            out = tmp_path / flag
            rc = main(["compare", "--problem", "lorenz84", "--steps", "600", flag, "1,3",
                       "--out", str(out)])
            assert rc == 0
            csvs.append((out / "compare.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert [row.split(",")[0] for row in csvs[0].decode().splitlines()[1:]] == [
            "fixed_mu", "cumulative_avg"]

    def test_single_config_single_row(self, tmp_path):
        out = tmp_path / "one"
        rc = main(["compare", "--problem", "lorenz84", "--method", "3",
                   "--steps", "600", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "compare.csv")
        assert len(rows) == 1
        assert rows[0][3] == 1.0


class TestDemoCommand:
    def test_reference_parameters(self, tmp_path):
        out = tmp_path / "demo"
        rc = main(["demo-stiff-transform", "--a", "300", "--kappa-g", "-1",
                   "--eps", "0.001", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "stiff_transform_demo.csv")
        ratio = rows[0][header.index("ratio")]
        assert 0.1 <= ratio <= 10.0


# per subcommand: a valid argv and the integrating step a test makes fail
FAILING_STEPS = {
    "solve": ("run_solver", ["--problem", "stiff-linear", "--solver", "rk4", "--steps", "10"]),
    "diagnose": ("run_solver", ["--problem", "stiff-linear", "--solver", "rk4",
                                "--steps", "10"]),
    "transform": ("reference_solution", ["--problem", "lorenz84", "--steps", "600"]),
    "compare": ("reference_solution", ["--problem", "lorenz84", "--steps", "600"]),
    "demo-stiff-transform": ("stiff_transform_demo", []),
}


class TestFailedRuns:
    def test_failed_transform_leaves_no_manifest_of_the_run_before(self, tmp_path):
        out = tmp_path / "o"
        argv = ["transform", "--problem", "lorenz84", "--steps", "600", "--out", str(out)]
        assert main(argv) == 0
        # the manifest is replaced whole: no temporary file is left behind
        assert sorted(p.name for p in out.iterdir()) == [
            "errors.csv", "manifest.json", "mu_history.csv", "solution.csv",
            "step_extension.csv"]
        # twice the span at one oracle macro step per run step: the gate fails
        assert main(argv + ["--problem.t_span", "0,60", "--oracle-refine", "1"]) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", sorted(FAILING_STEPS))
    def test_every_command_discards_the_manifest_before_it_integrates(
            self, tmp_path, monkeypatch, command):
        out = tmp_path / "o"
        out.mkdir()
        (out / "manifest.json").write_text("{}")
        attr, argv = FAILING_STEPS[command]

        def fail(*args, **kwargs):
            raise NonFiniteState(0.0)

        monkeypatch.setattr(cli, attr, fail)
        assert main([command, *argv, "--out", str(out)]) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("attr, argv", [
        ("solve_rk4_fixed", ["solve", "--problem", "lorenz84", "--steps", "1000000000"]),
        ("reference_solution", ["transform", "--problem", "lorenz84", "--steps", "100000000",
                                "--intervals", "1"]),
    ], ids=["solve", "transform"])
    def test_memory_error_is_one_line_and_exit_one(self, tmp_path, monkeypatch, capsys,
                                                   attr, argv):
        # the allocation is faked: the run raises as numpy's np.empty would
        message = ("Unable to allocate 22.4 GiB for an array with shape (1000000001, 3) "
                   "and data type float64")

        def too_large(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, attr, too_large)
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_transform_writes_nothing_until_every_result_is_computed(self, tmp_path,
                                                                     monkeypatch):
        def fail(*args):
            raise ValueError("need >= 5 samples, got 3")

        monkeypatch.setattr(cli, "step_extension_report", fail)
        argv = ["transform", "--problem", "lorenz84", "--steps", "600", "--out"]
        fresh = tmp_path / "fresh"
        assert main(argv + [str(fresh)]) == 1
        assert not fresh.exists()
        # an earlier run's CSV is neither overwritten nor joined by new ones
        out = tmp_path / "o"
        out.mkdir()
        (out / "solution.csv").write_text("earlier")
        assert main(argv + [str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["solution.csv"]
        assert (out / "solution.csv").read_text() == "earlier"

    def test_manifest_is_not_published_for_a_missing_output(self, tmp_path):
        with pytest.raises(RuntimeError, match="declared output missing"):
            cli.write_manifest(tmp_path, "solve", {}, {}, [tmp_path / "solution.csv"], 0.0)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "lorenz84", "--solver", "rk4", "--steps", "10",
         "--problem.t_span", "5,1"],
        ["solve", "--problem", "lorenz84"],
        ["solve", "--problem", "lorenz84", "--steps", "0"],
        ["solve", "--problem", "lorenz84", "--solver", "rk4-adaptive", "--tol", "-1"],
        ["solve", "--problem", "lorenz84", "--solver", "trapezoid", "--solver.dt_init", "1",
         "--solver.dt_min", "2"],
        ["solve", "--problem", "lorenz84", "--solver.name", "bogus", "--steps", "10"],
        ["diagnose", "--problem", "lorenz84", "--solver", "rk4-adaptive", "--tol", "-1"],
        ["transform", "--problem", "lorenz84", "--steps", "40", "--tf", "2", "--intervals", "1",
         "--oracle-refine", "0"],
        ["compare", "--problem", "lorenz84", "--steps", "41", "--tf", "2", "--oracle-refine", "1",
         "--method", "none"],
        ["demo-stiff-transform", "--a", "-5"],
        ["demo-stiff-transform", "--kappa-g", "1"],
    ], ids=["solve-t-span-decreasing", "solve-steps-missing", "solve-steps-0",
            "solve-tol-negative", "solve-dt-min-above-dt-init", "solve-unknown-solver",
            "diagnose-tol-negative", "transform-refine-0", "compare-odd-oracle-steps",
            "demo-a-negative", "demo-kappa-g-positive"])
    def test_rejected_input_keeps_the_manifest(self, tmp_path, capsys, argv):
        # nothing in out changes, so the manifest still describes it
        out = tmp_path / "o"
        out.mkdir()
        (out / "manifest.json").write_text("{}")
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.splitlines()) == 1
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == "{}"


# per flag of cli.FLAGS: a command line without it, a value that the flag
# and its dotted key must read alike, and the exit code that value gives
FLAG_CASES = {
    "problem": (["solve", "--steps", "10"], "lorenz63", 1),
    "solver": (["solve", "--problem", "lorenz84", "--steps", "10"], "euler", 1),
    "steps": (["solve", "--problem", "lorenz84", "--tf", "1"], "1e1", 0),
    "intervals": (["transform", "--problem", "lorenz84", "--method", "1", "--steps", "40",
                   "--tf", "2"], "4e0", 0),
    "method": (["compare", "--problem", "lorenz84", "--steps", "40", "--tf", "2"], "1,3", 0),
    "tol": (["solve", "--problem", "robertson", "--solver", "trapezoid"], "true", 1),
    "tf": (["solve", "--problem", "lorenz84", "--steps", "10"], "true", 1),
    "dt-init": (["solve", "--problem", "robertson", "--solver", "trapezoid"], "true", 1),
    "max-steps": (["solve", "--problem", "robertson", "--solver", "trapezoid", "--tol", "1e-3",
                   "--dt-init", "0.1"], "1e3", 0),
    "samples": (["diagnose", "--problem", "lorenz84", "--steps", "100"], "true", 1),
    "q": (["transform", "--problem", "lorenz84", "--method", "2"], "true", 1),
    "mu-init": (["transform", "--problem", "lorenz84", "--method", "1", "--steps", "40",
                 "--tf", "2"], "-1,2,3", 0),
    "coeffs": (["transform", "--problem", "lorenz84"], "0.5", 1),
    "oracle-refine": (["transform", "--problem", "lorenz84", "--method", "none", "--steps", "40",
                       "--tf", "2"], "2e0", 0),
    "a": (["demo-stiff-transform"], "true", 1),
    "kappa-g": (["demo-stiff-transform"], "-inf", 1),
}


class TestConfigHandling:
    @pytest.mark.parametrize("flag", sorted(cli.FLAGS))
    def test_flag_is_an_alias_of_its_key(self, tmp_path, capsys, flag):
        # --flag V, --flag=V, --section.key V and --section.key=V resolve to
        # the same config and give the same exit code, echo, summary and error
        assert set(FLAG_CASES) == set(cli.FLAGS)
        argv, value, expected_rc = FLAG_CASES[flag]
        out = tmp_path / "o"
        seen = []
        for name in (flag, cli.FLAGS[flag]):
            for spelling in ([f"--{name}", value], [f"--{name}={value}"]):
                args = argv + spelling + ["--out", str(out)]
                resolved = cli.load_config(*cli.make_parser().parse_known_args(args))
                rc = main(args)
                m = manifest(out) if rc == 0 else {}
                seen.append((resolved, rc, capsys.readouterr().err,
                             m.get("config"), m.get("summary")))
        assert seen[0][1] == expected_rc
        assert all(outcome == seen[0] for outcome in seen[1:])

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "problem": {"name": "lorenz84"},
            "solver": {"name": "rk4", "steps": 300},
            "out": str(tmp_path / "defaultout"),
        }))
        out = tmp_path / "flagout"
        rc = main(["solve", "--config", str(cfg), "--steps", "150",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "solution.csv")
        assert len(rows) == 151  # flag wins over the config file

    def test_unknown_problem_is_config_error(self, tmp_path):
        rc = main(["solve", "--problem.name", "lorenz63", "--solver", "rk4",
                   "--steps", "10", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_missing_config_file(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_malformed_config_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"problem": }')
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_bad_solver_flag(self, tmp_path):
        rc = main(["solve", "--problem", "lorenz84", "--solver.name", "euler",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        # fixed RK4 far beyond its stability limit on the stiff problem
        rc = main(["solve", "--problem", "stiff-linear", "--solver", "rk4",
                   "--steps", "25", "--problem.params.a", "300000",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "lorenz84", "--solver", "rk4", "--steps", "0"],
        ["diagnose", "--problem", "lorenz84", "--solver", "rk4", "--steps", "100",
         "--eps", "-1"],
        ["demo-stiff-transform", "--kappa-g", "1"],
        ["demo-stiff-transform", "--a", "0.5"],
        ["transform", "--problem", "lorenz84", "--transform.eps_scale", "2"],
        ["transform", "--problem", "lorenz84", "--transform.mu_init", "0.5"],
        ["solve", "--problem", "stiff-linear", "--solver", "rk4", "--steps", "10",
         "--problem.params.a", "[1]"],
        ["solve", "--problem", "stiff-linear", "--solver", "rk4", "--steps", "10",
         "--problem.u0", "[]"],
        ["diagnose", "--problem", "stiff-linear", "--solver", "rk4", "--steps", "20",
         "--problem.t_span", "5", "--tf", "3"],
        ["solve", "--problem", "stiff-linear", "--solver", "rk4", "--steps", "20",
         "--problem.u0", "true"],
        ["solve", "--problem", "lorenz84", "--solver", "rk4", "--solver.steps", "600.7"],
        ["solve", "--problem", "lorenz84", "--solver", "rk4", "--solver.steps", "true"],
        ["compare", "--problem", "lorenz84", "--steps", "600", "--transform.intervals", "15.9"],
        ["solve", "--problem", "robertson", "--solver", "rk4-adaptive", "--solver.tol", "true"],
        ["solve", "--problem", "lorenz84", "--solver", "rk4", "--steps", "20",
         "--problem.tf", "true"],
        ["solve", "--problem", "lorenz84", "--solver", "rk4", "--steps", "10", "--tf", "inf"],
        ["solve", "--problem", "lorenz84", "--solver", "rk4-adaptive", "--tf", "inf"],
        ["solve", "--problem", "robertson", "--solver", "trapezoid", "--tf", "inf"],
        ["solve", "--problem", "lorenz84", "--solver", "rk4", "--steps", "10",
         "--problem.u0", "1e400,0,0"],
        ["solve", "--problem", "robertson", "--solver", "rk4-adaptive", "--tol", "inf",
         "--max-steps", "1000"],
        ["transform", "--problem", "lorenz84", "--method", "1", "--mu-init", "nan,1,1"],
        ["transform", "--problem", "lorenz84", "--method", "3",
         "--transform.coeffs", "nan,1,1"],
        ["transform", "--problem", "lorenz84", "--method", "2", "--q", "inf"],
        ["demo-stiff-transform", "--a", "inf"],
        ["demo-stiff-transform", "--a", "1e400"],
        ["demo-stiff-transform", "--kappa-g=-inf"],
    ], ids=["solve-steps-0", "diagnose-eps-negative", "demo-kappa-g-positive", "demo-a-small",
            "transform-eps-scale-scalar", "transform-mu-init-scalar",
            "solve-param-not-a-number", "solve-u0-empty", "diagnose-t-span-scalar-with-tf",
            "solve-u0-bool", "solve-steps-fractional", "solve-steps-bool",
            "compare-intervals-fractional", "solve-tol-bool", "solve-tf-bool",
            "solve-rk4-tf-inf", "solve-rk4-adaptive-tf-inf", "solve-trapezoid-tf-inf",
            "solve-u0-overflows", "solve-tol-inf", "transform-mu-init-nan",
            "transform-coeffs-nan", "transform-q-inf", "demo-a-inf", "demo-a-overflows",
            "demo-kappa-g-minus-inf"])
    def test_library_precondition_is_one_line_config_error(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--problem", "lorenz84", "--steps", "abc"],
         "solver.steps must be an integer, got 'abc'"),
        (["solve", "--problem", "lorenz63"], "problem.name: unknown problem 'lorenz63'"),
        (["transform", "--problem", "lorenz84", "--mu-init", "1,x"],
         "transform.mu_init: lorenz84 needs a list of 3 numbers, each finite, got '1,x'"),
        (["transform", "--problem", "lorenz84", "--mu-init", "1,2"],
         "transform.mu_init: lorenz84 needs a list of 3 numbers"),
        (["diagnose", "--problem", "lorenz84", "--steps", "100", "--eps", "inf"],
         "eps must be finite and > 0, got inf"),
        (["demo-stiff-transform", "--eps", "inf"], "eps must be finite and > 0, got inf"),
        *(([command, "--problem", "lorenz84", "--steps", "610"],
           "transform.intervals defaults to solver.steps // 40 = 15 (the cumulative_avg "
           "method's reference interval of 40 steps), which does not divide "
           "solver.steps=610; set transform.intervals to a divisor of 610")
          for command in ("transform", "compare")),
        (["diagnose", "--problem", "stiff-linear", "--solver", "rk4-adaptive", "--max-steps",
          "10", "--solver.dt_init", "0.5", "--solver.dt_min", "0.5"],
         "diagnose: rk4_adaptive reached the end at t=1 after 2 steps; the stiffness report "
         "needs 5 samples, got 3\n"),
        (["diagnose", "--problem", "stiff-linear", "--solver", "rk4-adaptive", "--max-steps",
          "10", "--solver.dt_init", "0.1", "--solver.dt_min", "0.1"],
         "diagnose: rk4_adaptive stagnated at t=0.5 after 2 steps; the stiffness report "
         "needs 5 samples, got 3\n"),
    ], ids=["bad-int", "bad-choice", "bad-float-list", "short-vector", "diagnose-eps-inf",
            "demo-eps-inf", "transform-derived-intervals", "compare-derived-intervals",
            "diagnose-adaptive-ended-early", "diagnose-adaptive-stagnated"])
    def test_parser_rejection_is_one_line_config_error(self, tmp_path, capsys, argv, message):
        rc = main(argv + ["--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: " + message)
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags", [["--config", "adir"], ["--out", "x" * 300]],
                             ids=["config-is-a-directory", "out-name-too-long"])
    def test_os_error_is_one_line_config_error(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        rc = main(["solve", "--problem", "lorenz84", "--steps", "600"] + flags)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: [Errno ")
        assert len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]

    def test_too_long_out_name_under_a_missing_parent_creates_nothing(
            self, tmp_path, capsys, monkeypatch):
        # no parent to stat the long name in: its length is checked up front
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_solver", no_run)
        rc = main(["solve", "--problem", "lorenz84", "--steps", "600",
                   "--out", "o/" + "a" * 300])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: [Errno ")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand_is_config_error(self, capsys):
        rc = main([])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: ")
        assert len(err.splitlines()) == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-h"])
        assert exc.value.code == 0
        assert "--mu-init" in capsys.readouterr().out

    def test_config_file_numbers_are_checked_by_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": {"name": "lorenz84"},
                                   "solver": {"name": "rk4", "steps": 60.5}}))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "configuration error: solver.steps must be an integer, got 60.5\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, config, key", [
        ("solve", {"problem": {"name": "lorenz84"}, "solver": 5}, "solver"),
        *((cmd, {"problem": 5}, "problem") for cmd in ("solve", "diagnose", "compare")),
        *((cmd, {"problem": {"name": "lorenz84", "params": 5}}, "problem.params")
          for cmd in ("solve", "diagnose", "compare")),
        ("diagnose", {"problem": {"name": "lorenz84"}, "scan": [1]}, "scan"),
        ("compare", {"problem": {"name": "lorenz84"}, "transform": 3}, "transform"),
        ("compare", {"problem": {"name": "lorenz84"}, "oracle": "x"}, "oracle"),
        ("demo-stiff-transform", {"demo": [300]}, "demo"),
    ], ids=["solve-solver", "solve-problem", "diagnose-problem", "compare-problem",
            "solve-params", "diagnose-params", "compare-params", "diagnose-scan",
            "compare-transform", "compare-oracle", "demo-demo"])
    def test_config_section_that_is_not_an_object(self, tmp_path, capsys, command, config,
                                                  key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # --steps fills solver.steps, which a non-object solver cannot take
        steps = [] if key == "solver" else ["--steps", "20"]
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "x")] + steps)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"configuration error: {key} must be an object, got ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["solve", "diagnose"])
    @pytest.mark.parametrize("config, flags, shown", [
        ({"out": 5}, [], "5"),
        ({"out": None}, [], "None"),
        ({"out": ["x"]}, [], "['x']"),
        ({}, ["--out.x", "1"], "{'x': 1}"),
        ({}, ["--out", ""], "''"),
    ], ids=["number", "null", "list", "dotted-section", "empty"])
    def test_out_must_be_a_non_empty_path(self, tmp_path, capsys, monkeypatch, command,
                                          config, flags, shown):
        def no_solve(*args):
            raise AssertionError("run_solver ran")

        monkeypatch.setattr(cli, "run_solver", no_solve)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"problem": {"name": "lorenz84"}, "solver": {"steps": 2000}, **config}))
        rc = main([command, "--config", "cfg.json"] + flags)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"configuration error: out must be a non-empty path, got {shown}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("out", ["afile", "afile/sub", None],
                             ids=["file", "under-a-file", "default-is-a-file"])
    def test_out_blocked_by_a_file(self, tmp_path, capsys, monkeypatch, out):
        def no_solve(*args):
            raise AssertionError("run_solver ran")

        monkeypatch.setattr(cli, "run_solver", no_solve)
        monkeypatch.chdir(tmp_path)
        blocker = "out" if out is None else "afile"
        (tmp_path / blocker).write_text("")
        flags = [] if out is None else ["--out", out]
        rc = main(["solve", "--problem", "lorenz84", "--steps", "2000"] + flags)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"configuration error: out: {blocker!r} exists and is not a directory\n")
        assert [p.name for p in tmp_path.iterdir()] == [blocker]

    def test_diagnose_rejects_eps_before_solving(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args):
            raise AssertionError("run_solver ran")

        monkeypatch.setattr(cli, "run_solver", no_solve)
        for bad in (["--eps", "-1"], ["--samples", "1"], ["--scan.component", "3"],
                    ["--steps", "3", "--tf", "0.01"],
                    ["--solver", "rk4-adaptive", "--max-steps", "3"]):
            rc = main(["diagnose", "--problem", "lorenz84", "--solver", "rk4",
                       "--steps", "60000", "--out", str(tmp_path / "x")] + bad)
            assert rc == 1
            assert not (tmp_path / "x").exists()
        # too few steps for the stiffness report name the key that sets them
        assert capsys.readouterr().err.splitlines()[-2:] == [
            f"configuration error: {key} must be >= 4 for diagnose (the stiffness report "
            "needs 5 samples), got 3" for key in ("solver.steps", "solver.max_steps")]

    @pytest.mark.parametrize("argv, config, key", [
        (["transform", "--transform.metod", "1"], None, "transform.metod"),
        (["solve", "--solver.stepz", "5"], None, "solver.stepz"),
        (["diagnose", "--problem.parms.a", "5"], None, "problem.parms"),
        (["transform", "--transform.gamma_source", "jstar_end"], None,
         "transform.gamma_source"),
        (["transform"], {"transform": {"gamma_source": "jstar_end"}}, "transform.gamma_source"),
        (["solve"], {"stepz": 1}, "stepz"),
        (["compare", "--transform.eps_scale", "1"], None, "transform.eps_scale"),
    ], ids=["flag-transform-metod", "flag-solver-stepz", "flag-problem-parms",
            "flag-gamma-source", "file-gamma-source", "file-top-level-stepz",
            "flag-eps-scale"])
    def test_unknown_setting_is_rejected_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                        argv, config, key):
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_solver", no_run)
        monkeypatch.setattr(cli, "reference_solution", no_run)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        rc = main(argv + ["--problem", "lorenz84", "--steps", "40", "--tf", "2",
                          "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == f"configuration error: unknown setting {key}\n"
        assert not (tmp_path / "x").exists()

    def test_diagnose_rejects_samples_before_solving(self, tmp_path, monkeypatch, capsys):
        # a billion samples would allocate 8 GB in lle_scan; the bound is
        # max(400, samples the solver can return): steps + 1 or max_steps + 1
        def no_solve(*args):
            raise AssertionError("run_solver ran")

        monkeypatch.setattr(cli, "run_solver", no_solve)
        monkeypatch.setattr(cli, "lle_scan", no_solve)
        tracemalloc.start()
        try:
            for solver in (["--steps", "100"], ["--steps", "60000"],
                           ["--solver", "rk4-adaptive", "--max-steps", "1000"],
                           ["--solver", "trapezoid", "--max-steps", "2000"]):
                rc = main(["diagnose", "--problem", "lorenz84", "--samples", "1000000000",
                           "--out", str(tmp_path / "x")] + solver)
                assert rc == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: scan.n_samples must lie in [2, {most}], "
                       "got 1000000000" for most in (400, 60001, 1001, 2001)]
        assert not (tmp_path / "x").exists()
        with pytest.raises(AssertionError, match="run_solver ran"):  # the bound itself passes
            main(["diagnose", "--problem", "lorenz84", "--solver", "rk4-adaptive",
                  "--max-steps", "1000", "--samples", "1001", "--out", str(tmp_path / "x")])

    def test_compare_rejects_dim_mismatch_before_the_oracle(self, tmp_path, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(cli, "reference_solution", no_oracle)
        rc = main(["compare", "--problem", "flame", "--method", "none,3",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert not (tmp_path / "x").exists()
