from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stiffchaos import cli
from stiffchaos.cli import MismatchedBaseline, compare_runs, fmt, main


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
    ], ids=["odd-oracle-steps", "refine-0"])
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

    def test_unconverged_oracle_is_numerical_failure(self, tmp_path):
        rc = main(["transform", "--problem", "lorenz84", "--method", "3",
                   "--steps", "600", "--intervals", "15",
                   "--oracle-refine", "1", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestCompareCommand:
    def test_per_component_vectors_as_flags(self, tmp_path):
        # --mu-init/--coeffs take one number per state component
        out = tmp_path / "cmp"
        rc = main(["compare", "--problem", "stiff-linear", "--tf", "0.1", "--steps", "40",
                   "--mu-init", "0.5", "--coeffs", "1", "--transform.eps_scale", "[1]",
                   "--out", str(out)])
        assert rc == 0
        section = manifest(out)["config"]["transform"]
        assert section["mu_init"] == [0.5]
        assert section["coeffs"] == [1.0]

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
        out = tmp_path / "dup"
        rc = main(["compare", "--problem", "lorenz84", "--method", "none,none",
                   "--steps", "600", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "compare.csv")
        assert len(rows) == 2
        assert rows[1][3] == 1.0

    def test_single_config_single_row(self, tmp_path):
        out = tmp_path / "one"
        rc = main(["compare", "--problem", "lorenz84", "--method", "3",
                   "--steps", "600", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "compare.csv")
        assert len(rows) == 1
        assert rows[0][3] == 1.0

    def test_mismatched_baseline_detected(self, lorenz_oracle):
        from stiffchaos import IntervalPlan, MuMethod, lorenz84, params_for_method
        from stiffchaos import run_transformed, reference_solution
        spec_a = lorenz84()
        spec_b = lorenz84(F=9.0)
        oracle_b = reference_solution(spec_b.problem, 600 * cli.DEFAULT_ORACLE_REFINE)
        plan = IntervalPlan(600, 1, (0.0, 30.0))
        run_a = run_transformed(spec_a, plan, MuMethod.NONE,
                                params_for_method(MuMethod.NONE), lorenz_oracle)
        run_b = run_transformed(spec_b, plan, MuMethod.NONE,
                                params_for_method(MuMethod.NONE), oracle_b)
        with pytest.raises(MismatchedBaseline):
            compare_runs([run_a, run_b])


class TestDemoCommand:
    def test_reference_parameters(self, tmp_path):
        out = tmp_path / "demo"
        rc = main(["demo-stiff-transform", "--a", "300", "--kappa-g", "-1",
                   "--eps", "0.001", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "stiff_transform_demo.csv")
        ratio = rows[0][header.index("ratio")]
        assert 0.1 <= ratio <= 10.0


class TestConfigHandling:
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
    ], ids=["solve-steps-0", "diagnose-eps-negative", "demo-kappa-g-positive", "demo-a-small",
            "transform-eps-scale-scalar", "transform-mu-init-scalar",
            "solve-param-not-a-number", "solve-u0-empty", "diagnose-t-span-scalar-with-tf",
            "solve-u0-bool"])
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
         "argument --steps: invalid int value: 'abc'"),
        (["solve", "--problem", "lorenz63"], "argument --problem: invalid choice: 'lorenz63'"),
        (["transform", "--problem", "lorenz84", "--mu-init", "1,x"],
         "argument --mu-init: expects comma-separated numbers"),
        (["transform", "--problem", "lorenz84", "--mu-init", "1,2"],
         "transform.mu_init: lorenz84 needs a list of 3 numbers"),
    ], ids=["bad-int", "bad-choice", "bad-float-list", "short-vector"])
    def test_parser_rejection_is_one_line_config_error(self, tmp_path, capsys, argv, message):
        rc = main(argv + ["--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error: " + message)
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

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

    def test_diagnose_rejects_eps_before_solving(self, tmp_path, monkeypatch):
        def no_solve(*args):
            raise AssertionError("run_solver ran")

        monkeypatch.setattr(cli, "run_solver", no_solve)
        rc = main(["diagnose", "--problem", "lorenz84", "--solver", "rk4",
                   "--steps", "60000", "--eps", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert not (tmp_path / "x").exists()

    def test_compare_rejects_dim_mismatch_before_the_oracle(self, tmp_path, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(cli, "reference_solution", no_oracle)
        rc = main(["compare", "--problem", "flame", "--method", "none,3",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert not (tmp_path / "x").exists()
