"""The benchmark's workloads: fixed lists of ``stiffchaos`` subcommands.

Each workload is run by one caller in a closed loop: the commands of a pass
go through ``stiffchaos.cli.main`` one after another in this process, and
the next command starts only when the previous one has returned.  After
each command its manifest and CSVs are checked against the acceptance
thresholds of the paper's experiments; a command that exits non-zero, lacks
a declared output or misses a threshold counts as failed.

Seeding (see NOTES.md for the measurements behind it): seed 0 is the paper
configuration.  Any other seed moves each component of the Lorenz-84 initial
state by at most 1e-6, passed to the program as ``--problem.u0``.  The
Robertson commands take no seed at all, because the adaptive RK4 run
collapses at t ~ 5 under any perturbation of its start step.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

LORENZ_U0 = (0.96, -1.1, 0.5)
MAX_U0_PERTURBATION = 1e-6

ORACLE_CHECK_TOL = 1e-8


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/stiffchaos`` to benchmark."""


def import_cli():
    """Import ``stiffchaos.cli`` from this checkout's ``src`` directory.

    Refuses a ``stiffchaos`` found anywhere else (for example an installed
    copy), so the benchmark always measures the code next to it.
    """
    if not (SRC / "stiffchaos" / "cli.py").is_file():
        raise MissingProgram(f"no stiffchaos sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from stiffchaos import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"stiffchaos imported from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# Correctness checks.  Each takes the command's manifest summary and output
# directory and returns the list of violated conditions.


def _check_oracle(summary: dict) -> list[str]:
    delta = summary["oracle_check_delta"]
    return [] if delta < ORACLE_CHECK_TOL else [f"oracle_check_delta {delta:.3g} >= 1e-8"]


def check_compare(summary: dict, out: Path) -> list[str]:
    errors = summary["max_errors"]
    m3 = errors["cumulative_avg"]
    gain = errors["none"] / m3
    bad = _check_oracle(summary)
    if not m3 <= 0.05:
        bad.append(f"method 3 max|x err| {m3:.4g} > 0.05")
    if not gain >= 20.0:
        bad.append(f"none/method-3 error ratio {gain:.4g} < 20")
    return bad


def check_transform(summary: dict, out: Path) -> list[str]:
    err = summary["max_abs_error"]["x"]
    bad = _check_oracle(summary)
    if not err <= 0.005:
        bad.append(f"N=1620 K=60 max|x err| {err:.4g} > 0.005")
    return bad


def check_rk4_stagnates(summary: dict, out: Path) -> list[str]:
    bad = []
    if summary["stagnated"] is not True:
        bad.append("adaptive RK4 did not stagnate")
    if summary["steps_taken"] != 100_000:
        bad.append(f"steps_taken {summary['steps_taken']} != 100000")
    if not 100.0 <= summary["t_reached"] < 1000.0:
        bad.append(f"t_reached {summary['t_reached']:.6g} outside [100, 1000)")
    return bad


def _max_mass_drift(path: Path) -> float:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return max(abs(float(r[1]) + float(r[2]) + float(r[3]) - 1.0) for r in rows)


def check_trapezoid(summary: dict, out: Path, steps: tuple[int, int] | None) -> list[str]:
    bad = []
    if summary["stagnated"] or summary["t_reached"] < 1e6 * (1.0 - 1e-12):
        bad.append(f"trapezoid stopped at t={summary['t_reached']:.6g} before 1e6")
    if steps is not None and not steps[0] <= summary["steps_taken"] <= steps[1]:
        bad.append(f"steps_taken {summary['steps_taken']} outside {list(steps)}")
    drift = _max_mass_drift(out / "solution.csv")
    if not drift <= 1e-12:
        bad.append(f"|sum(u) - 1| reaches {drift:.3g} > 1e-12")
    return bad


def check_fig1(summary: dict, out: Path) -> list[str]:
    crossing = summary["q_unity_crossing"]
    if crossing is None or not 0.003 <= crossing <= 0.005:
        return [f"Q=1 crossing {crossing} outside [0.003, 0.005]"]
    return []


def check_lorenz_diagnose(summary: dict, out: Path) -> list[str]:
    frac = summary["gamma_max_positive_fraction"]
    return [] if 0.0 < frac < 1.0 else [f"gamma_max_positive_fraction {frac} not in (0, 1)"]


# ---------------------------------------------------------------------------
# Workload definitions.


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its label (also its output directory), its argv
    without ``--out``, the CSVs it declares, and its correctness check."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[dict, Path], list[str]]


def lorenz_u0_flag(seed: int) -> tuple[str, ...]:
    """``--problem.u0`` for a perturbed Lorenz-84 start; nothing for seed 0."""
    if seed == 0:
        return ()
    rng = random.Random(seed)
    u0 = [u + rng.uniform(-MAX_U0_PERTURBATION, MAX_U0_PERTURBATION) for u in LORENZ_U0]
    return ("--problem.u0", ",".join(repr(u) for u in u0))


TRANSFORM_OUTPUTS = ("solution.csv", "errors.csv", "mu_history.csv", "step_extension.csv")
DIAGNOSE_OUTPUTS = ("stiffness.csv", "lle.csv")


def _lorenz_chaos(seed: int) -> list[Command]:
    u0 = lorenz_u0_flag(seed)
    return [
        Command("compare-n600",
                ("compare", "--problem", "lorenz84", "--method", "none,1,2,3,4",
                 "--steps", "600") + u0,
                ("compare.csv",), check_compare),
        Command("transform-n1620",
                ("transform", "--problem", "lorenz84", "--method", "3",
                 "--steps", "1620", "--intervals", "60") + u0,
                TRANSFORM_OUTPUTS, check_transform),
    ]


def _robertson_stiff(seed: int) -> list[Command]:
    # Unseeded: see the module docstring.
    trapezoid = ("solve", "--problem", "robertson", "--solver", "trapezoid",
                 "--dt-init", "0.1", "--tol")
    return [
        Command("rk4-adaptive",
                ("solve", "--problem", "robertson", "--solver", "rk4-adaptive",
                 "--tol", "1e-3", "--max-steps", "100000"),
                ("solution.csv",), check_rk4_stagnates),
        Command("trapezoid-tol1e-3", trapezoid + ("1e-3",), ("solution.csv",),
                lambda s, out: check_trapezoid(s, out, steps=(60, 400))),
        Command("trapezoid-tol1e-6", trapezoid + ("1e-6",), ("solution.csv",),
                lambda s, out: check_trapezoid(s, out, steps=None)),
    ]


def _stiffness_scan(seed: int) -> list[Command]:
    return [
        Command("fig1-stiff-linear",
                ("diagnose", "--problem", "stiff-linear", "--solver", "rk4",
                 "--steps", "4000", "--eps", "0.001", "--problem.params.a", "300",
                 "--problem.u0", "1.05", "--problem.t_span", "0,0.02"),
                DIAGNOSE_OUTPUTS, check_fig1),
        Command("lorenz-diagnose",
                ("diagnose", "--problem", "lorenz84", "--solver", "rk4",
                 "--steps", "60000", "--samples", "4000") + lorenz_u0_flag(seed),
                DIAGNOSE_OUTPUTS, check_lorenz_diagnose),
    ]


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "lorenz-chaos": _lorenz_chaos,
    "robertson-stiff": _robertson_stiff,
    "stiffness-scan": _stiffness_scan,
}


# ---------------------------------------------------------------------------
# Running a pass.


@dataclass
class CommandResult:
    label: str
    seconds: float
    failures: list[str]
    digests: dict[str, str]


@dataclass
class PassResult:
    commands: list[CommandResult]

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.commands)

    @property
    def digests(self) -> dict[str, str]:
        return {f"{c.label}/{name}": d for c in self.commands for name, d in c.digests.items()}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _verify(cmd: Command, rc, out: Path) -> tuple[list[str], dict[str, str]]:
    if rc != 0:
        return [f"exit code {rc}"], {}
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"], {}
    manifest = json.loads(manifest_path.read_text())
    if tuple(manifest["outputs"]) != cmd.outputs:
        return [f"declared outputs {manifest['outputs']} != {list(cmd.outputs)}"], {}
    missing = [name for name in cmd.outputs if not (out / name).is_file()]
    if missing:
        return [f"declared output missing: {name}" for name in missing], {}
    digests = {name: sha256_file(out / name) for name in cmd.outputs}
    return cmd.check(manifest["summary"], out), digests


def run_pass(cli, workload: str, seed: int, out_root: Path = OUT_ROOT) -> PassResult:
    """Run one pass over the workload's commands and check every output.

    Only the ``cli.main`` calls are timed; clearing the output directory and
    the checks happen outside the timed region.  ``cli.main`` is looked up
    on the module at call time, so a tracer's wrapper is picked up.
    """
    results = []
    for cmd in WORKLOADS[workload](seed):
        out = out_root / workload / cmd.label
        shutil.rmtree(out, ignore_errors=True)
        argv = list(cmd.argv) + ["--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
            except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        try:
            failures, digests = _verify(cmd, rc, out)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            failures, digests = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
        results.append(CommandResult(cmd.label, seconds, failures, digests))
    return PassResult(results)
