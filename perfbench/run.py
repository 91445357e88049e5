"""The stiffchaos benchmark.

    python3 perfbench/run.py --workload lorenz-chaos --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and measures the code under ``src/``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``: median seconds of one pass over the workload's commands, run
  in this process after a warm-up pass, passes repeated for ``--seconds``;
* ``setup_s``: median seconds for a fresh interpreter to import
  ``stiffchaos.cli`` and build its parser, which every CLI run pays; one
  interpreter is launched after each pass;
* ``peak_rss_mb``: peak resident memory of a fresh process running one pass.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics of the traced passes (medians), the tracing
overhead, and call-rate microbenchmarks.

Every command of every pass is checked (see ``workloads.py``), and its CSV
digests must equal those of the warm-up pass.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (commands)
and ``metrics``, each with the unit that ``BENCHMARK.json`` gives it.  Spans
and digests go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from statistics import median, quantiles

import microbench
from tracing import LAYERS, Tracer, median_metrics
from workloads import OUT_ROOT, ROOT, SRC, WORKLOADS, MissingProgram, PassResult, import_cli, run_pass

MIN_SETUP_RUNS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import stiffchaos.cli as c; c.make_parser()")
SUBPROCESS_TIMEOUT = 120


class Tally:
    """Commands attempted and failed; a command also fails when its CSV
    digests differ from the warm-up pass."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None

    def add(self, label: str, attempted: int, failures: dict[str, list[str]],
            digests: dict[str, str]) -> None:
        if self.reference is None:
            self.reference = digests
        for key, digest in digests.items():
            if self.reference.get(key) != digest:
                command = key.split("/", 1)[0]
                failures = {**failures, command: failures.get(command, []) + [
                    f"{key} digest differs from the warm-up pass"]}
        self.attempted += attempted
        self.failures += [f"{label} {cmd}: {'; '.join(why)}" for cmd, why in failures.items()]

    def add_pass(self, label: str, result: PassResult) -> None:
        self.add(label, len(result.commands),
                 {c.label: c.failures for c in result.commands if c.failures},
                 result.digests)


def load_catalogue() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each kind, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def time_setup() -> float:
    """Wall time of one fresh interpreter importing the CLI and building its
    parser."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                   check=True, timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - start


def warm_up(cli, args, tally: Tally) -> float:
    """Run the warm-up pass here while a fresh process runs one pass of its
    own; return that process's peak RSS in MB.  Neither pass is timed, so
    they may share the machine."""
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "one_pass.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--out", str(OUT_ROOT / "fresh-process")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        tally.add_pass("warm-up", run_pass(cli, args.workload, args.seed))
        stdout, _ = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"one_pass.py exited with {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    tally.add("fresh-process", report["attempted"], report["failures"], report["digests"])
    return report["maxrss_kib"] / 1024.0


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def run_untraced(cli, args, tally: Tally) -> tuple[dict[str, float], list[PassResult]]:
    peak_rss_mb = warm_up(cli, args, tally)
    time_setup()  # discarded: the first launch may compile byte code
    passes, setups = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        result = run_pass(cli, args.workload, args.seed)
        tally.add_pass(f"pass {len(passes) + 1}", result)
        passes.append(result)
        # One launch after each pass spreads the set-up samples over the
        # whole run, so a slow spell of the machine does not catch them all.
        setups.append(time_setup())
    while len(setups) < MIN_SETUP_RUNS:
        setups.append(time_setup())
    walls = [p.seconds for p in passes]
    print(f"wall_s       {median(walls):.6f} s   median over passes, {spread(walls)}")
    print("  passes: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"setup_s      {median(setups):.6f} s   median over fresh interpreters, "
          f"{spread(setups)}")
    print(f"peak_rss_mb  {peak_rss_mb:.3f} MB  one pass in a fresh process")
    return {"wall_s": median(walls), "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb}, passes


def run_traced(cli, args, tally: Tally) -> tuple[dict[str, float], list[PassResult]]:
    tally.add_pass("warm-up", run_pass(cli, args.workload, args.seed))
    plain, traced, layer_passes, tracers = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        result = run_pass(cli, args.workload, args.seed)
        tally.add_pass(f"untraced pass {len(plain) + 1}", result)
        plain.append(result)
        tracer = Tracer()
        with tracer.installed():
            result = run_pass(cli, args.workload, args.seed)
        tally.add_pass(f"traced pass {len(traced) + 1}", result)
        traced.append(result)
        layer_passes.append(tracer.metrics())
        tracers.append(tracer)
    metrics = median_metrics(layer_passes)
    untraced_wall = median(p.seconds for p in plain)
    traced_wall = median(p.seconds for p in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics.update(microbench.call_rates())

    spans = [[s.as_dict() for s in t.spans] for t in tracers]
    (OUT_ROOT / args.workload / f"spans-seed{args.seed}.json").write_text(json.dumps(spans))
    print(f"traced wall {traced_wall:.4f} s, untraced {untraced_wall:.4f} s, "
          f"{len(traced)} passes each")
    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(selfs.values())
    print("layer self time share: " + ", ".join(
        f"{layer} {100 * s / total:.1f}%" for layer, s in
        sorted(selfs.items(), key=lambda kv: -kv[1])))
    for name in sorted(metrics):
        print(f"  {name:36s} {metrics[name]:.6g}")
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
        catalogue = load_catalogue()
    except (MissingProgram, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot run here: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    (OUT_ROOT / args.workload).mkdir(parents=True, exist_ok=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    tally = Tally()
    if args.trace:
        metrics, passes = run_traced(cli, args, tally)
        units = catalogue["per_layer"]
    else:
        metrics, passes = run_untraced(cli, args, tally)
        units = catalogue["end_to_end"]
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not "
              "both measured and listed in BENCHMARK.json", file=sys.stderr)
        return 2

    for command in passes[0].commands:
        times = [c.seconds for p in passes for c in p.commands if c.label == command.label]
        print(f"  {command.label:20s} {median(times):.4f} s median")
    failed = len(tally.failures)
    print(f"fail_frac    {failed / tally.attempted:.6g} ratio  "
          f"({failed} of {tally.attempted} commands failed)")
    for why in tally.failures:
        print(f"  FAILED {why}")
    print("csv sha256:")
    for key, digest in sorted(tally.reference.items()):
        print(f"  {digest}  {key}")
    (OUT_ROOT / args.workload / f"digests-seed{args.seed}.json").write_text(
        json.dumps(tally.reference, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
