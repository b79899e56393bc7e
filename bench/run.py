"""Benchmark of the chanskew library and CLI.

    python3 bench/run.py --workload {paper,search,highdim,cli} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --self-check

Run from the root of a source checkout; the package is imported from src/
and the seeded input generators from tests/support.py. Load model: closed
loop, one caller, ops one after another in one process (``cli``: one child
interpreter at a time). BLAS and OpenMP run one thread.

``--trace 0`` warms up with one pass, then runs whole passes until
``--seconds`` have passed and prints the end-to-end metrics. ``--trace 1``
warms up, then for ``--seconds`` alternates an untraced pass with a pass
that records spans around every layer, and prints the per-layer metrics
per pass. Every op's output is checked; the last line of stdout is one JSON
object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy loads (workloads.py imports it), here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/chanskew/__init__.py", "tests/support.py")
WORKLOAD_NAMES = ("paper", "search", "highdim", "cli")

SETUP_REPEATS = 5
PROBE_REPEATS = 5
P90_MIN_OPS = 100
MAX_FAILURES_SHOWN = 5

# workload -> (layers, lowest share, highest share) of traced self time
DESIGN_SHARES = {
    "search": ((("bounds", "skewinfo"), 0.90, None), (("cmatrix",), None, 0.05)),
    "highdim": ((("cmatrix",), 0.80, None),),  # eig_hermitian is cmatrix's only span
}


class Tally:
    """Ops attempted and failed, and latency and tuples of the ops that returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.tuples = 0
        self.distinct_tuples = 0
        self.messages: list[str] = []

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages += other.messages


def run_op(op, tally: Tally, run=None) -> None:
    tally.attempted += 1
    start = time.perf_counter()
    try:
        out = (run or op.run)()
        elapsed = time.perf_counter() - start
        failures = op.check(out)
    except Exception as exc:  # any op error is a counted failure; the run goes on
        failures = [f"{type(exc).__name__}: {exc}"]
    else:
        tally.latencies.append(elapsed)
        tally.tuples += op.tuples
        tally.distinct_tuples += op.distinct_tuples
    if failures:
        tally.failed += 1
        tally.messages += [f"{op.label}: {m}" for m in failures]


def run_pass(wl, tally: Tally, wrap=None) -> None:
    for op in wl.ops:
        run_op(op, tally, wrap(op.run) if wrap else None)


def run_passes(wl, seconds: float) -> Tally:
    """Whole passes until ``seconds`` have passed."""
    tally = Tally()
    start = time.perf_counter()
    run_pass(wl, tally)
    while time.perf_counter() - start < seconds:
        run_pass(wl, tally)
    return tally


def rate(tally: Tally) -> float:
    """Ops per second of time spent inside ops."""
    return len(tally.latencies) / sum(tally.latencies)


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def child_wall_s(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited with {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed


def setup_samples(args, env: dict) -> list[float]:
    """Wall time of fresh interpreters that only set the workload up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    return [child_wall_s(argv, env) for _ in range(SETUP_REPEATS)]


def end_to_end(timed: Tally, overall: Tally, setup: list[float], rss_mb: float) -> dict[str, tuple]:
    """name -> (value, unit, samples); rates are over the time spent inside ops."""
    lat = timed.latencies
    busy = sum(lat)
    ops = len(lat)
    out = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (rate(timed), "1/s", ops),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", ops),
    }
    if ops >= P90_MIN_OPS:
        out["op_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms", ops)
    out["tuples_per_s"] = (timed.tuples / busy, "1/s", ops)
    out["failed_frac"] = (overall.failed / overall.attempted, "-", overall.attempted)
    out["peak_rss_mb"] = (rss_mb, "MB", 1)
    return out


def per_layer(tracer, passes: int, traced: Tally, untraced: Tally, probes: dict) -> dict[str, tuple]:
    """name -> (value, unit, samples); times and counts are per pass."""
    t = tracer.totals()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}

    def calls(name):
        return t.get(name, zero)["calls"] / passes

    def self_s(name):
        return t.get(name, zero)["self_s"] / passes

    def us_per_call(name):
        n = t.get(name, zero)["calls"]
        return t[name]["self_s"] / n * 1e6 if n else 0.0

    tuples = traced.tuples / passes
    k_evals = tracer.calls_under("skewinfo.skew_with_cache", "bounds.channel_bound_report")
    out = {
        "cmatrix.eig_hermitian.calls": (calls("cmatrix.eig_hermitian"), "count"),
        "cmatrix.eig_hermitian.self_s": (self_s("cmatrix.eig_hermitian"), "s"),
        "cmatrix.eig_hermitian.us_per_call": (us_per_call("cmatrix.eig_hermitian"), "us"),
        "quantum.validate.calls": (calls("quantum.validate"), "count"),
        "quantum.validate.self_s": (self_s("quantum.validate"), "s"),
        "skewinfo.weighted_ops.calls": (calls("skewinfo.weighted_ops"), "count"),
        "skewinfo.weighted_ops.self_s": (self_s("skewinfo.weighted_ops"), "s"),
        "skewinfo.skew_with_cache.calls": (calls("skewinfo.skew_with_cache"), "count"),
        "skewinfo.skew_with_cache.self_s": (self_s("skewinfo.skew_with_cache"), "s"),
        "skewinfo.skew_with_cache.us_per_call": (us_per_call("skewinfo.skew_with_cache"), "us"),
        "bounds.channel_bound_report.calls": (calls("bounds.channel_bound_report"), "count"),
        "bounds.channel_bound_report.self_s": (self_s("bounds.channel_bound_report"), "s"),
        "bounds.self_us_per_tuple": (self_s("bounds.channel_bound_report") / tuples * 1e6, "us"),
        "bounds.tuples": (tuples, "count"),
        "bounds.k_evals_per_tuple": (k_evals / passes / tuples, "count"),
        "bounds.useful_tuple_frac": (traced.distinct_tuples / traced.tuples, "frac"),
        "cli.import_s": (probes["import_s"], "s"),
        "cli.interpreter_s": (probes["interpreter_s"], "s"),
        "trace.overhead_frac": (1.0 - rate(traced) / rate(untraced), "frac"),
        # layers that only some workloads call: printed, not in the JSON line
        "bounds.unitary_bound_report.calls": (calls("bounds.unitary_bound_report"), "count"),
        "bounds.unitary_bound_report.self_s": (self_s("bounds.unitary_bound_report"), "s"),
        "repro.sweep.self_s": (self_s("repro.sweep"), "s"),
        "repro.table1_reports.self_s": (self_s("repro.table1_reports"), "s"),
        "repro.format_csv.calls": (calls("repro.format_csv"), "count"),
        "repro.format_csv.self_s": (self_s("repro.format_csv"), "s"),
        "repro.csv_bytes": (t.get("repro.format_csv", zero)["size"] / passes, "count"),
        "quantum.json.self_s": (self_s("quantum.json"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
    samples = {"cli.import_s": PROBE_REPEATS, "cli.interpreter_s": PROBE_REPEATS}
    return {k: (v, u, samples.get(k, passes)) for k, (v, u) in out.items()}


def layer_shares(tracer) -> dict[str, float]:
    """Self time of each layer as a share of traced op time."""
    t = tracer.totals()
    total = t["op"]["total_s"]
    shares: dict[str, float] = {}
    for name, agg in t.items():
        layer = "harness" if name == "op" else name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + agg["self_s"] / total
    return shares


def design_notes(workload: str, shares: dict[str, float]) -> list[str]:
    """Whether the layer shares match what the workload is meant to stress."""
    notes = ["layer self-time shares: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))]
    for layers, low, high in DESIGN_SHARES.get(workload, ()):
        share = sum(shares.get(layer, 0.0) for layer in layers)
        want = f">= {low}" if low is not None else f"<= {high}"
        met = (low is None or share >= low) and (high is None or share <= high)
        notes.append(f"design {workload}: {'+'.join(layers)} share {share:.3f} "
                     f"(want {want}): {'met' if met else 'NOT MET'}")
    return notes


def cli_probes(env: dict) -> dict[str, float]:
    """Bare interpreter start, and the extra cost of ``import chanskew.cli``."""
    bare = [child_wall_s([sys.executable, "-c", "pass"], env) for _ in range(PROBE_REPEATS)]
    imp = [child_wall_s([sys.executable, "-c", "import chanskew.cli"], env)
           for _ in range(PROBE_REPEATS)]
    interpreter = statistics.median(bare)
    return {"interpreter_s": interpreter, "import_s": statistics.median(imp) - interpreter}


def print_table(env: dict, notes: list[str], metrics: dict[str, tuple], selected: list[str]) -> None:
    print("env " + json.dumps(env))
    for line in notes:
        print(line)
    print(f"{'metric':<40} {'value':>16} {'unit':<6} samples")
    for name, (value, unit, samples) in metrics.items():
        mark = "" if name in selected else "   (not in the JSON line)"
        print(f"{name:<40} {value:>16.6g} {unit:<6} {samples}{mark}")


def report_failures(tally: Tally) -> None:
    for message in tally.messages[:MAX_FAILURES_SHOWN]:
        print(f"check failed: {message}", file=sys.stderr)
    if len(tally.messages) > MAX_FAILURES_SHOWN:
        print(f"... {len(tally.messages) - MAX_FAILURES_SHOWN} more", file=sys.stderr)


def no_result(tally: Tally) -> int:
    """Every op failed: there is nothing to measure."""
    report_failures(tally)
    print(f"error: all {tally.attempted} ops failed", file=sys.stderr)
    return 1


def benchmark_metrics(key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


def timed_run(args, workloads, wl) -> int:
    env = workloads.child_env()
    tally = Tally()
    run_pass(wl, tally)  # warm-up
    timed = run_passes(wl, args.seconds)
    tally.absorb(timed)
    if not timed.latencies:
        return no_result(tally)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # set-up children start only now, so that they stay out of the cli peak RSS
    setup = setup_samples(args, env)
    metrics = end_to_end(timed, tally, setup, rss_mb)
    selected = benchmark_metrics("end_to_end")
    return finish(args, metrics, selected, tally, [])


def traced_run(args, workloads, wl) -> int:
    import spans

    env = workloads.child_env()
    tally = Tally()
    run_pass(wl, tally)  # warm-up
    # traced and untraced passes alternate, so that both see the same drift
    # in machine speed and their ratio gives the tracing overhead
    tracer = spans.Tracer()
    untraced, traced = Tally(), Tally()
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        run_pass(wl, untraced)
        with tracer.installed():
            run_pass(wl, traced, wrap=lambda fn: tracer.wrap("op", fn))
        passes += 1
    tally.absorb(untraced)
    tally.absorb(traced)
    if not untraced.latencies or not traced.latencies:
        return no_result(tally)
    probes = cli_probes(env)
    metrics = per_layer(tracer, passes, traced, untraced, probes)
    shares = layer_shares(tracer)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    trace_path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "passes": passes,
         "spans": tracer.records(), "layer_shares": shares}, indent=1) + "\n")
    notes = design_notes(args.workload, shares)
    notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    selected = benchmark_metrics("per_layer")
    return finish(args, metrics, selected, tally, notes)


def finish(args, metrics: dict[str, tuple], selected: list[str], tally: Tally,
           notes: list[str]) -> int:
    print_table(environment(args), notes, metrics, selected)
    report_failures(tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in selected},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def self_check(workloads) -> int:
    """One pass of every workload must pass; tampered outputs must fail."""
    reference = workloads.load_reference()
    ok = True

    def expect(label: str, tally: Tally, want_failed: bool) -> None:
        nonlocal ok
        passed = (tally.failed > 0) == want_failed and tally.attempted > 0
        ok = ok and passed
        print(f"self-check {label}: {'ok' if passed else 'FAIL'} "
              f"({tally.failed}/{tally.attempted} ops failed)")
        if not passed:
            report_failures(tally)

    def one_pass(wl, tamper=None) -> Tally:
        if tamper is not None:
            wl = dataclasses.replace(wl, ops=[dataclasses.replace(
                op, run=lambda run=op.run: tamper(run())) for op in wl.ops])
        tally = Tally()
        run_pass(wl, tally)
        return tally

    def bumped_sum(report):
        return dataclasses.replace(report, sum=report.sum + 1e-8)

    def bumped_table1(out):
        table, csv = out
        (label, first), *rest = table
        return [(label, dataclasses.replace(first, lb2=first.lb2 + 1e-3))] + rest, csv

    for name in WORKLOAD_NAMES:
        for in_process in (False, True) if name == "cli" else (False,):
            wl = workloads.build(name, 0, reference, in_process_cli=in_process)
            try:
                tag = f"{name}{' in-process' if in_process else ''}"
                expect(f"{tag} one pass", one_pass(wl), want_failed=False)
                if name in ("search", "highdim"):
                    expect(f"{tag} perturbed sum", one_pass(wl, bumped_sum), True)
                if name == "paper":
                    expect(f"{tag} perturbed table1 lb2", one_pass(wl, bumped_table1), True)
            finally:
                wl.cleanup()
    for name, key in (("paper", "paper_csv_sha256"), ("cli", "cli_stdout_sha256")):
        corrupted = json.loads(json.dumps(reference))
        first = next(iter(corrupted[key]))
        corrupted[key][first] = "0" * 64
        wl = workloads.build(name, 0, corrupted)
        try:
            expect(f"{name} corrupted digest of {first}", one_pass(wl), True)
        finally:
            wl.cleanup()
    print(f"self-check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="chanskew benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times setup_s)")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once, and with tampered outputs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_check:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a chanskew source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    import workloads

    if args.self_check:
        return self_check(workloads)
    wl = workloads.build(args.workload, args.seed, workloads.load_reference(),
                         in_process_cli=bool(args.trace))
    try:
        if args.setup_only:
            return 0
        return (traced_run if args.trace else timed_run)(args, workloads, wl)
    finally:
        wl.cleanup()


if __name__ == "__main__":
    sys.exit(main())
