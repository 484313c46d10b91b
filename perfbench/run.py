"""Benchmark of the dunkl-oscillator package.

    python3 perfbench/run.py --workload {sweep,export,cli-cold} [--seed N]
                             [--seconds S] [--trace {0,1}]

Run from the root of a source checkout; the package is imported from
``src/``. One client in a closed loop runs whole passes over the
workload's operations, in an order drawn from the seed, and checks every
operation's output. The number of passes scales with ``--seconds``
(PASSES_AT_15S), so every commit does the same work and its latency
percentiles cover the same samples; a run stops early only past four
times ``--seconds``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate,
traced run that prints per-layer metrics (calls and self time per pass of
each traced function, deterministic counts, tracing overhead) and writes
its spans to ``perfbench/out/trace-<workload>.npz``.

Every time in the end-to-end metrics is rescaled to a reference machine
speed (speed.py): the host is shared and its speed swings by up to 1.5x
between seconds, so a fixed reference kernel is timed between every two
operations and around every set-up, and each time is scaled by how fast
the kernel ran around it. The measured wall-clock figures are in the
``details`` line.

Every line but the last is a report for people; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

BENCHMARK.json lists sweep and export. cli-cold (a fresh interpreter per
README example) is run by hand: a third workload would make the repeated
runs of a benchmark check too long for a 2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

# Pin every thread pool before numpy can be imported; the package's own
# sweep parallelism is left at its default of one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DUNKL_OSC_THREADS", None)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import OUT, PROBE, ROOT, SRC, Outcome  # noqa: E402

SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
# Passes per run at --seconds 15. On a 2-core x86 machine a run of the
# defining commit then measures 25-40 s (sweep), 20-30 s (export) and
# 20-35 s (cli-cold). The median latency is the median, over the
# operations of a pass, of each operation's median across the passes: with
# an odd number of operations and of passes, the middle copy of one
# operation. With 7 passes the tail (11th-largest latency) is the middle
# copy of the second-slowest operation, so one burst of machine noise does
# not move it.
PASSES_AT_15S = {"sweep": 7, "export": 9, "cli-cold": 15}
MIN_PASSES = 3


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(PASSES_AT_15S[workload] * seconds / 15.0))


def run_passes(ops, passes: int, seconds: float, on_op=None) -> dict:
    """Closed loop over ``passes`` whole passes (fewer only past 4 x
    ``seconds``); returns one sample per operation run.

    A sample is (operation index, rescaled latency in s, Outcome); a
    failed operation's outcome carries the problem and no units. The
    reference kernel runs between every two operations; ``wall`` holds
    the measured latencies and ``kernel_s`` the kernel times.
    """
    samples, wall, errors = [], [], []
    kernel = [speed.kernel_s()]
    start = time.perf_counter()
    done = 0
    while done < passes:
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(done * len(ops) + i)
            t0 = time.perf_counter()
            try:
                result = op.run()
                latency = time.perf_counter() - t0
                outcome = op.check(result)
            except Exception as exc:  # counted in error_share, never skipped
                latency = time.perf_counter() - t0
                outcome = Outcome(0, f"{type(exc).__name__}: {exc}")
            kernel.append(speed.kernel_s())
            samples.append((i, speed.rescale(latency, kernel[-2], kernel[-1]), outcome))
            wall.append(latency)
            if outcome.problem:
                errors.append(f"{op.label}: {outcome.problem}")
        done += 1
        if time.perf_counter() - start > 4 * seconds:
            break
    return {"samples": samples, "wall": wall, "kernel_s": kernel, "errors": errors,
            "passes": done, "measured_s": time.perf_counter() - start}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value
    (the maximum when there are ten samples or fewer)."""
    ordered = sorted(values)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def setup_samples(workload: str, inputs) -> list[tuple[float, float]]:
    """(rescaled, measured) times of SETUP_SAMPLES set-ups, each in a fresh
    interpreter that rescales its own steps (probe.py); for cli-cold, of
    SETUP_SAMPLES warm-up invocations, rescaled here."""
    speed.kernel()  # imports numpy, so that the first kernel time is not an import
    samples = []
    before = speed.kernel_s()
    for _ in range(SETUP_SAMPLES):
        if workload == "cli-cold":
            measured = workloads.timed_setup(workload, inputs)[1]
            after = speed.kernel_s()
            samples.append((speed.rescale(measured, before, after), measured))
            before = after
            continue
        proc = subprocess.run(
            [sys.executable, str(PROBE), "setup", workload, str(inputs.seed), repr(before)],
            capture_output=True, text=True, env=workloads.child_env(), cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append((probe["rescaled_s"], probe["setup_s"]))
        before = speed.kernel_s()
    return samples


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "run_suite_threads": 1,
        "DUNKL_OSC_THREADS": os.environ.get("DUNKL_OSC_THREADS"),
        "blas_omp_threads": {v: os.environ.get(v) for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def totals(samples) -> dict:
    outcomes = [outcome for _, _, outcome in samples]
    return {
        "units": sum(o.units for o in outcomes),
        "failed_records": sum(o.failed_records for o in outcomes),
        "stdout_bytes": sum(o.stdout_bytes for o in outcomes),
    }


def throughput(samples, per_op: bool) -> float:
    """Work of one pass over the sum of each operation's median latency.

    Work is the units an operation produced (its median over the passes),
    or one per operation if ``per_op``. Taking medians per operation keeps
    a burst of machine noise in one pass out of the figure.
    """
    units: dict[int, list[int]] = {}
    for i, _, outcome in samples:
        units.setdefault(i, []).append(1 if per_op else outcome.units)
    work = sum(statistics.median(u) for u in units.values())
    return work / sum(statistics.median(t) for t in by_op(samples).values())


def by_op(samples) -> dict[int, list[float]]:
    """Latencies of each operation across the passes."""
    out: dict[int, list[float]] = {}
    for i, latency, _ in samples:
        out.setdefault(i, []).append(latency)
    return out


def end_to_end(args, inputs) -> tuple[dict, dict, dict]:
    setups = setup_samples(args.workload, inputs)
    workloads.timed_setup(args.workload, inputs)  # this process's own set-up
    ops = workloads.measure_ops(args.workload, inputs)
    res = run_passes(ops, pass_count(args.workload, args.seconds), args.seconds)
    peak_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    ).ru_maxrss
    samples = res["samples"]
    lat = [latency for _, latency, _ in samples]
    pct, tail_s = tail(lat)
    tot = totals(samples)
    metrics = {
        "setup_s": (statistics.median(rescaled for rescaled, _ in setups), "s"),
        "throughput_per_s": (throughput(samples, per_op=args.workload == "cli-cold"), "1/s"),
        "latency_ms_p50": (1e3 * statistics.median(
            statistics.median(t) for t in by_op(samples).values()), "ms"),
        "latency_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    extra = {
        "error_share": (len(res["errors"]) / len(lat), "share"),
        "check_fail_share": (tot["failed_records"] / max(tot["units"], 1), "share"),
    }
    details = {
        "ops_per_pass": len(ops), "passes": res["passes"], "measured_s": res["measured_s"],
        "latency_tail_percentile": pct, "latency_samples": len(lat),
        "setup_samples_s": [rescaled for rescaled, _ in setups],
        "wall_setup_samples_s": [measured for _, measured in setups],
        "wall_latency_ms_p50": 1e3 * statistics.median(res["wall"]),
        "wall_latency_ms_tail": 1e3 * tail(res["wall"])[1],
        "kernel_ms_median": 1e3 * statistics.median(res["kernel_s"]),
        "units": tot["units"],
        "op_median_ms": {ops[i].label: 1e3 * statistics.median(t) for i, t in by_op(samples).items()},
        "op_units": {ops[i].label: outcome.units for i, _, outcome in samples},
        "unit": {"sweep": "records", "export": "CSV data rows", "cli-cold": "invocations"}[args.workload],
        "errors": res["errors"], "attempted": len(lat), "failed": len(res["errors"]),
    }
    return metrics, extra, details


def per_layer(args, inputs) -> tuple[dict, dict, dict]:
    import_s, _ = workloads.timed_setup(args.workload, inputs)
    warm = workloads.warmup_ops(args.workload, inputs)
    passes = pass_count(args.workload, args.seconds)

    def timed_pass(ops) -> float:
        t0 = time.perf_counter()
        for op in ops:
            op.run()
        return time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        spans_dir = Path(tmp)
        if args.workload == "cli-cold":
            plain = timed_pass(workloads.cli_cold_ops(inputs))
            overhead = timed_pass(workloads.cli_cold_ops(inputs, spans_dir)) / plain - 1.0
            ops = workloads.shuffled(workloads.cli_cold_ops(inputs, spans_dir), inputs.seed)
            parts = []

            def collect(_=None):  # the spans of the invocation that just ended
                for f in sorted(spans_dir.glob("*.npz")):
                    parts.append(tracer.load(f))
                    f.unlink()

            collect()
            parts.clear()  # the traced warm-up pass
            res = run_passes(ops, passes, args.seconds, on_op=collect)
            collect()
            import_s = statistics.median(p["counters"].pop("cli.import_s") for p in parts)
            spans = tracer.merge(parts)
        else:
            ops = workloads.measure_ops(args.workload, inputs)

            def traced_pass() -> float:
                uninstall = tracer.install(tracer.SpanRecorder())
                try:
                    return timed_pass(warm)
                finally:
                    uninstall()

            # three pairs of plain and traced warm-up passes, in alternating order
            ratios = []
            for k in range(3):
                if k % 2:
                    traced = traced_pass()
                    plain = timed_pass(warm)
                else:
                    plain = timed_pass(warm)
                    traced = traced_pass()
                ratios.append(traced / plain)
            overhead = statistics.median(ratios) - 1.0
            rec = tracer.SpanRecorder()
            uninstall = tracer.install(rec)
            try:
                res = run_passes(ops, passes, args.seconds,
                                 on_op=lambda i: setattr(rec, "op_id", i))
            finally:
                uninstall()
            spans = rec.arrays()
    trace_path = OUT / f"trace-{args.workload}.npz"
    tracer.save(spans, trace_path)

    summary = tracer.summarize(spans)
    passes = res["passes"]
    tot = totals(res["samples"])
    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = (summary[name]["calls"] / passes, "count")
        metrics[f"{name}.self_s"] = (summary[name]["self_s"] / passes, "s")
    counters = spans["counters"]
    for op in tracer.OPERATORS:
        points = counters[f"{op}.points"]
        metrics[f"{op}.field_evals_per_point"] = (
            counters[f"{op}.field_points"] / points if points else 0.0, "count")
    log_gamma_calls = summary["special_functions.log_gamma"]["calls"]
    metrics["special_functions.log_gamma.calls_per_record"] = (
        log_gamma_calls / tot["units"] if tot["units"] else 0.0, "count")
    cand, skipped = summary["sweep_candidates"], summary["sweep_skipped"]
    metrics["verification.sweep_bound_states.yield"] = (
        (cand - skipped) / cand if cand else 0.0, "share")
    metrics["verification.sweep_bound_states.skipped"] = (skipped / passes, "count")
    metrics["verification.check_fail_share"] = (
        tot["failed_records"] / tot["units"] if tot["units"] else 0.0, "share")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.stdout_bytes"] = (tot["stdout_bytes"] / passes, "bytes")
    metrics["trace.overhead_share"] = (overhead, "share")
    metrics["trace.spans"] = (len(spans["start"]) / passes, "count")
    details = {
        "passes": passes, "measured_s": res["measured_s"], "units_per_pass": tot["units"] / passes,
        "sweep_candidates_per_pass": cand / passes, "trace_file": str(trace_path.relative_to(ROOT)),
        "errors": res["errors"], "attempted": len(res["samples"]), "failed": len(res["errors"]),
    }
    return metrics, {}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dunkl_oscillator" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one core for this process and its children, so that the reference
    # kernel measures the core the operations run on (speed.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs = workloads.make_inputs(args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, extra, details = measure(args, inputs)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} inputs={inputs}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<58} {value:>16.6g} {unit}")
    result = {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
