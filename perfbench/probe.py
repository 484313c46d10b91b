"""Child-process entry points of the benchmark.

    probe.py setup WORKLOAD SEED KERNEL_S
                                      time one set-up in a fresh interpreter,
                                      print {"import_s": .., "setup_s": ..,
                                      "rescaled_s": ..}; KERNEL_S is the
                                      reference kernel's time (speed.py) in
                                      the parent just before this started
    probe.py cli SPANS_PATH ARGV...   run the CLI with the span recorder
                                      installed and save its spans
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads


def setup(workload: str, seed: int, kernel_before_s: float) -> int:
    """The set-up of workloads.timed_setup, step by step: the import, the
    building of the warm-up operations and each warm-up operation. The
    reference kernel runs between steps, outside their times, and each
    step's time is rescaled by the kernel times around it."""
    inputs = workloads.make_inputs(seed)
    steps = []
    start = time.perf_counter()
    import dunkl_oscillator  # noqa: F401
    import dunkl_oscillator.cli  # noqa: F401

    steps.append(time.perf_counter() - start)
    import speed

    kernel = [kernel_before_s, speed.kernel_s()]
    rescaled = speed.rescale(steps[0], *kernel)

    def step(fn):
        nonlocal rescaled
        t0 = time.perf_counter()
        result = fn()
        steps.append(time.perf_counter() - t0)
        kernel.append(speed.kernel_s())
        rescaled += speed.rescale(steps[-1], kernel[-2], kernel[-1])
        return result

    for op in step(lambda: workloads.warmup_ops(workload, inputs)):
        outcome = step(lambda: op.check(op.run()))
        if outcome.problem:
            raise RuntimeError(f"warm-up {op.label}: {outcome.problem}")
    print(json.dumps({"import_s": steps[0], "setup_s": sum(steps), "rescaled_s": rescaled}))
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import dunkl_oscillator.cli as cli

    import_s = time.perf_counter() - start
    import tracer

    rec = tracer.SpanRecorder()
    rec.op_id = 0
    uninstall = tracer.install(rec)
    try:
        rc = cli.main(argv)
    finally:
        uninstall()
        sys.stdout.flush()
    spans = rec.arrays()
    spans["counters"]["cli.import_s"] = import_s
    tracer.save(spans, Path(spans_path))
    return rc


def main(args: list[str]) -> int:
    sys.path.insert(0, str(workloads.SRC))
    if args[:1] == ["setup"] and len(args) == 4:
        return setup(args[1], int(args[2]), float(args[3]))
    if args[:1] == ["cli"] and len(args) >= 2:
        return traced_cli(args[1], args[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
