"""The benchmark's deterministic counts repeat exactly from run to run.

    python -m pytest perfbench/test_determinism.py

Runs the sweep's warm-up pass (every regime and suite at (n_max, k_max) =
(2, 2)) twice under the span recorder and compares what it counted.
"""

from __future__ import annotations

import sys

import pytest

import tracer
import workloads

sys.path.insert(0, str(workloads.SRC))
d = pytest.importorskip("dunkl_oscillator")

ROADMAP_SIZES = ((2, 2), (4, 4), (8, 8))  # ROADMAP aim 1


def traced_counts(seed: int) -> dict:
    inputs = workloads.make_inputs(seed)
    ops = workloads.sweep_ops(inputs, workloads.SWEEP_SIZES[:1])
    rec = tracer.SpanRecorder()
    uninstall = tracer.install(rec)
    records: dict[str, int] = {}
    try:
        for i, op in enumerate(ops):
            rec.op_id = i
            outcome = op.check(op.run())
            assert outcome.problem is None, (op.label, outcome.problem)
            records[op.label] = outcome.units
    finally:
        uninstall()
    spans = rec.arrays()
    summary = tracer.summarize(spans)
    counters = spans["counters"]
    return {
        "calls": {name: summary[name]["calls"] for name in tracer.SPAN_NAMES},
        "field_evals_per_point": {
            op: counters[f"{op}.field_points"] / counters[f"{op}.points"] for op in tracer.OPERATORS
        },
        "log_gamma_calls_per_record": (
            summary["special_functions.log_gamma"]["calls"] / sum(records.values())
        ),
        "sweep": (summary["sweep_candidates"], summary["sweep_skipped"]),
        "records": records,
    }


def test_counts_repeat_exactly():
    assert traced_counts(0) == traced_counts(0)


def test_counts_repeat_for_a_drawn_seed():
    assert workloads.make_inputs(7) != workloads.make_inputs(0)
    assert traced_counts(7) == traced_counts(7)


def test_field_evals_per_point_at_baseline():
    counts = traced_counts(0)["field_evals_per_point"]
    assert counts == {"dunkl_calculus.kg_apply": 15, "dunkl_calculus.dirac_apply": 18}


def _yield(n_max: int, k_max: int) -> tuple[int, int]:
    params, config = d.DunklParams(1.0, 1.0), d.OscillatorConfig(omega=1.0)
    rec = tracer.SpanRecorder()
    uninstall = tracer.install(rec)
    try:
        states = list(d.sweep_bound_states(params, config, n_max, k_max))
    finally:
        uninstall()
    summary = tracer.summarize(rec.arrays())
    assert len(states) == summary["sweep_candidates"] - summary["sweep_skipped"]
    return len(states), summary["sweep_candidates"]


def test_sweep_yield_at_baseline():
    assert _yield(2, 2) == (28, 51)
    assert _yield(8, 8) == (502, 585)


def test_records_per_size_at_baseline():
    params, config = d.DunklParams(1.0, 1.0), d.OscillatorConfig(omega=1.0)
    totals = [workloads.expected_records(d, params, config, "all", n, k) for n, k in ROADMAP_SIZES]
    assert totals == [129, 411, 1551]


def test_every_seed_family_member_does_the_same_sweep_work():
    per_mu = set()
    for mu in workloads.MU_FAMILY:
        params = d.DunklParams(*mu)
        assert params.is_spinor_compatible()
        cells = []
        for _, ratio in workloads.REGIMES[:2]:
            config = d.OscillatorConfig(omega=1.0, omega_c=ratio)
            cells += [workloads.expected_records(d, params, config, s, n, k)
                      for s in workloads.ALL_SUITES for n, k in ROADMAP_SIZES]
        per_mu.add(tuple(cells))
    assert len(per_mu) == 1
