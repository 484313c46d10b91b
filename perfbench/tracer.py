"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions from outside: every
wrapped call opens a span (name, start, end, parent, operation id) and
closes it on return or exception. Spans live in flat in-memory arrays and
are written out once, at the end of the run. Because the package modules
import functions by name (``verification.kg_apply``,
``angular_sector.log_gamma``, ...), a wrapper replaces the name in every
module namespace of the package that holds the original object.

Field evaluations are counted, not traced: an evaluation of a
``ScalarField2D`` made while ``kg_apply`` or ``dirac_apply`` is running
adds its point count to that operator, unless it is nested inside another
field evaluation (a product field evaluates its angular factor). Dividing
by the points the operator was applied to gives field evaluations per
point.

The recorder imports numpy only to aggregate and save, after the timed
import of the package has happened.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "dunkl_oscillator"

# (defining module, attribute, span name). Several attributes may share a
# span name: the four angular basis families count as one layer.
FUNCTIONS = (
    ("special_functions", "log_gamma", "special_functions.log_gamma"),
    ("special_functions", "jacobi_p", "special_functions.jacobi_p"),
    ("special_functions", "laguerre_l", "special_functions.laguerre_l"),
    ("special_functions", "bessel_j", "special_functions.bessel_j"),
    ("angular_sector", "phi_pp", "angular_sector.phi"),
    ("angular_sector", "phi_mm", "angular_sector.phi"),
    ("angular_sector", "phi_mp", "angular_sector.phi"),
    ("angular_sector", "phi_pm", "angular_sector.phi"),
    ("angular_sector", "f_eigenfunction", "angular_sector.f_eigenfunction"),
    ("solution_builder", "build_spinor", "solution_builder.build_spinor"),
    ("solution_builder", "energy", "solution_builder.energy"),
    ("solution_builder", "free_particle", "solution_builder.free_particle"),
    ("dunkl_calculus", "kg_apply", "dunkl_calculus.kg_apply"),
    ("dunkl_calculus", "dirac_apply", "dunkl_calculus.dirac_apply"),
    ("dunkl_calculus", "dunkl_derivative", "dunkl_calculus.dunkl_derivative"),
    ("dunkl_calculus", "angular_j", "dunkl_calculus.angular_j"),
    ("dunkl_calculus", "b_phi_apply", "dunkl_calculus.b_phi_apply"),
    ("dunkl_calculus", "weighted_inner_product", "dunkl_calculus.weighted_inner_product"),
    ("verification", "run_suite", "verification.run_suite"),
    ("verification", "sweep_bound_states", "verification.sweep_bound_states"),
    ("verification", "check_kg_eigen", "verification.check_kg_eigen"),
    ("verification", "check_dirac_system", "verification.check_dirac_system"),
    ("verification", "check_angular_eigen", "verification.check_angular_eigen"),
    ("verification", "check_orthonormality", "verification.check_orthonormality"),
    ("verification", "check_nonrelativistic_limit", "verification.check_nonrelativistic_limit"),
    ("cli", "main", "cli.main"),
)
# (defining module, class, method, span name)
METHODS = (("solution_builder", "RadialProfile", "__call__", "solution_builder.RadialProfile"),)
# operators whose field evaluations per point are counted, with the name
# of their evaluation-point argument
OPERATORS = {"dunkl_calculus.kg_apply": "point_polar", "dunkl_calculus.dirac_apply": "point"}

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in FUNCTIONS + METHODS))


def _size(value) -> int:
    return int(getattr(value, "size", 1))


class SpanRecorder:
    """In-memory spans plus the field-evaluation counters."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.operator: str | None = None
        self.field_depth = 0
        self.counters = {f"{op}.{kind}": 0 for op in OPERATORS for kind in ("field_points", "points")}

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.failed.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if failed:
            self.failed[idx] = 1

    def arrays(self) -> dict:
        import numpy as np

        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
            "counters": dict(self.counters),
        }


def _span_wrapper(rec: SpanRecorder, fn, name: str):
    name_id = rec.names.index(name)
    points_arg = OPERATORS.get(name)
    signature = inspect.signature(fn)

    if inspect.isgeneratorfunction(fn):
        # the span covers the iteration, which is where the work happens
        def gen_wrapper(*args, **kwargs):
            idx = rec.open(name_id)
            failed = True
            try:
                yield from fn(*args, **kwargs)
                failed = False
            finally:
                rec.close(idx, failed)

        return gen_wrapper

    def wrapper(*args, **kwargs):
        saved = rec.operator
        if points_arg is not None:
            rec.operator = name
            point = signature.bind(*args, **kwargs).arguments[points_arg]
            rec.counters[f"{name}.points"] += _size(point[0])
        idx = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, True)
            raise
        finally:
            rec.operator = saved
        rec.close(idx, False)
        return result

    return wrapper


def _field_wrapper(rec: SpanRecorder, fn):
    def wrapper(self, x, y):
        if rec.field_depth == 0 and rec.operator is not None:
            rec.counters[f"{rec.operator}.field_points"] += _size(x)
        rec.field_depth += 1
        try:
            return fn(self, x, y)
        finally:
            rec.field_depth -= 1

    return wrapper


def install(rec: SpanRecorder):
    """Wrap every traced function and method; return a function that undoes it."""
    owners = {mod: importlib.import_module(f"{PACKAGE}.{mod}") for mod, *_ in FUNCTIONS + METHODS}
    modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
    undo = []

    def replace(owner, attr, new) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, attr, name in FUNCTIONS:
        original = getattr(owners[mod_name], attr)
        wrapped = _span_wrapper(rec, original, name)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                replace(mod, attr, wrapped)
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(owners[mod_name], cls_name)
        replace(cls, attr, _span_wrapper(rec, getattr(cls, attr), name))
    field_cls = owners["dunkl_calculus"].ScalarField2D
    for attr in ("__call__", "eval_polar"):
        replace(field_cls, attr, _field_wrapper(rec, getattr(field_cls, attr)))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def save(spans: dict, path) -> None:
    import numpy as np

    arrays = {k: v for k, v in spans.items() if k not in ("names", "counters")}
    np.savez(path, names=np.array(spans["names"]), counters=json.dumps(spans["counters"]), **arrays)


def load(path) -> dict:
    import numpy as np

    with np.load(path) as data:
        out = {k: data[k] for k in data.files}
    out["names"] = [str(n) for n in out["names"]]
    out["counters"] = json.loads(str(out["counters"]))
    return out


def merge(parts: list[dict]) -> dict:
    """Concatenate span sets; part i becomes operation i."""
    import numpy as np

    counters: dict = {}
    offset = 0
    cols = {k: [] for k in ("name", "parent", "op", "start", "end", "failed")}
    for i, part in enumerate(parts):
        cols["name"].append(part["name"])
        cols["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        cols["op"].append(np.full(len(part["start"]), i, dtype=np.int32))
        for key in ("start", "end", "failed"):
            cols[key].append(part[key])
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
        offset += len(part["start"])
    out = {k: np.concatenate(v) for k, v in cols.items()}
    out["names"] = list(SPAN_NAMES)
    out["counters"] = counters
    return out


def summarize(spans: dict) -> dict:
    """Per span name: calls and self seconds; plus the sweep's candidate
    states (build_spinor calls made by sweep_bound_states) and skips.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap because the program is single-threaded.
    """
    import numpy as np

    names = spans["names"]
    name, parent = spans["name"].astype(np.int64), spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=self_time, minlength=len(names))
    out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i])} for i, n in enumerate(names)}

    sweep = names.index("verification.sweep_bound_states")
    build = names.index("solution_builder.build_spinor")
    in_sweep = (name == build) & has_parent
    in_sweep[in_sweep] = name[parent[in_sweep]] == sweep
    out["sweep_candidates"] = int(np.count_nonzero(in_sweep))
    out["sweep_skipped"] = int(np.count_nonzero(in_sweep & (spans["failed"] != 0)))
    return out
