"""Span recording around calls into the srpt modules, for the traced run.

Nothing here edits the package: `instrumented` re-binds the public names
of each layer, in every `srpt` module that holds them, to wrappers that
record a span per call, and restores the originals on exit.  Spans are kept
in memory per task and folded into per-layer totals after the task ends.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from time import perf_counter

# Span record fields.
LAYER, START, END, PARENT, FAILED, NBYTES, ATTRS, FN = range(8)

TIMED_LAYERS = (
    "hilbert.DensityMatrix",
    "hilbert.Observable",
    "hilbert.partial_transpose_matrix",
    "hilbert.min_eigenvalue",
    "hilbert.json",
    "criteria.srpt_evaluate",
    "criteria.is_admissible",
    "criteria.ppt_min_eigenvalue",
    "criteria.duan_criterion",
    "witnesses",
    "states",
    "search.scan",
    "search.maximize_violation",
    "cli.run_case",
    "cli.check_files",
    "cli.emit_witness",
)
BYTE_LAYERS = {
    "hilbert.partial_transpose_matrix": "bytes_computed",
    "hilbert.json": "bytes",
}
DERIVED = (
    ("search.evals_per_scan", "count"),
    ("search.prescan_share", "1"),
    ("search.nm_evals_per_restart", "count"),
    ("search.threshold_err_over_tol.max", "1"),
    ("trace.overhead_ratio", "1"),
    ("trace.unspanned_s", "s"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
        if layer in BYTE_LAYERS:
            units[f"{layer}.{BYTE_LAYERS[layer]}"] = "B"
    units.update(DERIVED)
    return units


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    `spans` is a sequence of records indexed by START, END and PARENT, where
    PARENT is the index of the enclosing span or -1 for a root.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(kids, span[START], span[END])
        for span, kids in zip(spans, children)
    ]


class Tracer:
    """Records nested spans of wrapped calls and folds them into layer totals."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self.totals = {layer: {"calls": 0, "self_s": 0.0, "errors": 0, "bytes": 0}
                       for layer in TIMED_LAYERS}
        self.scan_evaluations = 0
        self.nm_evaluations = 0
        self.nm_restarts = 0
        self.unspanned_s = 0.0

    def wrap(self, layer: str, fn, nbytes=None, attrs=None):
        """Wrapper recording one span per call of fn.

        nbytes(args, result) gives the bytes a call moved; it is counted only
        for the outermost span of its layer.  attrs(args, kwargs, result)
        gives values the fold step reads.  A direct recursive call records
        no span of its own.
        """
        spans, stack, open_layers = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][FN] is traced:
                return fn(*args, **kwargs)
            outermost = not open_layers.get(layer)
            open_layers[layer] = open_layers.get(layer, 0) + 1
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, False, 0, None, traced]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                open_layers[layer] -= 1
            if nbytes is not None and outermost:
                span[NBYTES] = nbytes(args, result)
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def fold_task(self, task_start: float, task_end: float) -> None:
        """Add the spans recorded during one task to the totals and drop them."""
        spans = self.spans
        for span, own in zip(spans, self_times(spans)):
            total = self.totals[span[LAYER]]
            total["calls"] += 1
            total["self_s"] += own
            total["errors"] += span[FAILED]
            total["bytes"] += span[NBYTES]
            info = span[ATTRS] or {}
            self.scan_evaluations += info.get("evaluations", 0)
            if info.get("family") == "prop2":
                self.nm_restarts += info["restarts"]
        for span in spans:
            if span[LAYER] == "criteria.srpt_evaluate" and self._under_prop2_search(span):
                self.nm_evaluations += 1
        roots = [(s[START], s[END]) for s in spans if s[PARENT] < 0]
        self.unspanned_s += (task_end - task_start) - covered(roots, task_start, task_end)
        spans.clear()

    def _under_prop2_search(self, span) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            above = self.spans[parent]
            if above[LAYER] == "search.maximize_violation":
                return (above[ATTRS] or {}).get("family") == "prop2"
            parent = above[PARENT]
        return False


def _array_bytes(args, result) -> int:
    return int(getattr(args[0], "nbytes", 0)) + int(getattr(result, "nbytes", 0))


def _text_out(args, result) -> int:
    return len(result)


def _text_in(args, result) -> int:
    return len(args[0])


def _scan_attrs(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


def _search_attrs(fn):
    signature = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"family": bound.arguments["family"], "restarts": int(bound.arguments["restarts"])}

    return attrs


def _public_functions(module):
    return [
        name for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _function_targets(pkg):
    """(layer, module, attribute, nbytes, attrs) for every wrapped function."""
    hilbert, criteria, search, cli = pkg.hilbert, pkg.criteria, pkg.search, pkg.cli
    yield ("hilbert.partial_transpose_matrix", hilbert, "partial_transpose_matrix",
           _array_bytes, None)
    yield "hilbert.min_eigenvalue", hilbert, "min_eigenvalue", None, None
    for name in ("dumps_canonical", "state_to_json", "observable_to_json", "density_to_json"):
        yield "hilbert.json", hilbert, name, _text_out, None
    for name in ("state_from_json", "observable_from_json", "density_from_json"):
        yield "hilbert.json", hilbert, name, _text_in, None
    for name in ("srpt_evaluate", "is_admissible", "ppt_min_eigenvalue", "duan_criterion"):
        yield f"criteria.{name}", criteria, name, None, None
    for layer in ("witnesses", "states"):
        module = getattr(pkg, layer)
        for name in _public_functions(module):
            yield layer, module, name, None, None
    for name in ("threshold_scan", "ppt_threshold_scan"):
        yield "search.scan", search, name, None, _scan_attrs
    if hasattr(search, "maximize_violation"):
        yield ("search.maximize_violation", search, "maximize_violation", None,
               _search_attrs(search.maximize_violation))
    for name in ("run_case", "check_files", "emit_witness"):
        yield f"cli.{name}", cli, name, None, None


@contextlib.contextmanager
def instrumented(tracer: Tracer, pkg):
    """Re-bind the layer functions of the srpt package `pkg` to traced wrappers.

    Each wrapped function is replaced under every name that refers to it in
    any loaded `srpt` module; validation in `DensityMatrix` and `Observable`
    is wrapped through their `__post_init__`.  Everything is restored on exit.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
    restore = []
    try:
        for layer, module, attr, nbytes, attrs in _function_targets(pkg):
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(layer, original, nbytes, attrs)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, name, original))
                        setattr(holder, name, wrapper)
        for cls_name in ("DensityMatrix", "Observable"):
            cls = getattr(pkg.hilbert, cls_name, None)
            original = getattr(cls, "__dict__", {}).get("__post_init__")
            if original is None:
                continue
            restore.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", tracer.wrap(f"hilbert.{cls_name}", original))
        yield tracer
    finally:
        for holder, name, original in reversed(restore):
            setattr(holder, name, original)
