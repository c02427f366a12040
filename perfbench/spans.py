"""Span recording for the traced benchmark mode.

The traced mode measures the package's layers without editing the
package: :func:`instrument` replaces each public function named in
:data:`TARGETS` by a recording wrapper in every ``graphalign`` module
namespace that binds it, so calls between modules (for example
``experiments`` calling ``subspaces.feature_basis``) are recorded too.
Spans stay in memory and are aggregated, or written out, at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (layer, public function) pairs wrapped in traced mode. The layer is the
# module that defines the function.
TARGETS = (
    ("datasets", "generate_constructive"),
    ("datasets", "row_normalize_features"),
    ("datasets", "one_hot"),
    ("randomize", "randomize_graph"),
    ("randomize", "randomize_features"),
    ("subspaces", "normalized_adjacency"),
    ("subspaces", "graph_spectrum"),
    ("subspaces", "graph_basis"),
    ("subspaces", "left_singular_factor"),
    ("subspaces", "feature_basis"),
    ("subspaces", "groundtruth_basis"),
    ("subspaces", "principal_angles"),
    ("subspaces", "distance_matrix"),
    ("subspaces", "sam"),
    ("subspaces", "optimize_dimensions"),
    ("models", "build_split"),
    ("models", "propagation_operator"),
    ("models", "train"),
    ("experiments", "run_sweep_multi"),
)

# Called only while setting up, so reported per set-up repetition.
SETUP_ONLY = {"datasets.generate_constructive"}

OP_SPAN = "op"
SETUP_SPAN = "setup"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: str  # "op<i>" for timed op i, "setup<r>" for set-up repetition r
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Nestable span recorder; records nothing while ``op`` is None."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if self.op is None:
            yield {}
            return
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span.attrs
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _train_name(args, kwargs) -> str:
    variant = args[1] if len(args) > 1 else kwargs.get("variant", "gcn")
    return f"models.train.{variant}"


def _wrap(tracer: Tracer, fn, name: str):
    naming = _train_name if name == "models.train" else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(naming(args, kwargs) if naming else name) as attrs:
            result = fn(*args, **kwargs)
            if naming:
                attrs["epochs"] = result.epochs_run
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target in every loaded ``graphalign`` module; restore on exit.

    Yields the list of (module, attribute, original) bindings replaced.
    """
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "graphalign" or name.startswith("graphalign."))
    ]
    patched = []
    try:
        for layer, attr in TARGETS:
            original = getattr(sys.modules[f"graphalign.{layer}"], attr)
            wrapper = _wrap(tracer, original, f"{layer}.{attr}")
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        patched.append((module, binding, original))
        yield patched
    finally:
        for module, binding, original in reversed(patched):
            setattr(module, binding, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted((spans[c] for c in children[index]), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _target_metrics(variants) -> list[tuple[str, str]]:
    """(span name, statistic) pairs reported for the wrapped functions."""
    pairs = []
    for layer, attr in TARGETS:
        if (layer, attr) == ("models", "train"):
            for variant in variants:
                pairs += [(f"models.train.{variant}", k) for k in ("s", "calls", "epochs", "epoch_ms")]
        else:
            pairs += [(f"{layer}.{attr}", "s"), (f"{layer}.{attr}", "calls")]
    return pairs


EXTRA_METRICS = ("models.diverged", "op.s", "op.self.s", "trace.spans", "trace.overhead_frac")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in ("trace.overhead_frac", "failed_frac"):
        return "ratio"
    if name.endswith(".epoch_ms"):
        return "ms"
    if name.endswith(".s"):
        return "s"
    return "count"


def per_layer_names(variants) -> list[str]:
    """Every per-layer metric the traced mode reports, in report order."""
    names = [f"{base}.{kind}" for base, kind in _target_metrics(variants)]
    return names + list(EXTRA_METRICS) + ["failed_frac"]


def layer_metrics(spans: list[Span], variants, span_cost_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    ``.s`` is self seconds per timed op and ``.calls`` calls per timed op;
    functions in :data:`SETUP_ONLY` are counted per set-up repetition.
    ``op.self.s`` is op time outside every wrapped function, so the layer
    self times plus ``op.self.s`` sum to ``op.s``. ``trace.overhead_frac``
    estimates the recording cost as spans per op times the measured cost
    of one span, over the op time.
    """
    own = self_times(spans)
    op_ids = {s.op for s in spans if s.name == OP_SPAN}
    setup_ids = {s.op for s in spans if s.name == SETUP_SPAN}
    n_ops, n_setups = max(len(op_ids), 1), max(len(setup_ids), 1)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    epochs: dict[str, int] = {}
    diverged = 0
    for span, own_s in zip(spans, own):
        if span.name in SETUP_ONLY:
            if span.op not in setup_ids:
                continue
        elif span.op not in op_ids:
            continue
        self_s[span.name] = self_s.get(span.name, 0.0) + own_s
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        epochs[span.name] = epochs.get(span.name, 0) + span.attrs.get("epochs", 0)
        diverged += span.attrs.get("error") == "TrainingDiverged"

    out: dict[str, float] = {}
    for base, kind in _target_metrics(variants):
        per = n_setups if base in SETUP_ONLY else n_ops
        if kind == "s":
            value = self_s.get(base, 0.0) / per
        elif kind == "calls":
            value = calls.get(base, 0) / per
        elif kind == "epochs":
            value = epochs[base] / calls[base] if calls.get(base) else 0.0
        else:
            value = 1000.0 * total[base] / epochs[base] if epochs.get(base) else 0.0
        out[f"{base}.{kind}"] = value
    op_spans = [s for s in spans if s.name == OP_SPAN]
    op_s = statistics.fmean(s.end - s.start for s in op_spans) if op_spans else 0.0
    n_spans = sum(1 for s in spans if s.op in op_ids) / n_ops
    out["models.diverged"] = float(diverged)
    out["op.s"] = op_s
    out["op.self.s"] = self_s.get(OP_SPAN, 0.0) / n_ops
    out["trace.spans"] = n_spans
    out["trace.overhead_frac"] = n_spans * span_cost_s / op_s if op_s else 0.0
    return out


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    tracer = Tracer()
    tracer.op = "calibrate"

    def noop():
        return None

    wrapped = _wrap(tracer, noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
