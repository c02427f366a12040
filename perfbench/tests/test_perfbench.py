"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import graphalign as ga  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_SPEC = ga.ConstructiveSpec(
    n_nodes=120, n_communities=4, n_features=40, features_per_community=10, p_in=0.3, p_out=0.03
)
TINY_DIMS = (20, 5)
TINY = {
    "align": {"n_null": 1, "grid_points": 3},
    "align-projection": {"n_null": 1, "grid_points": 3},
    "sweep": {"config": ga.GcnConfig(max_epochs=5)},
}


def tiny_workload(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module")
def tiny_ctx():
    return workloads.set_up(0, spec=TINY_SPEC, sweep_dims=TINY_DIMS)


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "graphalign" or name.startswith("graphalign.")
        for attr, value in vars(module).items()
    }


def test_instrument_restores_every_patched_name():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer) as patched:
            assert ga.subspaces.graph_spectrum is not before[("graphalign.subspaces", "graph_spectrum")]
            # One wrapper per function, shared by every namespace that binds it.
            assert ga.experiments.feature_basis is ga.subspaces.feature_basis
            assert ga.train is ga.models.train is ga.experiments.train
            names = {f"{layer}.{attr}" for layer, attr in spans.TARGETS}
            wrapped = {f"{m.__name__.split('.')[-1]}.{b}" for m, b, _ in patched}
            assert names <= wrapped
            raise RuntimeError("restore on error too")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _span(name, start, end, parent, op="op0"):
    return spans.Span(name, start, end, parent, op)


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span("op", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 9.0, 0),
        # Overlaps its sibling and runs past its parent: counted once, clipped.
        _span("d", 8.0, 11.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 5.0, 2.0, 1.0, 4.0, 3.0])


def test_layer_metrics_sum_to_op_time():
    tree = [
        _span("setup", 0.0, 1.0, None, "setup0"),
        _span("datasets.generate_constructive", 0.0, 0.5, 0, "setup0"),
        _span("op", 1.0, 5.0, None, "op0"),
        _span("models.train.gcn", 1.5, 3.5, 2, "op0"),
        _span("models.propagation_operator", 2.0, 2.5, 3, "op0"),
        _span("op", 5.0, 7.0, None, "op1"),
        _span("subspaces.graph_spectrum", 5.0, 6.0, 5, "op1"),
    ]
    tree[3].attrs["epochs"] = 100
    m = spans.layer_metrics(tree, ("gcn", "sgc"), span_cost_s=0.0)
    assert m["datasets.generate_constructive.s"] == pytest.approx(0.5)
    assert m["models.train.gcn.s"] == pytest.approx(1.5 / 2)
    assert m["models.train.gcn.calls"] == pytest.approx(0.5)
    assert m["models.train.gcn.epochs"] == pytest.approx(100)
    assert m["models.train.gcn.epoch_ms"] == pytest.approx(20.0)
    assert m["models.train.sgc.s"] == 0.0
    assert m["op.s"] == pytest.approx(3.0)
    layer_self = sum(m[f"{b}.s"] for b, kind in spans._target_metrics(("gcn", "sgc"))
                     if kind == "s" and b not in spans.SETUP_ONLY)
    assert layer_self + m["op.self.s"] == pytest.approx(m["op.s"])


class _Perturbed:
    """Delegates to a workload but shifts every SAM it returns."""

    def __init__(self, inner):
        self.inner = inner

    def op(self, ctx, index):
        result = self.inner.op(ctx, index)
        return dataclasses.replace(result, sam=result.sam + 1e-6)

    def check(self, *args):
        return self.inner.check(*args)


def test_perturbed_output_counts_as_failed(tiny_ctx):
    workload = tiny_workload("align")
    assert run.measure(workload, tiny_ctx, seconds=1e-9).failures == {}
    outcome = run.measure(_Perturbed(workload), tiny_ctx, seconds=1e-9)
    assert len(outcome.times) == 1
    assert outcome.failed_frac == 1.0
    assert "Frobenius" in outcome.failures[0]


def test_raising_op_counts_as_failed(tiny_ctx):
    class Raising:
        def op(self, ctx, index):
            raise ValueError("boom")

    outcome = run.measure(Raising(), tiny_ctx, seconds=1e-9)
    assert outcome.failures == {0: "ValueError: boom"}


def test_recorded_reference_mismatch_fails(tiny_ctx):
    workload = tiny_workload("align")
    result = workload.op(tiny_ctx, 0)
    good = dataclasses.replace(tiny_ctx, reference=[workload.record(result)])
    assert workload.check(good, 0, result, {}) == []
    wrong = workload.record(result) | {"k_star": [0, 0, 0]}
    bad = dataclasses.replace(tiny_ctx, reference=[wrong])
    assert any("recorded" in p for p in workload.check(bad, 0, result, {}))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_tiny_op_per_workload_end_to_end(tiny_ctx, name):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        outcome = run.measure(tiny_workload(name), tiny_ctx, seconds=1e-9, tracer=tracer)
    assert outcome.failures == {}
    metrics = spans.layer_metrics(tracer.spans, ga.VARIANTS, spans.span_cost(100))
    assert set(metrics) == set(spans.per_layer_names(ga.VARIANTS)) - {"failed_frac"}
    trained = sum(metrics[f"models.train.{v}.calls"] for v in ga.VARIANTS)
    if name == "sweep":
        assert trained == len(ga.VARIANTS)
        assert metrics["experiments.run_sweep_multi.calls"] == 1
        assert metrics["models.train.gcn.epochs"] == 5
    else:
        assert trained == 0
        assert metrics["subspaces.optimize_dimensions.calls"] == 1
        assert metrics["subspaces.graph_spectrum.calls"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    names = spans.per_layer_names(ga.VARIANTS)
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["unit"] for m in spec["per_layer"]] == [spans.unit_of(n) for n in names]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
