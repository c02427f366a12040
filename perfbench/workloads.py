"""Benchmark workloads: the timed op of each and the check of its output.

Every op draws its own seed from the workload seed (:func:`op_seed`), so
no two ops share inputs and a result cache cannot shorten a run. The
dataset itself is ``generate_constructive(ConstructiveSpec(seed=S))`` for
the workload seed S, built once per set-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import graphalign as ga

# Fixed sweep dimensions, as in ``graphalign sweep --kx 275 --ka 10``.
SWEEP_DIMS = (275, 10)
# Sweep cells cycle over the percent grid 0..100, one percent per op. High
# percents train for fewer epochs (early stopping fires), so the order mixes
# low and high percents in every prefix: the median cell then does not
# depend on how many cells fit in a run.
PERCENTS = (0, 100, 50, 20, 80, 10, 90, 40, 60, 30, 70)
SWEEP_AXIS = "both"
SWEEP_METRICS = ("chordal", "projection")

# Tolerances of the output checks.
IDENTITY_RTOL = 1e-9  # algebraic identities evaluated on this run's numbers
REFERENCE_RTOL = 1e-6  # distances and SAM against the recorded seed-0 values
# Accuracy against the recorded seed-0 values. Four hundred Adam epochs
# amplify last-digit differences between BLAS kernels; 0.05 is 42 of the
# 850 test nodes, far below the gaps a wrong model produces.
REFERENCE_ACC_ATOL = 0.05

REFERENCE_FILE = Path(__file__).with_name("reference_seed0.json")


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` under workload seed ``seed``; (0, 0) maps to 0."""
    return seed * 1_000_000 + index


@dataclass(frozen=True)
class Context:
    """What set-up hands to the ops: the dataset and the fixed sweep dims."""

    seed: int
    dataset: ga.Dataset
    # Set-up time is defined to include the split. Sweep cells rebuild it
    # from their own base seed, so no op reads this one.
    split: ga.SplitSpec
    dims: ga.AlignmentResult
    reference: list | None = None  # recorded outputs per op index, seed 0 only


def set_up(seed: int, spec: ga.ConstructiveSpec | None = None,
           sweep_dims: tuple[int, int] = SWEEP_DIMS, reference: list | None = None) -> Context:
    """Dataset generation, split and the fixed sweep dims via ``alignment_at``."""
    spec = spec or ga.ConstructiveSpec(seed=seed)
    dataset = ga.generate_constructive(spec)
    split = ga.build_split(dataset.labels, seed=seed)
    dims = ga.alignment_at(dataset, *sweep_dims)
    return Context(seed, dataset, split, dims, reference)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def _sam_identity(d_xa: float, d_xy: float, d_ay: float, sam: float) -> bool:
    """SAM is the Frobenius norm of the symmetric distance matrix."""
    return _close(sam, math.sqrt(2.0 * (d_xa**2 + d_xy**2 + d_ay**2)), IDENTITY_RTOL)


@dataclass(frozen=True)
class AlignWorkload:
    """One ``optimize_dimensions`` search per op, null seed from the op seed."""

    name: str
    why: str
    metric: str
    n_null: int
    grid_points: int = 10
    aliases: ClassVar[dict] = {"op_s": "align_s"}

    def op(self, ctx: Context, index: int) -> ga.AlignmentResult:
        return ga.optimize_dimensions(
            ctx.dataset, metric=self.metric, n_null=self.n_null,
            grid_points=self.grid_points, rounds=2, seed=op_seed(ctx.seed, index),
        )

    def check(self, ctx: Context, index: int, result: ga.AlignmentResult, cache: dict) -> list[str]:
        ds = ctx.dataset
        f = ds.num_classes
        problems = []
        if result.metric != self.metric:
            problems.append(f"metric {result.metric!r}, expected {self.metric!r}")
        if result.k_star_y != f:
            problems.append(f"k_y={result.k_star_y}, expected the class count {f}")
        if not f <= result.k_star_x <= min(ds.n_features, ds.n_nodes - 1):
            problems.append(f"k_x={result.k_star_x} outside its grid")
        if not f <= result.k_star_a <= ds.n_nodes - 1:
            problems.append(f"k_a={result.k_star_a} outside its grid")
        d = result.distances
        if not _sam_identity(d.d_xa, d.d_xy, d.d_ay, result.sam):
            problems.append(f"SAM {result.sam!r} is not the Frobenius norm of the distances")
        if not problems:
            key = (result.k_star_x, result.k_star_a, result.metric)
            if key not in cache:
                cache[key] = ga.alignment_at(ds, result.k_star_x, result.k_star_a, result.metric).sam
            if not _close(result.sam, cache[key], IDENTITY_RTOL):
                problems.append(f"SAM {result.sam!r} differs from alignment_at {cache[key]!r}")
        expected = _recorded(ctx, index)
        if expected is not None:
            k_star = [result.k_star_x, result.k_star_a, result.k_star_y]
            if k_star != expected["k_star"]:
                problems.append(f"k*={k_star}, recorded {expected['k_star']}")
            if not _close(result.sam, expected["sam"], REFERENCE_RTOL):
                problems.append(f"SAM {result.sam!r}, recorded {expected['sam']!r}")
        return problems

    def record(self, result: ga.AlignmentResult) -> dict:
        return {"k_star": [result.k_star_x, result.k_star_a, result.k_star_y], "sam": result.sam}


@dataclass(frozen=True)
class SweepWorkload:
    """One ``run_sweep_multi`` cell per op: one percent, one realization."""

    name: str
    why: str
    config: ga.GcnConfig = field(default_factory=ga.GcnConfig)
    aliases: ClassVar[dict] = {"op_s": "cell_s", "ops_per_s": "cells_per_s"}

    def op(self, ctx: Context, index: int) -> dict[str, list[ga.SweepRow]]:
        spec = ga.SweepSpec(
            dataset=ctx.dataset, name="constructive", axis=SWEEP_AXIS,
            percents=(PERCENTS[index % len(PERCENTS)],), realizations=1,
            variants=ga.VARIANTS, base_seed=op_seed(ctx.seed, index), config=self.config,
        )
        return ga.run_sweep_multi(spec, ctx.dims, metrics=SWEEP_METRICS, workers=1)

    def check(self, ctx: Context, index: int, result: dict, cache: dict) -> list[str]:
        percent = PERCENTS[index % len(PERCENTS)]
        dims = ctx.dims
        expected = _recorded(ctx, index)
        problems = []
        if sorted(result) != sorted(SWEEP_METRICS):
            return [f"metrics {sorted(result)}, expected {sorted(SWEEP_METRICS)}"]
        accuracy: dict[str, float] = {}
        for metric in SWEEP_METRICS:
            rows = result[metric]
            if [r.variant for r in rows] != list(ga.VARIANTS):
                problems.append(f"{metric}: variants {[r.variant for r in rows]}")
                continue
            first = rows[0]
            for r in rows:
                where = f"{metric}/{r.variant}"
                if (r.percent, r.realization, r.axis) != (percent, 0, SWEEP_AXIS):
                    problems.append(f"{where}: cell {(r.percent, r.realization, r.axis)}")
                if (r.kx, r.ka, r.ky) != (dims.k_star_x, dims.k_star_a, dims.k_star_y):
                    problems.append(f"{where}: dims {(r.kx, r.ka, r.ky)}")
                if not 0.0 <= r.accuracy <= 1.0:  # NaN (a diverged training) fails too
                    problems.append(f"{where}: accuracy {r.accuracy!r}")
                if (r.d_xa, r.d_xy, r.d_ay, r.sam) != (first.d_xa, first.d_xy, first.d_ay, first.sam):
                    problems.append(f"{where}: distances differ between variants of one cell")
                if accuracy.setdefault(r.variant, r.accuracy) != r.accuracy and not math.isnan(r.accuracy):
                    problems.append(f"{where}: accuracy differs between metrics")
            if not all(d >= 0.0 for d in (first.d_xa, first.d_xy, first.d_ay)):
                problems.append(f"{metric}: negative distance")
            if not _sam_identity(first.d_xa, first.d_xy, first.d_ay, first.sam):
                problems.append(f"{metric}: SAM {first.sam!r} is not the Frobenius norm of the distances")
            # At 0 % nothing is randomized, so the cell sees the set-up dataset.
            if percent == 0 and metric == dims.metric and not _close(first.sam, dims.sam, IDENTITY_RTOL):
                problems.append(f"{metric}: SAM {first.sam!r} at 0 % differs from set-up {dims.sam!r}")
            if expected is not None:
                for key in ("d_xa", "d_xy", "d_ay", "sam"):
                    if not _close(getattr(first, key), expected[metric][key], REFERENCE_RTOL):
                        problems.append(f"{metric}: {key} {getattr(first, key)!r}, recorded {expected[metric][key]!r}")
        if expected is not None:
            for variant, acc in accuracy.items():
                if not abs(acc - expected["accuracy"][variant]) <= REFERENCE_ACC_ATOL:
                    problems.append(f"{variant}: accuracy {acc!r}, recorded {expected['accuracy'][variant]!r}")
        return problems

    def record(self, result: dict) -> dict:
        out: dict = {"accuracy": {r.variant: r.accuracy for r in result[SWEEP_METRICS[0]]}}
        for metric in SWEEP_METRICS:
            first = result[metric][0]
            out[metric] = {key: getattr(first, key) for key in ("d_xa", "d_xy", "d_ay", "sam")}
        return out


def _recorded(ctx: Context, index: int) -> dict | None:
    if ctx.reference is None or index >= len(ctx.reference):
        return None
    return ctx.reference[index]


WORKLOADS = {
    w.name: w
    for w in (
        AlignWorkload(
            "align",
            "acceptance-setting chordal search: time goes to subspaces factorizations "
            "and randomize; the grid is a cumsum and models is idle",
            metric="chordal", n_null=10,
        ),
        AlignWorkload(
            "align-projection",
            "projection search: one SVD per grid cell makes the grid about 2/3 of the op, "
            "so factorization gains that cost the grid show here",
            metric="projection", n_null=3,
        ),
        SweepWorkload(
            "sweep",
            "sweep cells at fixed dims: mostly models training over all five variants, "
            "plus one eigh, one SVD and three principal_angles per cell",
        ),
    )
}


def load_reference(workload_name: str) -> list:
    """Recorded seed-0 outputs of the workload, one entry per op index."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload_name, [])
