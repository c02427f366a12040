"""Randomization sweeps linking classification accuracy to alignment.

A sweep walks a percent grid along one degradation axis (graph edges,
feature rows, or both), draws several randomized realizations per grid
point, and for each one records the alignment measure at fixed subspace
dimensions together with the test accuracy of freshly trained model
variants. Rows are written to CSV; the correlation step groups them by
dataset and variant and reports the Pearson coefficient between
per-percent mean accuracy and mean alignment.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import Dataset, one_hot, row_normalize_features
from .models import VARIANTS, GcnConfig, TrainingDiverged, build_split, train
from .randomize import derive_seed, randomize_features, randomize_graph
from .subspaces import (
    METRICS,
    AlignmentResult,
    DistanceMatrix3,
    feature_basis,
    graph_basis,
    groundtruth_basis,
    normalized_adjacency,
    principal_angles,
    sam,
)

__all__ = [
    "AXES",
    "CSV_HEADER",
    "SweepSpec",
    "SweepRow",
    "CorrelationResult",
    "run_sweep",
    "run_sweep_multi",
    "pearson",
    "correlate",
    "write_rows",
    "read_rows",
]

AXES = ("graph", "features", "both")

CSV_HEADER = "dataset,axis,percent,realization,variant,accuracy,sam,d_xa,d_xy,d_ay,kx,ka,ky,seed"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: dataset, degradation axis, grid and model variants."""

    dataset: Dataset
    name: str
    axis: str = "both"
    percents: tuple[int, ...] = tuple(range(0, 101, 10))
    realizations: int = 100
    variants: tuple[str, ...] = ("gcn",)
    base_seed: int = 0
    config: GcnConfig = field(default_factory=GcnConfig)

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"unknown axis: {self.axis!r} (expected one of {AXES})")
        if not self.percents or any(not 0 <= p <= 100 for p in self.percents):
            raise ValueError("percent grid must be nonempty and lie within [0, 100]")
        if self.realizations < 1:
            raise ValueError("need at least one realization per grid point")
        unknown = set(self.variants) - set(VARIANTS)
        if not self.variants or unknown:
            raise ValueError(f"unknown variants: {sorted(unknown)}")


@dataclass(frozen=True)
class SweepRow:
    """One trained variant on one randomized realization."""

    dataset: str
    axis: str
    percent: int
    realization: int
    variant: str
    accuracy: float
    sam: float
    d_xa: float
    d_xy: float
    d_ay: float
    kx: int
    ka: int
    ky: int
    seed: int


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson r between accuracy and alignment for one (dataset, variant)."""

    dataset: str
    variant: str
    r: float
    n_points: int
    aggregation: str


def _randomized_dataset(dataset: Dataset, axis: str, percent: int,
                        base_seed: int, realization: int) -> Dataset:
    adjacency = dataset.adjacency
    features = dataset.features
    if axis in ("graph", "both"):
        adjacency = randomize_graph(
            adjacency, percent, derive_seed(base_seed, percent, realization, 0)
        )
    if axis in ("features", "both"):
        features = randomize_features(
            features, percent, derive_seed(base_seed, percent, realization, 1)
        )
    return replace(dataset, adjacency=adjacency, features=features)


def _keeps_features(axis: str, percent: int) -> bool:
    """Whether the cells at this axis and percent see the original features."""
    return axis == "graph" or percent == 0


def _cell_rows(args) -> dict[str, list[SweepRow]]:
    """All rows for one (percent, realization) cell, keyed by metric.

    The randomization, the principal angles and one training per variant
    are shared across metrics; only the angle-to-distance reduction
    differs. `basis_x` is the sweep's feature basis of the original
    features, used as it is when the cell keeps them. Module-level so
    worker processes can unpickle it.
    """
    spec, dims, metrics, split, basis_x, percent, realization = args
    ds = _randomized_dataset(spec.dataset, spec.axis, percent, spec.base_seed, realization)

    if not _keeps_features(spec.axis, percent):
        basis_x = feature_basis(row_normalize_features(ds.features), dims.k_star_x)
    basis_a = graph_basis(normalized_adjacency(ds.adjacency), dims.k_star_a)
    basis_y = groundtruth_basis(one_hot(ds.labels, ds.num_classes), dims.k_star_y)
    th_xa = principal_angles(basis_x, basis_a)
    th_xy = principal_angles(basis_x, basis_y)
    th_ay = principal_angles(basis_a, basis_y)

    accuracies: dict[str, tuple[float, int]] = {}
    for index, variant in enumerate(spec.variants):
        train_seed = derive_seed(spec.base_seed, percent, realization, 2 + index)
        config = replace(spec.config, seed=train_seed)
        try:
            report = train(ds, variant, config, split=split)
            accuracy = float("nan") if report.test_accuracy is None else report.test_accuracy
        except TrainingDiverged:
            accuracy = float("nan")
        accuracies[variant] = (accuracy, train_seed)

    out: dict[str, list[SweepRow]] = {}
    for metric in metrics:
        distances = DistanceMatrix3.from_angles(th_xa, th_xy, th_ay, metric)
        sam_value = sam(distances)
        out[metric] = [
            SweepRow(
                dataset=spec.name,
                axis=spec.axis,
                percent=percent,
                realization=realization,
                variant=variant,
                accuracy=accuracies[variant][0],
                sam=sam_value,
                d_xa=distances.d_xa,
                d_xy=distances.d_xy,
                d_ay=distances.d_ay,
                kx=dims.k_star_x,
                ka=dims.k_star_a,
                ky=dims.k_star_y,
                seed=accuracies[variant][1],
            )
            for variant in spec.variants
        ]
    return out


def run_sweep_multi(
    spec: SweepSpec,
    dims: AlignmentResult,
    metrics: tuple[str, ...] = METRICS,
    workers: int = 1,
) -> dict[str, list[SweepRow]]:
    """Sweep once, reporting rows under several distance metrics.

    Dimensions come from :func:`graphalign.subspaces.optimize_dimensions`
    on the unrandomized dataset and are held fixed across the sweep.
    Realizations are independent, so with ``workers > 1`` cells run in a
    process pool; results are merged back in (percent, realization,
    variant) order either way, making the output deterministic per base
    seed. A training that diverges is recorded with NaN accuracy.
    """
    unknown = set(metrics) - set(METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    split = build_split(spec.dataset.labels, seed=spec.base_seed)
    # One decomposition of the original features serves every cell that
    # keeps them. A cell with permuted feature rows P decomposes its own:
    # P U(X) spans U(P X) only to rounding, while a row's SAM equals, bit
    # for bit, alignment_at on the CLI's copy of its realization.
    basis_x = None
    if any(_keeps_features(spec.axis, percent) for percent in spec.percents):
        basis_x = feature_basis(row_normalize_features(spec.dataset.features), dims.k_star_x)
    tasks = [
        (spec, dims, tuple(metrics), split, basis_x, percent, realization)
        for percent in spec.percents
        for realization in range(spec.realizations)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_cell_rows, tasks, chunksize=1))
    else:
        cells = [_cell_rows(task) for task in tasks]

    rows: dict[str, list[SweepRow]] = {metric: [] for metric in metrics}
    for cell in cells:
        for metric in metrics:
            rows[metric].extend(cell[metric])
    return rows


def run_sweep(
    spec: SweepSpec,
    dims: AlignmentResult,
    metric: str = "chordal",
    workers: int = 1,
) -> list[SweepRow]:
    """Sweep under a single distance metric (see :func:`run_sweep_multi`)."""
    return run_sweep_multi(spec, dims, metrics=(metric,), workers=workers)[metric]


def pearson(xs, ys) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Raises ValueError for fewer than two points or a zero-variance input,
    where the coefficient is undefined.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be one-dimensional and of equal length")
    if x.size < 2:
        raise ValueError("need at least two points")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(np.sum(xc * xc))
    vy = float(np.sum(yc * yc))
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance in at least one input")
    r = float(np.sum(xc * yc)) / math.sqrt(vx * vy)
    return float(np.clip(r, -1.0, 1.0))


def correlate(rows: list[SweepRow], aggregation: str = "percent_mean") -> list[CorrelationResult]:
    """Accuracy/alignment correlation per (dataset, variant) group.

    ``percent_mean`` correlates the per-percent means of accuracy and
    alignment (one point per grid percent); ``point`` correlates the raw
    realizations. Rows with NaN accuracy (diverged trainings) are dropped
    first. Raises ValueError when a group degenerates (fewer than two
    points or zero variance).
    """
    if aggregation not in ("percent_mean", "point"):
        raise ValueError(f"unknown aggregation: {aggregation!r}")
    groups: dict[tuple[str, str], list[SweepRow]] = {}
    for row in rows:
        if math.isnan(row.accuracy):
            continue
        groups.setdefault((row.dataset, row.variant), []).append(row)

    results = []
    for (dataset, variant), members in sorted(groups.items()):
        if aggregation == "percent_mean":
            by_percent: dict[int, list[SweepRow]] = {}
            for row in members:
                by_percent.setdefault(row.percent, []).append(row)
            accs = [float(np.mean([r.accuracy for r in by_percent[p]])) for p in sorted(by_percent)]
            sams = [float(np.mean([r.sam for r in by_percent[p]])) for p in sorted(by_percent)]
        else:
            accs = [r.accuracy for r in members]
            sams = [r.sam for r in members]
        results.append(
            CorrelationResult(
                dataset=dataset,
                variant=variant,
                r=pearson(accs, sams),
                n_points=len(accs),
                aggregation=aggregation,
            )
        )
    return results


def _write_csv(fh, rows: list[SweepRow]) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(
            [
                row.dataset, row.axis, row.percent, row.realization, row.variant,
                repr(row.accuracy), repr(row.sam), repr(row.d_xa), repr(row.d_xy),
                repr(row.d_ay), row.kx, row.ka, row.ky, row.seed,
            ]
        )


def write_rows(path_or_file, rows: list[SweepRow]) -> None:
    """Write sweep rows as UTF-8 CSV with the fixed header.

    Accepts a filesystem path or an already-open text stream.
    """
    if hasattr(path_or_file, "write"):
        _write_csv(path_or_file, rows)
        return
    with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
        _write_csv(fh, rows)


def read_rows(path) -> list[SweepRow]:
    """Read sweep rows back; raises ValueError on a wrong header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header: {header}")
        rows = []
        for record in reader:
            if len(record) != 14:
                raise ValueError(f"expected 14 fields, got {len(record)}: {record}")
            rows.append(
                SweepRow(
                    dataset=record[0],
                    axis=record[1],
                    percent=int(record[2]),
                    realization=int(record[3]),
                    variant=record[4],
                    accuracy=float(record[5]),
                    sam=float(record[6]),
                    d_xa=float(record[7]),
                    d_xy=float(record[8]),
                    d_ay=float(record[9]),
                    kx=int(record[10]),
                    ka=int(record[11]),
                    ky=int(record[12]),
                    seed=int(record[13]),
                )
            )
    return rows
