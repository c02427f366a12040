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
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .datasets import Dataset, _choice, _integer, one_hot, row_normalize_features
from .models import VARIANTS, GcnConfig, TrainingDiverged, build_split, train
from .randomize import derive_seed, feature_permutation, randomize_graph
from .subspaces import (
    METRICS,
    AlignmentResult,
    OrthonormalBasis,
    _alignment,
    feature_basis,
    graph_basis,
    groundtruth_basis,
    normalized_adjacency,
)

__all__ = [
    "AXES",
    "SweepSpec",
    "SweepRow",
    "run_sweep_multi",
    "correlate",
    "write_rows",
    "read_rows",
]

AXES = ("graph", "features", "both")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: dataset, degradation axis, grid and model variants. A
    `config.seed` off its default is refused: the seed rule of
    :func:`run_sweep_multi` seeds every training from `base_seed`."""

    dataset: Dataset
    name: str
    axis: str = "both"
    percents: tuple[int, ...] = tuple(range(0, 101, 10))
    realizations: int = 100
    variants: tuple[str, ...] = ("gcn",)
    base_seed: int = 0
    config: GcnConfig = field(default_factory=GcnConfig)

    def __post_init__(self) -> None:
        _choice("axis", self.axis, AXES)
        for percent in self.percents:
            _integer("percents", percent, low=0, high=100)
        _integer("realizations", self.realizations, low=1)
        for variant in self.variants:
            _choice("variants", variant, VARIANTS)
        _integer("base_seed", self.base_seed, low=0)
        for name in ("percents", "variants"):
            _integer(f"the number of {name}", len(getattr(self, name)), low=1)
            if (repeated := _first_repeat(getattr(self, name))) is not None:
                raise ValueError(f"{name} lists {repeated!r} twice")
        if self.config.seed != GcnConfig.seed:
            raise ValueError("config.seed would be ignored: base_seed seeds every training")


def _first_repeat(values: tuple):
    """The first value that `values` lists a second time, or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


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


# The CSV columns are SweepRow's fields in order, each with the parser its
# annotation names. csv writes a value with str, which for a float is repr.
_PARSERS = {"str": str, "int": int, "float": float}
_COLUMNS = tuple((f.name, _PARSERS[f.type]) for f in fields(SweepRow))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)
# Columns that one experiment holds fixed, so one correlation never pools two.
_EXPERIMENT_COLUMNS = ("axis", "kx", "ka", "ky")


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson r between accuracy and alignment for one (dataset, variant);
    r is NaN and `reason` says why when the group cannot define it."""

    dataset: str
    variant: str
    r: float
    n_points: int
    aggregation: str
    reason: str = ""


def _randomized_dataset(dataset: Dataset, axis: str, percent: int,
                        base_seed: int, realization: int) -> tuple[Dataset, np.ndarray]:
    """A sweep cell's dataset and its feature row permutation (maybe the identity)."""
    adjacency, rows = dataset.adjacency, np.arange(dataset.n_nodes)
    if axis in ("graph", "both"):
        adjacency = randomize_graph(
            adjacency, percent, derive_seed(base_seed, percent, realization, 0)
        )
    if axis in ("features", "both"):
        rows = feature_permutation(
            len(rows), percent, derive_seed(base_seed, percent, realization, 1)
        )
    return replace(dataset, adjacency=adjacency, features=dataset.features[rows]), rows


def _cell_rows(args) -> dict[str, list[SweepRow]]:
    """All rows for one (percent, realization) cell, keyed by metric.

    The randomization, the three bases and one training per variant are
    shared across metrics; each metric's distances, SAM and dimensions
    come from one `_alignment` of the bases. Factors and seeds are as
    :func:`run_sweep_multi` states. Module-level so worker processes can
    unpickle it.
    """
    spec, dims, metrics, split, basis_x, basis_y, percent, realization = args
    ds, rows = _randomized_dataset(spec.dataset, spec.axis, percent, spec.base_seed, realization)

    basis_x = OrthonormalBasis(basis_x.matrix[rows])
    basis_a = graph_basis(normalized_adjacency(ds.adjacency), dims.k_star_a)

    accuracies: dict[str, tuple[float, int]] = {}
    for variant in spec.variants:
        train_seed = derive_seed(spec.base_seed, percent, realization, 2 + VARIANTS.index(variant))
        try:
            report = train(ds, variant, replace(spec.config, seed=train_seed), split=split)
            accuracy = float("nan") if report.test_accuracy is None else report.test_accuracy
        except TrainingDiverged:
            accuracy = float("nan")
        accuracies[variant] = (accuracy, train_seed)

    out: dict[str, list[SweepRow]] = {}
    for metric in metrics:
        result = _alignment(basis_x, basis_a, basis_y, metric)
        d = result.distances
        out[metric] = [
            SweepRow(dataset=spec.name, axis=spec.axis, percent=percent, realization=realization,
                     variant=variant, accuracy=accuracies[variant][0], sam=result.sam,
                     d_xa=d.d_xa, d_xy=d.d_xy, d_ay=d.d_ay, kx=result.k_star_x,
                     ka=result.k_star_a, ky=result.k_star_y, seed=accuracies[variant][1])
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

    k_x and k_a come from `dims` (as :func:`optimize_dimensions` picks them on
    the unrandomized dataset), k_y from the labels. Cells are independent,
    so with ``workers > 1`` they run in a process pool; rows are merged in
    (percent, realization, variant) order either way. A training that
    diverges is recorded with NaN accuracy.

    Seed rule: cell (p, r) rewires with derive_seed(base_seed, p, r, 0),
    permutes feature rows with derive_seed(base_seed, p, r, 1), and trains
    variant v with derive_seed(base_seed, p, r, 2 + VARIANTS.index(v)) on
    build_split(labels, seed=base_seed). So a row does not depend on the
    other variants or on `workers`, and CLI ``randomize`` rebuilds its data.

    Shared factors: the feature and label bases are factored once; a cell
    permutes the feature basis's rows as it permutes its features, which is
    bit for bit its own (:func:`graphalign.subspaces.left_singular_factor`).
    """
    for metric in metrics:
        _choice("metrics", metric, METRICS)
    _integer("the number of metrics", len(metrics), low=1)
    _integer("workers", workers, low=1)
    split = build_split(spec.dataset.labels, seed=spec.base_seed)
    basis_x = feature_basis(row_normalize_features(spec.dataset.features), dims.k_star_x)
    basis_y = groundtruth_basis(one_hot(spec.dataset.labels, spec.dataset.num_classes))
    tasks = [
        (spec, dims, tuple(metrics), split, basis_x, basis_y, percent, realization)
        for percent in spec.percents
        for realization in range(spec.realizations)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_cell_rows, tasks, chunksize=1))
    else:
        cells = [_cell_rows(task) for task in tasks]

    return {metric: [row for cell in cells for row in cell[metric]] for metric in metrics}


def pearson(xs, ys) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Raises ValueError for fewer than two points or a zero-variance input,
    where the coefficient is undefined.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
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
    realizations. Rows are grouped first, and then each group's rows with
    NaN accuracy (diverged trainings) are dropped, so every group gets a
    result. A group that degenerates (fewer than two points left, or zero
    variance), or that pools experiments (rows that differ in axis or
    dimensions), gets r = NaN and the reason, so the other groups keep theirs.
    """
    _choice("aggregation", aggregation, ("percent_mean", "point"))
    groups: dict[tuple[str, str], list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.dataset, row.variant), []).append(row)

    results = []
    for (dataset, variant), group in sorted(groups.items()):
        members = [row for row in group if not math.isnan(row.accuracy)]
        if aggregation == "percent_mean":
            by_percent: dict[int, list[SweepRow]] = {}
            for row in members:
                by_percent.setdefault(row.percent, []).append(row)
            accs = [float(np.mean([r.accuracy for r in by_percent[p]])) for p in sorted(by_percent)]
            sams = [float(np.mean([r.sam for r in by_percent[p]])) for p in sorted(by_percent)]
        else:
            accs = [r.accuracy for r in members]
            sams = [r.sam for r in members]
        mixed = ", ".join(name for name in _EXPERIMENT_COLUMNS
                          if len({getattr(row, name) for row in group}) > 1)
        try:
            if mixed:
                raise ValueError(f"rows mix {mixed} values; correlate one experiment at a time")
            if not members:
                raise ValueError(f"all {len(group)} trainings diverged (NaN accuracy)")
            r, reason = pearson(accs, sams), ""
        except ValueError as exc:
            r, reason = math.nan, str(exc)
        results.append(CorrelationResult(dataset=dataset, variant=variant, r=r, n_points=len(accs),
                                         aggregation=aggregation, reason=reason))
    return results


def write_rows(path_or_file, rows: list[SweepRow]) -> None:
    """Write sweep rows as UTF-8 CSV with the fixed header, to a path or
    to an already-open text stream."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
            return write_rows(fh, rows)
    writer = csv.writer(path_or_file)
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(astuple(row) for row in rows)


def read_rows(path) -> list[SweepRow]:
    """Read sweep rows back, skipping empty records. A wrong header, a
    record of the wrong length or a value its column cannot parse raises
    ValueError, prefixed `<path>:<line>:`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER.split(","):
            raise ValueError(f"{path}:1: unexpected CSV header: {header}")
        rows = []
        for record in filter(None, reader):
            where = f"{path}:{reader.line_num}"
            if len(record) != len(_COLUMNS):
                raise ValueError(f"{where}: expected {len(_COLUMNS)} fields, got {len(record)}")
            values = []
            for (name, parse), value in zip(_COLUMNS, record):
                try:
                    values.append(parse(value))
                except ValueError:
                    raise ValueError(f"{where}: {name} is not {parse.__name__}: {value!r}") from None
            rows.append(SweepRow(*values))
    return rows
