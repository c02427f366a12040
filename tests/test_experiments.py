import io
import math

import numpy as np
import pytest

from graphalign import (
    METRICS,
    ConstructiveSpec,
    GcnConfig,
    SweepRow,
    SweepSpec,
    alignment_at,
    correlate,
    generate_constructive,
    pearson,
    read_rows,
    run_sweep,
    run_sweep_multi,
    write_rows,
)
from graphalign.experiments import CSV_HEADER, _randomized_dataset


@pytest.fixture(scope="module")
def sweep_dataset():
    spec = ConstructiveSpec(n_nodes=60, n_communities=3, n_features=12,
                            features_per_community=4, p_in=0.3, p_out=0.05, seed=1)
    return generate_constructive(spec)


def quick_spec(ds, **overrides):
    defaults = dict(
        dataset=ds,
        name="toy",
        axis="both",
        percents=(0, 50, 100),
        realizations=2,
        variants=("gcn",),
        base_seed=0,
        config=GcnConfig(max_epochs=15),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def synth_row(dataset="d", variant="m", percent=0, realization=0,
              accuracy=1.0, sam_value=1.0):
    return SweepRow(dataset, "both", percent, realization, variant,
                    accuracy, sam_value, 0.1, 0.2, 0.3, 5, 4, 3, 42)


def test_sweep_row_cardinality_and_fields(sweep_dataset):
    dims = alignment_at(sweep_dataset, 5, 4)
    spec = quick_spec(sweep_dataset, variants=("gcn", "sgc"))
    rows = run_sweep(spec, dims)
    assert len(rows) == 3 * 2 * 2
    assert sorted({r.percent for r in rows}) == [0, 50, 100]
    assert sorted({r.realization for r in rows}) == [0, 1]
    assert {r.variant for r in rows} == {"gcn", "sgc"}
    assert all(r.dataset == "toy" and r.axis == "both" for r in rows)
    assert all((r.kx, r.ka, r.ky) == (5, 4, 3) for r in rows)
    assert all(0.0 <= r.accuracy <= 1.0 for r in rows)
    assert all(r.sam >= 0.0 for r in rows)


def test_sweep_p0_matches_unrandomized_alignment(sweep_dataset):
    """Percent zero leaves the dataset alone, so the sweep's alignment
    numbers must equal a direct evaluation at the same dimensions."""
    dims = alignment_at(sweep_dataset, 5, 4)
    rows = run_sweep(quick_spec(sweep_dataset), dims)
    at_zero = [r for r in rows if r.percent == 0]
    assert at_zero
    for row in at_zero:
        assert abs(row.sam - dims.sam) <= 1e-12
        assert abs(row.d_xa - dims.distances.d_xa) <= 1e-12
        assert abs(row.d_xy - dims.distances.d_xy) <= 1e-12
        assert abs(row.d_ay - dims.distances.d_ay) <= 1e-12


def test_sweep_deterministic(sweep_dataset):
    dims = alignment_at(sweep_dataset, 5, 4)
    spec = quick_spec(sweep_dataset)
    assert run_sweep(spec, dims) == run_sweep(spec, dims)


def test_multi_metric_sweep_shares_trainings(sweep_dataset):
    dims = alignment_at(sweep_dataset, 5, 4)
    spec = quick_spec(sweep_dataset, realizations=1)
    by_metric = run_sweep_multi(spec, dims, metrics=("chordal", "projection"))
    chordal, projection = by_metric["chordal"], by_metric["projection"]
    assert len(chordal) == len(projection) == 3
    for rc, rp in zip(chordal, projection):
        assert (rc.percent, rc.realization, rc.variant) == (rp.percent, rp.realization, rp.variant)
        assert rc.accuracy == rp.accuracy  # one training serves both metrics
        assert rc.seed == rp.seed
        assert rc.sam >= rp.sam  # chordal sums all angles, projection takes one


@pytest.mark.parametrize("axis", ["graph", "both"])
def test_cell_alignment_equals_alignment_at_on_its_realization(sweep_dataset, axis):
    """Cells that keep the features share the sweep's one feature basis;
    every row's SAM and distances equal a fresh evaluation of its dataset."""
    dims = alignment_at(sweep_dataset, 5, 4)
    spec = quick_spec(sweep_dataset, axis=axis, realizations=1, variants=("sgc",))
    by_metric = run_sweep_multi(spec, dims, metrics=METRICS)
    for metric in METRICS:
        assert [r.percent for r in by_metric[metric]] == [0, 50, 100]
        for row in by_metric[metric]:
            ds = _randomized_dataset(sweep_dataset, axis, row.percent, 0, row.realization)
            fresh = alignment_at(ds, 5, 4, metric)
            d = fresh.distances
            assert (row.sam, row.d_xa, row.d_xy, row.d_ay) == (fresh.sam, d.d_xa, d.d_xy, d.d_ay)


def test_sweep_workers_match_serial(sweep_dataset):
    dims = alignment_at(sweep_dataset, 5, 4)
    spec = quick_spec(sweep_dataset, realizations=1)
    serial = run_sweep(spec, dims, workers=1)
    parallel = run_sweep(spec, dims, workers=2)
    assert serial == parallel


def test_sweep_spec_validation(sweep_dataset):
    with pytest.raises(ValueError, match="axis"):
        quick_spec(sweep_dataset, axis="time")
    with pytest.raises(ValueError, match="percent"):
        quick_spec(sweep_dataset, percents=(0, 101))
    with pytest.raises(ValueError, match="percent"):
        quick_spec(sweep_dataset, percents=())
    with pytest.raises(ValueError, match="realization"):
        quick_spec(sweep_dataset, realizations=0)
    with pytest.raises(ValueError, match="variant"):
        quick_spec(sweep_dataset, variants=("gcn", "gat"))
    with pytest.raises(ValueError, match="metrics"):
        run_sweep(quick_spec(sweep_dataset), alignment_at(sweep_dataset, 5, 4),
                  metric="euclidean")


def test_pearson_exact_lines():
    x = [0.0, 1.0, 2.0, 3.0]
    assert abs(pearson(x, [2 * v + 1 for v in x]) - 1.0) <= 1e-12
    assert abs(pearson(x, [-v for v in x]) + 1.0) <= 1e-12


def test_pearson_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        assert abs(pearson(x, y) - np.corrcoef(x, y)[0, 1]) <= 1e-12


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson(np.ones((2, 2)), np.ones((2, 2)))


def test_correlate_percent_mean_vs_point():
    rows = []
    for percent, acc, sam_value in ((0, 0.9, 1.0), (50, 0.6, 2.0), (100, 0.3, 3.0)):
        for realization in range(2):
            jitter = 0.01 * realization
            rows.append(synth_row(percent=percent, realization=realization,
                                  accuracy=acc + jitter, sam_value=sam_value + jitter))
    mean_results = correlate(rows, aggregation="percent_mean")
    assert len(mean_results) == 1
    result = mean_results[0]
    assert (result.dataset, result.variant) == ("d", "m")
    assert result.n_points == 3
    assert abs(result.r + 1.0) <= 1e-9  # means fall on a perfectly decreasing line

    point_results = correlate(rows, aggregation="point")
    assert point_results[0].n_points == 6
    with pytest.raises(ValueError, match="aggregation"):
        correlate(rows, aggregation="median")


def test_correlate_drops_nan_and_groups():
    rows = [
        synth_row(dataset="a", percent=0, accuracy=0.9, sam_value=1.0),
        synth_row(dataset="a", percent=50, accuracy=0.5, sam_value=2.0),
        synth_row(dataset="a", percent=100, accuracy=0.1, sam_value=3.0),
        synth_row(dataset="a", percent=100, realization=1, accuracy=float("nan"),
                  sam_value=3.0),
        synth_row(dataset="b", percent=0, accuracy=0.8, sam_value=1.5),
        synth_row(dataset="b", percent=100, accuracy=0.2, sam_value=2.5),
    ]
    results = correlate(rows, aggregation="point")
    assert [(r.dataset, r.variant) for r in results] == [("a", "m"), ("b", "m")]
    assert results[0].n_points == 3  # the NaN row is excluded
    assert results[1].n_points == 2


def test_csv_round_trip(tmp_path):
    rows = [synth_row(percent=p, realization=i, accuracy=0.1 * p / 100 + i,
                      sam_value=math.pi * (i + 1))
            for p in (0, 50) for i in range(2)]
    path = tmp_path / "sweep.csv"
    write_rows(path, rows)
    assert path.read_text().splitlines()[0] == CSV_HEADER
    assert read_rows(path) == rows

    buffer = io.StringIO()
    write_rows(buffer, rows)
    assert buffer.getvalue().splitlines()[0] == CSV_HEADER


def test_read_rows_rejects_wrong_shape(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_rows(bad_header)

    truncated = tmp_path / "truncated.csv"
    truncated.write_text(CSV_HEADER + "\nd,both,0,0,gcn,0.5\n")
    with pytest.raises(ValueError, match="14"):
        read_rows(truncated)
