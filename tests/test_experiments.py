import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from graphalign import (
    METRICS,
    VARIANTS,
    ConstructiveSpec,
    GcnConfig,
    SweepRow,
    SweepSpec,
    alignment_at,
    build_split,
    correlate,
    derive_seed,
    feature_basis,
    feature_permutation,
    generate_constructive,
    graph_basis,
    normalized_adjacency,
    optimize_dimensions,
    pearson,
    randomize_features,
    randomize_graph,
    read_rows,
    run_sweep_multi,
    write_rows,
)
from graphalign import experiments, models, subspaces
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
    rows = run_sweep_multi(spec, dims)["chordal"]
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
    rows = run_sweep_multi(quick_spec(sweep_dataset), dims)["chordal"]
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
    assert run_sweep_multi(spec, dims) == run_sweep_multi(spec, dims)


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


def test_variants_keep_the_order_the_seed_rule_reads():
    """A training's seed stream is its variant's index here, so a reorder
    would move the seeds, and rows, of every sweep."""
    assert VARIANTS == ("gcn", "no_graph", "no_features", "complete_graph", "sgc")


def test_variant_rows_do_not_depend_on_the_other_variants_listed(sweep_dataset):
    """The gcn rows of a sweep are the same whether gcn runs alone or after
    sgc: each training's seed follows its variant, not its list position."""
    dims = alignment_at(sweep_dataset, 5, 4)
    alone = run_sweep_multi(quick_spec(sweep_dataset, variants=("gcn",)), dims)["chordal"]
    after = run_sweep_multi(quick_spec(sweep_dataset, variants=("sgc", "gcn")), dims)["chordal"]
    assert [r for r in after if r.variant == "gcn"] == alone
    for row in after:
        stream = 2 + VARIANTS.index(row.variant)
        assert row.seed == derive_seed(0, row.percent, row.realization, stream)


def test_sweep_label_dimension_comes_from_the_labels(sweep_dataset):
    """`dims` sets k_x and k_a only: a k_star_y off the labels' dimension
    changes no row."""
    dims = alignment_at(sweep_dataset, 5, 4)
    spec = quick_spec(sweep_dataset, realizations=1)
    want = run_sweep_multi(spec, dims, metrics=("chordal", "projection"))
    got = run_sweep_multi(spec, replace(dims, k_star_y=2), metrics=("chordal", "projection"))
    assert got == want
    assert all(row.ky == 3 for rows in got.values() for row in rows)


@pytest.mark.parametrize("axis", ["graph", "features", "both"])
def test_cell_alignment_equals_alignment_at_on_its_realization(sweep_dataset, axis):
    """Every cell indexes the sweep's one feature basis with its row
    permutation; every row's SAM and distances equal a fresh evaluation
    of its dataset, bit for bit."""
    dims = alignment_at(sweep_dataset, 5, 4)
    spec = quick_spec(sweep_dataset, axis=axis, realizations=1, variants=("sgc",))
    by_metric = run_sweep_multi(spec, dims, metrics=METRICS)
    for metric in METRICS:
        assert [r.percent for r in by_metric[metric]] == [0, 50, 100]
        for row in by_metric[metric]:
            ds, _ = _randomized_dataset(sweep_dataset, axis, row.percent, 0, row.realization)
            fresh = alignment_at(ds, 5, 4, metric)
            d = fresh.distances
            assert (row.sam, row.d_xa, row.d_xy, row.d_ay) == (fresh.sam, d.d_xa, d.d_xy, d.d_ay)


def test_sweep_factors_features_and_labels_once(sweep_dataset, monkeypatch):
    dims = alignment_at(sweep_dataset, 5, 4)
    calls = []
    factor = subspaces.left_singular_factor
    monkeypatch.setattr(subspaces, "left_singular_factor",
                        lambda matrix: calls.append(matrix.shape) or factor(matrix))
    spec = quick_spec(sweep_dataset, axis="features", variants=("sgc",))
    rows = run_sweep_multi(spec, dims, metrics=("chordal",))
    assert len(rows["chordal"]) == 3 * 2
    assert calls == [(60, 12), (60, 3)]  # features, then labels; no cell factors


def test_sweep_workers_match_serial(sweep_dataset):
    dims = alignment_at(sweep_dataset, 5, 4)
    spec = quick_spec(sweep_dataset, realizations=1)
    serial = run_sweep_multi(spec, dims, workers=1)
    parallel = run_sweep_multi(spec, dims, workers=2)
    assert serial == parallel


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_rejects_nonpositive_workers(sweep_dataset, workers):
    with pytest.raises(ValueError, match="worker"):
        run_sweep_multi(quick_spec(sweep_dataset), alignment_at(sweep_dataset, 5, 4),
                        workers=workers)


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
    # A repeated percent or variant wrote a row per repeat, each carrying
    # the cell's last training.
    with pytest.raises(ValueError, match="percents lists 0 twice"):
        quick_spec(sweep_dataset, percents=(0, 0, 50))
    with pytest.raises(ValueError, match="variants lists 'gcn' twice"):
        quick_spec(sweep_dataset, variants=("gcn", "sgc", "gcn"))
    # Every training's seed derives from base_seed, so a config seed wrote
    # the same rows as the default.
    with pytest.raises(ValueError, match="config.seed would be ignored: base_seed"):
        quick_spec(sweep_dataset, config=GcnConfig(max_epochs=15, seed=5))
    with pytest.raises(ValueError, match="metrics"):
        run_sweep_multi(quick_spec(sweep_dataset), alignment_at(sweep_dataset, 5, 4),
                        metrics=("euclidean",))


def test_sweep_spec_refuses_non_integer_counts(sweep_dataset):
    """A float percent would die in the first cell's seed and could not be
    read back from the CSV; numpy integers are integers."""
    with pytest.raises(ValueError, match="percents"):
        quick_spec(sweep_dataset, percents=(50.0,))
    with pytest.raises(ValueError, match="percents"):
        quick_spec(sweep_dataset, percents=(0, "50"))
    with pytest.raises(ValueError, match="realizations"):
        quick_spec(sweep_dataset, realizations=2.0)
    spec = quick_spec(sweep_dataset, percents=tuple(np.array([0, 50])), realizations=np.int64(2))
    assert spec.percents == (0, 50) and spec.realizations == 2


# Every binding of the factorizations and the training, counted below.
_WORK = [(subspaces, "left_singular_factor"), (subspaces, "graph_spectrum"),
         (subspaces, "graph_basis"), (experiments, "graph_basis"), (models, "train"),
         (experiments, "train")]


def _bad(name, identifier, call):
    return pytest.param(call, name, id=identifier)


@pytest.mark.parametrize("call, name", [
    _bad("n_null", "optimize_dimensions(n_null=2.0)",
         lambda ds, dims: optimize_dimensions(ds, n_null=2.0)),
    _bad("n_null", "optimize_dimensions(n_null=True)",
         lambda ds, dims: optimize_dimensions(ds, n_null=True)),
    _bad("grid_points", "optimize_dimensions(grid_points=4.0)",
         lambda ds, dims: optimize_dimensions(ds, grid_points=4.0)),
    _bad("rounds", "optimize_dimensions(rounds=1.0)",
         lambda ds, dims: optimize_dimensions(ds, rounds=1.0)),
    _bad("seed", "optimize_dimensions(seed=0.5)",
         lambda ds, dims: optimize_dimensions(ds, seed=0.5)),
    _bad("seed", "optimize_dimensions(seed=-1)",
         lambda ds, dims: optimize_dimensions(ds, seed=-1)),
    _bad("metric", "alignment_at(metric='bogus')",
         lambda ds, dims: alignment_at(ds, 5, 4, metric="bogus")),
    _bad("kx", "alignment_at(kx=5.0)", lambda ds, dims: alignment_at(ds, 5.0, 4)),
    _bad("kx", "alignment_at(kx=True)", lambda ds, dims: alignment_at(ds, True, 4)),
    _bad("ka", "alignment_at(ka=4.0)", lambda ds, dims: alignment_at(ds, 5, 4.0)),
    _bad("ka", "alignment_at(ka=n)", lambda ds, dims: alignment_at(ds, 5, ds.n_nodes)),
    _bad("k", "feature_basis(k=2.5)", lambda ds, dims: feature_basis(ds.features, 2.5)),
    _bad("k", "graph_basis(k=2.5)",
         lambda ds, dims: graph_basis(normalized_adjacency(ds.adjacency), 2.5)),
    _bad("the number of metrics", "run_sweep_multi(metrics=())",
         lambda ds, dims: run_sweep_multi(quick_spec(ds), dims, metrics=())),
    _bad("workers", "run_sweep_multi(workers=1.5)",
         lambda ds, dims: run_sweep_multi(quick_spec(ds), dims, workers=1.5)),
    _bad("workers", "run_sweep_multi(workers=True)",
         lambda ds, dims: run_sweep_multi(quick_spec(ds), dims, workers=True)),
    _bad("base_seed", "SweepSpec(base_seed=0.5)",
         lambda ds, dims: run_sweep_multi(quick_spec(ds, base_seed=0.5), dims)),
    _bad("hidden_units", "GcnConfig(hidden_units=True)",
         lambda ds, dims: run_sweep_multi(
             quick_spec(ds, config=GcnConfig(max_epochs=15, hidden_units=True)), dims)),
    _bad("seed", "build_split(seed=0.5)", lambda ds, dims: build_split(ds.labels, seed=0.5)),
    _bad("seed", "randomize_graph(seed=0.5)",
         lambda ds, dims: randomize_graph(ds.adjacency, 50, 0.5)),
    _bad("seed", "feature_permutation(seed=0.5)",
         lambda ds, dims: feature_permutation(ds.n_nodes, 50, 0.5)),
    _bad("seed", "randomize_features(seed=0.5)",
         lambda ds, dims: randomize_features(ds.features, 50, 0.5)),
    _bad("base_seed", "derive_seed(base_seed=0.5)", lambda ds, dims: derive_seed(0.5, 1)),
    _bad("parts", "derive_seed(parts=1.5)", lambda ds, dims: derive_seed(0, 1.5)),
])
def test_bad_arguments_are_refused_before_any_work(sweep_dataset, monkeypatch, call, name):
    """A non-integer, bool or out-of-range count or seed, or an unknown
    name, is refused with a ValueError naming its parameter before any
    factorization or training runs. Unchecked, each one raises a TypeError
    from inside the computation, fails only after that work, or is accepted."""
    dims = alignment_at(sweep_dataset, 5, 4)
    calls = []
    for module, attr in _WORK:
        work = getattr(module, attr)
        monkeypatch.setattr(module, attr,
                            lambda *a, _work=work, **k: calls.append(_work) or _work(*a, **k))
    with pytest.raises(ValueError, match=rf"^(unknown )?{re.escape(name)}\b"):
        call(sweep_dataset, dims)
    assert calls == []


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


def test_correlate_keeps_other_groups_when_one_is_flat():
    rows = [synth_row(variant="flat", percent=p, accuracy=0.5, sam_value=1.0 + p)
            for p in (0, 50, 100)]
    rows += [synth_row(variant="line", percent=p, accuracy=1.0 - p / 100, sam_value=1.0 + p)
             for p in (0, 50, 100)]
    flat, line = correlate(rows, aggregation="point")
    assert (flat.variant, flat.n_points) == ("flat", 3)
    assert math.isnan(flat.r)
    assert "variance" in flat.reason
    assert (line.variant, line.n_points, line.reason) == ("line", 3, "")
    assert line.r == pytest.approx(-1.0, abs=1e-12)
    single = correlate([synth_row(accuracy=0.9)], aggregation="point")[0]
    assert math.isnan(single.r) and single.n_points == 1 and "two points" in single.reason


def mixed_experiment_rows():
    """A graph-axis sweep (r = -1) and a features-axis sweep (r = +0.5) of
    one dataset and variant; pooled, they would give one r (-0.87) that
    belongs to neither."""
    graph = [replace(synth_row(percent=p, accuracy=a, sam_value=s), axis="graph")
             for p, a, s in ((0, 0.9, 1.0), (50, 0.6, 2.0), (100, 0.3, 3.0))]
    features = [replace(synth_row(percent=p, accuracy=a, sam_value=s), axis="features")
                for p, a, s in ((0, 0.9, 1.5), (50, 0.8, 0.5), (100, 0.7, 1.0))]
    return graph, features


def test_correlate_refuses_to_pool_experiments():
    graph, features = mixed_experiment_rows()
    assert correlate(graph)[0].r == pytest.approx(-1.0, abs=1e-12)
    assert correlate(features)[0].r == pytest.approx(0.5, abs=1e-12)
    pooled = correlate(graph + features)[0]
    assert math.isnan(pooled.r) and pooled.n_points == 3
    assert pooled.reason == "rows mix axis values; correlate one experiment at a time"
    dims = [replace(row, kx=5 + i, ky=3 + i) for i, row in enumerate(graph)]
    assert "rows mix kx, ky values" in correlate(dims, aggregation="point")[0].reason
    other = [replace(row, variant="other") for row in graph]
    assert correlate(graph + features + other)[1].r == pytest.approx(-1.0, abs=1e-12)


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


def test_csv_round_trip_of_numpy_scalars(tmp_path):
    """csv writes each value with str, so numpy scalars read back as the
    Python numbers they equal."""
    row = SweepRow("d", "both", np.int64(50), np.int64(1), "gcn", np.float64(0.5),
                   np.float64(math.pi), np.float64(0.1), 0.2, 0.3, np.int64(5), 4, 3,
                   np.int64(2**62))
    path = tmp_path / "sweep.csv"
    write_rows(path, [row])
    assert path.read_text().splitlines()[1] == (
        "d,both,50,1,gcn,0.5,3.141592653589793,0.1,0.2,0.3,5,4,3,4611686018427387904"
    )
    assert read_rows(path) == [row]


def test_csv_header_is_the_documented_schema():
    """The header is derived from SweepRow's fields; renaming or reordering
    a field must not change the fixed schema unnoticed."""
    assert CSV_HEADER == (
        "dataset,axis,percent,realization,variant,accuracy,sam,d_xa,d_xy,d_ay,kx,ka,ky,seed"
    )


def test_read_rows_rejects_wrong_shape(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_rows(bad_header)

    truncated = tmp_path / "truncated.csv"
    truncated.write_text(CSV_HEADER + "\nd,both,0,0,gcn,0.5\n")
    with pytest.raises(ValueError, match="14"):
        read_rows(truncated)
