from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_dataset
from graphalign import (
    VARIANTS,
    Dataset,
    GcnConfig,
    GcnModel,
    MeanFieldPropagation,
    SplitSpec,
    TrainingDiverged,
    build_split,
    forward,
    gradients,
    loss,
    normalized_adjacency,
    one_hot,
    propagation_operator,
    row_normalize_features,
    train,
)
from graphalign.models import (
    _Adam,
    _dropout,
    _Engine,
    _engine,
    _glorot,
    _model_features,
    _softmax_rows,
    _split_rows,
)


def manual_split(n, train_idx, val_idx):
    train = np.zeros(n, dtype=bool)
    train[list(train_idx)] = True
    val = np.zeros(n, dtype=bool)
    val[list(val_idx)] = True
    return SplitSpec(train, val, ~(train | val))


def separable_dataset():
    """Eight nodes, two classes, indicator features, within-class edges."""
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    edges = [(0, 1), (1, 2), (2, 3), (0, 2), (4, 5), (5, 6), (6, 7), (4, 6)]
    a = np.zeros((8, 8))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return Dataset(
        node_ids=[f"v{i}" for i in range(8)],
        features=one_hot(labels, 2),
        adjacency=sp.csr_matrix(a),
        labels=labels,
        num_classes=2,
    )


def test_forward_identity_closed_form():
    model = GcnModel(np.eye(2), np.eye(2))
    z = forward(model, np.eye(2), np.eye(2))
    e = np.e
    expected = np.array([[e / (e + 1), 1 / (e + 1)], [1 / (e + 1), e / (e + 1)]])
    assert np.allclose(z, expected, atol=1e-12)


def test_forward_zero_weights_uniform(tiny_dataset):
    a_hat = propagation_operator(tiny_dataset, "gcn")
    x = _model_features(tiny_dataset, "gcn")
    model = GcnModel(np.zeros((x.shape[1], 5)), np.zeros((5, 2)))
    z = forward(model, a_hat, x)
    assert np.allclose(z, 0.5, atol=1e-12)


def test_forward_rows_sum_to_one(tiny_dataset):
    rng = np.random.default_rng(4)
    a_hat = propagation_operator(tiny_dataset, "gcn")
    x = _model_features(tiny_dataset, "gcn").toarray()
    model = GcnModel(rng.standard_normal((x.shape[1], 7)), rng.standard_normal((7, 3)))
    z = forward(model, a_hat, x)
    assert np.all(z >= 0) and np.all(z <= 1)
    assert np.allclose(z.sum(axis=1), 1.0, atol=1e-9)


def test_loss_perfect_prediction_is_zero():
    y = one_hot(np.array([0, 1, 1]), 2)
    mask = np.ones(3, dtype=bool)
    assert loss(y.astype(float), y, mask) == 0.0


def test_loss_uniform_prediction_sums_log_f():
    f, n = 10, 4
    z = np.full((n, f), 1.0 / f)
    y = one_hot(np.zeros(n, dtype=int), f)
    mask = np.array([True, True, False, False])
    assert abs(loss(z, y, mask) - 2 * np.log(f)) <= 1e-12


def test_loss_empty_mask_and_l2_term():
    rng = np.random.default_rng(0)
    z = _softmax_rows(rng.standard_normal((5, 3)))
    y = one_hot(rng.integers(0, 3, 5), 3)
    none = np.zeros(5, dtype=bool)
    assert loss(z, y, none) == 0.0
    w0 = rng.standard_normal((4, 6))
    penalty = loss(z, y, none, w0, 0.2)
    assert abs(penalty - 0.1 * np.sum(w0 * w0)) <= 1e-12


def test_gradients_empty_mask_is_l2_only():
    rng = np.random.default_rng(1)
    w0 = rng.standard_normal((3, 4))
    w1 = rng.standard_normal((4, 2))
    x = rng.standard_normal((5, 3))
    y = one_hot(rng.integers(0, 2, 5), 2)
    mask = np.zeros(5, dtype=bool)
    gw0, gw1 = gradients(GcnModel(w0, w1), np.eye(5), x, y, mask, l2_weight=0.7)
    assert np.allclose(gw0, 0.7 * w0, atol=1e-12)
    assert np.allclose(gw1, 0.0, atol=1e-12)


def _fd_instance(seed):
    """One random tiny problem whose activations sit clear of the ReLU kink."""
    rng = np.random.default_rng(seed)
    n, d, h, f = 6, 4, 3, 3
    for _ in range(20):
        x = rng.standard_normal((n, d))
        w0 = 0.7 * rng.standard_normal((d, h))
        w1 = 0.7 * rng.standard_normal((h, f))
        a = (rng.random((n, n)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a_hat = normalized_adjacency(a + a.T).toarray()
        if np.abs(a_hat @ (x @ w0)).min() > 1e-3:
            break
    y = one_hot(rng.integers(0, f, n), f)
    mask = rng.random(n) < 0.5
    mask[0] = True
    return a_hat, x, w0, w1, y, mask


def _fd_operators(a_hat):
    """The instance's normalized adjacency, dense and sparse, and the
    random-walk operator D^-1 (A + I) of the same graph, which is not
    symmetric: the backward pass must take P's transpose, not P."""
    a_tilde = (a_hat != 0).astype(float)
    walk = a_tilde / a_tilde.sum(axis=1, keepdims=True)
    assert not np.array_equal(walk, walk.T)
    return {"normalized": a_hat, "normalized-sparse": sp.csr_matrix(a_hat),
            "walk": walk, "walk-sparse": sp.csr_matrix(walk)}


def test_gradients_match_finite_differences():
    """For the two-layer and the single-layer model (W1 None), and for a
    boolean mask and an index array of rows, which `gradients` reads as
    `loss` does: [0, 2] is rows 0 and 2, not a mask of row 1."""
    step, l2 = 1e-5, 0.3
    for seed in range(5):
        instance, x, w0, w1, y, mask = _fd_instance(seed)
        for name, a_hat in _fd_operators(instance).items():
            for rows, weights in ((mask, [w0, w1]), (np.array([0, 2]), [w0, w1]), (mask, [w0])):
                grads = gradients(GcnModel(*weights), a_hat, x, y, rows, l2)
                assert len(grads) == len(weights)

                def objective(ws):
                    z = forward(GcnModel(*ws), a_hat, x)
                    return loss(z, y, rows, ws[0], l2)

                for which, (w, g) in enumerate(zip(weights, grads)):
                    fd = np.zeros_like(w)
                    for idx in np.ndindex(*w.shape):
                        wp, wm = list(weights), list(weights)
                        wp[which], wm[which] = w.copy(), w.copy()
                        wp[which][idx] += step
                        wm[which][idx] -= step
                        fd[idx] = (objective(wp) - objective(wm)) / (2 * step)
                    rel = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
                    assert rel < 1e-4, (f"seed {seed} {name} rows {rows} {len(weights)} layers, "
                                        f"layer {which}: rel err {rel:.2e}")


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_evaluates_every_trained_model(small_constructive, variant):
    """`forward` on a variant's operator and inputs reproduces the test
    accuracy of the model `train` returns, the single-layer simplified
    model (W1 None) too, whose probabilities are softmax(P^2 X W0)."""
    ds = small_constructive
    split = build_split(ds.labels, seed=0)
    report = train(ds, variant, GcnConfig(max_epochs=30), split)
    a_hat = propagation_operator(ds, variant)
    x = _model_features(ds, variant)
    z = forward(report.model, a_hat, x)
    test = split.test_mask
    assert np.mean(z[test].argmax(axis=1) == ds.labels[test]) == report.test_accuracy
    if variant == "sgc":
        expected = _softmax_rows(a_hat @ (a_hat @ x.toarray()) @ report.model.w0)
        assert np.array_equal(z, expected)


def test_build_split_balanced_quotas():
    labels = np.repeat(np.arange(10), 100)
    split = build_split(labels, seed=0)
    split.validate()
    assert split.train_mask.sum() == 50
    assert split.val_mask.sum() == 100
    assert split.test_mask.sum() == 850
    for c in range(10):
        assert split.train_mask[labels == c].sum() == 5


def test_build_split_trims_quota_from_high_classes():
    labels = np.concatenate([np.zeros(50, int), np.ones(30, int), np.full(20, 2)])
    split = build_split(labels, seed=1)
    per_class = [split.train_mask[labels == c].sum() for c in range(3)]
    assert per_class == [2, 2, 1]  # ceil(5/3)=2 each, one trimmed from the top
    assert split.train_mask.sum() == 5


def test_build_split_errors():
    # 5% of 8 nodes rounds to an empty training set
    with pytest.raises(ValueError, match="training quota of 0"):
        build_split(np.array([0, 1] * 4))
    rare = np.array([0] * 99 + [1])
    with pytest.raises(ValueError, match="quota"):
        build_split(rare)
    # 5% of 12 nodes rounds to one training node, below the class count
    with pytest.raises(ValueError, match="per class"):
        build_split(np.array([0, 1] * 6))


def test_build_split_seeded():
    labels = np.repeat(np.arange(4), 50)
    s1 = build_split(labels, seed=7)
    s2 = build_split(labels, seed=7)
    s3 = build_split(labels, seed=8)
    assert np.array_equal(s1.train_mask, s2.train_mask)
    assert np.array_equal(s1.val_mask, s2.val_mask)
    assert not np.array_equal(s1.train_mask, s3.train_mask) or not np.array_equal(
        s1.val_mask, s3.val_mask
    )


def test_build_split_skips_empty_classes():
    """Labels {0, 2} leave class 1 empty, as a label file may. The quotas
    and draws are those of the labels {0, 1}; counting class 1 raised
    "class 1 has 0 nodes"."""
    labels = np.repeat([0, 2], 50)
    split = build_split(labels, seed=3)
    assert [split.train_mask[labels == c].sum() for c in (0, 1, 2)] == [3, 0, 2]
    compact = build_split(labels // 2, seed=3)
    for mask in ("train_mask", "val_mask", "test_mask"):
        assert np.array_equal(getattr(split, mask), getattr(compact, mask))


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_on_labels_that_skip_a_class(variant):
    """The default split of a dataset whose labels skip class 1 trains,
    with one output per class, the empty one included."""
    base = make_dataset(n=40)
    dataset = replace(base, labels=base.labels * 2, num_classes=3)
    report = train(dataset, variant, GcnConfig(max_epochs=5))
    assert report.epochs_run == 5
    assert (report.model.w0 if variant == "sgc" else report.model.w1).shape[1] == 3
    assert 0.0 <= report.test_accuracy <= 1.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_without_validation_or_test_nodes(variant):
    """No validation nodes: every epoch runs and its validation loss is
    NaN. No test nodes: the test accuracy is None."""
    ds = make_dataset(n=40)
    config = GcnConfig(max_epochs=6, patience=1)
    train_idx = [0, 1, 20, 21]  # two nodes of each class
    no_val = train(ds, variant, config, manual_split(40, train_idx, []))
    assert no_val.epochs_run == 6 and len(no_val.val_losses) == 6
    assert all(np.isnan(no_val.val_losses))
    assert 0.0 <= no_val.test_accuracy <= 1.0
    no_test = train(ds, variant, config, manual_split(40, train_idx, set(range(40)) - set(train_idx)))
    assert no_test.test_accuracy is None
    assert len(no_test.val_losses) == no_test.epochs_run


def test_train_deterministic(tiny_dataset):
    split = manual_split(8, [0, 4], [1, 5])
    config = GcnConfig(max_epochs=25, seed=3)
    r1 = train(tiny_dataset, "gcn", config, split)
    r2 = train(tiny_dataset, "gcn", config, split)
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    assert r1.test_accuracy == r2.test_accuracy
    assert np.array_equal(r1.model.w0, r2.model.w0)
    assert r1.epochs_run == r2.epochs_run <= 25


def test_train_loss_mostly_decreases_without_dropout(small_constructive):
    config = GcnConfig(dropout=0.0, max_epochs=40, seed=1)
    report = train(small_constructive, "gcn", config)
    diffs = np.diff(report.train_losses)
    assert (diffs <= 1e-6).mean() >= 0.8


def test_separable_dataset_reaches_oracle_accuracy():
    """Least squares proves the instance separable; training must match."""
    ds = separable_dataset()
    x = row_normalize_features(ds.features)
    y = one_hot(ds.labels, 2)
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.array_equal((x @ w).argmax(axis=1), ds.labels)

    split = manual_split(8, [0, 4], [1, 5])
    config = GcnConfig(hidden_units=8, learning_rate=0.05, dropout=0.0,
                       l2_weight=0.0, max_epochs=300, patience=300, seed=0)
    report = train(ds, "gcn", config, split)
    assert report.test_accuracy == 1.0
    sgc = train(ds, "sgc", config, split)
    assert sgc.test_accuracy == 1.0


def test_no_graph_variant_is_plain_mlp(tiny_dataset):
    rng = np.random.default_rng(9)
    op = propagation_operator(tiny_dataset, "no_graph")
    x = row_normalize_features(tiny_dataset.features)
    model = GcnModel(rng.standard_normal((x.shape[1], 6)), rng.standard_normal((6, 2)))
    z = forward(model, op, x)
    expected = _softmax_rows(np.maximum(x @ model.w0, 0.0) @ model.w1)
    assert np.allclose(z, expected, atol=1e-12)


def test_mean_field_operator_averages_rows():
    rng = np.random.default_rng(2)
    op = MeanFieldPropagation(5)
    m = rng.random((5, 3))
    out = op @ m
    assert np.allclose(out, m.mean(axis=0)[None, :], atol=1e-12)
    assert np.allclose(op @ sp.csr_matrix(m), out, atol=1e-12)
    assert op.shape == (5, 5)


def test_mean_field_rows_and_transpose_match_dense():
    rng = np.random.default_rng(5)
    n = 7
    dense = np.ones((n, n)) / n
    op = MeanFieldPropagation(n)
    m = rng.random((n, 3))
    for rows in (np.array([1, 4, 5]), rng.random(n) < 0.5, np.arange(n)):
        restricted = op[rows]
        r = len(dense[rows])
        assert restricted.shape == (r, n) and restricted.T.shape == (n, r)
        g = rng.random((r, 3))
        assert np.abs(restricted @ m - dense[rows] @ m).max() <= 1e-14
        assert np.abs(restricted @ sp.csr_matrix(m) - dense[rows] @ m).max() <= 1e-14
        assert np.abs(restricted.T @ g - dense[rows].T @ g).max() <= 1e-14
    assert np.abs(op.T @ m - dense.T @ m).max() <= 1e-14
    with pytest.raises(ValueError, match="rows"):
        op[np.array([0, 1])].T @ m


# The full-N engine that computed every output row, kept as the reference
# of the row-restricted one.

def _reference_forward(w0, w1, a_hat, x, dropout, rng):
    use_dropout = rng is not None and dropout > 0
    x_in = _full_layer_dropout(x, dropout, rng) if use_dropout else x
    s1 = a_hat @ (x_in @ w0)
    h_in = np.maximum(s1, 0.0)
    h_scale = None
    if use_dropout:
        keep = 1.0 - dropout
        h_scale = (rng.random(h_in.shape) < keep) / keep
        h_in = h_in * h_scale
    z = _softmax_rows(a_hat @ (h_in @ w1))
    return z, (x_in, s1, h_in, h_scale)


def _reference_backward(w0, w1, a_hat, cache, z, y, train_mask, l2_weight, ce_scale):
    x_in, s1, h_in, h_scale = cache
    g2 = np.zeros_like(z)
    g2[train_mask] = (z[train_mask] - y[train_mask]) * ce_scale
    gw1 = (a_hat @ h_in).T @ g2
    gh_in = (a_hat @ g2) @ w1.T
    if h_scale is not None:
        gh_in = gh_in * h_scale
    gs1 = gh_in * (s1 > 0)
    gw0 = x_in.T @ (a_hat @ gs1) + l2_weight * w0
    return [np.asarray(gw0), gw1]


def _reference_model(dataset, variant, config, split):
    """Full-N forward(weights, rng) and backward(weights, cache, z, y)."""
    n_train = int(split.train_mask.sum())
    if variant == "sgc":
        a_hat = propagation_operator(dataset, "sgc")
        s = np.asarray(a_hat @ (a_hat @ row_normalize_features(dataset.features)))

        def forward_full(weights, rng):
            return _softmax_rows(s @ weights[0]), None

        def backward_full(weights, cache, z, y):
            g = np.zeros_like(z)
            g[split.train_mask] = (z[split.train_mask] - y[split.train_mask]) / n_train
            return [s.T @ g + config.l2_weight * weights[0]]

        return (s.shape[1], dataset.num_classes), forward_full, backward_full

    a_hat = propagation_operator(dataset, variant)
    x = _model_features(dataset, variant)

    def forward_full(weights, rng):
        return _reference_forward(*weights, a_hat, x, config.dropout, rng)

    def backward_full(weights, cache, z, y):
        return _reference_backward(*weights, a_hat, cache, z, y, split.train_mask,
                                   config.l2_weight, 1.0 / n_train)

    return (x.shape[1], config.hidden_units, dataset.num_classes), forward_full, backward_full


def _reference_fit(dataset, variant, config, split):
    """The full-N early-stopping loop: (epochs run, test accuracy)."""
    widths, forward_full, backward_full = _reference_model(dataset, variant, config, split)
    y = one_hot(dataset.labels, dataset.num_classes)
    n_val = int(split.val_mask.sum())
    rng = np.random.default_rng(config.seed)
    weights = [_glorot(rng, a, b) for a, b in zip(widths, widths[1:])]
    optimizer = _Adam([w.shape for w in weights], lr=config.learning_rate)
    best_val, stale = np.inf, 0
    for epoch in range(1, config.max_epochs + 1):
        z, cache = forward_full(weights, rng)
        assert np.isfinite(loss(z, y, split.train_mask, weights[0], config.l2_weight))
        optimizer.step(weights, backward_full(weights, cache, z, y))
        z_eval, _ = forward_full(weights, None)
        val_loss = loss(z_eval, y, split.val_mask, weights[0], config.l2_weight) / n_val
        if val_loss < best_val:
            best_val, stale = val_loss, 0
        else:
            stale += 1
        if stale >= config.patience:
            break
    z_final, _ = forward_full(weights, None)
    mask = split.test_mask
    return epoch, float(np.mean(z_final[mask].argmax(axis=1) == dataset.labels[mask]))


def _engine_model(dataset, variant, config, rows):
    """Layer widths, forward and backward pass of the engine `train` builds."""
    hidden = None if variant == "sgc" else config.hidden_units
    engine = _engine(propagation_operator(dataset, variant), _model_features(dataset, variant),
                     rows, hidden, config.dropout, config.l2_weight, len(rows["train"]))
    return engine.widths + (dataset.num_classes,), engine.forward, engine.backward


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("variant", VARIANTS)
def test_restricted_passes_match_full_rows(constructive, variant, dropout):
    """Each pass's probabilities are the full pass's rows, and the
    restricted backward matches the full one to rounding.

    The two-layer variants restrict a sparse (or implicit) operator, whose
    rows are computed alone either way: equal bit for bit. The simplified
    variant multiplies dense rows, and BLAS may take another kernel for
    fewer rows (OpenBLAS' small-matrix path), so its rows agree to rounding.
    """
    split = build_split(constructive.labels, seed=0)
    rows = _split_rows(split)
    config = GcnConfig(dropout=dropout)
    widths, forward_fn, backward_fn = _engine_model(constructive, variant, config, rows)
    ref_widths, forward_full, backward_full = _reference_model(constructive, variant, config, split)
    assert widths == ref_widths
    rng = np.random.default_rng(3)
    weights = [_glorot(rng, a, b) for a, b in zip(widths, widths[1:])]
    y = one_hot(constructive.labels, constructive.num_classes)

    def same_rows(z, z_full_rows):
        if variant == "sgc":
            return np.abs(z - z_full_rows).max() <= 1e-14
        return np.array_equal(z, z_full_rows)

    for part, mask in (("train", split.train_mask), ("val", split.val_mask),
                       ("test", split.test_mask)):
        z_full, _ = forward_full(weights, None)
        z, _ = forward_fn(weights, part, None)
        assert same_rows(z, z_full[mask])
        z_full, _ = forward_full(weights, np.random.default_rng(11))
        z, _ = forward_fn(weights, part, np.random.default_rng(11))
        assert same_rows(z, z_full[mask])

    z_full, cache_full = forward_full(weights, np.random.default_rng(11))
    z, cache = forward_fn(weights, "train", np.random.default_rng(11))
    expected = backward_full(weights, cache_full, z_full, y)
    got = backward_fn(weights, cache, z, y[rows["train"]])
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.linalg.norm(g - e) <= 1e-10 * np.linalg.norm(e)


@pytest.mark.parametrize("variant", VARIANTS)
def test_restricted_training_matches_full_rows(constructive, variant):
    split = build_split(constructive.labels, seed=0)
    report = train(constructive, variant, GcnConfig(), split=split)
    assert (report.epochs_run, report.test_accuracy) == _reference_fit(
        constructive, variant, GcnConfig(), split)


def test_complete_graph_accuracy_near_chance(small_constructive):
    config = GcnConfig(max_epochs=120, seed=0)
    report = train(small_constructive, "complete_graph", config)
    assert abs(report.test_accuracy - 0.25) <= 0.05


def test_propagation_operator_unknown_variant(tiny_dataset):
    with pytest.raises(ValueError, match="variant"):
        propagation_operator(tiny_dataset, "transformer")


def test_no_features_uses_identity_inputs(tiny_dataset):
    x = _model_features(tiny_dataset, "no_features")
    assert sp.issparse(x) and x.shape == (8, 8)
    assert (x != sp.identity(8, format="csr")).nnz == 0
    split = manual_split(8, [0, 4], [1, 5])
    report = train(tiny_dataset, "no_features", GcnConfig(max_epochs=3), split)
    assert report.epochs_run == 3
    assert 0.0 <= report.test_accuracy <= 1.0


def test_divergence_raises(tiny_dataset):
    split = manual_split(8, [0, 4], [1, 5])
    config = GcnConfig(learning_rate=1e160, max_epochs=50, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train(tiny_dataset, "gcn", config, split)
    assert 1 <= info.value.epoch <= 2


def test_patience_stops_training(tiny_dataset):
    # a step of 1e-30 leaves the weights bit-identical, so the validation
    # loss never strictly improves after the first epoch
    split = manual_split(8, [0, 4], [1, 5])
    config = GcnConfig(learning_rate=1e-30, max_epochs=50, patience=5, seed=0)
    report = train(tiny_dataset, "gcn", config, split)
    assert report.epochs_run == config.patience + 1


def test_sgc_degree_zero_is_logistic_regression(tiny_dataset):
    """Past its up-front propagation P^2 X the simplified model propagates
    no further: it is multinomial logistic regression on P^2 X."""
    split = manual_split(8, [0, 4], [1, 5])
    config = GcnConfig(max_epochs=40, seed=2)
    report = train(tiny_dataset, "sgc", config, split)
    assert report.variant == "sgc"
    assert report.model.w1 is None
    p = normalized_adjacency(tiny_dataset.adjacency)
    s = p @ (p @ row_normalize_features(tiny_dataset.features))
    z = _softmax_rows(s @ report.model.w0)
    manual = float(np.mean(z[split.test_mask].argmax(axis=1)
                           == tiny_dataset.labels[split.test_mask]))
    assert manual == report.test_accuracy
    # The last validation loss is read at the final weights, so it pins the degree.
    y = one_hot(tiny_dataset.labels, tiny_dataset.num_classes)
    val = split.val_mask
    manual_val = loss(z[val], y[val], slice(None), report.model.w0, config.l2_weight) / val.sum()
    assert manual_val == pytest.approx(report.val_losses[-1], rel=1e-12)


def test_train_rejects_unknown_variant(tiny_dataset):
    with pytest.raises(ValueError, match="variant"):
        train(tiny_dataset, "gat")


def test_config_validation():
    with pytest.raises(ValueError):
        GcnConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        GcnConfig(dropout=1.0)
    with pytest.raises(ValueError):
        GcnConfig(l2_weight=-1e-4)
    with pytest.raises(ValueError):
        GcnConfig(max_epochs=0)
    GcnConfig(dropout=0.0)  # boundary value is legal


@pytest.mark.parametrize("field, value", [
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("l2_weight", float("nan")),
    ("l2_weight", float("inf")),
    ("dropout", float("nan")),
])
def test_config_rejects_nonfinite(field, value):
    """NaN compares false to every bound, so range checks alone let it in."""
    with pytest.raises(ValueError, match="finite"):
        GcnConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("hidden_units", 4.0), ("max_epochs", 10.0), ("patience", 2.5), ("seed", 1.0),
])
def test_config_rejects_non_integer_counts(field, value):
    """A float hidden size fails inside training and a float patience
    rounds silently, so both are refused up front; numpy integers pass."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        GcnConfig(**{field: value})
    GcnConfig(**{field: np.int64(value)})


def test_split_spec_validation():
    with pytest.raises(ValueError, match="cover"):
        SplitSpec(np.ones(4, bool), np.ones(4, bool), np.zeros(4, bool)).validate()
    with pytest.raises(ValueError, match="empty"):
        SplitSpec(np.zeros(4, bool), np.zeros(4, bool), np.ones(4, bool)).validate()


@pytest.mark.parametrize("masks, message", [
    ((np.zeros(8, bool), np.zeros(8, bool), np.ones(8, bool)), "empty"),
    ((np.ones(8, bool), np.eye(8, dtype=bool)[0], np.zeros(8, bool)), "cover"),
    ((np.eye(8, dtype=bool)[0], np.eye(8, dtype=bool)[1], np.eye(8, dtype=bool)[2]), "cover"),
    ((np.eye(6, dtype=bool)[0], np.eye(6, dtype=bool)[1], ~np.eye(6, dtype=bool)[:2].any(0)),
     "per node"),
], ids=["empty-train", "overlapping", "uncovered", "wrong-length"])
def test_train_rejects_an_invalid_split(tiny_dataset, masks, message):
    """Unchecked, an empty training mask divides by zero in the mean loss,
    and overlapping or incomplete masks, or masks of another node count,
    train silently."""
    for variant in VARIANTS:
        with pytest.raises(ValueError, match=message):
            train(tiny_dataset, variant, GcnConfig(max_epochs=2), split=SplitSpec(*masks))


# The engine that computed the first layer on every node, with a fresh
# dropout copy and transposes each epoch, an out-of-place Adam step and
# the L2 penalty recomputed with each loss: kept verbatim as the bit-for-bit
# reference of the hop-restricted engine, independent of the module's helpers.

def _full_layer_dropout(x, rate, rng):
    keep = 1.0 - rate
    if sp.issparse(x):
        out = x.copy()
        mask = rng.random(out.data.shape) < keep
        out.data = np.where(mask, out.data / keep, 0.0)
        return out
    mask = rng.random(x.shape) < keep
    return np.where(mask, x / keep, 0.0)


def _full_layer_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _full_layer_forward_pass(w0, w1, a_hat, a_rows, x, dropout, rng):
    use_dropout = rng is not None and dropout > 0
    x_in = _full_layer_dropout(x, dropout, rng) if use_dropout else x
    s1 = a_hat @ (x_in @ w0)
    h_in = np.maximum(s1, 0.0)
    h_scale = None
    if use_dropout:
        keep = 1.0 - dropout
        h_scale = (rng.random(h_in.shape) < keep) / keep
        h_in = h_in * h_scale
    z = _full_layer_softmax(a_rows @ (h_in @ w1))
    return z, (x_in, s1, h_in, h_scale)


def _full_layer_backward(w0, w1, a_hat, a_rows, cache, z, y, l2_weight, ce_scale):
    x_in, s1, h_in, h_scale = cache
    g2 = (z - y) * ce_scale
    gw1 = (a_rows @ h_in).T @ g2
    gh_in = (a_rows.T @ g2) @ w1.T
    if h_scale is not None:
        gh_in = gh_in * h_scale
    gs1 = gh_in * (s1 > 0)
    gw0 = x_in.T @ (a_hat @ gs1) + l2_weight * w0
    return np.asarray(gw0), gw1


def _full_layer_model(dataset, variant, config, rows):
    if variant == "sgc":
        a_hat = propagation_operator(dataset, "sgc")
        s = a_hat @ (a_hat @ row_normalize_features(dataset.features))
        s_rows = {part: s[idx] for part, idx in rows.items()}

        def forward_sgc(weights, part, rng):
            return _full_layer_softmax(s_rows[part] @ weights[0]), None

        def backward_sgc(weights, cache, z, y):
            return [s_rows["train"].T @ ((z - y) / len(y)) + config.l2_weight * weights[0]]

        return (s.shape[1], dataset.num_classes), forward_sgc, backward_sgc

    a_hat = propagation_operator(dataset, variant)
    x = _model_features(dataset, variant)
    a_rows = {part: a_hat[idx] for part, idx in rows.items()}

    def forward_fn(weights, part, rng):
        return _full_layer_forward_pass(*weights, a_hat, a_rows[part], x, config.dropout, rng)

    def backward_fn(weights, cache, z, y):
        return _full_layer_backward(*weights, a_hat, a_rows["train"], cache, z, y,
                                    config.l2_weight, ce_scale=1.0 / len(y))

    return (x.shape[1], config.hidden_units, dataset.num_classes), forward_fn, backward_fn


def _full_layer_train(dataset, variant, config, split):
    """The early-stopping loop over the full-first-layer engine: the
    trajectory that :func:`_trajectory` reads off a report."""
    rows = _split_rows(split)
    widths, forward_fn, backward_fn = _full_layer_model(dataset, variant, config, rows)
    y = one_hot(dataset.labels, dataset.num_classes)
    y_train, y_val = y[rows["train"]], y[rows["val"]]
    every = slice(None)
    rng = np.random.default_rng(config.seed)
    weights = [_glorot(rng, a, b) for a, b in zip(widths, widths[1:])]
    m = [np.zeros(w.shape) for w in weights]
    v = [np.zeros(w.shape) for w in weights]
    train_losses, val_losses = [], []
    best_val, stale = np.inf, 0
    for epoch in range(1, config.max_epochs + 1):
        z, cache = forward_fn(weights, "train", rng)
        train_losses.append(loss(z, y_train, every, weights[0], config.l2_weight) / len(y_train))
        grads = backward_fn(weights, cache, z, y_train)
        bc1, bc2 = 1.0 - 0.9**epoch, 1.0 - 0.999**epoch
        for p, g, mi, vi in zip(weights, grads, m, v):
            mi *= 0.9
            mi += (1.0 - 0.9) * g
            vi *= 0.999
            vi += (1.0 - 0.999) * (g * g)
            p -= config.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + 1e-8)
        z_val, _ = forward_fn(weights, "val", None)
        val_loss = loss(z_val, y_val, every, weights[0], config.l2_weight) / len(y_val)
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val, stale = val_loss, 0
        else:
            stale += 1
        if stale >= config.patience:
            break
    z_test, _ = forward_fn(weights, "test", None)
    accuracy = float(np.mean(z_test.argmax(axis=1) == dataset.labels[rows["test"]]))
    w1 = b"" if len(weights) == 1 else weights[1].tobytes()
    return train_losses, val_losses, epoch, accuracy, weights[0].tobytes(), w1


def _trajectory(report):
    w1 = b"" if report.model.w1 is None else report.model.w1.tobytes()
    return (report.train_losses, report.val_losses, report.epochs_run, report.test_accuracy,
            report.model.w0.tobytes(), w1)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("variant", VARIANTS)
def test_training_trajectory_is_bitwise_the_full_first_layer(constructive, variant, dropout,
                                                             seed):
    """Restricting the first layer to the 1-hop rows, holding the operators
    and the dropout CSR, updating Adam in place and computing the penalty
    once per step change no bit of the trajectory: every loss, the epoch
    count, the accuracy and the weights are `==`. A short patience lets
    early stopping end some runs."""
    split = build_split(constructive.labels, seed=0)
    config = GcnConfig(dropout=dropout, seed=seed, max_epochs=120, patience=20)
    report = train(constructive, variant, config, split)
    assert _trajectory(report) == _full_layer_train(constructive, variant, config, split)


def _hop_cases():
    isolated = make_dataset(edges=((0, 1), (1, 2), (4, 5), (5, 6), (6, 7), (2, 4)))
    sparse_x = make_dataset()
    features = sparse_x.features.copy()
    features[2] = 0.0
    features[:, 1] = 0.0
    return {
        # node 3 has no edge: its 1-hop set is itself
        "isolated_training_node": (isolated, manual_split(8, [3, 5], [1, 6])),
        # every node's 1-hop set is itself
        "no_edges": (make_dataset(edges=()), manual_split(8, [0, 4], [1, 5])),
        # the training nodes' neighbourhoods cover the graph
        "training_hop_is_every_node": (make_dataset(), manual_split(8, [1, 2, 5, 6], [0, 7])),
        # node 2 trains on an all-zero feature row, and feature 1 is zero on
        # every node: X and its transposes store an empty row and column
        "zero_feature_row_and_column": (replace(sparse_x, features=features),
                                        manual_split(8, [2, 5], [0, 7])),
    }


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", sorted(_hop_cases()))
def test_hop_edge_cases_match_full_first_layer(case, variant):
    dataset, split = _hop_cases()[case]
    train_rows = np.flatnonzero(split.train_mask)
    hop = np.unique(normalized_adjacency(dataset.adjacency)[train_rows].indices)
    expected_hop = {"isolated_training_node": [3, 4, 5, 6], "no_edges": [0, 4],
                    "training_hop_is_every_node": list(range(8)),
                    "zero_feature_row_and_column": [1, 2, 3, 4, 5, 6]}[case]
    assert hop.tolist() == expected_hop
    for seed in (0, 1):
        config = GcnConfig(max_epochs=30, patience=10, seed=seed)
        report = train(dataset, variant, config, split)
        assert _trajectory(report) == _full_layer_train(dataset, variant, config, split)


def test_complete_graph_reads_every_row(constructive):
    """The mean-field operator mixes every node into every output row, so
    each pass's 1-hop set is all of them."""
    rows = _split_rows(build_split(constructive.labels, seed=0))
    engine = _Engine(MeanFieldPropagation(constructive.n_nodes),
                     _model_features(constructive, "complete_graph"), rows, 16, 0.5, 5e-4,
                     len(rows["train"]))
    for part in rows:
        assert np.array_equal(engine.passes[part].hop, np.arange(constructive.n_nodes))


def test_dropout_sparse_branch_draws_the_data_vector():
    """The engine drops a CSR out through its data vector; that draws the
    same mask and values as the reference's dropout of the whole CSR."""
    x = sp.random(30, 20, density=0.2, format="csr", random_state=3)
    dropped = _full_layer_dropout(x, 0.4, np.random.default_rng(8))
    assert np.array_equal(dropped.indices, x.indices)
    assert np.array_equal(dropped.data, _dropout(x.data, 0.4, np.random.default_rng(8)))
