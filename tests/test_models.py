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
    train_sgc,
)
from graphalign.models import (
    _Adam,
    _dropout,
    _gcn_model,
    _glorot,
    _model_features,
    _sgc_model,
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
    x = np.asarray(_model_features(tiny_dataset, "gcn"))
    model = GcnModel(rng.standard_normal((x.shape[1], 7)), rng.standard_normal((7, 3)))
    z = forward(model, a_hat, x)
    assert np.all(z >= 0) and np.all(z <= 1)
    assert np.allclose(z.sum(axis=1), 1.0, atol=1e-9)


def test_forward_requires_rng_for_dropout():
    model = GcnModel(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="rng"):
        forward(model, np.eye(2), np.eye(2), dropout_on=True)


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


def test_gradients_match_finite_differences():
    step, l2 = 1e-5, 0.3
    for seed in range(5):
        a_hat, x, w0, w1, y, mask = _fd_instance(seed)
        gw0, gw1 = gradients(GcnModel(w0, w1), a_hat, x, y, mask, l2)

        def objective(a0, a1):
            z = forward(GcnModel(a0, a1), a_hat, x)
            return loss(z, y, mask, a0, l2)

        for which, (w, g) in enumerate(((w0, gw0), (w1, gw1))):
            fd = np.zeros_like(w)
            for idx in np.ndindex(*w.shape):
                wp, wm = w.copy(), w.copy()
                wp[idx] += step
                wm[idx] -= step
                if which == 0:
                    fd[idx] = (objective(wp, w1) - objective(wm, w1)) / (2 * step)
                else:
                    fd[idx] = (objective(w0, wp) - objective(w0, wm)) / (2 * step)
            rel = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
            assert rel < 1e-4, f"seed {seed} layer {which}: rel err {rel:.2e}"


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
    labels = np.array([0, 1] * 50)
    with pytest.raises(ValueError, match="empty training"):
        build_split(labels, fractions=(0.0, 10.0, 90.0))
    with pytest.raises(ValueError, match="exceed"):
        build_split(labels, fractions=(60.0, 50.0, 0.0))
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
    sgc = train_sgc(ds, degree=2, config=config, split=split)
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
    x_in = _dropout(x, dropout, rng) if use_dropout else x
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
    if variant == "sgc":
        return _sgc_model(dataset, 2, config, rows)
    return _gcn_model(dataset, variant, config, rows)


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
    split = manual_split(8, [0, 4], [1, 5])
    config = GcnConfig(max_epochs=40, seed=2)
    report = train_sgc(tiny_dataset, degree=0, config=config, split=split)
    assert report.variant == "sgc"
    assert report.model.w1 is None
    x = row_normalize_features(tiny_dataset.features)
    z = _softmax_rows(x @ report.model.w0)
    manual = float(np.mean(z[split.test_mask].argmax(axis=1)
                           == tiny_dataset.labels[split.test_mask]))
    assert manual == report.test_accuracy
    with pytest.raises(ValueError, match="degree"):
        train_sgc(tiny_dataset, degree=-1, config=config, split=split)


def test_train_dispatches_sgc(tiny_dataset):
    split = manual_split(8, [0, 4], [1, 5])
    config = GcnConfig(max_epochs=5, seed=0)
    via_train = train(tiny_dataset, "sgc", config, split)
    direct = train_sgc(tiny_dataset, config=config, split=split)
    assert via_train.train_losses == direct.train_losses
    assert via_train.test_accuracy == direct.test_accuracy


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


def test_split_spec_validation():
    with pytest.raises(ValueError, match="cover"):
        SplitSpec(np.ones(4, bool), np.ones(4, bool), np.zeros(4, bool)).validate()
    with pytest.raises(ValueError, match="empty"):
        SplitSpec(np.zeros(4, bool), np.zeros(4, bool), np.ones(4, bool)).validate()
