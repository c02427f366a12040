"""Two-layer graph convolutional classifier, trained from scratch.

The model is Z = softmax(P relu(P X W0) W1) where P is the self-loop
augmented, symmetrically normalized adjacency, built as a sparse matrix
by :func:`graphalign.subspaces.normalized_adjacency` (the same operator
whose eigenvectors span the graph subspace). P is swapped out per
variant: the identity for the no-graph case (a plain MLP), the implicit
rank-1 averaging operator for the complete graph (never materialized),
and the identity feature matrix for the no-features case. A simplified
variant propagates the features K times up front and is a single linear
softmax layer. Every variant is fit by one loop: full-batch
adaptive-moment gradient descent, L2 on the first-layer weights, and
early stopping on the validation loss; the two-layer model also applies
dropout to both layer inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .datasets import Dataset, one_hot, row_normalize_features
from .subspaces import normalized_adjacency

__all__ = [
    "VARIANTS",
    "GcnConfig",
    "GcnModel",
    "SplitSpec",
    "TrainReport",
    "TrainingDiverged",
    "build_split",
    "forward",
    "loss",
    "gradients",
    "train",
    "train_sgc",
    "MeanFieldPropagation",
    "propagation_operator",
]

VARIANTS = ("gcn", "no_graph", "no_features", "complete_graph", "sgc")

# Features sparser than this are stored as CSR during training.
_SPARSE_DENSITY_CUTOFF = 0.25


class TrainingDiverged(RuntimeError):
    """Non-finite loss encountered; carries the epoch it happened at."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class GcnConfig:
    """Training hyperparameters (the published defaults)."""

    hidden_units: int = 16
    learning_rate: float = 0.01
    dropout: float = 0.5
    l2_weight: float = 5e-4
    max_epochs: int = 400
    patience: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.hidden_units, self.learning_rate, self.max_epochs, self.patience) <= 0:
            raise ValueError("hidden_units, learning_rate, max_epochs, patience must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.l2_weight < 0:
            raise ValueError("l2_weight must be nonnegative")


@dataclass
class GcnModel:
    """Weight matrices of the two-layer model (W1 is None for the
    single-layer simplified variant)."""

    w0: np.ndarray
    w1: np.ndarray | None = None


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/validation/test masks covering all nodes."""

    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def validate(self) -> None:
        total = (
            self.train_mask.astype(int) + self.val_mask.astype(int) + self.test_mask.astype(int)
        )
        if not np.all(total == 1):
            raise ValueError("masks must be disjoint and cover every node")
        if not self.train_mask.any():
            raise ValueError("training mask is empty")


@dataclass
class TrainReport:
    """Outcome of one training run."""

    variant: str
    seed: int
    epochs_run: int
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    test_accuracy: float | None = None
    model: GcnModel | None = None


class MeanFieldPropagation:
    """The complete-graph operator ones*ones^T / N, applied implicitly.

    Keeps the mean-field limiting case O(N*C) instead of materializing an
    N x N dense matrix.
    """

    def __init__(self, n: int):
        self.n = n
        self.shape = (n, n)

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        if sp.issparse(m):
            m = m.toarray()
        col_means = np.asarray(m).mean(axis=0)
        return np.broadcast_to(col_means, m.shape).copy()


def propagation_operator(dataset: Dataset, variant: str):
    """Graph operator used by a model variant (sparse, identity or implicit)."""
    n = dataset.n_nodes
    if variant in ("gcn", "no_features", "sgc"):
        return normalized_adjacency(dataset.adjacency)
    if variant == "no_graph":
        return sp.identity(n, format="csr")
    if variant == "complete_graph":
        return MeanFieldPropagation(n)
    raise ValueError(f"unknown variant: {variant!r} (expected one of {VARIANTS})")


def _model_features(dataset: Dataset, variant: str):
    """Row-normalized input features; CSR when sparse enough."""
    if variant == "no_features":
        return sp.identity(dataset.n_nodes, format="csr")
    x = row_normalize_features(dataset.features)
    density = np.count_nonzero(x) / max(x.size, 1)
    if density < _SPARSE_DENSITY_CUTOFF:
        return sp.csr_matrix(x)
    return x


def _dropout(x, rate: float, rng: np.random.Generator):
    """Inverted dropout; for sparse inputs the stored entries are dropped."""
    keep = 1.0 - rate
    if sp.issparse(x):
        out = x.copy()
        mask = rng.random(out.data.shape) < keep
        out.data = np.where(mask, out.data / keep, 0.0)
        return out
    mask = rng.random(x.shape) < keep
    return np.where(mask, x / keep, 0.0)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _forward_pass(w0: np.ndarray, w1: np.ndarray, a_hat, x, dropout: float,
                  rng: np.random.Generator | None):
    """The two-layer forward pass, with inverted dropout on both layer
    inputs when an `rng` is given and `dropout` > 0.

    Returns the class probabilities and what :func:`_backward` needs: the
    (possibly dropped-out) input features, the first-layer pre-activation,
    the hidden layer input and the hidden dropout scale (None without
    dropout).
    """
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


def forward(
    model: GcnModel,
    a_hat,
    x,
    dropout_on: bool = False,
    dropout: float = 0.5,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Class probabilities, one row per node, each summing to one.

    With `dropout_on`, inverted dropout is applied to the inputs of both
    layers (so expectations match evaluation mode); an `rng` is then
    required.
    """
    if dropout_on and rng is None:
        raise ValueError("dropout_on requires an rng")
    z, _ = _forward_pass(model.w0, model.w1, a_hat, x, dropout, rng if dropout_on else None)
    return z


def loss(
    z: np.ndarray,
    y: np.ndarray,
    train_mask: np.ndarray,
    w0: np.ndarray | None = None,
    l2_weight: float = 0.0,
) -> float:
    """Cross-entropy summed over the labeled nodes, plus the L2 penalty.

    Probabilities are clamped at 1e-12 before the log so the value stays
    finite. The penalty is l2_weight/2 times the squared Frobenius norm of
    the first-layer weights.
    """
    zc = np.clip(z[train_mask], 1e-12, None)
    ce = -float(np.sum(y[train_mask] * np.log(zc)))
    if w0 is not None and l2_weight:
        ce += 0.5 * l2_weight * float(np.sum(w0 * w0))
    return ce


def _backward(
    w0: np.ndarray,
    w1: np.ndarray,
    a_hat,
    cache: tuple,
    z: np.ndarray,
    y: np.ndarray,
    train_mask: np.ndarray,
    l2_weight: float,
    ce_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of (ce_scale * summed cross-entropy + L2) w.r.t. (W0, W1).

    `cache` is what :func:`_forward_pass` returned next to `z`; the hidden
    dropout scale in it routes the gradient through the dropout mask.
    """
    x_in, s1, h_in, h_scale = cache
    g2 = np.zeros_like(z)
    g2[train_mask] = (z[train_mask] - y[train_mask]) * ce_scale
    gw1 = (a_hat @ h_in).T @ g2
    gh_in = (a_hat @ g2) @ w1.T
    if h_scale is not None:
        gh_in = gh_in * h_scale
    gs1 = gh_in * (s1 > 0)
    gw0 = x_in.T @ (a_hat @ gs1) + l2_weight * w0
    return np.asarray(gw0), gw1


def gradients(
    model: GcnModel,
    a_hat,
    x,
    y: np.ndarray,
    train_mask: np.ndarray,
    l2_weight: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of :func:`loss` at the given weights, dropout off."""
    z, cache = _forward_pass(model.w0, model.w1, a_hat, x, 0.0, None)
    return _backward(model.w0, model.w1, a_hat, cache, z, y, train_mask, l2_weight, ce_scale=1.0)


class _Adam:
    """Adaptive-moment estimation with the standard defaults."""

    def __init__(self, shapes, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def build_split(
    labels: np.ndarray,
    fractions: tuple[float, float, float] = (5.0, 10.0, 85.0),
    seed: int = 0,
) -> SplitSpec:
    """Stratified train split plus uniform validation/test masks.

    The training quota is spread evenly across classes (ceil of the ideal
    share each, then trimmed from the highest class indexes down to hit
    the total); validation nodes are drawn uniformly from the remainder
    and the rest is the test set. Deterministic per seed.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    f = int(labels.max()) + 1
    f_train, f_val, _ = fractions
    n_train = int(round(n * f_train / 100.0))
    n_val = int(round(n * f_val / 100.0))
    if n_train <= 0:
        raise ValueError("training fraction yields an empty training set")
    if n_train < f:
        raise ValueError(
            f"training quota {n_train} is smaller than the class count {f}; "
            "stratification needs at least one node per class"
        )
    if n_train + n_val > n:
        raise ValueError("train + validation fractions exceed the node count")

    quotas = np.full(f, math.ceil(n_train / f), dtype=int)
    excess = int(quotas.sum()) - n_train
    c = f - 1
    while excess > 0:
        if quotas[c] > 1:
            quotas[c] -= 1
            excess -= 1
        c = (c - 1) % f
    counts = np.bincount(labels, minlength=f)
    if np.any(quotas > counts):
        short = int(np.argmax(quotas > counts))
        raise ValueError(
            f"class {short} has {counts[short]} nodes, fewer than its training quota {quotas[short]}"
        )

    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    for c in range(f):
        members = np.flatnonzero(labels == c)
        train_idx.extend(rng.choice(members, size=quotas[c], replace=False))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[train_idx] = True

    rest = np.flatnonzero(~train_mask)
    val_idx = rng.choice(rest, size=n_val, replace=False) if n_val else np.empty(0, dtype=int)
    val_mask = np.zeros(n, dtype=bool)
    val_mask[val_idx] = True
    test_mask = ~(train_mask | val_mask)
    split = SplitSpec(train_mask, val_mask, test_mask)
    split.validate()
    return split


def _accuracy(z: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float | None:
    if not mask.any():
        return None
    predicted = z[mask].argmax(axis=1)
    return float(np.mean(predicted == labels[mask]))


def _check_finite(value: float, epoch: int) -> float:
    if not np.isfinite(value):
        raise TrainingDiverged(epoch)
    return value


def _fit(
    variant: str,
    widths: tuple[int, ...],
    forward_fn: Callable,
    backward_fn: Callable,
    dataset: Dataset,
    config: GcnConfig,
    split: SplitSpec,
) -> TrainReport:
    """The early-stopping training loop shared by every variant.

    Weights are drawn Glorot-uniform layer by layer for the given layer
    `widths`, then each epoch runs `forward_fn(weights, rng)` in training
    mode, checks the mean training loss is finite, takes one Adam step
    along `backward_fn(weights, cache, z, y, n_train)`, and evaluates the
    validation loss with `forward_fn(weights, None)` (evaluation mode).
    Training stops once the validation loss has not improved for
    `patience` consecutive epochs; the final-epoch weights are evaluated
    on the test nodes.
    """
    y = one_hot(dataset.labels, dataset.num_classes)
    n_train = int(split.train_mask.sum())
    n_val = int(split.val_mask.sum())

    rng = np.random.default_rng(config.seed)
    weights = [_glorot(rng, fan_in, fan_out) for fan_in, fan_out in zip(widths, widths[1:])]
    optimizer = _Adam([w.shape for w in weights], lr=config.learning_rate)

    report = TrainReport(variant=variant, seed=config.seed, epochs_run=0)
    best_val = np.inf
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        z, cache = forward_fn(weights, rng)
        train_loss = loss(z, y, split.train_mask, weights[0], config.l2_weight) / n_train
        report.train_losses.append(_check_finite(train_loss, epoch))
        optimizer.step(weights, backward_fn(weights, cache, z, y, n_train))
        report.epochs_run = epoch

        if n_val:
            z_eval, _ = forward_fn(weights, None)
            val_loss = loss(z_eval, y, split.val_mask, weights[0], config.l2_weight) / n_val
            report.val_losses.append(_check_finite(val_loss, epoch))
            if val_loss < best_val:
                best_val = val_loss
                stale = 0
            else:
                stale += 1
            if stale >= config.patience:
                break
        else:
            report.val_losses.append(float("nan"))

    z_final, _ = forward_fn(weights, None)
    report.test_accuracy = _accuracy(z_final, dataset.labels, split.test_mask)
    report.model = GcnModel(*weights)
    return report


def train(
    dataset: Dataset,
    variant: str = "gcn",
    config: GcnConfig = GcnConfig(),
    split: SplitSpec | None = None,
) -> TrainReport:
    """Train one model and report its test accuracy.

    The training objective is the mean cross-entropy over the training
    nodes plus the L2 penalty on the first-layer weights, following the
    published protocol; weights start Glorot-uniform, features are
    row-normalized, and training stops early once the validation loss has
    not improved for `patience` consecutive epochs (the final-epoch model
    is evaluated, dropout off). Raises :class:`TrainingDiverged` on a
    non-finite loss.
    """
    if variant == "sgc":
        return train_sgc(dataset, config=config, split=split)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r} (expected one of {VARIANTS})")
    if split is None:
        split = build_split(dataset.labels, seed=0)
    a_hat = propagation_operator(dataset, variant)
    x = _model_features(dataset, variant)

    def forward_fn(weights, rng):
        return _forward_pass(*weights, a_hat, x, config.dropout, rng)

    def backward_fn(weights, cache, z, y, n_train):
        return _backward(*weights, a_hat, cache, z, y, split.train_mask,
                         config.l2_weight, ce_scale=1.0 / n_train)

    widths = (x.shape[1], config.hidden_units, dataset.num_classes)
    return _fit(variant, widths, forward_fn, backward_fn, dataset, config, split)


def train_sgc(
    dataset: Dataset,
    degree: int = 2,
    config: GcnConfig = GcnConfig(),
    split: SplitSpec | None = None,
) -> TrainReport:
    """Train the simplified variant: degree-fold propagation, one layer.

    The propagated features P^K X are computed once; a single linear
    softmax layer is then fit with the same objective, split and early
    stopping as :func:`train` (no dropout: there is no hidden layer to
    regularize). degree=0 reduces to multinomial logistic regression on
    the raw features.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if split is None:
        split = build_split(dataset.labels, seed=0)
    a_hat = propagation_operator(dataset, "sgc")
    s = row_normalize_features(dataset.features)
    for _ in range(degree):
        s = a_hat @ s
    s = np.asarray(s)

    def forward_fn(weights, rng):
        return _softmax_rows(s @ weights[0]), None

    def backward_fn(weights, cache, z, y, n_train):
        g = np.zeros_like(z)
        g[split.train_mask] = (z[split.train_mask] - y[split.train_mask]) / n_train
        return [s.T @ g + config.l2_weight * weights[0]]

    widths = (s.shape[1], dataset.num_classes)
    return _fit("sgc", widths, forward_fn, backward_fn, dataset, config, split)
