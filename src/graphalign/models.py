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

Each pass computes only the output rows it reads: a training epoch the
training nodes (the loss), the validation pass the validation nodes
(early stopping) and the final pass the test nodes (the accuracy). The
output layer then uses P restricted to those rows, P_S = P[S], and the
backward pass P_S and its transpose. The first layer relu(P X W0) stays
full-size: the output rows read it on their 1-hop neighbourhood, which
for the training and validation nodes covers most of a graph like the
benchmark's, and a full-size first layer draws every dropout mask at
full size, so the random stream does not depend on the rows. The
simplified variant slices its propagated features P^K X once per split
part.
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
    "MeanFieldPropagation",
    "propagation_operator",
]

VARIANTS = ("gcn", "no_graph", "no_features", "complete_graph", "sgc")

# Propagation steps K of the simplified variant.
_SGC_DEGREE = 2

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
        if not all(map(math.isfinite, (self.learning_rate, self.dropout, self.l2_weight))):
            raise ValueError("learning_rate, dropout and l2_weight must be finite")
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
    N x N dense matrix. Like a sparse matrix it can be restricted to rows,
    ``op[rows]``, and transposed, ``op.T``; either result is the constant
    operator ones((r, c)) / N of its own shape (r, c).
    """

    def __init__(self, n: int):
        self.n = n
        self.shape = (n, n)

    def _reshaped(self, shape: tuple[int, int]) -> MeanFieldPropagation:
        op = MeanFieldPropagation(self.n)
        op.shape = shape
        return op

    def __getitem__(self, rows) -> MeanFieldPropagation:
        return self._reshaped((np.arange(self.shape[0])[rows].size, self.shape[1]))

    @property
    def T(self) -> MeanFieldPropagation:
        return self._reshaped(self.shape[::-1])

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        if sp.issparse(m):
            m = m.toarray()
        m = np.asarray(m)
        if m.shape[0] != self.shape[1]:
            raise ValueError(f"operand has {m.shape[0]} rows, the operator {self.shape[1]} columns")
        col_means = m.sum(axis=0) / self.n
        return np.broadcast_to(col_means, (self.shape[0], m.shape[1])).copy()


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


def _forward_pass(w0: np.ndarray, w1: np.ndarray, a_hat, a_rows, x, dropout: float,
                  rng: np.random.Generator | None):
    """The two-layer forward pass, output on the rows of `a_rows` only.

    `a_rows` is `a_hat` restricted to the output rows (``a_hat[rows]``, or
    `a_hat` itself for every node). The first layer, and with it the
    inverted dropout on both layer inputs (applied when an `rng` is given
    and `dropout` > 0), is computed on every node.

    Returns the class probabilities of the output rows and what
    :func:`_backward` needs: the (possibly dropped-out) input features,
    the first-layer pre-activation, the hidden layer input and the hidden
    dropout scale (None without dropout), all for every node.
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
    z = _softmax_rows(a_rows @ (h_in @ w1))
    return z, (x_in, s1, h_in, h_scale)


def forward(model: GcnModel, a_hat, x) -> np.ndarray:
    """Class probabilities in evaluation mode, one row per node, each
    summing to one."""
    z, _ = _forward_pass(model.w0, model.w1, a_hat, a_hat, x, 0.0, None)
    return z


def loss(
    z: np.ndarray,
    y: np.ndarray,
    train_mask: np.ndarray,
    w0: np.ndarray | None = None,
    l2_weight: float = 0.0,
) -> float:
    """Cross-entropy summed over the labeled nodes, plus the L2 penalty.

    `train_mask` selects the labeled rows of `z` and `y` (a boolean mask,
    or any numpy index). Probabilities are clamped at 1e-12 before the
    log so the value stays finite. The penalty is l2_weight/2 times the
    squared Frobenius norm of the first-layer weights.
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
    a_rows,
    cache: tuple,
    z: np.ndarray,
    y: np.ndarray,
    l2_weight: float,
    ce_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of (ce_scale * cross-entropy summed over the labeled rows
    + L2) w.r.t. (W0, W1).

    `a_rows`, `z` and `y` hold the labeled rows only: `a_rows` is the
    operator restricted to them, as :func:`_forward_pass` was given it,
    and `cache` is what that pass returned next to `z`. The output
    gradient lives on those rows alone, so the output layer needs only
    the restricted operator and its transpose; the first layer's product
    stays full-size. The hidden dropout scale in `cache` routes the
    gradient through the dropout mask.
    """
    x_in, s1, h_in, h_scale = cache
    g2 = (z - y) * ce_scale
    gw1 = (a_rows @ h_in).T @ g2
    gh_in = (a_rows.T @ g2) @ w1.T
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
    """Analytic gradients of :func:`loss` at the given weights, dropout off.

    Runs the training engine's forward and backward pass, restricted to
    the rows of `train_mask`.
    """
    rows = np.flatnonzero(train_mask)
    a_rows = a_hat[rows]
    z, cache = _forward_pass(model.w0, model.w1, a_hat, a_rows, x, 0.0, None)
    return _backward(model.w0, model.w1, a_hat, a_rows, cache, z, y[rows], l2_weight,
                     ce_scale=1.0)


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


def _accuracy(z: np.ndarray, labels: np.ndarray) -> float | None:
    if not len(labels):
        return None
    return float(np.mean(z.argmax(axis=1) == labels))


def _check_finite(value: float, epoch: int) -> float:
    if not np.isfinite(value):
        raise TrainingDiverged(epoch)
    return value


def _split_rows(split: SplitSpec) -> dict[str, np.ndarray]:
    """Ascending node indexes of each split part."""
    return {
        "train": np.flatnonzero(split.train_mask),
        "val": np.flatnonzero(split.val_mask),
        "test": np.flatnonzero(split.test_mask),
    }


def _fit(
    variant: str,
    widths: tuple[int, ...],
    forward_fn: Callable,
    backward_fn: Callable,
    dataset: Dataset,
    config: GcnConfig,
    rows: dict[str, np.ndarray],
) -> TrainReport:
    """The early-stopping training loop shared by every variant.

    `rows` holds the node indexes of each split part (``"train"``,
    ``"val"``, ``"test"``), and ``forward_fn(weights, part, rng)`` returns
    the class probabilities of that part's nodes only, plus a cache for
    ``backward_fn(weights, cache, z, y)``, which takes the probabilities
    and one-hot labels of the training nodes. No pass computes an output
    row that nothing reads.

    Weights are drawn Glorot-uniform layer by layer for the given layer
    `widths`. Each epoch then runs the forward pass on the training nodes
    in training mode, checks the mean training loss is finite, takes one
    Adam step along the gradient, and computes the validation loss on the
    validation nodes in evaluation mode (`rng` None). Training stops once
    the validation loss has not improved for `patience` consecutive
    epochs; the final-epoch weights are evaluated on the test nodes.
    """
    y = one_hot(dataset.labels, dataset.num_classes)
    y_train, y_val = y[rows["train"]], y[rows["val"]]
    n_train, n_val = len(y_train), len(y_val)
    every = slice(None)  # z and y hold only the rows a loss sums over

    rng = np.random.default_rng(config.seed)
    weights = [_glorot(rng, fan_in, fan_out) for fan_in, fan_out in zip(widths, widths[1:])]
    optimizer = _Adam([w.shape for w in weights], lr=config.learning_rate)

    report = TrainReport(variant=variant, seed=config.seed, epochs_run=0)
    best_val = np.inf
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        z, cache = forward_fn(weights, "train", rng)
        train_loss = loss(z, y_train, every, weights[0], config.l2_weight) / n_train
        report.train_losses.append(_check_finite(train_loss, epoch))
        optimizer.step(weights, backward_fn(weights, cache, z, y_train))
        report.epochs_run = epoch

        if n_val:
            z_val, _ = forward_fn(weights, "val", None)
            val_loss = loss(z_val, y_val, every, weights[0], config.l2_weight) / n_val
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

    z_test, _ = forward_fn(weights, "test", None)
    report.test_accuracy = _accuracy(z_test, dataset.labels[rows["test"]])
    report.model = GcnModel(*weights)
    return report


def _gcn_model(dataset: Dataset, variant: str, config: GcnConfig,
               rows: dict[str, np.ndarray]) -> tuple[tuple[int, ...], Callable, Callable]:
    """Layer widths, forward and backward pass of a two-layer variant,
    for :func:`_fit`. The operator is restricted to each split part's
    rows once, up front."""
    a_hat = propagation_operator(dataset, variant)
    x = _model_features(dataset, variant)
    a_rows = {part: a_hat[idx] for part, idx in rows.items()}

    def forward_fn(weights, part, rng):
        return _forward_pass(*weights, a_hat, a_rows[part], x, config.dropout, rng)

    def backward_fn(weights, cache, z, y):
        return _backward(*weights, a_hat, a_rows["train"], cache, z, y,
                         config.l2_weight, ce_scale=1.0 / len(y))

    return (x.shape[1], config.hidden_units, dataset.num_classes), forward_fn, backward_fn


def _sgc_model(dataset: Dataset, config: GcnConfig,
               rows: dict[str, np.ndarray]) -> tuple[tuple[int, ...], Callable, Callable]:
    """Layer widths, forward and backward pass of the simplified variant,
    for :func:`_fit`. P^K X is computed once and sliced once per split
    part."""
    a_hat = propagation_operator(dataset, "sgc")
    s = row_normalize_features(dataset.features)
    for _ in range(_SGC_DEGREE):
        s = a_hat @ s
    s_rows = {part: s[idx] for part, idx in rows.items()}

    def forward_fn(weights, part, rng):
        return _softmax_rows(s_rows[part] @ weights[0]), None

    def backward_fn(weights, cache, z, y):
        return [s_rows["train"].T @ ((z - y) / len(y)) + config.l2_weight * weights[0]]

    return (s.shape[1], dataset.num_classes), forward_fn, backward_fn


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
    is evaluated, dropout off). The simplified variant ``"sgc"`` fits a
    single linear softmax layer to P^K X, K = 2, without dropout (there is
    no hidden layer to regularize). Raises :class:`TrainingDiverged` on a
    non-finite loss.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r} (expected one of {VARIANTS})")
    if split is None:
        split = build_split(dataset.labels, seed=0)
    rows = _split_rows(split)
    if variant == "sgc":
        model = _sgc_model(dataset, config, rows)
    else:
        model = _gcn_model(dataset, variant, config, rows)
    return _fit(variant, *model, dataset, config, rows)
