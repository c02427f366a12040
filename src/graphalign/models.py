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

Each pass computes only the output rows S it reads (the training,
validation or test nodes), and the first layer only on their 1-hop rows,
bit for bit as on every row (:class:`_Engine`). The simplified variant
slices its propagated features P^K X once per split part.
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

# A sweep seeds each variant's training by its index here: append, never reorder.
VARIANTS = ("gcn", "no_graph", "no_features", "complete_graph", "sgc")

# Propagation steps K of the simplified variant.
_SGC_DEGREE = 2
# The published split's training and validation shares, in percent.
_TRAIN_PERCENT, _VAL_PERCENT = 5.0, 10.0


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


def _model_features(dataset: Dataset, variant: str) -> sp.csr_matrix:
    """Row-normalized input features as a CSR (the identity without features)."""
    if variant == "no_features":
        return sp.identity(dataset.n_nodes, format="csr")
    return sp.csr_matrix(row_normalize_features(dataset.features))


def _dropout(x: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout of a dense array; a CSR's stored entries are its
    `data` vector (see `_Engine._inputs`)."""
    keep = 1.0 - rate
    mask = rng.random(x.shape) < keep
    return np.where(mask, x / keep, 0.0)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place: returns `logits`, overwritten."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class _Pass:
    """One output row set's operators, all built in ``__init__``: P on the
    output rows S (`a_rows`), the 1-hop rows H the first layer is read on
    (`hop`: the columns P_S stores, every row for a dense or implicit P),
    P on H (`a_hop`), the transposes P_Sᵀ and P_Hᵀ as views (`a_rows_t`,
    `a_hop_t`) and a zero-filled full-size hidden buffer that each pass
    fills on H."""

    def __init__(self, a_hat, rows: np.ndarray, hidden: int):
        self.a_rows = a_hat[rows]
        self.a_rows_t = self.a_rows.T
        n = a_hat.shape[0]
        self.hop = np.unique(self.a_rows.indices) if sp.issparse(a_hat) else np.arange(n)
        self.a_hop = a_hat[self.hop]
        self.a_hop_t = self.a_hop.T
        self.h = np.zeros((n, hidden))


class _Engine:
    """Forward and backward pass of the two-layer model, every operator
    built once: one :class:`_Pass` per output row set in `rows`, and for
    the CSR features `x` a held CSR that dropout writes into. Every
    transpose is a view, and scipy sums each row of a CSC view's product
    in the same order as a transposed copy's, so with the same bits.

    A pass on the rows S computes the first layer relu(P_H X W0) on their
    1-hop rows H only and scatters it into the hidden buffer, whose other
    rows stay zero and are never read. A CSR product computes each row
    alone, so P_H's rows are P's bits. The dense products ``h @ W1`` and
    the backward ``(P_Sᵀ g) @ W1ᵀ`` stay full-size, since OpenBLAS
    computes a row of a product differently for another number of rows.
    Every dropout mask is drawn at full size, so the random stream does
    not depend on the rows. So a pass returns the same bits as one that
    computes the first layer on every row.
    """

    def __init__(self, a_hat, x: sp.csr_matrix, rows: dict[str, np.ndarray], hidden: int,
                 dropout: float):
        if sp.issparse(a_hat):
            a_hat = a_hat.tocsr()
        self.passes = {part: _Pass(a_hat, idx, hidden) for part, idx in rows.items()}
        self.dropout = dropout
        self.x, self.x_t = x, x.T
        if dropout > 0:
            self.x_drop = x.copy()
            self.x_drop_t = self.x_drop.T

    def _inputs(self, rng: np.random.Generator | None):
        """The input features of a pass and their transpose, dropped out
        when an `rng` is given and the rate is positive."""
        if rng is None or self.dropout == 0:
            return self.x, self.x_t
        self.x_drop.data[:] = _dropout(self.x.data, self.dropout, rng)
        return self.x_drop, self.x_drop_t

    def forward(self, w0: np.ndarray, w1: np.ndarray, part: str,
                rng: np.random.Generator | None):
        """Class probabilities of the rows of `part`, and the cache that
        :meth:`backward` takes. Inverted dropout on both layer inputs
        applies when an `rng` is given and the rate is positive."""
        p = self.passes[part]
        x_in, x_in_t = self._inputs(rng)
        s1 = p.a_hop @ (x_in @ w0)
        h = np.maximum(s1, 0.0)
        scale = None
        if rng is not None and self.dropout > 0:
            keep = 1.0 - self.dropout
            scale = (rng.random(p.h.shape)[p.hop] < keep) / keep
            h *= scale
        p.h[p.hop] = h
        z = _softmax_rows(p.a_rows @ (p.h @ w1))
        return z, (p, x_in_t, s1, scale)

    def backward(self, w0: np.ndarray, w1: np.ndarray, cache: tuple, z: np.ndarray,
                 y: np.ndarray, l2_weight: float, ce_scale: float) -> list[np.ndarray]:
        """Gradients of (ce_scale * cross-entropy summed over the output
        rows + L2) w.r.t. (W0, W1).

        `z` and `y` hold the output rows of the pass that returned `cache`,
        and no other pass may run in between: they share the engine's
        buffers. The output gradient lives on the rows S alone and the
        first-layer gradient on their 1-hop rows H, so the backward needs
        only P_Sᵀ and P_Hᵀ: the terms it skips are exact zeros.
        """
        p, x_in_t, s1, scale = cache
        g2 = (z - y) * ce_scale
        gw1 = (p.a_rows @ p.h).T @ g2
        gs1 = ((p.a_rows_t @ g2) @ w1.T)[p.hop]
        if scale is not None:
            gs1 *= scale
        gs1 *= s1 > 0
        gw0 = x_in_t @ (p.a_hop_t @ gs1) + l2_weight * w0
        return [np.asarray(gw0), gw1]


def forward(model: GcnModel, a_hat, x) -> np.ndarray:
    """Class probabilities in evaluation mode, one row per node, each
    summing to one, for any square operator `a_hat` (sparse, dense or
    implicit, symmetric or not). `x` may be dense or sparse; it enters as
    a CSR."""
    n = a_hat.shape[0]
    engine = _Engine(a_hat, sp.csr_matrix(x), {"all": np.arange(n)}, model.w0.shape[1], 0.0)
    z, _ = engine.forward(model.w0, model.w1, "all", None)
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
        ce += _l2_penalty(w0, l2_weight)
    return ce


def _l2_penalty(w0: np.ndarray, l2_weight: float) -> float:
    return 0.5 * l2_weight * float(np.sum(w0 * w0))


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
    the rows of `train_mask`, on `x` as a CSR. Exact for any square
    operator `a_hat`: the backward reads P_Hᵀ off P's 1-hop rows, so
    it needs no symmetry.
    """
    rows = np.flatnonzero(train_mask)
    engine = _Engine(a_hat, sp.csr_matrix(x), {"train": rows}, model.w0.shape[1], 0.0)
    z, cache = engine.forward(model.w0, model.w1, "train", None)
    gw0, gw1 = engine.backward(model.w0, model.w1, cache, z, y[rows], l2_weight, ce_scale=1.0)
    return gw0, gw1


class _Adam:
    """Adaptive-moment estimation with the standard defaults; updates the
    parameters and moments in place, through two scratch arrays each."""

    def __init__(self, shapes, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.scratch = [(np.empty(s), np.empty(s)) for s in shapes]

    def step(self, params, grads):
        """p -= lr·m̂/(√v̂ + eps), each product in the order of the textbook
        expression, so the update is that expression's bits."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self.scratch):
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            np.multiply(g, g, out=a)
            v += np.multiply(a, 1.0 - self.beta2, out=a)
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, bc1, out=b)
            b *= self.lr
            p -= np.divide(b, a, out=b)


def build_split(labels: np.ndarray, seed: int = 0) -> SplitSpec:
    """The published split: a stratified 5 % training set, a uniform 10 %
    validation set and the rest as the test set.

    The training quota is spread evenly across the classes that have a
    node (ceil of the ideal share each, then trimmed from the highest
    class indexes down to hit the total); validation nodes are drawn
    uniformly from the remainder. Deterministic per seed. Other splits
    are built as a :class:`SplitSpec` of masks.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    counts = np.bincount(labels)
    classes = np.flatnonzero(counts)
    f = len(classes)
    n_train = int(round(n * _TRAIN_PERCENT / 100.0))
    n_val = int(round(n * _VAL_PERCENT / 100.0))
    if n_train < max(f, 1):
        raise ValueError(f"{n} nodes give a training quota of {n_train}, below one node per "
                         f"class ({f} classes)")

    quotas = np.full(f, math.ceil(n_train / f), dtype=int)
    # The excess is below f, and a positive excess means every quota is at
    # least 2, so one node comes off each of the last `excess` classes.
    quotas[f - (int(quotas.sum()) - n_train):] -= 1
    short = np.flatnonzero(quotas > counts[classes])
    if short.size:
        c, quota = classes[short[0]], quotas[short[0]]
        raise ValueError(f"class {c} has {counts[c]} nodes, fewer than its training quota {quota}")

    rng = np.random.default_rng(seed)
    train_mask = np.zeros(n, dtype=bool)
    for c, quota in zip(classes, quotas):
        train_mask[rng.choice(np.flatnonzero(labels == c), size=quota, replace=False)] = True
    val_mask = np.zeros(n, dtype=bool)
    val_mask[rng.choice(np.flatnonzero(~train_mask), size=n_val, replace=False)] = True
    return SplitSpec(train_mask, val_mask, ~(train_mask | val_mask))


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
    and one-hot labels of the training nodes.

    Weights are drawn Glorot-uniform layer by layer for the given layer
    `widths`. Each epoch then runs the forward pass on the training nodes
    in training mode, checks the mean training loss is finite, takes one
    Adam step along the gradient, and computes the validation loss on the
    validation nodes in evaluation mode (`rng` None). The L2 penalty is
    computed once per weight update: the validation loss after a step and
    the next epoch's training loss read the same W0. Training stops once
    the validation loss has not improved for `patience` consecutive
    epochs; the final-epoch weights are evaluated on the test nodes.
    """
    y = one_hot(dataset.labels, dataset.num_classes)
    y_train, y_val = y[rows["train"]], y[rows["val"]]
    n_val = len(y_val)
    every = slice(None)  # z and y hold only the rows a loss sums over

    rng = np.random.default_rng(config.seed)
    weights = [_glorot(rng, fan_in, fan_out) for fan_in, fan_out in zip(widths, widths[1:])]
    optimizer = _Adam([w.shape for w in weights], lr=config.learning_rate)

    def mean_loss(z, y_part, penalty):
        ce = loss(z, y_part, every)
        if config.l2_weight:
            ce += penalty
        return ce / len(y_part)

    report = TrainReport(variant=variant, seed=config.seed, epochs_run=0)
    best_val = np.inf
    stale = 0
    penalty = _l2_penalty(weights[0], config.l2_weight)
    for epoch in range(1, config.max_epochs + 1):
        z, cache = forward_fn(weights, "train", rng)
        report.train_losses.append(_check_finite(mean_loss(z, y_train, penalty), epoch))
        optimizer.step(weights, backward_fn(weights, cache, z, y_train))
        penalty = _l2_penalty(weights[0], config.l2_weight)
        report.epochs_run = epoch

        if n_val:
            z_val, _ = forward_fn(weights, "val", None)
            val_loss = mean_loss(z_val, y_val, penalty)
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
    for :func:`_fit`: one :class:`_Engine` over the split parts, built
    once per training."""
    x = _model_features(dataset, variant)
    engine = _Engine(propagation_operator(dataset, variant), x, rows,
                     config.hidden_units, config.dropout)

    def forward_fn(weights, part, rng):
        return engine.forward(*weights, part, rng)

    def backward_fn(weights, cache, z, y):
        return engine.backward(*weights, cache, z, y, config.l2_weight, ce_scale=1.0 / len(y))

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
    non-finite loss, and ValueError for a `split` whose masks overlap,
    leave a node out, train on no node or are not one entry per node.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r} (expected one of {VARIANTS})")
    if split is None:
        split = build_split(dataset.labels)
    split.validate()
    if len(split.train_mask) != dataset.n_nodes:
        raise ValueError("split masks must have one entry per node")
    rows = _split_rows(split)
    if variant == "sgc":
        model = _sgc_model(dataset, config, rows)
    else:
        model = _gcn_model(dataset, variant, config, rows)
    return _fit(variant, *model, dataset, config, rows)
