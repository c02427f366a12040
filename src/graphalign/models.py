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

Every variant runs on one engine protocol (:func:`_engine`), which
:func:`train`, :func:`forward` and :func:`gradients` all build, so the
latter two evaluate every model :func:`train` returns. Each pass computes
only the output rows S it reads (the training, validation or test
nodes), and the first layer only on their 1-hop rows, bit for bit as on
every row (:class:`_Engine`). The simplified variant slices its
propagated features P^K X once per split part (:class:`_SgcEngine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .datasets import Dataset, _choice, _integer, one_hot, row_normalize_features
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
        for name, low in (("hidden_units", 1), ("max_epochs", 1), ("patience", 1), ("seed", 0)):
            _integer(name, getattr(self, name), low=low)
        if not all(map(math.isfinite, (self.learning_rate, self.dropout, self.l2_weight))):
            raise ValueError("learning_rate, dropout and l2_weight must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
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
        self.n = _integer("n", n, low=1)
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
    _choice("variant", variant, VARIANTS)
    if variant == "no_graph":
        return sp.identity(dataset.n_nodes, format="csr")
    if variant == "complete_graph":
        return MeanFieldPropagation(dataset.n_nodes)
    return normalized_adjacency(dataset.adjacency)


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
    """The two-layer model in the protocol of :func:`_engine`, every
    operator built once: one :class:`_Pass` per output row set in `rows`,
    and for the CSR features `x` a held CSR that dropout writes into. Every
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
                 dropout: float, l2_weight: float, n_mean: int):
        if sp.issparse(a_hat):
            a_hat = a_hat.tocsr()
        self.passes = {part: _Pass(a_hat, idx, hidden) for part, idx in rows.items()}
        self.widths = (x.shape[1], hidden)
        self.dropout, self.l2_weight, self.ce_scale = dropout, l2_weight, 1.0 / n_mean
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

    def forward(self, weights: list[np.ndarray], part: str, rng: np.random.Generator | None):
        """Inverted dropout on both layer inputs when an `rng` is given."""
        w0, w1 = weights
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

    def backward(self, weights: list[np.ndarray], cache: tuple, z: np.ndarray,
                 y: np.ndarray) -> list[np.ndarray]:
        """No other pass may run between the forward that returned `cache`
        and this: they share the engine's buffers. The output gradient
        lives on the rows S alone and the first-layer gradient on their
        1-hop rows H, so the backward needs only P_Sᵀ and P_Hᵀ: the terms
        it skips are exact zeros.
        """
        w0, w1 = weights
        p, x_in_t, s1, scale = cache
        g2 = (z - y) * self.ce_scale
        gw1 = (p.a_rows @ p.h).T @ g2
        gs1 = ((p.a_rows_t @ g2) @ w1.T)[p.hop]
        if scale is not None:
            gs1 *= scale
        gs1 *= s1 > 0
        gw0 = x_in_t @ (p.a_hop_t @ gs1) + self.l2_weight * w0
        return [np.asarray(gw0), gw1]


class _SgcEngine:
    """The single-layer simplified model softmax(P^K X W0) in the protocol
    of :func:`_engine`: P^K X is computed once, densely, and sliced once
    per output row set in `rows`. With no hidden layer there is no dropout."""

    def __init__(self, a_hat, x, rows: dict[str, np.ndarray], l2_weight: float, n_mean: int):
        s = x.toarray() if sp.issparse(x) else np.asarray(x, dtype=float)
        for _ in range(_SGC_DEGREE):
            s = a_hat @ s
        self.s_rows = {part: s[idx] for part, idx in rows.items()}
        self.widths = (s.shape[1],)
        self.l2_weight, self.n_mean = l2_weight, n_mean

    def forward(self, weights: list[np.ndarray], part: str, rng: np.random.Generator | None):
        s = self.s_rows[part]
        return _softmax_rows(s @ weights[0]), s

    def backward(self, weights: list[np.ndarray], cache: np.ndarray, z: np.ndarray,
                 y: np.ndarray) -> list[np.ndarray]:
        return [cache.T @ ((z - y) / self.n_mean) + self.l2_weight * weights[0]]


def _engine(a_hat, x, rows: dict[str, np.ndarray], hidden: int | None, dropout: float,
            l2_weight: float, n_mean: int):
    """The passes of a model over the output row sets `rows` (node indexes
    by part name): the two-layer :class:`_Engine` with `hidden` units, or
    the simplified :class:`_SgcEngine` when `hidden` is None. Every engine
    has one protocol: ``forward(weights, part, rng)`` returns the class
    probabilities of the rows of `part` and a cache (dropout on when an
    `rng` is given), and ``backward(weights, cache, z, y)`` the gradients,
    one per weight matrix, of the cross-entropy of those rows divided by
    `n_mean`, plus l2_weight/2 ‖W0‖². `widths` holds each layer's input width.
    """
    if hidden is None:
        return _SgcEngine(a_hat, x, rows, l2_weight, n_mean)
    return _Engine(a_hat, sp.csr_matrix(x), rows, hidden, dropout, l2_weight, n_mean)


def _evaluation_pass(model: GcnModel, a_hat, x, rows: np.ndarray, l2_weight: float = 0.0):
    """One pass of `model`, dropout off and the cross-entropy summed, on
    the node indexes `rows`: its engine, weights, probabilities and cache."""
    weights = [model.w0] if model.w1 is None else [model.w0, model.w1]
    hidden = None if model.w1 is None else model.w0.shape[1]
    engine = _engine(a_hat, x, {"rows": rows}, hidden, 0.0, l2_weight, 1)
    return (engine, weights, *engine.forward(weights, "rows", None))


def forward(model: GcnModel, a_hat, x) -> np.ndarray:
    """Class probabilities in evaluation mode, one row per node, each
    summing to one, for any square operator `a_hat` (sparse, dense or
    implicit, symmetric or not): of the two-layer model, on `x` as a CSR,
    or, when W1 is None, of the simplified model softmax(P^K X W0), K = 2.
    `x` may be dense or sparse."""
    return _evaluation_pass(model, a_hat, x, np.arange(a_hat.shape[0]))[2]


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
) -> tuple[np.ndarray, ...]:
    """Analytic gradients of :func:`loss` at the given weights, dropout
    off: (dW0, dW1), or (dW0,) for the simplified model (W1 None).

    Runs the training engine's forward and backward pass, restricted to
    the rows `train_mask` selects as :func:`loss` reads it (a boolean
    mask, or any numpy index). Exact for any square operator `a_hat`: the
    backward reads P_Hᵀ off P's 1-hop rows, so it needs no symmetry.
    """
    rows = np.arange(len(y))[train_mask]
    engine, weights, z, cache = _evaluation_pass(model, a_hat, x, rows, l2_weight)
    return tuple(engine.backward(weights, cache, z, y[rows]))


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
    _integer("seed", seed, low=0)
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


def _fit(variant: str, engine, dataset: Dataset, config: GcnConfig,
         rows: dict[str, np.ndarray]) -> TrainReport:
    """The early-stopping training loop shared by every variant.

    `rows` holds the node indexes of each split part (``"train"``,
    ``"val"``, ``"test"``), and `engine` the variant's passes over them in
    the protocol of :func:`_engine`, its gradients those of the mean loss
    over the training nodes.

    Weights are drawn Glorot-uniform layer by layer, for the engine's
    `widths` and one output per class. Each epoch then runs the forward
    pass on the training nodes in training mode, checks the mean training
    loss is finite, takes one Adam step along the gradient, and computes
    the validation loss on the validation nodes in evaluation mode (`rng`
    None). The L2 penalty is computed once per weight update: the
    validation loss after a step and the next epoch's training loss read
    the same W0. Training stops once the validation loss has not improved
    for `patience` consecutive epochs; the final-epoch weights are
    evaluated on the test nodes.
    """
    y = one_hot(dataset.labels, dataset.num_classes)
    y_train, y_val = y[rows["train"]], y[rows["val"]]
    n_val = len(y_val)
    every = slice(None)  # z and y hold only the rows a loss sums over

    widths = engine.widths + (dataset.num_classes,)
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
        z, cache = engine.forward(weights, "train", rng)
        report.train_losses.append(_check_finite(mean_loss(z, y_train, penalty), epoch))
        optimizer.step(weights, engine.backward(weights, cache, z, y_train))
        penalty = _l2_penalty(weights[0], config.l2_weight)
        report.epochs_run = epoch

        if n_val:
            z_val, _ = engine.forward(weights, "val", None)
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

    z_test, _ = engine.forward(weights, "test", None)
    report.test_accuracy = _accuracy(z_test, dataset.labels[rows["test"]])
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
    is evaluated, dropout off). The simplified variant ``"sgc"`` fits a
    single linear softmax layer to P^K X, K = 2, without dropout (there is
    no hidden layer to regularize). Raises :class:`TrainingDiverged` on a
    non-finite loss, and ValueError for a `split` whose masks overlap,
    leave a node out, train on no node or are not one entry per node.
    """
    _choice("variant", variant, VARIANTS)
    if split is None:
        split = build_split(dataset.labels)
    split.validate()
    if len(split.train_mask) != dataset.n_nodes:
        raise ValueError("split masks must have one entry per node")
    rows = _split_rows(split)
    hidden = None if variant == "sgc" else config.hidden_units
    engine = _engine(propagation_operator(dataset, variant), _model_features(dataset, variant),
                     rows, hidden, config.dropout, config.l2_weight, len(rows["train"]))
    return _fit(variant, engine, dataset, config, rows)
