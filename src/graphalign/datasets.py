"""Dataset model: features + graph + ground truth, loaders and transforms.

A dataset couples a node-feature matrix X (N x C0), an undirected simple
graph given by its 0/1 adjacency matrix (N x N), and an integer class
label per node. All loaders and generators normalize into this one
in-memory form; everything downstream (randomization, subspace analysis,
model training) consumes it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Dataset",
    "ConstructiveSpec",
    "load_dataset",
    "save_dataset",
    "largest_connected_component",
    "generate_constructive",
]


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files (ragged rows, unknown ids, ...)."""


def _integer(name: str, value, low: int | None = None, high: int | None = None):
    """`value` if an integer in [low, high] (numpy's too, a bool not), else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value!r}")
    return value


def _choice(name: str, value, options: tuple):
    """A ValueError unless `value` is one of `options`."""
    if value not in options:
        raise ValueError(f"unknown {name}: {value!r} (expected one of {options})")


@dataclass(eq=False)
class Dataset:
    """Features, graph and ground truth for one node-classification problem.

    Attributes:
        node_ids: unique opaque string id per node, length N.
        features: dense real matrix, N x C0.
        adjacency: symmetric 0/1 CSR matrix, N x N, zero diagonal.
        labels: integer vector of length N with values in [0, num_classes).
        num_classes: number of ground-truth classes F.
    """

    node_ids: list[str]
    features: np.ndarray
    adjacency: sp.csr_matrix
    labels: np.ndarray
    num_classes: int

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2

    def validate(self) -> None:
        """Check the structural invariants; raise ValueError on violation."""
        n = self.n_nodes
        if len(set(self.node_ids)) != n:
            raise ValueError("node ids are not unique")
        if self.features.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError("features/labels length does not match node count")
        if self.adjacency.shape != (n, n):
            raise ValueError("adjacency shape does not match node count")
        a = self.adjacency
        if a.diagonal().any():
            raise ValueError("adjacency has nonzero diagonal")
        if (a != a.T).nnz != 0:
            raise ValueError("adjacency is not symmetric")
        if a.nnz and not np.all(a.data == 1):
            raise ValueError("adjacency entries must be 0/1")
        _integer("num_classes", self.num_classes, low=2)
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
            raise ValueError("labels out of range")


@dataclass(frozen=True)
class ConstructiveSpec:
    """Parameters of the planted-community benchmark generator.

    Graph and features share one stochastic block structure: node blocks of
    size n_nodes/n_communities, feature blocks of size features_per_community,
    with within-block probability p_in and p_out elsewhere.
    """

    n_nodes: int = 1000
    n_communities: int = 10
    n_features: int = 500
    features_per_community: int = 50
    p_in: float = 0.07
    p_out: float = 0.007
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n_nodes", 1), ("n_communities", 2), ("n_features", 1),
                          ("features_per_community", 1), ("seed", 0)):
            _integer(name, getattr(self, name), low=low)
        if self.n_nodes % self.n_communities:  # also refuses fewer nodes than communities
            raise ValueError("n_nodes must be divisible by n_communities")
        if self.features_per_community * self.n_communities != self.n_features:
            raise ValueError("features_per_community * n_communities must equal n_features")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out <= p_in <= 1")


def _edges_to_adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric 0/1 CSR adjacency of the simple graph on an (m, 2) array
    of node pairs. Self-loops drop, and repeated or reversed pairs collapse
    into one undirected edge. The generator, both loaders and the rewiring
    build every graph here."""
    u, v = edges[edges[:, 0] != edges[:, 1]].T
    a = sp.csr_matrix((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])), shape=(n, n))
    a.data[:] = 1.0
    return a


def _edge_array(adjacency: sp.spmatrix) -> np.ndarray:
    """Undirected edges as an (m, 2) array of index pairs with i < j."""
    coo = sp.triu(adjacency, k=1).tocoo()
    return np.column_stack([coo.row, coo.col]).astype(np.int64)


def _read_edge_list(path: Path, index: dict[str, int]) -> np.ndarray:
    """The file's (u, v) index pairs, as written, as an (m, 2) array."""
    edges: list[tuple[int, int]] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected two node ids, got {len(tokens)} tokens"
                )
            try:
                edges.append((index[tokens[0]], index[tokens[1]]))
            except KeyError as exc:
                raise DatasetFormatError(
                    f"{path}:{lineno}: unknown node id {exc.args[0]!r}"
                ) from None
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _read_feature_rows(
    path: Path, decode_label: Callable[[str], object], kind: str
) -> tuple[list[str], np.ndarray, list]:
    """Parse `<id> <v1> ... <vC> <label>` rows.

    The two formats differ only in the label column, which
    `decode_label` turns into a label (a ValueError from it means the
    column is not an integer). `kind` names the file in the empty-file
    error.
    """
    ids: list[str] = []
    rows: list[list[float]] = []
    labels: list = []
    width = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) < 3:
                raise DatasetFormatError(
                    f"{path}:{lineno}: need id, features and a label column"
                )
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise DatasetFormatError(
                    f"{path}:{lineno}: ragged row ({len(tokens)} columns, expected {width})"
                )
            ids.append(tokens[0])
            try:
                values = [float(t) for t in tokens[1:-1]]
            except ValueError:
                raise DatasetFormatError(f"{path}:{lineno}: non-numeric feature value") from None
            if not all(map(math.isfinite, values)):
                raise DatasetFormatError(f"{path}:{lineno}: non-finite feature value")
            rows.append(values)
            try:
                labels.append(decode_label(tokens[-1]))
            except ValueError:
                raise DatasetFormatError(
                    f"{path}:{lineno}: label column must be an integer"
                ) from None
    if not ids:
        raise DatasetFormatError(f"{path}: empty {kind} file")
    return ids, np.asarray(rows, dtype=np.float64), labels


def load_dataset(edges_path: str | Path, features_path: str | Path,
                 format: str = "generic") -> Dataset:
    """Load a dataset from an edge list plus a per-node feature/label file.

    `format="cora"` reads the published content/cites layout (features are
    0/1, label is a class name, edges are `<cited> <citing>`).
    `format="generic"` reads `<id> <v1> ... <vC> <label>` feature rows and
    whitespace-separated id pairs for edges, which
    :func:`_edges_to_adjacency` makes a simple undirected graph. Every edge
    endpoint must appear in the features file.
    """
    _choice("dataset format", format, ("generic", "cora"))
    edges_path, features_path = Path(edges_path), Path(features_path)
    if format == "cora":
        ids, features, class_names = _read_feature_rows(features_path, str, "content")
        # Class names map to label indices in lexicographic order so the
        # indexing is reproducible across runs and machines.
        class_index = {c: i for i, c in enumerate(sorted(set(class_names)))}
        labels = np.array([class_index[c] for c in class_names], dtype=np.int64)
        num_classes = len(class_index)
    else:
        ids, features, int_labels = _read_feature_rows(features_path, int, "features")
        labels = np.array(int_labels, dtype=np.int64)
        if labels.min() < 0:
            raise DatasetFormatError(f"{features_path}: negative label")
        num_classes = int(labels.max()) + 1
    if len(set(ids)) != len(ids):
        raise DatasetFormatError(f"{features_path}: duplicate node ids")
    index = {node: i for i, node in enumerate(ids)}
    d = Dataset(
        node_ids=ids,
        features=features,
        adjacency=_edges_to_adjacency(len(ids), _read_edge_list(edges_path, index)),
        labels=labels,
        num_classes=num_classes,
    )
    d.validate()
    return d


def save_dataset(dataset: Dataset, edges_path: str | Path, features_path: str | Path) -> None:
    """Write a dataset in the generic text format (round-trips bit-exactly)."""
    with Path(features_path).open("w", encoding="utf-8") as fh:
        for i, node in enumerate(dataset.node_ids):
            values = " ".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{node} {values} {int(dataset.labels[i])}\n")
    with Path(edges_path).open("w", encoding="utf-8") as fh:
        for i, j in _edge_array(dataset.adjacency):
            fh.write(f"{dataset.node_ids[i]} {dataset.node_ids[j]}\n")


def largest_connected_component(dataset: Dataset) -> Dataset:
    """Restrict to the largest connected component of the graph.

    Ties between equally large components go to the one containing the
    smallest node index, so the result is deterministic.
    """
    from scipy.sparse.csgraph import connected_components

    n_comp, membership = connected_components(dataset.adjacency, directed=False)
    if n_comp <= 1:
        return dataset
    component_size = np.bincount(membership)[membership]  # per node
    winner = membership[np.argmax(component_size == component_size.max())]
    keep = np.flatnonzero(membership == winner)
    return Dataset(
        node_ids=[dataset.node_ids[i] for i in keep],
        features=dataset.features[keep].copy(),
        adjacency=dataset.adjacency[keep][:, keep].tocsr(),
        labels=dataset.labels[keep].copy(),
        num_classes=dataset.num_classes,
    )


def generate_constructive(spec: ConstructiveSpec) -> Dataset:
    """Generate the planted-community benchmark dataset.

    Community c owns the node block [c*N/K, (c+1)*N/K) and the feature
    block [c*features_per_community, (c+1)*features_per_community).
    Every intra-community edge and feature entry is present with
    probability p_in, everything else with p_out. Features are binary
    (a node either possesses a feature or it does not). Labels are the
    community indices. Deterministic per seed.
    """
    n, k = spec.n_nodes, spec.n_communities
    block = n // k
    labels = np.repeat(np.arange(k), block)
    feature_owner = np.repeat(np.arange(k), spec.features_per_community)

    # Both streams are drawn one community row block at a time: the same
    # numbers, in the same order, as one n x n (and n x C) draw.
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0)))
    rng_feat = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
    features = np.empty((n, spec.n_features))
    pairs = []
    for c, start in enumerate(range(0, n, block)):
        prob = np.where(labels == c, spec.p_in, spec.p_out)
        feat_prob = np.where(feature_owner == c, spec.p_in, spec.p_out)
        rows, cols = np.nonzero(np.triu(rng.random((block, n)) < prob, k=start + 1))
        pairs.append(np.column_stack([rows + start, cols]))
        features[start:start + block] = rng_feat.random((block, spec.n_features)) < feat_prob

    return Dataset(
        node_ids=[f"n{i}" for i in range(n)],
        features=features,
        adjacency=_edges_to_adjacency(n, np.concatenate(pairs)),
        labels=labels,
        num_classes=k,
    )


def row_normalize_features(features: np.ndarray) -> np.ndarray:
    """Scale each row to unit L1 norm, the row over its sum when no entry
    is negative; all-zero rows stay zero."""
    x = np.asarray(features, dtype=np.float64)
    norms = np.abs(x).sum(axis=1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms != 0)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """0-1 membership matrix, one row per node with a single 1."""
    _integer("num_classes", num_classes, low=1)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"label out of range [0, {num_classes})")
    return np.eye(num_classes)[labels]
