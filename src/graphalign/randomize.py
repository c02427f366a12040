"""Controlled degradation of graph structure and node features.

Both procedures scramble a chosen percentage of the information while
holding everything else fixed: graph rewiring re-pairs edge stubs so the
degree sequence of the rewired part is preserved (before cleanup), and
feature randomization permutes whole rows so the multiset of feature
vectors, and hence the feature spectrum, is untouched.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .datasets import _edge_array, _edges_to_adjacency, _integer

__all__ = ["randomize_graph", "randomize_features"]


def derive_seed(base_seed: int, *parts: int) -> int:
    """Deterministic child seed for (base_seed, *parts): each tuple hashes
    to an independent stream (the sweep's rule:
    :func:`graphalign.experiments.run_sweep_multi`)."""
    for name, value in (("base_seed", base_seed), *(("parts", part) for part in parts)):
        _integer(name, value, low=0)
    ss = np.random.SeedSequence((base_seed, *parts))
    return int(ss.generate_state(1, np.uint64)[0])


def rewire_stubs(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform stub re-pairing of an edge set.

    Each edge contributes two stubs (half-edges); the pooled stub list is
    shuffled and paired off into new edges. Every node keeps exactly its
    degree from `edges`, so the pre-cleanup degree sequence is preserved.
    The result may contain self-loops and parallel edges.
    """
    stubs = edges.reshape(-1)
    shuffled = stubs[rng.permutation(stubs.shape[0])]
    return shuffled.reshape(-1, 2)


def randomize_graph(adjacency: sp.spmatrix, p_graph: float, seed: int) -> sp.csr_matrix:
    """Rewire a percentage of the graph's edge stubs, degree-preservingly.

    Selects floor(|E| * p/100) edges, re-pairs their stubs at random, then
    builds the simple graph of them and the untouched edges
    (:func:`graphalign.datasets._edges_to_adjacency`), so its edge count
    never exceeds the input's. p=0 returns the graph unchanged.
    """
    _integer("seed", seed, low=0)
    if not (0 <= p_graph <= 100):
        raise ValueError("p_graph must lie in [0, 100]")
    adjacency = adjacency.tocsr()
    edges = _edge_array(adjacency)
    m = len(edges)
    n_rewire = int(np.floor(m * p_graph / 100.0))
    if n_rewire == 0:
        return adjacency.copy()

    rng = np.random.default_rng(seed)
    chosen = rng.choice(m, size=n_rewire, replace=False)
    rewired = rewire_stubs(edges[chosen], rng)
    kept = np.delete(edges, chosen, axis=0)
    return _edges_to_adjacency(adjacency.shape[0], np.concatenate([kept, rewired]))


def feature_permutation(n_rows: int, p_features: float, seed: int) -> np.ndarray:
    """Row index array of the feature randomization.

    floor(N * p/100) distinct rows are drawn uniformly and receive a
    uniform random permutation of themselves; all other rows map to
    themselves. Row i of the randomized copy is row ``perm[i]`` of the
    input, so ``randomize_features(x, p, seed)`` equals
    ``x[feature_permutation(len(x), p, seed)]``. p=0 is the identity.
    """
    _integer("n_rows", n_rows, low=0)
    _integer("seed", seed, low=0)
    if not (0 <= p_features <= 100):
        raise ValueError("p_features must lie in [0, 100]")
    perm = np.arange(n_rows)
    n_swap = int(np.floor(n_rows * p_features / 100.0))
    if n_swap == 0:
        return perm
    rng = np.random.default_rng(seed)
    rows = rng.choice(n_rows, size=n_swap, replace=False)
    perm[rows] = rows[rng.permutation(n_swap)]
    return perm


def randomize_features(features: np.ndarray, p_features: float, seed: int) -> np.ndarray:
    """Swap the feature vectors of a percentage of randomly chosen nodes.

    The rows are permuted by :func:`feature_permutation`, so the multiset
    of rows (and therefore the singular value spectrum) is preserved
    exactly. p=0 returns a copy of the input.
    """
    x = np.asarray(features)
    return x[feature_permutation(x.shape[0], p_features, seed)]
