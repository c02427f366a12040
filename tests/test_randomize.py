import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphalign import (
    derive_seed,
    feature_permutation,
    randomize_features,
    randomize_graph,
    row_normalize_features,
)
from graphalign.randomize import rewire_stubs
from graphalign.subspaces import left_singular_factor

from conftest import make_dataset


def _degrees(adjacency):
    return np.asarray(adjacency.sum(axis=1)).ravel()


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    seen = {derive_seed(0, i, j) for i in range(20) for j in range(3)}
    assert len(seen) == 60
    assert all(0 <= s < 2**64 for s in seen)


def test_p_zero_is_identity():
    for seed in range(20):
        ds = make_dataset(seed=seed)
        a = randomize_graph(ds.adjacency, 0, seed)
        assert (a != ds.adjacency).nnz == 0
        assert a is not ds.adjacency
        x = randomize_features(ds.features, 0, seed)
        assert np.array_equal(x, ds.features)
        assert x is not ds.features


def _all_matchings(stubs):
    """Every way to pair off an even-length list, as edge tuples."""
    if not stubs:
        yield []
        return
    first, rest = stubs[0], stubs[1:]
    for i in range(len(rest)):
        partner = rest[i]
        remaining = rest[:i] + rest[i + 1:]
        for tail in _all_matchings(remaining):
            yield [(first, partner)] + tail


def test_triangle_stub_matchings_preserve_degrees():
    """On the triangle every one of the 15 stub pairings keeps degrees (2,2,2).

    Self-loops count twice toward their endpoint, as usual for multigraphs.
    """
    stubs = [0, 1, 0, 2, 1, 2]
    matchings = list(_all_matchings(stubs))
    assert len(matchings) == 15
    for pairing in matchings:
        deg = np.zeros(3, dtype=int)
        for u, v in pairing:
            deg[u] += 1
            deg[v] += 1
        assert deg.tolist() == [2, 2, 2]


def test_rewire_stubs_is_a_valid_matching():
    triangle = np.array([[0, 1], [0, 2], [1, 2]])
    outcomes = set()
    for seed in range(200):
        rewired = rewire_stubs(triangle, np.random.default_rng(seed))
        deg = np.zeros(3, dtype=int)
        for u, v in rewired:
            deg[u] += 1
            deg[v] += 1
        assert deg.tolist() == [2, 2, 2]
        outcomes.add(tuple(sorted((min(u, v), max(u, v)) for u, v in rewired)))
    # the shuffle actually explores distinct pairings, not just the input
    assert len(outcomes) > 1


def test_rewire_stubs_empty():
    out = rewire_stubs(np.empty((0, 2), dtype=np.int64), np.random.default_rng(0))
    assert out.shape == (0, 2)


def test_randomize_graph_structure():
    ds = make_dataset(n=30, seed=1,
                      edges=tuple((i, (i * 7 + 3) % 30) for i in range(25)))
    m = ds.n_edges
    for p in (10, 50, 100):
        a = randomize_graph(ds.adjacency, p, seed=5)
        assert (a != a.T).nnz == 0
        assert not a.diagonal().any()
        assert a.nnz == 0 or set(np.unique(a.data)) == {1.0}
        assert a.nnz // 2 <= m
        # determinism
        again = randomize_graph(ds.adjacency, p, seed=5)
        assert (a != again).nnz == 0


def test_randomize_graph_touches_only_selected_edges():
    ds = make_dataset(n=30, seed=2,
                      edges=tuple((i, (i * 11 + 5) % 30) for i in range(20)))
    m = ds.n_edges
    p = 20
    n_rewire = int(np.floor(m * p / 100))
    a = randomize_graph(ds.adjacency, p, seed=3)
    before = set(zip(*sp.triu(ds.adjacency, k=1).nonzero()))
    after = set(zip(*sp.triu(a, k=1).nonzero()))
    assert len(before & after) >= m - n_rewire


def test_randomize_graph_degrees_never_grow():
    """Cleanup only removes self-loops/duplicates, so degrees cannot increase."""
    ds = make_dataset(n=40, seed=3,
                      edges=tuple((i, (i * 13 + 7) % 40) for i in range(35)))
    d0 = _degrees(ds.adjacency)
    for seed in range(5):
        d1 = _degrees(randomize_graph(ds.adjacency, 100, seed))
        assert np.all(d1 <= d0)


def _set_based_randomize_graph(adjacency, p_graph, seed):
    """The cleanup as it was written with a Python set of (i < j) tuples."""
    upper = sp.triu(adjacency, k=1).tocoo()
    edges = np.column_stack([upper.row, upper.col]).astype(np.int64)
    m = len(edges)
    n_rewire = int(np.floor(m * p_graph / 100.0))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(m, size=n_rewire, replace=False)
    keep_mask = np.ones(m, dtype=bool)
    keep_mask[chosen] = False
    rewired = rewire_stubs(edges[chosen], rng)
    final = {(int(u), int(v)) for u, v in edges[keep_mask]}
    final.update((int(min(u, v)), int(max(u, v))) for u, v in rewired if u != v)
    rows = np.fromiter((e[0] for e in final), dtype=np.int64, count=len(final))
    cols = np.fromiter((e[1] for e in final), dtype=np.int64, count=len(final))
    a = sp.coo_matrix((np.ones(len(final)), (rows, cols)), shape=adjacency.shape)
    a = (a + a.T).tocsr()
    a.data[:] = 1.0
    return a


def test_randomize_graph_matches_set_based_cleanup(small_constructive, tiny_dataset):
    """Building the rewired graph with `_edges_to_adjacency`, which drops
    self-loops and collapses repeated pairs, gives the CSR arrays, bit for
    bit, that the set of index tuples gave."""
    for adjacency in (small_constructive.adjacency, tiny_dataset.adjacency):
        for p in (1, 10, 50, 100):
            for seed in range(5):
                got = randomize_graph(adjacency, p, seed)
                want = _set_based_randomize_graph(adjacency, p, seed)
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, field), getattr(want, field))
                    assert getattr(got, field).dtype == getattr(want, field).dtype


def test_randomize_graph_rejects_bad_percent(tiny_dataset):
    with pytest.raises(ValueError):
        randomize_graph(tiny_dataset.adjacency, 101, 0)


def test_randomize_features_preserves_row_multiset():
    rng = np.random.default_rng(0)
    x = rng.random((40, 6))
    for p in (10, 35, 50, 100):
        x2 = randomize_features(x, p, seed=9)
        assert np.array_equal(np.sort(x2, axis=0), np.sort(x, axis=0))
        s0 = np.linalg.svd(x, compute_uv=False)
        s1 = np.linalg.svd(x2, compute_uv=False)
        assert np.abs(s0 - s1).max() < 1e-9
        changed = int((x2 != x).any(axis=1).sum())
        assert changed <= int(np.floor(40 * p / 100))


def test_randomize_features_deterministic():
    x = np.random.default_rng(1).random((15, 3))
    a = randomize_features(x, 60, seed=4)
    b = randomize_features(x, 60, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, randomize_features(x, 60, seed=5))


def _swap_rows_reference(x, p, seed):
    """The in-place row swap that randomize_features ran before the row
    draw became feature_permutation, kept to pin the draw order."""
    x = np.array(x, copy=True)
    n_swap = int(np.floor(x.shape[0] * p / 100.0))
    if n_swap:
        rng = np.random.default_rng(seed)
        rows = rng.choice(x.shape[0], size=n_swap, replace=False)
        x[rows] = x[rows[rng.permutation(n_swap)]]
    return x


def test_randomize_features_is_row_permutation():
    n = 37
    x = np.random.default_rng(2).random((n, 5))
    for p in range(0, 101, 10):
        for seed in (0, 3):
            perm = feature_permutation(n, p, seed)
            assert np.array_equal(np.sort(perm), np.arange(n))
            assert int((perm != np.arange(n)).sum()) <= int(np.floor(n * p / 100))
            assert np.array_equal(randomize_features(x, p, seed), x[perm])
            assert np.array_equal(x[perm], _swap_rows_reference(x, p, seed))
    with pytest.raises(ValueError):
        feature_permutation(n, 100.5, 0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    x=arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 8)),
             elements=st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 3.0, 5.0])),
    copies=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
    zeros=st.lists(st.integers(0, 11), max_size=2),
    p=st.sampled_from(range(0, 101, 10)),
    seed=st.integers(0, 2**32 - 1),
)
def test_left_factor_of_permuted_rows_is_permuted_factor(x, copies, zeros, p, seed):
    """U(P X) = P U(X) bit for bit, for the raw and the row-normalized
    matrix (normalization acts row by row), with duplicate and zero rows;
    every column of U is orthonormal, also past the rank."""
    n = x.shape[0]
    for dst, src in copies:
        x[dst % n] = x[src % n]
    x[[z % n for z in zeros]] = 0.0
    perm = feature_permutation(n, p, seed)
    for m in (x, row_normalize_features(x)):
        u, s = left_singular_factor(m)
        u_perm, s_perm = left_singular_factor(m[perm])
        assert u_perm.tobytes() == u[perm].tobytes()
        assert s_perm.tobytes() == s.tobytes()
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-12


def test_randomize_features_rejects_bad_percent():
    with pytest.raises(ValueError):
        randomize_features(np.ones((3, 2)), -0.5, 0)
