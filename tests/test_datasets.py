import math

import numpy as np
import pytest
import scipy.sparse as sp

from graphalign import (
    ConstructiveSpec,
    Dataset,
    generate_constructive,
    largest_connected_component,
    load_dataset,
    save_dataset,
)
from graphalign.datasets import (
    DatasetFormatError,
    _edges_to_adjacency,
    one_hot,
    row_normalize_features,
)
from graphalign.models import MeanFieldPropagation, _model_features, propagation_operator
from graphalign.subspaces import normalized_adjacency

from conftest import make_dataset


def test_roundtrip_generic(tmp_path, tiny_dataset):
    """Saving and reloading in the generic format is bit-exact."""
    edges, feats = tmp_path / "e.txt", tmp_path / "f.txt"
    save_dataset(tiny_dataset, edges, feats)
    back = load_dataset(edges, feats, format="generic")
    assert back.node_ids == tiny_dataset.node_ids
    assert np.array_equal(back.features, tiny_dataset.features)
    assert np.array_equal(back.labels, tiny_dataset.labels)
    assert (back.adjacency != tiny_dataset.adjacency).nnz == 0
    assert back.num_classes == tiny_dataset.num_classes


def test_load_cora_format(tmp_path):
    content = tmp_path / "x.content"
    cites = tmp_path / "x.cites"
    content.write_text(
        "p1 1 0 1 Theory\n"
        "p2 0 1 0 Neural_Networks\n"
        "p3 1 1 0 Theory\n"
    )
    cites.write_text("p1 p2\np2 p3\np3 p3\n")  # self-citation dropped
    ds = load_dataset(cites, content, format="cora")
    assert ds.n_nodes == 3 and ds.n_features == 3
    # class names indexed lexicographically: Neural_Networks=0, Theory=1
    assert ds.labels.tolist() == [1, 0, 1]
    assert ds.n_edges == 2
    ds.validate()


def test_load_errors(tmp_path):
    feats = tmp_path / "f.txt"
    edges = tmp_path / "e.txt"
    edges.write_text("")

    for fmt in ("generic", "cora"):
        feats.write_text("a 1.0 2.0 0\nb 1.0 1\n")  # ragged
        with pytest.raises(DatasetFormatError, match="ragged"):
            load_dataset(edges, feats, format=fmt)

        feats.write_text("a 1.0 oops 0\n")
        with pytest.raises(DatasetFormatError, match="non-numeric"):
            load_dataset(edges, feats, format=fmt)

    feats.write_text("a 1.0 0\nb 2.0 Theory\n")
    with pytest.raises(DatasetFormatError, match=r"f\.txt:2: label column must be an integer"):
        load_dataset(edges, feats, format="generic")

    feats.write_text("a 1.0 0\nb 2.0 -1\n")
    with pytest.raises(DatasetFormatError, match="negative label"):
        load_dataset(edges, feats, format="generic")

    feats.write_text("a 0\n")  # no feature columns
    with pytest.raises(DatasetFormatError):
        load_dataset(edges, feats, format="generic")

    feats.write_text("a 1.0 0\nb 2.0 1\n")
    edges.write_text("a nosuch\n")
    with pytest.raises(DatasetFormatError, match="unknown node id"):
        load_dataset(edges, feats, format="generic")

    edges.write_text("a b c\n")
    with pytest.raises(DatasetFormatError, match="two node ids"):
        load_dataset(edges, feats, format="generic")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_feature_value_is_reported(tmp_path, value):
    """float() parses nan and inf; loaded, they failed the feature SVD
    much later with "SVD did not converge"."""
    feats, edges = tmp_path / "f.txt", tmp_path / "e.txt"
    edges.write_text("")
    for fmt, label in (("generic", "1"), ("cora", "Theory")):
        feats.write_text(f"a 1.0 0.0 {label}\nb 0.5 {value} {label}\n")
        with pytest.raises(DatasetFormatError, match=r"f\.txt:2: non-finite feature value"):
            load_dataset(edges, feats, format=fmt)


def test_duplicate_edges_collapse(tmp_path):
    (tmp_path / "f.txt").write_text("a 1.0 0\nb 2.0 1\nc 3.0 1\n")
    (tmp_path / "e.txt").write_text("a b\nb a\na b\nb c\n")
    ds = load_dataset(tmp_path / "e.txt", tmp_path / "f.txt")
    assert ds.n_edges == 2
    assert ds.adjacency.max() == 1


def test_validate_rejects_bad_structure(tiny_dataset):
    bad = Dataset(tiny_dataset.node_ids, tiny_dataset.features,
                  sp.csr_matrix(np.triu(tiny_dataset.adjacency.toarray())),
                  tiny_dataset.labels, tiny_dataset.num_classes)
    with pytest.raises(ValueError, match="symmetric"):
        bad.validate()

    loop = tiny_dataset.adjacency.toarray()
    loop[0, 0] = 1
    bad = Dataset(tiny_dataset.node_ids, tiny_dataset.features, sp.csr_matrix(loop),
                  tiny_dataset.labels, tiny_dataset.num_classes)
    with pytest.raises(ValueError, match="diagonal"):
        bad.validate()

    bad = Dataset(tiny_dataset.node_ids, tiny_dataset.features, tiny_dataset.adjacency,
                  tiny_dataset.labels, 1)
    with pytest.raises(ValueError, match="classes"):
        bad.validate()


def test_largest_connected_component():
    # two components: {0,1,2} and {3,4}; keep the larger one
    ds = make_dataset(n=5, edges=((0, 1), (1, 2), (3, 4)))
    lcc = largest_connected_component(ds)
    assert lcc.node_ids == ["v0", "v1", "v2"]
    assert lcc.n_edges == 2
    lcc.validate()

    # tie: both size 2; the component holding the smallest node index wins
    ds = make_dataset(n=4, edges=((0, 2), (1, 3)))
    lcc = largest_connected_component(ds)
    assert lcc.node_ids == ["v0", "v2"]


def test_generate_constructive_structure():
    spec = ConstructiveSpec(n_nodes=100, n_communities=5, n_features=20,
                            features_per_community=4, p_in=0.3, p_out=0.02, seed=3)
    ds = generate_constructive(spec)
    ds.validate()
    assert ds.n_nodes == 100 and ds.num_classes == 5 and ds.n_features == 20
    assert np.bincount(ds.labels).tolist() == [20] * 5
    assert set(np.unique(ds.features)) <= {0.0, 1.0}
    # same seed reproduces, different seed does not
    again = generate_constructive(spec)
    assert (again.adjacency != ds.adjacency).nnz == 0
    assert np.array_equal(again.features, ds.features)
    other = generate_constructive(ConstructiveSpec(
        n_nodes=100, n_communities=5, n_features=20, features_per_community=4,
        p_in=0.3, p_out=0.02, seed=4))
    assert (other.adjacency != ds.adjacency).nnz != 0


def expected_constructive_edges(spec: ConstructiveSpec) -> tuple[float, float]:
    """Expected (intra, inter) community edge counts for a generator spec."""
    n, k = spec.n_nodes, spec.n_communities
    within_pairs = k * math.comb(n // k, 2)
    across_pairs = math.comb(n, 2) - within_pairs
    return spec.p_in * within_pairs, spec.p_out * across_pairs


def test_constructive_edge_count_matches_expectation(constructive):
    intra, inter = expected_constructive_edges(ConstructiveSpec())
    assert abs(constructive.n_edges - (intra + inter)) < 240


def test_constructive_assortative(constructive):
    """Intra-community edges occur at ~10x the inter-community rate."""
    a = constructive.adjacency.tocoo()
    same = constructive.labels[a.row] == constructive.labels[a.col]
    intra, inter = expected_constructive_edges(ConstructiveSpec())
    assert abs(same.sum() / 2 - intra) < 200
    assert abs((~same).sum() / 2 - inter) < 200


def test_spec_invariants():
    with pytest.raises(ValueError):
        ConstructiveSpec(n_nodes=101)
    with pytest.raises(ValueError):
        ConstructiveSpec(n_features=499)
    with pytest.raises(ValueError):
        ConstructiveSpec(p_in=0.01, p_out=0.5)
    # Degenerate sizes: no or one community, no features, fewer nodes than communities.
    for sizes in ({"n_communities": 0, "n_features": 0}, {"n_communities": 1, "n_features": 50},
                  {"features_per_community": 0, "n_features": 0}, {"n_nodes": 0},
                  {"n_nodes": 5}):
        with pytest.raises(ValueError):
            ConstructiveSpec(**sizes)


@pytest.mark.parametrize("sizes, field", [
    ({"n_nodes": 100.0}, "n_nodes"),
    ({"n_communities": 2, "n_features": 10.0, "features_per_community": 5.0}, "n_features"),
    ({"n_communities": 10.0}, "n_communities"),
    ({"seed": 0.5}, "seed"),
])
def test_spec_rejects_non_integer_counts(sizes, field):
    """Float sizes pass the divisibility checks, then fail in the generator."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ConstructiveSpec(**sizes)


def test_row_normalize():
    x = np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 3.0]])
    out = row_normalize_features(x)
    assert np.allclose(out.sum(axis=1), [1.0, 0.0, 1.0])
    assert np.array_equal(x[1], [0.0, 0.0])  # input untouched


def test_row_normalize_signed_rows_use_the_l1_norm():
    """A signed row whose entries sum to zero keeps its values."""
    out = row_normalize_features([[1, -1], [2, -1], [1, 1]])
    assert np.array_equal(out, [[0.5, -0.5], [2 / 3, -1 / 3], [0.5, 0.5]])


def test_row_normalize_nonnegative_rows_are_row_over_sum():
    """On nonnegative rows (-0.0 included) the L1 scaling is bitwise the
    row divided by its sum."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.random((30, 17)) * (rng.random((30, 17)) < 0.3)
        x[:5] = rng.random((5, 17)) < 0.2  # binary rows, as generated or Cora
        x[5], x[6], x[7, ::2] = 0.0, -0.0, -0.0
        sums = x.sum(axis=1, keepdims=True)
        want = np.divide(x, sums, out=np.zeros_like(x), where=sums != 0)
        assert row_normalize_features(x).tobytes() == want.tobytes()


def test_one_hot():
    y = one_hot(np.array([0, 2, 1]), 3)
    assert y.shape == (3, 3)
    assert np.array_equal(y.argmax(axis=1), [0, 2, 1])
    assert np.all(y.sum(axis=1) == 1)
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)


def test_limiting_cases(tiny_dataset):
    """The limiting-case variants propagate with the normalized adjacency
    of the limiting graphs (no edges; every pair of distinct nodes joined)
    and the no-features variant sees the identity as its features."""
    n = tiny_dataset.n_nodes
    empty = normalized_adjacency(sp.csr_matrix((n, n)))
    no_graph = propagation_operator(tiny_dataset, "no_graph")
    assert np.array_equal(no_graph.toarray(), empty.toarray())
    assert isinstance(propagation_operator(tiny_dataset, "complete_graph"), MeanFieldPropagation)
    complete = normalized_adjacency(np.ones((n, n)) - np.eye(n)).toarray()
    m = np.random.default_rng(0).standard_normal((n, 3))
    assert np.abs(MeanFieldPropagation(n) @ m - complete @ m).max() <= 1e-14
    no_features = _model_features(tiny_dataset, "no_features")
    assert np.array_equal(no_features.toarray(), np.eye(n))


def _csr_arrays(a):
    return [(getattr(a, name).tobytes(), getattr(a, name).dtype)
            for name in ("indptr", "indices", "data")] + [a.shape, a.has_sorted_indices]


@pytest.mark.parametrize("pairs", [
    [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1), (1, 3), (4, 4), (1, 3)],
    [(2, 2), (0, 0), (2, 2)],
    [],
    [(4, 3), (2, 1), (0, 4)],
])
def test_edges_to_adjacency_builds_the_simple_graph(pairs):
    """Self-loops drop and repeated or reversed pairs collapse: any pairs
    give the CSR arrays of their deduplicated i < j set, which are those
    of the dense symmetric 0/1 matrix."""
    n = 5
    simple = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    dense = np.zeros((n, n))
    for i, j in simple:
        dense[i, j] = dense[j, i] = 1.0
    got = _edges_to_adjacency(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    want = _edges_to_adjacency(n, np.array(simple, dtype=np.int64).reshape(-1, 2))
    assert _csr_arrays(got) == _csr_arrays(want) == _csr_arrays(sp.csr_matrix(dense))


def test_edges_to_adjacency_on_random_multisets():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        pairs = rng.integers(0, n, (int(rng.integers(0, 3 * n)), 2))
        simple = sorted({(min(u, v), max(u, v)) for u, v in pairs.tolist() if u != v})
        want = _edges_to_adjacency(n, np.array(simple, dtype=np.int64).reshape(-1, 2))
        assert _csr_arrays(_edges_to_adjacency(n, pairs)) == _csr_arrays(want)


def _dense_generate_constructive(spec: ConstructiveSpec):
    """The generator as it was written with one n x n and one n x C draw."""
    n, k = spec.n_nodes, spec.n_communities
    labels = np.repeat(np.arange(k), n // k)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0)))
    prob = np.where(labels[:, None] == labels[None, :], spec.p_in, spec.p_out)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adjacency = sp.csr_matrix(np.logical_or(upper, upper.T).astype(np.float64))
    rng_feat = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
    feature_owner = np.repeat(np.arange(k), spec.features_per_community)
    feat_prob = np.where(labels[:, None] == feature_owner[None, :], spec.p_in, spec.p_out)
    features = (rng_feat.random((n, spec.n_features)) < feat_prob).astype(np.float64)
    return adjacency, features, labels


@pytest.mark.parametrize("spec", [
    ConstructiveSpec(seed=0),
    ConstructiveSpec(seed=1),
    ConstructiveSpec(seed=2),
    ConstructiveSpec(p_in=1.0, p_out=0.0),
    ConstructiveSpec(p_in=0.0, p_out=0.0),
])
def test_generate_constructive_matches_dense_draw(spec):
    """Drawing one community row block at a time gives the bits of one
    n x n draw."""
    adjacency, features, labels = _dense_generate_constructive(spec)
    ds = generate_constructive(spec)
    assert _csr_arrays(ds.adjacency) == _csr_arrays(adjacency)
    assert ds.features.dtype == features.dtype
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels)


@pytest.mark.parametrize("change, message", [
    ({"node_ids": ["v0"] * 8}, "not unique"),
    ({"features": np.zeros((7, 4))}, "features/labels length"),
    ({"labels": np.zeros(9, dtype=int)}, "features/labels length"),
    ({"adjacency": sp.csr_matrix((8, 9))}, "adjacency shape"),
    ({"adjacency": 2 * make_dataset().adjacency}, "0/1"),
    ({"labels": np.array([0, 1, 2, 0, 1, 0, 1, 0])}, "labels out of range"),
    ({"labels": -np.ones(8, dtype=int)}, "labels out of range"),
])
def test_validate_rejects_each_invariant(change, message):
    ds = make_dataset()
    bad = Dataset(**{**{name: getattr(ds, name) for name in
                        ("node_ids", "features", "adjacency", "labels", "num_classes")}, **change})
    with pytest.raises(ValueError, match=message):
        bad.validate()


def test_load_rejects_unknown_format_duplicate_ids_and_empty_features(tmp_path):
    feats, edges = tmp_path / "f.txt", tmp_path / "e.txt"
    edges.write_text("")
    feats.write_text("a 1.0 0\nb 2.0 1\n")
    with pytest.raises(ValueError, match="unknown dataset format: 'csv'"):
        load_dataset(edges, feats, format="csv")
    feats.write_text("a 1.0 0\nb 2.0 1\na 3.0 1\n")
    with pytest.raises(DatasetFormatError, match="duplicate node ids"):
        load_dataset(edges, feats)
    feats.write_text("\n\n")
    for fmt, kind in (("generic", "features"), ("cora", "content")):
        with pytest.raises(DatasetFormatError, match=f"empty {kind} file"):
            load_dataset(edges, feats, format=fmt)


def test_loaded_edges_drop_self_loops_and_collapse_pairs(tmp_path):
    """Repeated, reversed and self-loop lines give the graph of the
    distinct i < j pairs, whatever order the lines come in."""
    feats, edges = tmp_path / "f.txt", tmp_path / "e.txt"
    feats.write_text("a 1.0 0\nb 2.0 1\nc 3.0 1\nd 0.5 0\n")
    edges.write_text("d c\nc d\na a\nb a\na b\nb d\nd b\nd d\n")
    ds = load_dataset(edges, feats)
    want = _edges_to_adjacency(4, np.array([[0, 1], [1, 3], [2, 3]]))
    assert _csr_arrays(ds.adjacency) == _csr_arrays(want)
    edges.write_text("c c\n")
    assert load_dataset(edges, feats).n_edges == 0
    edges.write_text("\na b\n  \t\n")  # blank lines are skipped
    assert load_dataset(edges, feats).n_edges == 1


def test_largest_connected_component_of_a_connected_graph_is_the_dataset():
    ds = make_dataset()
    assert largest_connected_component(ds) is ds
