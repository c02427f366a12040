import dataclasses
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalign import (
    METRICS,
    ConstructiveSpec,
    OrthonormalBasis,
    alignment_at,
    dimension_grid,
    distance_matrix,
    generate_constructive,
    optimize_dimensions,
    principal_angles,
    randomize_features,
    randomize_graph,
    sam,
    subspace_distance,
)
from graphalign.datasets import one_hot, row_normalize_features
from graphalign import subspaces
from graphalign.randomize import derive_seed
from graphalign.subspaces import (
    DistanceMatrix3,
    _alignment,
    _chordal_tables,
    _null_ensemble,
    _objective,
    _sam_table,
    _sq_distance_grids,
    _sq_distances_from_grams,
    feature_basis,
    graph_basis,
    graph_spectrum,
    groundtruth_basis,
    left_singular_factor,
    normalized_adjacency,
)


def random_basis(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return OrthonormalBasis(q[:, :k])


def test_normalized_adjacency_closed_forms():
    assert np.array_equal(normalized_adjacency(np.zeros((2, 2))).toarray(), np.eye(2))
    one_edge = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(normalized_adjacency(one_edge).toarray(), np.full((2, 2), 0.5), atol=1e-12)
    complete3 = np.ones((3, 3)) - np.eye(3)
    assert np.allclose(normalized_adjacency(complete3).toarray(), np.full((3, 3), 1 / 3), atol=1e-12)


def test_normalized_adjacency_spectrum_bounded():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = (rng.random((12, 12)) < 0.3).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        w = np.linalg.eigvalsh(normalized_adjacency(a).toarray())
        assert w.min() >= -1 - 1e-10 and w.max() <= 1 + 1e-10


def _dense_reference_builder(adjacency):
    """The dense formula the sparse builder replaced, kept as a reference."""
    a = adjacency.toarray() if sp.issparse(adjacency) else np.asarray(adjacency, dtype=np.float64)
    a_tilde = a + np.eye(a.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def test_normalized_adjacency_matches_dense_reference_bitwise(constructive):
    rewired = randomize_graph(constructive.adjacency, 50, 3)
    empty = sp.csr_matrix((7, 7))
    for adjacency in (constructive.adjacency, rewired, empty):
        a_hat = normalized_adjacency(adjacency)
        assert a_hat.format == "csr"
        assert np.array_equal(a_hat.toarray(), _dense_reference_builder(adjacency))


def test_graph_basis_degenerate_tiebreak():
    basis = graph_basis(sp.csr_matrix(np.eye(3)), 2)
    assert np.allclose(basis.matrix, np.eye(3)[:, :2], atol=1e-12)


def _largest_angle(b1, b2):
    return float(principal_angles(OrthonormalBasis(b1), OrthonormalBasis(b2)).angles.max())


def _assert_orthonormal(basis, tol=1e-10):
    """k < n columns whose Gram matrix is the identity to `tol`."""
    n, k = basis.matrix.shape
    assert k < n, "basis dimension must be strictly below the ambient dimension"
    assert np.abs(basis.matrix.T @ basis.matrix - np.eye(k)).max() <= tol


def test_graph_spectrum_matches_scipy_evd(small_constructive):
    """numpy and scipy ship different OpenBLAS builds, so the same LAPACK
    driver agrees to rounding, not bit for bit."""
    a_hat = normalized_adjacency(small_constructive.adjacency)
    w, v = graph_spectrum(a_hat)
    w_ref, v_ref = scipy.linalg.eigh(a_hat.toarray(), driver="evd")
    order = np.argsort(-w_ref, kind="stable")
    w_ref, v_ref = w_ref[order], v_ref[:, order]
    assert np.abs(w - w_ref).max() <= 1e-12
    for k in (1, 4, 5, 10, 60):
        assert w[k - 1] - w[k] > 1e-4  # away from ties: the top-k span is unique
        assert _largest_angle(v[:, :k], v_ref[:, :k]) <= 1e-12


def test_graph_basis_top_k_matches_full_spectrum_prefix(small_constructive):
    rewired = randomize_graph(small_constructive.adjacency, 100, 5)
    for adjacency in (small_constructive.adjacency, rewired):
        a_hat = normalized_adjacency(adjacency)
        w, v = graph_spectrum(a_hat)
        for k in (1, 4, 5, 10, 60):
            assert w[k - 1] - w[k] > 1e-4  # a cut with a gap: the top-k span is unique
            basis = graph_basis(a_hat, k)
            _assert_orthonormal(basis)
            assert _largest_angle(basis.matrix, v[:, :k]) <= 1e-12


def test_graph_basis_tie_at_cut_uses_full_spectrum():
    # Three identical paths: every eigenvalue has multiplicity three.
    path = np.diag(np.ones(3), 1)
    a_hat = normalized_adjacency(sp.block_diag([path + path.T] * 3, format="csr"))
    n = a_hat.shape[0]
    w, v = graph_spectrum(a_hat)
    assert np.allclose(w[:3], 1.0, atol=1e-12) and w[2] - w[3] > 0.1
    for k in (1, 2, 4, 5, 7):  # cuts inside a repeated eigenvalue, k + 1 < n
        assert k + 1 < n and abs(w[k - 1] - w[k]) <= 1e-12
        assert np.array_equal(graph_basis(a_hat, k).matrix, v[:, :k])
    for k in (3, 6):  # cuts between distinct eigenvalues
        assert _largest_angle(graph_basis(a_hat, k).matrix, v[:, :k]) <= 1e-12


def test_graph_basis_on_repeated_eigenvalues_away_from_the_cut(small_constructive):
    """Disconnected graphs whose top eigenvalues repeat: five isolated
    nodes add five more unit eigenvalues, two copies double every one.
    A solver that finds each repeated eigenvalue once would hand back a
    wrong basis with no tie at the cut to catch it."""
    a = small_constructive.adjacency
    cases = (
        (sp.block_diag([a, sp.csr_matrix((5, 5))], format="csr"), 6, (3,), (6, 7, 10)),
        (sp.block_diag([a, a], format="csr"), 2, (9,), (10,)),
    )
    for adjacency, ones, ties, cuts in cases:
        a_hat = normalized_adjacency(adjacency)
        w, v = graph_spectrum(a_hat)
        assert np.abs(w[:ones] - 1.0).max() <= 1e-12 and w[ones - 1] - w[ones] > 1e-4
        for k in ties + cuts:
            gap = w[k - 1] - w[k]
            assert gap <= 1e-12 if k in ties else gap > 1e-4
            assert _largest_angle(graph_basis(a_hat, k).matrix, v[:, :k]) <= 1e-12


def test_graph_basis_is_the_subset_solve_of_a_copy(small_constructive):
    """The basis solves a Fortran-order copy in place: the eigenpairs are
    those of the subset solve on a C-order densification."""
    a_hat = normalized_adjacency(randomize_graph(small_constructive.adjacency, 100, 3))
    n = a_hat.shape[0]
    for k in (1, 10, 60):
        _, v = scipy.linalg.eigh(a_hat.toarray(), subset_by_index=[n - k - 1, n - 1])
        want = v[:, :0:-1].copy()
        want *= np.where(want[np.abs(want).argmax(axis=0), np.arange(k)] < 0, -1.0, 1.0)
        assert np.array_equal(graph_basis(a_hat, k).matrix, want)


def test_graph_basis_two_node_edge():
    a_hat = normalized_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    basis = graph_basis(a_hat, 1)
    col = basis.matrix[:, 0]
    assert np.allclose(np.abs(col), 1 / np.sqrt(2), atol=1e-12)
    assert col[np.abs(col).argmax()] > 0  # sign convention


def test_graph_basis_rejects_bad_k():
    with pytest.raises(ValueError):
        graph_basis(np.eye(3), 3)
    with pytest.raises(ValueError):
        graph_basis(np.eye(3), 0)


def test_eigen_residuals():
    rng = np.random.default_rng(7)
    a = (rng.random((25, 25)) < 0.25).astype(float)
    a = np.triu(a, 1)
    a_hat = normalized_adjacency(a + a.T)
    w, v = graph_spectrum(a_hat)
    norm = np.linalg.norm(a_hat.toarray())
    for i in range(len(w)):
        assert np.linalg.norm(a_hat @ v[:, i] - w[i] * v[:, i]) <= 1e-8 * norm


def test_principal_angles_analytic():
    e = np.eye(2)
    same = principal_angles(OrthonormalBasis(e[:, :1]), OrthonormalBasis(e[:, :1]))
    assert abs(same.angles[0]) <= 1e-10
    ortho = principal_angles(OrthonormalBasis(e[:, :1]), OrthonormalBasis(e[:, 1:]))
    assert abs(ortho.angles[0] - np.pi / 2) <= 1e-10
    diag = OrthonormalBasis(np.array([[1.0], [1.0]]) / np.sqrt(2))
    mid = principal_angles(OrthonormalBasis(e[:, :1]), diag)
    assert abs(mid.angles[0] - np.pi / 4) <= 1e-10


def test_principal_angles_symmetry_and_count():
    rng = np.random.default_rng(3)
    b1, b2 = random_basis(rng, 9, 4), random_basis(rng, 9, 2)
    a12 = principal_angles(b1, b2).angles
    a21 = principal_angles(b2, b1).angles
    assert len(a12) == 2
    assert np.allclose(a12, a21, atol=1e-10)
    with pytest.raises(ValueError, match="ambient"):
        principal_angles(b1, random_basis(rng, 8, 2))


def _nested_pair(rng, n, k1, k2):
    """Two bases, the lower-dimensional one spanning a rotated subspace of
    the other, so every angle is zero."""
    big = random_basis(rng, n, max(k1, k2)).matrix
    small = big @ scipy.linalg.qr(rng.standard_normal((max(k1, k2), min(k1, k2))),
                                  mode="economic")[0]
    return (small, big) if k1 <= k2 else (big, small)


@pytest.mark.parametrize("k1, k2", [(3, 7), (5, 5), (9, 4), (1, 1), (40, 12)])
def test_principal_angles_match_scipy_subspace_angles(k1, k2):
    rng = np.random.default_rng(41)
    n = 60
    pairs = [(random_basis(rng, n, k1).matrix, random_basis(rng, n, k2).matrix),
             _nested_pair(rng, n, k1, k2)]
    for a, b in pairs:
        got = principal_angles(OrthonormalBasis(a), OrthonormalBasis(b)).angles
        want = np.sort(scipy.linalg.subspace_angles(a, b))
        assert got.shape == (min(k1, k2),)
        assert np.abs(got - want).max() <= 1e-13


def test_principal_angles_mixed_small_and_right_angles():
    """Prescribed angles from 1e-9 to pi/2 - 1e-9 in one pair: each angle
    comes from whichever of its sine and cosine determines it accurately."""
    rng = np.random.default_rng(43)
    n = 40
    q = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    theta = np.array([1e-9, 0.3, np.pi / 4, 1.2, np.pi / 2 - 1e-9])
    k = len(theta)
    a = q[:, :k]
    b = a * np.cos(theta) + q[:, k:2 * k] * np.sin(theta)
    wide = np.hstack([b, q[:, 2 * k:2 * k + 3]])
    for b1, b2 in ((a, b), (b, a), (a, wide), (wide, a)):
        got = principal_angles(OrthonormalBasis(b1), OrthonormalBasis(b2)).angles
        assert np.abs(got - theta).max() <= 1e-15


def test_subspace_distance_values():
    zero = np.zeros(3)
    for metric in ("chordal", "grassmann", "projection"):
        assert subspace_distance(zero, metric) == 0.0
    right = np.array([np.pi / 2])
    assert abs(subspace_distance(right, "chordal") - 1.0) <= 1e-12
    assert abs(subspace_distance(right, "grassmann") - np.pi / 2) <= 1e-12
    assert abs(subspace_distance(right, "projection") - 1.0) <= 1e-12
    two = np.array([np.pi / 6, np.pi / 2])
    assert abs(subspace_distance(two, "chordal") - np.sqrt(1.25)) <= 1e-12
    with pytest.raises(ValueError):
        subspace_distance(two, "euclidean")


def test_distance_matrix_and_sam():
    e = np.eye(3)
    b = [OrthonormalBasis(e[:, i:i + 1]) for i in range(3)]
    d = distance_matrix(b[0], b[1], b[2])
    assert np.allclose(np.diag(d.values), 0)
    assert np.allclose(d.values, d.values.T)
    assert abs(d.d_xa - 1) <= 1e-10 and abs(d.d_xy - 1) <= 1e-10 and abs(d.d_ay - 1) <= 1e-10
    assert abs(sam(d) - np.sqrt(6)) <= 1e-10

    same = distance_matrix(b[0], b[0], b[0])
    assert sam(same) <= 1e-10

    one_pair = DistanceMatrix3(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]]))
    assert abs(sam(one_pair) - np.sqrt(2)) <= 1e-12


def test_rotation_invariances():
    """Right-rotation of a basis and global ambient rotation change nothing."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = 12
        k1, k2 = rng.integers(1, 6, size=2)
        b1, b2 = random_basis(rng, n, k1), random_basis(rng, n, k2)
        base = principal_angles(b1, b2).angles

        q = scipy.linalg.qr(rng.standard_normal((k1, k1)))[0]
        rot = principal_angles(OrthonormalBasis(b1.matrix @ q), b2).angles
        assert np.abs(rot - base).max() <= 1e-9

        r = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
        both = principal_angles(
            OrthonormalBasis(r @ b1.matrix), OrthonormalBasis(r @ b2.matrix)
        ).angles
        assert np.abs(both - base).max() <= 1e-9


def test_containment():
    rng = np.random.default_rng(13)
    for _ in range(20):
        big = random_basis(rng, 10, 5)
        mix = scipy.linalg.qr(rng.standard_normal((5, 5)))[0][:, :2]
        sub = OrthonormalBasis(big.matrix @ mix)
        angles = principal_angles(sub, big).angles
        assert np.abs(angles).max() <= 1e-9
        for metric in ("chordal", "grassmann", "projection"):
            assert subspace_distance(angles, metric) <= 1e-8


def test_chordal_bound():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k1, k2 = rng.integers(1, 5, size=2)
        b1, b2 = random_basis(rng, 8, k1), random_basis(rng, 8, k2)
        d = subspace_distance(principal_angles(b1, b2), "chordal")
        assert d <= np.sqrt(min(k1, k2)) + 1e-12


def test_feature_basis_duplicated_columns():
    rng = np.random.default_rng(19)
    x = rng.random((10, 3))
    doubled = np.hstack([x, x])
    b1 = feature_basis(x, 3)
    b2 = feature_basis(doubled, 3)
    d = subspace_distance(principal_angles(b1, b2), "chordal")
    assert d <= 1e-8


def test_feature_basis_block_indicators():
    # orthogonal row blocks: left singular vectors are the normalized indicators
    x = np.zeros((4, 2))
    x[:2, 0] = 3.0
    x[2:, 1] = 2.0
    basis = feature_basis(x, 2)
    expected = np.zeros((4, 2))
    expected[:2, 0] = 1 / np.sqrt(2)
    expected[2:, 1] = 1 / np.sqrt(2)
    d = subspace_distance(principal_angles(basis, OrthonormalBasis(expected)), "chordal")
    assert d <= 1e-10


def test_feature_basis_bounds():
    x = np.random.default_rng(0).random((6, 3))
    with pytest.raises(ValueError):
        feature_basis(x, 4)
    with pytest.raises(ValueError):
        feature_basis(np.random.default_rng(0).random((3, 5)), 3)  # k >= n
    repeated = np.array([[1.0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
    _assert_orthonormal(feature_basis(repeated, 3))
    with pytest.raises(ValueError):
        feature_basis(repeated, 4)  # k > distinct rows


def test_groundtruth_basis_spans_indicators():
    y = one_hot(np.array([0, 0, 1, 1]), 2)
    basis = groundtruth_basis(y)
    assert basis.dim == 2
    ind = OrthonormalBasis(y / np.sqrt(2))
    assert subspace_distance(principal_angles(basis, ind), "chordal") <= 1e-10


def test_groundtruth_basis_skips_empty_class():
    basis = groundtruth_basis(one_hot(np.array([0, 0, 2, 2]), 3))
    _assert_orthonormal(basis)
    assert basis.dim == 2


def test_alignment_label_dimension_counts_present_classes(small_constructive):
    labels = small_constructive.labels
    ds = dataclasses.replace(small_constructive, labels=np.where(labels == 3, 0, labels))
    assert alignment_at(ds, 10, 4).k_star_y == 3
    assert optimize_dimensions(ds, n_null=1, rounds=1).k_star_y == 3


@pytest.mark.parametrize("metric", ["chordal", "projection"])
def test_search_grids_start_at_the_label_dimension(small_constructive, metric, monkeypatch):
    """Labels that skip a class pin a label basis of dimension 3, below the
    class count 4: both grids start at the label basis's dimension."""
    labels = small_constructive.labels
    ds = dataclasses.replace(small_constructive, labels=np.where(labels == 1, 0, labels))
    grid, lows = subspaces.dimension_grid, []

    def spied(lo, hi, points):
        lows.append(lo)
        return grid(lo, hi, points)

    monkeypatch.setattr(subspaces, "dimension_grid", spied)
    result = optimize_dimensions(ds, metric=metric, n_null=2, rounds=1, seed=0)
    assert result.k_star_y == 3
    assert lows[:2] == [3, 3]  # the k_x and k_a grids of round one


def test_dimension_grid_floor_of_linspace():
    assert dimension_grid(10, 500, 10).tolist() == [10, 64, 118, 173, 227, 282, 336, 391, 445, 500]
    assert dimension_grid(7, 1433, 10).tolist() == [7, 165, 323, 482, 640, 799, 957, 1116, 1274, 1433]
    grid = dimension_grid(7, 2484, 10)
    assert grid[1] == 282 and grid[2] == 557
    assert dimension_grid(227, 336, 10).tolist() == [227, 239, 251, 263, 275, 287, 299, 311, 323, 336]
    # short intervals deduplicate; single point collapses to lo
    assert dimension_grid(3, 5, 10).tolist() == [3, 4, 5]
    assert dimension_grid(4, 9, 1).tolist() == [4]
    with pytest.raises(ValueError):
        dimension_grid(5, 4, 3)
    with pytest.raises(ValueError):
        dimension_grid(1, 5, 0)


def _generic_grid_factors():
    rng = np.random.default_rng(23)
    n, c, f = 30, 12, 3
    u, _ = left_singular_factor(rng.random((n, c)))
    v = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    y, _ = left_singular_factor(one_hot(np.arange(n) % f, f))
    return u, v, y[:, :f]


# Cells on both sides of the diagonal, one with k_x = k_a, and, with n = 30,
# cells with k_x + k_a > n up to k_a = n - 1: on a complete graph basis those
# read the squared sines from the Gram of the trailing block.
GRID_KX, GRID_KA = np.array([3, 5, 9, 12]), np.array([3, 7, 15, 22, 29])


def _assert_grid_matches_direct(d2_grids, u, v, y, metric, kx_grid=GRID_KX, ka_grid=GRID_KA):
    assert (kx_grid[:, None] + ka_grid[None, :] > u.shape[0]).any()
    d2_xa, d2_xy, d2_ay = d2_grids
    for i, kx in enumerate(kx_grid):
        bx = OrthonormalBasis(u[:, :kx])
        direct_xy = subspace_distance(principal_angles(bx, OrthonormalBasis(y)), metric)
        assert abs(np.sqrt(d2_xy[i]) - direct_xy) <= 1e-9
        for j, ka in enumerate(ka_grid):
            ba = OrthonormalBasis(v[:, :ka])
            direct = subspace_distance(principal_angles(bx, ba), metric)
            assert abs(np.sqrt(d2_xa[i, j]) - direct) <= 1e-9
    for j, ka in enumerate(ka_grid):
        ba = OrthonormalBasis(v[:, :ka])
        direct_ay = subspace_distance(principal_angles(ba, OrthonormalBasis(y)), metric)
        assert abs(np.sqrt(d2_ay[j]) - direct_ay) <= 1e-9


def test_chordal_grid_fast_path_matches_direct():
    """The cumulative-sum tables must agree with per-cell principal angles
    at every integer cell the search reads, from the label dimension up."""
    u, v, y = _generic_grid_factors()
    kx_grid, ka_grid = (np.arange(y.shape[1], g[-1] + 1) for g in (GRID_KX, GRID_KA))
    d2_xa, d2_xy, d2_ay = _chordal_tables(u, v, y, kx_grid[-1], ka_grid[-1])
    _assert_grid_matches_direct(
        (d2_xa[kx_grid - 1][:, ka_grid - 1], d2_xy[kx_grid - 1], d2_ay[ka_grid - 1]),
        u, v, y, "chordal", kx_grid, ka_grid)


@pytest.mark.parametrize("metric", ["projection", "grassmann"])
def test_nonchordal_grid_fast_path_matches_direct(metric):
    """The Gram-eigenvalue grid must agree with per-cell principal angles."""
    u, v, y = _generic_grid_factors()
    _assert_grid_matches_direct(_sq_distance_grids(u, v, y, GRID_KX, GRID_KA, metric),
                                u, v, y, metric)


def test_nonchordal_grid_at_shared_and_orthogonal_directions():
    """u and v share two directions and are orthogonal otherwise, so each
    cell has two zero angles and min(k_x, k_a) - 2 right angles, and its
    squared cosines sit at 1 and 0, where rounding steps outside [0, 1].
    A cosine near 0 comes from its square, so grassmann resolves a right
    angle only to about sqrt(n * eps)."""
    rng = np.random.default_rng(29)
    n, c = 30, 12
    q = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    u, v = q[:, :c], np.hstack([q[:, :2], q[:, c:]])
    y = random_basis(rng, n, 3).matrix
    kx_grid, ka_grid = np.array([3, 5, 9, 12]), np.array([3, 7, 15])
    right = np.minimum(kx_grid[:, None], ka_grid[None, :]) - 2
    d2_projection = _sq_distance_grids(u, v, y, kx_grid, ka_grid, "projection")[0]
    assert np.abs(d2_projection - 1.0).max() <= 1e-12
    d2_grassmann = _sq_distance_grids(u, v, y, kx_grid, ka_grid, "grassmann")[0]
    floor = right * np.pi * np.sqrt(n * np.finfo(np.float64).eps)
    assert np.all(np.abs(d2_grassmann - right * (np.pi / 2) ** 2) <= floor)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_projection_grid_is_one_minus_smallest_gram_eigenvalue(data):
    """1 - lambda_min of the smaller Gram block of a cross product is
    sin^2 of the largest principal angle, for any prefix sizes."""
    n = data.draw(st.integers(2, 24), label="n")
    kx, ka, f = (data.draw(st.integers(1, n - 1), label=name) for name in ("kx", "ka", "f"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    bx, ba, by = (random_basis(rng, n, k) for k in (kx, ka, f))
    d2_xa, d2_xy, d2_ay = _sq_distance_grids(
        bx.matrix, ba.matrix, by.matrix, np.array([kx]), np.array([ka]), "projection"
    )
    for d2, (b1, b2) in ((d2_xa[0, 0], (bx, ba)), (d2_xy[0], (bx, by)), (d2_ay[0], (ba, by))):
        assert abs(d2 - np.sin(principal_angles(b1, b2).angles.max()) ** 2) <= 1e-12


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_projection_grid_on_a_complete_basis_reads_the_largest_sine(data):
    """With all n graph eigenvectors at hand, a cell with k_x <= k_a and
    k_x + k_a > n takes sin^2 of its largest angle as the largest
    eigenvalue of the Gram of the trailing cross block."""
    n = data.draw(st.integers(3, 24), label="n")
    ka = data.draw(st.integers((n + 2) // 2, n - 1), label="ka")
    kx = data.draw(st.integers(n - ka + 1, ka), label="kx")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    v = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    bx, by = random_basis(rng, n, kx), random_basis(rng, n, 1)
    d2 = _sq_distance_grids(bx.matrix, v, by.matrix, np.array([kx]), np.array([ka]),
                            "projection")[0][0, 0]
    theta = principal_angles(bx, OrthonormalBasis(v[:, :ka])).angles
    assert abs(d2 - np.sin(theta.max()) ** 2) <= 1e-12


@pytest.mark.parametrize("metric", ["projection", "grassmann"])
def test_complement_grid_resolves_small_angles(metric):
    """u is tilted by 1e-7 out of span v[:, :ka], so no angle exceeds about
    1e-7 and d^2 is near 1e-14. Squared cosines, with their absolute error
    near eps, miss that by 5e-3 (projection) and 0.14 (grassmann) relative;
    the trailing block gives the squared sines themselves, within 2e-9."""
    rng = np.random.default_rng(31)
    n, kx, ka = 40, 12, 33
    v = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    tilted = v[:, :ka] @ rng.standard_normal((ka, kx)) + 1e-7 * v[:, ka:] @ rng.standard_normal(
        (n - ka, kx))
    bx = OrthonormalBasis(scipy.linalg.qr(tilted, mode="economic")[0])
    y = random_basis(rng, n, 2).matrix
    d2 = _sq_distance_grids(bx.matrix, v, y, np.array([kx]), np.array([ka]), metric)[0][0, 0]
    direct = subspace_distance(principal_angles(bx, OrthonormalBasis(v[:, :ka])), metric) ** 2
    assert 0.0 < direct < 1e-12
    assert abs(d2 - direct) <= 1e-6 * direct


def _gram_path_grid(cross, rows, cols, metric):
    """The block grid from Gram eigenvalues of size min(r, c), cell by cell
    as the search evaluated it before the trailing-block path."""
    d2 = np.empty((len(rows), len(cols)))
    for j, c in enumerate(cols):
        wide = rows[rows <= c]
        if len(wide):
            lead = cross[: wide[-1], :c]
            gram_c = lead @ lead.T
            for i, r in enumerate(wide):
                d2[i, j] = _sq_distances_from_grams(gram_c[:r, :r], metric)
        if len(wide) < len(rows):
            grams = np.stack([cross[:r, :c].T @ cross[:r, :c] for r in rows[len(wide):]])
            d2[len(wide):, j] = _sq_distances_from_grams(grams, metric)
    return d2


@pytest.mark.parametrize("metric", ["projection", "grassmann"])
def test_grid_on_a_partial_basis_is_bitwise_the_gram_path(metric):
    """Without all n columns, U^T U = I says nothing about the trailing
    block, so every cell keeps the Gram of size min(k_x, k_a)."""
    u, v, y = _generic_grid_factors()
    v = v[:, : GRID_KA[-1]]
    kx_max, ka_max = GRID_KX[-1], GRID_KA[-1]
    d2_xa, d2_xy, d2_ay = _sq_distance_grids(u, v, y, GRID_KX, GRID_KA, metric)
    label_dim = np.array([y.shape[1]])
    assert np.array_equal(d2_xa, _gram_path_grid(u[:, :kx_max].T @ v, GRID_KX, GRID_KA, metric))
    assert np.array_equal(d2_xy, _gram_path_grid(u[:, :kx_max].T @ y, GRID_KX, label_dim,
                                                 metric)[:, 0])
    assert np.array_equal(d2_ay, _gram_path_grid(v[:, :ka_max].T @ y, GRID_KA, label_dim,
                                                 metric)[:, 0])


def test_graph_subspace_tracks_communities(small_constructive):
    """Community eigenvectors sit closer to the labels than randomized ones."""
    ds = small_constructive
    f = ds.num_classes
    y_basis = groundtruth_basis(one_hot(ds.labels, f))
    original = graph_basis(normalized_adjacency(ds.adjacency), f)
    d_orig = subspace_distance(principal_angles(original, y_basis), "chordal")
    d_null = []
    for seed in range(10):
        a_null = randomize_graph(ds.adjacency, 100, seed)
        null = graph_basis(normalized_adjacency(a_null), f)
        d_null.append(subspace_distance(principal_angles(null, y_basis), "chordal"))
    assert d_orig < np.mean(d_null)


def test_alignment_at_consistent_with_distance_matrix(small_constructive):
    res = alignment_at(small_constructive, 8, 4)
    assert res.k_star_x == 8 and res.k_star_a == 4
    assert res.k_star_y == small_constructive.num_classes
    assert abs(res.sam - sam(res.distances)) <= 1e-12
    expected = np.sqrt(2 * (res.distances.d_xa ** 2 + res.distances.d_xy ** 2
                            + res.distances.d_ay ** 2))
    assert abs(res.sam - expected) <= 1e-12


def test_optimize_dimensions_single_grid_point(small_constructive):
    res = optimize_dimensions(small_constructive, n_null=2, grid_points=1, seed=0)
    f = small_constructive.num_classes
    assert (res.k_star_x, res.k_star_a, res.k_star_y) == (f, f, f)


def test_optimize_dimensions_discriminates_from_null(small_constructive):
    """At the chosen dims the original data is better aligned than p=100 copies."""
    res = optimize_dimensions(small_constructive, n_null=5, seed=0)
    worse = 0
    for seed in range(5):
        degraded = dataclasses.replace(
            small_constructive,
            adjacency=randomize_graph(small_constructive.adjacency, 100, 2 * seed),
            features=randomize_features(small_constructive.features, 100, 2 * seed + 1),
        )
        null_res = alignment_at(degraded, res.k_star_x, res.k_star_a)
        if res.sam < null_res.sam:
            worse += 1
    assert worse >= 4


@pytest.mark.parametrize("counts, message", [
    ({"rounds": 0}, "round"),
    ({"rounds": -1}, "round"),
    ({"n_null": 0}, "null"),
    ({"metric": "cosine"}, "unknown metric: 'cosine'"),
])
def test_optimize_dimensions_rejects_nonpositive_counts(small_constructive, counts, message):
    with pytest.raises(ValueError, match=message):
        optimize_dimensions(small_constructive, **counts)


def test_optimize_dimensions_deterministic(small_constructive):
    r1 = optimize_dimensions(small_constructive, n_null=3, seed=5)
    r2 = optimize_dimensions(small_constructive, n_null=3, seed=5)
    assert (r1.k_star_x, r1.k_star_a, r1.k_star_y) == (r2.k_star_x, r2.k_star_a, r2.k_star_y)
    assert np.array_equal(r1.distances.values, r2.distances.values)
    assert r1.sam == r2.sam


def _reference_full_spectrum(a_hat):
    """The full eigendecomposition the search used to run for every null.
    It uses the search's eigensolver driver: where a cut splits a tie, the
    span is not determined by the operator but by the driver."""
    w, v = np.linalg.eigh(a_hat.toarray())
    return v[:, np.argsort(-w, kind="stable")]


@pytest.mark.parametrize("metric", METRICS)
def test_optimize_dimensions_runs_no_scipy_factorization(small_constructive, metric,
                                                         monkeypatch):
    """numpy and scipy each load their own OpenBLAS with its own thread pool;
    the search keeps every factorization on numpy's."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dimension search called scipy.linalg")

    monkeypatch.setattr("graphalign.subspaces.scipy.linalg.eigh", refuse)
    monkeypatch.setattr("graphalign.subspaces.scipy.linalg.svdvals", refuse)
    res = optimize_dimensions(small_constructive, metric=metric, n_null=2, rounds=2, seed=1)
    assert np.isfinite(res.sam)


def _reference_sam_grid(u, v, y, kx_grid, ka_grid, metric):
    """The grid as the search computed it before Gram eigenvalues: for the
    non-chordal metrics, one SVD of the cross block per cell."""
    if metric == "chordal":
        return _per_grid_chordal_sam(u, v, y, kx_grid, ka_grid)

    def sq_distance(cross):
        theta = np.arccos(np.clip(scipy.linalg.svdvals(cross), 0.0, 1.0))
        return subspace_distance(theta, metric) ** 2

    m_xa = u[:, :kx_grid[-1]].T @ v[:, :ka_grid[-1]]
    d2_xa = np.array([[sq_distance(m_xa[:kx, :ka]) for ka in ka_grid] for kx in kx_grid])
    d2_xy = np.array([sq_distance(u[:, :kx].T @ y) for kx in kx_grid])
    d2_ay = np.array([sq_distance(v[:, :ka].T @ y) for ka in ka_grid])
    return np.sqrt(2.0 * (d2_xa + d2_xy[:, None] + d2_ay[None, :]))


def _reference_search(dataset, metric, n_null, grid_points, rounds, seed):
    """The dimension search before nulls were cached: every round redraws
    every null, runs its feature SVD and its full graph eigendecomposition,
    and evaluates the grid cell by cell (:func:`_reference_sam_grid`)."""
    n, f = dataset.n_nodes, dataset.num_classes
    y_basis = groundtruth_basis(one_hot(dataset.labels, f))
    u_orig, _ = left_singular_factor(row_normalize_features(dataset.features))
    v_orig = _reference_full_spectrum(normalized_adjacency(dataset.adjacency))
    kx_grid = dimension_grid(f, min(dataset.n_features, n - 1), grid_points)
    ka_grid = dimension_grid(f, n - 1, grid_points)
    for round_index in range(rounds):
        objective = -_reference_sam_grid(u_orig, v_orig, y_basis.matrix, kx_grid, ka_grid, metric)
        for r in range(n_null):
            x_null = randomize_features(dataset.features, 100.0, derive_seed(seed, r, 0))
            a_null = randomize_graph(dataset.adjacency, 100.0, derive_seed(seed, r, 1))
            u_null, _ = left_singular_factor(row_normalize_features(x_null))
            v_null = _reference_full_spectrum(normalized_adjacency(a_null))
            null_sam = _reference_sam_grid(u_null, v_null, y_basis.matrix, kx_grid, ka_grid, metric)
            objective += null_sam / n_null
        ix, ia = np.unravel_index(int(np.argmax(objective)), objective.shape)
        kx_best, ka_best = int(kx_grid[ix]), int(ka_grid[ia])
        if round_index + 1 < rounds:
            kx_grid = dimension_grid(int(kx_grid[max(ix - 1, 0)]),
                                     int(kx_grid[min(ix + 1, len(kx_grid) - 1)]), grid_points)
            ka_grid = dimension_grid(int(ka_grid[max(ia - 1, 0)]),
                                     int(ka_grid[min(ia + 1, len(ka_grid) - 1)]), grid_points)
    distances = distance_matrix(OrthonormalBasis(u_orig[:, :kx_best]),
                                OrthonormalBasis(v_orig[:, :ka_best]), y_basis, metric)
    return kx_best, ka_best, distances, sam(distances)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("seed", [0, 7])
def test_optimize_dimensions_matches_per_round_null_search(small_constructive, metric, seed):
    kx, ka, distances, sam_value = _reference_search(
        small_constructive, metric, n_null=4, grid_points=10, rounds=3, seed=seed
    )
    res = optimize_dimensions(small_constructive, metric=metric, n_null=4, rounds=3, seed=seed)
    assert (res.k_star_x, res.k_star_a) == (kx, ka)
    assert res.sam == pytest.approx(sam_value, rel=1e-10, abs=0.0)
    for got, want in ((res.distances.d_xa, distances.d_xa), (res.distances.d_xy, distances.d_xy),
                      (res.distances.d_ay, distances.d_ay)):
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def _sam_from_sq_distances(d2_xa, d2_xy, d2_ay):
    """SAM assembled with temporaries, apart from the in-place assembler under test."""
    return np.sqrt(2.0 * (d2_xa + d2_xy[:, None] + d2_ay[None, :]))


def _per_round_sam_grid_search(dataset, metric, n_null, rounds, seed, grid_points=10):
    """The projection and grassmann search before nulls were scored ahead:
    every round solves every null's full spectrum again and evaluates its
    grid from :func:`_sq_distance_grids` with :func:`_sam_from_sq_distances`."""
    n, f = dataset.n_nodes, dataset.num_classes
    y_basis = groundtruth_basis(one_hot(dataset.labels, f))
    y = y_basis.matrix
    u, _ = left_singular_factor(row_normalize_features(dataset.features))
    _, v = graph_spectrum(normalized_adjacency(dataset.adjacency))
    nulls = _null_ensemble(dataset, seed, n_null)
    kx_grid = dimension_grid(f, min(u.shape[1], n - 1), grid_points)
    ka_grid = dimension_grid(f, n - 1, grid_points)
    for _ in range(rounds):
        objective = -_sam_from_sq_distances(*_sq_distance_grids(u, v, y, kx_grid, ka_grid,
                                                                 metric))
        for draw in nulls:
            perm, a_hat_null = draw()
            v_null = graph_spectrum(a_hat_null)[1]
            d2 = _sq_distance_grids(u[perm], v_null, y, kx_grid, ka_grid, metric)
            objective += _sam_from_sq_distances(*d2) / n_null
        ix, ia = np.unravel_index(int(np.argmax(objective)), objective.shape)
        kx_best, ka_best = int(kx_grid[ix]), int(ka_grid[ia])
        kx_grid = dimension_grid(int(kx_grid[max(ix - 1, 0)]),
                                 int(kx_grid[min(ix + 1, len(kx_grid) - 1)]), grid_points)
        ka_grid = dimension_grid(int(ka_grid[max(ia - 1, 0)]),
                                 int(ka_grid[min(ia + 1, len(ka_grid) - 1)]), grid_points)
    return _alignment(OrthonormalBasis(u[:, :kx_best]), OrthonormalBasis(v[:, :ka_best]),
                      y_basis, metric).to_dict()


@pytest.mark.parametrize("metric", ["projection", "grassmann"])
@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("n_null", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 7])
def test_grid_search_scored_ahead_is_bitwise_the_per_round_search(small_constructive, metric,
                                                                  rounds, n_null, seed):
    want = _per_round_sam_grid_search(small_constructive, metric, n_null, rounds, seed)
    res = optimize_dimensions(small_constructive, metric=metric, n_null=n_null, rounds=rounds,
                              seed=seed)
    assert res.to_dict() == want


def _count_spectrum_solves(monkeypatch) -> list:
    """Replace the search's spectrum solver with one that records each call."""
    solve, calls = subspaces.graph_spectrum, []

    def counted(a_hat):
        calls.append(a_hat.shape[0])
        return solve(a_hat)

    monkeypatch.setattr(subspaces, "graph_spectrum", counted)
    return calls


@pytest.mark.parametrize("metric", ["projection", "grassmann"])
def test_grid_search_solves_a_lone_null_once(small_constructive, metric, monkeypatch):
    """The last null's next-round grid is always the one scored ahead, so a
    lone null is solved once however many rounds follow; per-round solving
    took three solves at two rounds."""
    calls = _count_spectrum_solves(monkeypatch)
    optimize_dimensions(small_constructive, metric=metric, n_null=1, rounds=2, seed=0)
    assert len(calls) == 2  # the data and the null


@pytest.mark.parametrize("metric", ["projection", "grassmann"])
@pytest.mark.parametrize("n_null, rounds", [(2, 2), (4, 2), (2, 3), (4, 3)])
def test_grid_search_never_solves_more_than_once_per_round(small_constructive, metric, n_null,
                                                           rounds, monkeypatch):
    calls = _count_spectrum_solves(monkeypatch)
    optimize_dimensions(small_constructive, metric=metric, n_null=n_null, rounds=rounds, seed=3)
    # Per-round solving takes 1 + n_null * rounds; the last null hits at least once.
    assert 1 + n_null <= len(calls) <= n_null * rounds


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_chordal_search_solves_each_null_once(small_constructive, rounds, monkeypatch):
    calls = _count_spectrum_solves(monkeypatch)
    optimize_dimensions(small_constructive, metric="chordal", n_null=3, rounds=rounds, seed=0)
    assert len(calls) == 3 + 1


@pytest.mark.parametrize("metric", METRICS)
def test_null_spectra_are_dropped_before_the_next_solve(small_constructive, metric,
                                                        monkeypatch):
    """At most one N x N spectrum is held at a time: every spectrum handed
    out before is gone when a solve starts, except the data's in a grid
    search, which scores the data first. The chordal search solves the data
    last, so there no earlier spectrum is alive, the data's included."""
    solve, held = subspaces.graph_spectrum, []

    def tracked(a_hat):
        earlier = held if metric == "chordal" else held[1:]
        assert all(ref() is None for pair in earlier for ref in pair)
        spectrum = solve(a_hat)
        held.append([weakref.ref(part) for part in spectrum])
        return spectrum

    monkeypatch.setattr(subspaces, "graph_spectrum", tracked)
    optimize_dimensions(small_constructive, metric=metric, n_null=3, rounds=3, seed=1)
    assert len(held) >= 4


@pytest.mark.parametrize("metric", METRICS)
def test_one_null_operator_is_alive_at_each_solve(small_constructive, metric, monkeypatch):
    """Nulls are drawn when they are solved and dropped before the next
    draw, so no more than one normalized adjacency built by the search is
    alive when a spectrum solve starts."""
    build, solve, built, alive_at_solves = (subspaces.normalized_adjacency,
                                            subspaces.graph_spectrum, [], [])

    def tracked_build(adjacency):
        a_hat = build(adjacency)
        built.append(weakref.ref(a_hat))
        return a_hat

    def tracked_solve(a_hat):
        alive_at_solves.append(sum(ref() is not None for ref in built))
        return solve(a_hat)

    monkeypatch.setattr(subspaces, "normalized_adjacency", tracked_build)
    monkeypatch.setattr(subspaces, "graph_spectrum", tracked_solve)
    optimize_dimensions(small_constructive, metric=metric, n_null=3, rounds=3, seed=1)
    assert len(alive_at_solves) >= 4
    assert max(alive_at_solves) == 1


@pytest.mark.parametrize("features, columns", [
    (np.eye(2)[np.arange(200) % 2], 2),  # two distinct rows
    (np.random.default_rng(0).random((200, 3)), 3),  # three features
])
def test_optimize_dimensions_refuses_a_factor_narrower_than_the_labels(small_constructive,
                                                                       features, columns):
    narrow = dataclasses.replace(small_constructive, features=features)
    message = f"has {columns} columns .* label dimension 4, where the k_x grid starts$"
    with pytest.raises(ValueError, match=message):
        optimize_dimensions(narrow, n_null=1)


def test_narrow_factor_error_names_the_label_dimension_not_the_class_count(small_constructive):
    """Class 1 relabelled 0: four classes, a label dimension of three."""
    labels = small_constructive.labels
    narrow = dataclasses.replace(small_constructive, features=np.eye(2)[np.arange(200) % 2],
                                 labels=np.where(labels == 1, 0, labels))
    with pytest.raises(ValueError, match="has 2 columns .* label dimension 3, where the k_x grid"):
        optimize_dimensions(narrow, n_null=1)


def _per_grid_chordal_sam(u, v, y, kx_grid, ka_grid):
    """The chordal grid evaluated on its own, as each round once did."""
    kx_max, ka_max = int(kx_grid[-1]), int(ka_grid[-1])
    f = y.shape[1]
    m_xa = u[:, :kx_max].T @ v[:, :ka_max]
    m_xy = u[:, :kx_max].T @ y
    m_ay = v[:, :ka_max].T @ y
    cum = np.cumsum(np.cumsum(m_xa**2, axis=0), axis=1)
    alpha = np.minimum(kx_grid[:, None], ka_grid[None, :]).astype(float)
    d2_xa = np.clip(alpha - cum[kx_grid - 1][:, ka_grid - 1], 0.0, None)
    d2_xy = np.clip(f - np.cumsum((m_xy**2).sum(axis=1))[kx_grid - 1], 0.0, None)
    d2_ay = np.clip(f - np.cumsum((m_ay**2).sum(axis=1))[ka_grid - 1], 0.0, None)
    return np.sqrt(2.0 * (d2_xa + d2_xy[:, None] + d2_ay[None, :]))


def _chordal_objective_parts(ds, seed, n_null):
    """The chordal search's inputs on `ds`: the label factor, the feature
    and graph factors of the data, the nulls and the table bounds."""
    n, f = ds.n_nodes, ds.num_classes
    y = groundtruth_basis(one_hot(ds.labels, f)).matrix
    u, _ = left_singular_factor(row_normalize_features(ds.features))
    _, v = graph_spectrum(normalized_adjacency(ds.adjacency))
    return y, u, v, _null_ensemble(ds, seed, n_null), min(ds.n_features, n - 1), n - 1


def _chordal_search_table(u, v, y, nulls, kx_hi, ka_hi):
    """The chordal objective table as the search adds it up: the mean null
    table first, the data's table subtracted last."""
    def sam_of(u, v):
        return _sam_table(*_chordal_tables(u, v, y, kx_hi, ka_hi))

    table = _objective(sam_of, u, nulls)
    table -= sam_of(u, v)
    return table


def test_chordal_table_first_round_is_bitwise_the_grid_evaluation(small_constructive):
    ds, n_null = small_constructive, 3
    y, u, v, nulls, kx_hi, ka_hi = _chordal_objective_parts(ds, 3, n_null)
    kx_grid, ka_grid = dimension_grid(ds.num_classes, kx_hi, 10), dimension_grid(
        ds.num_classes, ka_hi, 10)

    want = 0.0
    for draw in nulls:
        perm, a_hat_null = draw()
        _, v_null = graph_spectrum(a_hat_null)
        want += _per_grid_chordal_sam(u[perm], v_null, y, kx_grid, ka_grid) / n_null
    want -= _per_grid_chordal_sam(u, v, y, kx_grid, ka_grid)
    table = _chordal_search_table(u, v, y, nulls, kx_hi, ka_hi)
    assert table.shape == (kx_hi, ka_hi)
    assert np.array_equal(table[kx_grid - 1][:, ka_grid - 1], want)


@pytest.mark.parametrize("seed", [0, 1])
def test_chordal_table_is_the_data_first_sum_to_rounding(small_constructive, seed):
    """The table adds the mean null SAM first and subtracts the data's SAM
    last. Against the sum that starts from the data's negated SAM, a cell
    moves by at most the reordering bound of a sum of n_null + 1 terms,
    n_null * eps * (|SAM_data| + mean |SAM_null|)."""
    n_null = 4
    y, u, v, nulls, kx_hi, ka_hi = _chordal_objective_parts(small_constructive, seed, n_null)

    def sam_of(u, v):
        return _sam_table(*_chordal_tables(u, v, y, kx_hi, ka_hi))

    data_first = -sam_of(u, v)
    magnitude = sam_of(u, v)
    for draw in nulls:
        perm, a_hat_null = draw()
        null_sam = sam_of(u[perm], graph_spectrum(a_hat_null)[1])
        data_first += null_sam / n_null
        magnitude += null_sam / n_null
    table = _chordal_search_table(u, v, y, nulls, kx_hi, ka_hi)
    bound = n_null * np.finfo(np.float64).eps * magnitude
    assert np.all(np.abs(table - data_first) <= bound)


def test_chordal_search_on_identical_components_matches_reference():
    """Four copies of one component: every eigenvalue of the graph has
    multiplicity four, so most k_a cut a tie."""
    spec = ConstructiveSpec(n_nodes=40, n_communities=2, n_features=10,
                            features_per_community=5, p_in=0.3, p_out=0.05, seed=4)
    part = generate_constructive(spec)
    copies = 4
    ds = dataclasses.replace(
        part,
        node_ids=[f"{c}:{i}" for c in range(copies) for i in part.node_ids],
        adjacency=sp.block_diag([part.adjacency] * copies, format="csr"),
        features=np.random.default_rng(5).random((copies * part.n_nodes, 30)),
        labels=np.tile(part.labels, copies),
    )
    w, _ = graph_spectrum(normalized_adjacency(ds.adjacency))
    assert np.abs(w[3::4] - w[0::4]).max() <= 1e-12
    for seed in (0, 1):
        kx, ka, _, _ = _reference_search(ds, "chordal", n_null=3, grid_points=10, rounds=2,
                                         seed=seed)
        res = optimize_dimensions(ds, metric="chordal", n_null=3, rounds=2, seed=seed)
        assert (res.k_star_x, res.k_star_a) == (kx, ka)
