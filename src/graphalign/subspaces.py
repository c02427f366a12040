"""Subspaces of R^N spanned by features, graph and ground truth.

The three data ingredients are turned into orthonormal bases: top
eigenvectors of the normalized adjacency for the graph, top left singular
vectors of the (uncentered) feature and label matrices for the other two.
Principal angles between the bases give pairwise subspace distances, and
the Frobenius norm of the 3x3 distance matrix is the alignment measure.
:func:`optimize_dimensions` picks the dimensions against a fully
randomized null ensemble and names the functions that derive its parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .datasets import Dataset, _choice, _integer, one_hot, row_normalize_features
from .randomize import derive_seed, feature_permutation, randomize_graph

__all__ = [
    "METRICS",
    "OrthonormalBasis",
    "AlignmentResult",
    "principal_angles",
    "subspace_distance",
    "distance_matrix",
    "sam",
    "alignment_at",
    "dimension_grid",
    "optimize_dimensions",
]

METRICS = ("chordal", "grassmann", "projection")


@dataclass(frozen=True)
class OrthonormalBasis:
    """k orthonormal columns spanning a subspace of R^n, with k < n."""

    matrix: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class PrincipalAngles:
    """Nondecreasing canonical angles between two subspaces, in [0, pi/2]."""

    angles: np.ndarray


@dataclass(frozen=True)
class DistanceMatrix3:
    """Symmetric 3x3 matrix of pairwise distances, indexed (X, A_hat, Y)."""

    values: np.ndarray

    @property
    def d_xa(self) -> float:
        return float(self.values[0, 1])

    @property
    def d_xy(self) -> float:
        return float(self.values[0, 2])

    @property
    def d_ay(self) -> float:
        return float(self.values[1, 2])


@dataclass(frozen=True)
class AlignmentResult:
    """Optimal subspace dimensions with the distances and SAM at them."""

    k_star_x: int
    k_star_a: int
    k_star_y: int
    distances: DistanceMatrix3
    sam: float
    metric: str

    def to_dict(self) -> dict:
        return {
            "k_star_x": self.k_star_x,
            "k_star_a": self.k_star_a,
            "k_star_y": self.k_star_y,
            "d_xa": self.distances.d_xa,
            "d_xy": self.distances.d_xy,
            "d_ay": self.distances.d_ay,
            "sam": self.sam,
            "metric": self.metric,
        }


def normalized_adjacency(adjacency: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Self-loop augmented, symmetrically degree-normalized graph operator.

    Returns D^{-1/2} (A + I) D^{-1/2} as a CSR matrix, where D holds the
    degrees after the self-loops are added, so every diagonal entry of D
    is at least one and the inverse square root always exists. This is
    the one builder of the operator: the subspace analysis and the
    classifiers both use it, and only the eigensolvers
    (:func:`graph_spectrum`, :func:`graph_basis`) densify it.
    """
    a_tilde = sp.csr_matrix(adjacency, dtype=np.float64) + sp.identity(
        adjacency.shape[0], format="csr"
    )
    inv_sqrt_deg = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
    d = sp.diags(inv_sqrt_deg)
    return (d @ a_tilde @ d).tocsr()


def _fix_signs(matrix: np.ndarray) -> np.ndarray:
    """Flip columns in place so the largest-magnitude entry of each is
    positive; returns `matrix`. Callers pass an array they own."""
    lead = np.abs(matrix).argmax(axis=0)
    flip = matrix[lead, np.arange(matrix.shape[1])] < 0
    matrix[:, flip] *= -1.0
    return matrix


def graph_spectrum(a_hat: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of the normalized adjacency: all N eigenpairs.

    Eigenvalues come back sorted by decreasing algebraic value; ties keep
    the eigensolver's order (stable sort), and each eigenvector's
    largest-magnitude entry is made positive, so the output is
    deterministic even for degenerate spectra. The eigenvectors are in C
    order, like the SVD factors.

    The CSR operator is made dense right before ``numpy.linalg.eigh``
    (LAPACK ``?syevd``, the fastest for all eigenpairs at these sizes).
    numpy and scipy each bundle an OpenBLAS with its own thread pool; the
    dimension search takes every graph basis as a prefix of a spectrum
    solved here and runs its other LAPACK calls through numpy too, so it
    uses numpy's BLAS thread pool alone (:func:`graph_basis` calls scipy).
    """
    w, v = np.linalg.eigh(a_hat.toarray())
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_signs(np.take(v, order, axis=1))  # C order, like the SVD factors


def graph_basis(a_hat: sp.spmatrix, k: int) -> OrthonormalBasis:
    """Eigenvectors of the k algebraically largest eigenvalues of A_hat.

    Solves only the top k+1 eigenpairs (``subset_by_index``); the extra
    one shows whether the cut is a tie. When lambda_k - lambda_{k+1} is
    within the eigensolver's rounding, n * eps * max|lambda|, the span of
    the top k is not determined by the operator, and the basis is taken
    from the full :func:`graph_spectrum` instead, so a tie at the cut is
    broken exactly as a prefix of the full spectrum breaks it. For
    k = n-1 the subset is the whole spectrum, which :func:`graph_spectrum`
    solves faster. Columns are sorted by decreasing eigenvalue and
    sign-fixed like the full spectrum's; away from a tie their span is
    the full-spectrum prefix to rounding.

    This is the fixed-k path (:func:`alignment_at`, sweep cells), and the
    one scipy LAPACK call of the module: numpy has no subset eigensolver,
    and a full spectrum here would hold an N x N factor in every sweep
    cell. :func:`optimize_dimensions` does not call it, so the search keeps
    to one BLAS pool (:func:`graph_spectrum`).
    """
    n = a_hat.shape[0]
    _integer("k", k, low=1, high=n - 1)
    if k + 1 < n:
        dense = a_hat.toarray(order="F")  # an owned copy, which LAPACK overwrites in place
        w, v = scipy.linalg.eigh(dense, subset_by_index=[n - k - 1, n - 1], overwrite_a=True)
        # Ascending order: w[0] is lambda_{k+1}, w[1] is lambda_k.
        if w[1] - w[0] > n * np.finfo(np.float64).eps * max(1.0, float(np.abs(w).max())):
            return OrthonormalBasis(_fix_signs(v[:, :0:-1].copy()))  # C order, like the full spectrum
    _, v = graph_spectrum(a_hat)
    return OrthonormalBasis(v[:, :k])


def left_singular_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-fixed left singular vectors U and singular values S of X.

    Write X = E D: D holds the distinct rows of X sorted as raw bytes
    (-0.0 is not 0.0), E maps each row to its distinct row, and C counts
    the rows of each. From the SVD W S V^T of C^1/2 D, U = E C^-1/2 W
    gives X = U S V^T with orthonormal columns (E^T E = C), and there are
    min(distinct rows, columns) of them.

    A row permutation P of X leaves D and C, and so the SVD's input, as
    they are, which makes U(P X) = P U(X) bit for bit. So the dimension
    search runs one SVD and gathers every null's factor from the data's
    (:func:`_objective`), and a sweep factors its features once
    (:func:`graphalign.experiments.run_sweep_multi`).
    """
    x = np.ascontiguousarray(matrix, dtype=np.float64)
    row_key = np.dtype((np.void, x.itemsize * x.shape[1]))
    order = np.argsort(x.view(row_key).ravel())
    x = x[order]
    keys = x.view(row_key).ravel()
    starts = np.r_[True, keys[1:] != keys[:-1]]  # first sorted row of each distinct row
    inverse = (np.cumsum(starts) - 1)[np.argsort(order)]
    scale = np.sqrt(np.bincount(inverse))[:, None]
    x = x if starts.all() else x[starts]
    x *= scale
    w, s, _ = np.linalg.svd(x, full_matrices=False)
    w /= scale
    return _fix_signs(w)[inverse], s


def feature_basis(x: np.ndarray, k: int) -> OrthonormalBasis:
    """Left singular vectors of the uncentered matrix for the k largest
    singular values (principal directions without mean removal)."""
    _integer("k", k, low=1, high=x.shape[0] - 1)
    u, _ = left_singular_factor(x)
    _integer("k", k, high=u.shape[1])  # the factor's column count
    return OrthonormalBasis(u[:, :k])


def groundtruth_basis(y: np.ndarray) -> OrthonormalBasis:
    """Label subspace of one-hot `y`; its dimension counts the classes with a member."""
    return feature_basis(y, int(np.count_nonzero(y.any(axis=0))))


def principal_angles(b1: OrthonormalBasis, b2: OrthonormalBasis) -> PrincipalAngles:
    """Canonical angles between two subspaces, sorted nondecreasing.

    The columns are assumed orthonormal and are not re-orthonormalized.
    Cosines are the singular values of B1^T B2 (Bjorck & Golub, 1973);
    where cos^2 >= 1/2 the angle comes from its sine, a singular value of
    the residual of the smaller basis after projecting out the other, so
    small angles reach machine precision instead of arccos's sqrt(eps)
    floor (Knyazev & Argentati, 2002). Returns min(k1, k2) angles.
    """
    if b1.ambient_dim != b2.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {b1.ambient_dim} vs {b2.ambient_dim}"
        )
    a, b = b1.matrix, b2.matrix
    cross = a.T @ b
    cosines = np.linalg.svd(cross, compute_uv=False)  # descending: angles ascending
    angles = np.arccos(np.clip(cosines, 0.0, 1.0))
    small = cosines**2 >= 0.5
    if small.any():
        residual = b - a @ cross if b1.dim >= b2.dim else a - b @ cross.T
        sines = np.linalg.svd(residual, compute_uv=False)[::-1]  # ascending, like the angles
        angles = np.where(small, np.arcsin(np.clip(sines, 0.0, 1.0)), angles)
    return PrincipalAngles(np.sort(angles))


def subspace_distance(angles: PrincipalAngles | np.ndarray, metric: str = "chordal") -> float:
    """Distance derived from principal angles.

    chordal:    sqrt(sum sin^2)  -- uses all angles
    grassmann:  sqrt(sum theta^2) -- uses all angles
    projection: sin(max theta)    -- extremal, largest angle only
    """
    _choice("metric", metric, METRICS)
    theta = angles.angles if isinstance(angles, PrincipalAngles) else np.asarray(angles)
    if metric == "chordal":
        return float(np.sqrt(np.sum(np.sin(theta) ** 2)))
    if metric == "grassmann":
        return float(np.sqrt(np.sum(theta ** 2)))
    return float(np.sin(theta.max()))


def distance_matrix(
    basis_x: OrthonormalBasis,
    basis_a: OrthonormalBasis,
    basis_y: OrthonormalBasis,
    metric: str = "chordal",
) -> DistanceMatrix3:
    """All pairwise subspace distances, arranged symmetrically."""
    _choice("metric", metric, METRICS)
    d_xa, d_xy, d_ay = (subspace_distance(principal_angles(b1, b2), metric)
                        for b1, b2 in ((basis_x, basis_a), (basis_x, basis_y), (basis_a, basis_y)))
    return DistanceMatrix3(np.array([[0.0, d_xa, d_xy], [d_xa, 0.0, d_ay], [d_xy, d_ay, 0.0]]))


def sam(distances: DistanceMatrix3) -> float:
    """Subspace alignment measure: Frobenius norm of the distance matrix."""
    return float(np.linalg.norm(distances.values, "fro"))


def _alignment(basis_x: OrthonormalBasis, basis_a: OrthonormalBasis,
               basis_y: OrthonormalBasis, metric: str) -> AlignmentResult:
    """Distances and SAM at the dimensions of the three bases: their one
    builder, for the search, `alignment_at` and every sweep cell."""
    distances = distance_matrix(basis_x, basis_a, basis_y, metric)
    return AlignmentResult(basis_x.dim, basis_a.dim, basis_y.dim, distances, sam(distances),
                           metric)


def alignment_at(dataset: Dataset, kx: int, ka: int, metric: str = "chordal") -> AlignmentResult:
    """Alignment at explicitly chosen dimensions, skipping optimization.

    The label dimension is :func:`groundtruth_basis`'s. Features enter the
    subspace analysis row-normalized, the preprocessing the classifier sees.
    """
    _integer("kx", kx, low=1, high=dataset.n_nodes - 1)
    _integer("ka", ka, low=1, high=dataset.n_nodes - 1)
    _choice("metric", metric, METRICS)
    return _alignment(
        feature_basis(row_normalize_features(dataset.features), kx),
        graph_basis(normalized_adjacency(dataset.adjacency), ka),
        groundtruth_basis(one_hot(dataset.labels, dataset.num_classes)),
        metric,
    )


def dimension_grid(lo: int, hi: int, points: int) -> np.ndarray:
    """Equally spaced integer grid on [lo, hi] including both endpoints.

    Real-valued spacing is floored to integers and duplicates are removed,
    so short intervals can yield fewer than `points` values.
    """
    _integer("points", points, low=1)
    _integer("hi", hi, low=_integer("lo", lo))
    values = np.floor(np.linspace(lo, hi, points)).astype(int)
    return np.unique(values)


def _sq_distances_from_grams(grams: np.ndarray, metric: str, sines: bool = False) -> np.ndarray:
    """Squared grassmann or projection distances from Gram matrices of
    cross blocks (one, or a stack of equal size), of squared cosines or,
    with `sines`, of squared sines (:func:`_sq_distance_block_grid`)."""
    eigenvalues = np.clip(np.linalg.eigvalsh(grams), 0.0, 1.0)  # ascending
    if metric == "projection":
        return eigenvalues[..., -1] if sines else 1.0 - eigenvalues[..., 0]
    angles = np.arcsin if sines else np.arccos
    return np.sum(angles(np.sqrt(eigenvalues)) ** 2, axis=-1)


def _sq_distance_block_grid(
    a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray, metric: str
) -> np.ndarray:
    """Squared distances between span a[:, :r] and span b[:, :c] for every
    r in `rows`, c in `cols` (both ascending), from Gram eigenvalues of the
    cross product a^T b of the two orthonormal factors.

    The cosines of the principal angles are the singular values of the cross
    block cross[:r, :c] (Bjorck & Golub, 1973), so their squares are the
    eigenvalues of the block's Gram matrix, and a cell costs one symmetric
    eigenvalue solve instead of an SVD. Projection reads only the smallest
    eigenvalue, sin^2(theta_max) = 1 - lambda_min, without an arccos;
    grassmann reads them all, theta = arccos(sqrt(lambda)) with lambda
    clipped to [0, 1].

    A cell takes the smaller of the two Grams of its block: the leading
    r x r block of G_c = cross[:, :c] cross[:, :c]^T when r <= c (G_c is
    formed once per column), else the c x c Gram cross[:r, :c]^T
    cross[:r, :c]. When `b` is square, its columns are a complete
    orthonormal basis, so a[:, :r]^T a[:, :r] = I gives
    cross[:r, :c] cross[:r, :c]^T = I - W W^T with W = cross[:r, c:]: the
    eigenvalues of the (n - c) x (n - c) Gram W^T W are the squared sines
    of the angles that are not exactly zero (projection reads the largest,
    grassmann theta = arcsin(sqrt(lambda))), and the other r - (n - c)
    angles are 0. A cell with n - c < r <= c takes that Gram, so every
    cell costs one symmetric eigenvalue solve of size min(r, c, n - c);
    the product is extended to all n columns only when such a cell exists.
    Squared sines resolve small angles to machine precision, where
    1 - lambda_min loses them below sqrt(eps); an angle near pi/2 comes
    from a squared cosine or sine near 1, so grassmann resolves it only to
    about sqrt(eps) on either path. The stacked Grams of one column share
    one batched eigenvalue call.
    """
    n = b.shape[0]
    n_wide = np.searchsorted(rows, cols, side="right")  # rows[:n_wide[j]] are r <= c
    n_gram = n_wide
    if b.shape[1] == n:
        n_gram = np.minimum(n_wide, np.searchsorted(rows, n - cols, side="right"))
    complement = n_gram < n_wide
    cross = a[:, : rows[-1]].T @ b[:, : n if complement.any() else cols[-1]]
    d2 = np.empty((len(rows), len(cols)))
    for j, c in enumerate(cols):
        if n_gram[j]:
            lead = cross[: rows[n_gram[j] - 1], :c]
            gram_c = lead @ lead.T
            for i, r in enumerate(rows[: n_gram[j]]):
                d2[i, j] = _sq_distances_from_grams(gram_c[:r, :r], metric)
        if complement[j]:
            w = np.ascontiguousarray(cross[: rows[n_wide[j] - 1], c:])
            grams = np.stack([w[:r].T @ w[:r] for r in rows[n_gram[j] : n_wide[j]]])
            d2[n_gram[j] : n_wide[j], j] = _sq_distances_from_grams(grams, metric, sines=True)
        if n_wide[j] < len(rows):
            grams = np.stack([cross[:r, :c].T @ cross[:r, :c] for r in rows[n_wide[j] :]])
            d2[n_wide[j] :, j] = _sq_distances_from_grams(grams, metric)
    return d2


def _chordal_tables(u: np.ndarray, v: np.ndarray, y: np.ndarray, kx_max: int, ka_max: int):
    """Squared chordal distances d2_xa[k_x - 1, k_a - 1], d2_xy[k_x - 1]
    and d2_ay[k_a - 1] at every integer k_x <= kx_max, k_a <= ka_max.

    The squared chordal distance is a sum over the principal angles,
    sum sin^2 = min(k_1, k_2) - sum cos^2, and the squared cosines sum to
    ||B1^T B2||_F^2. For column prefixes of two orthonormal factors that
    norm is a 2-D cumulative sum of the squared cross product, so one
    product fills the whole table with no per-cell SVD, in place in the
    product's buffer; rounding below zero is clipped. d2_xy and d2_ay hold
    from k = f, the label dimension, where the search's grids start. So the
    chordal search fills its objective once and reads every round's grid
    off it.
    """
    f = y.shape[1]
    d2_xa = u[:, :kx_max].T @ v[:, :ka_max]
    np.square(d2_xa, out=d2_xa)
    np.cumsum(d2_xa, axis=0, out=d2_xa)
    np.cumsum(d2_xa, axis=1, out=d2_xa)
    alpha = np.minimum.outer(np.arange(1.0, kx_max + 1), np.arange(1.0, ka_max + 1))
    np.subtract(alpha, d2_xa, out=d2_xa)
    np.clip(d2_xa, 0.0, None, out=d2_xa)
    d2_xy = np.clip(f - np.cumsum(((u[:, :kx_max].T @ y) ** 2).sum(axis=1)), 0.0, None)
    d2_ay = np.clip(f - np.cumsum(((v[:, :ka_max].T @ y) ** 2).sum(axis=1)), 0.0, None)
    return d2_xa, d2_xy, d2_ay


def _sq_distance_grids(
    u: np.ndarray,
    v: np.ndarray,
    y: np.ndarray,
    kx_grid: np.ndarray,
    ka_grid: np.ndarray,
    metric: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared projection or grassmann distances for every (k_x, k_a)
    grid cell, from the full orthonormal factors `u`, `v`, `y` (features,
    graph, labels), whose column prefixes are the cells' bases
    (:func:`_sq_distance_block_grid`). The grid only ranks cells; the
    reported distances come from :func:`_alignment`.
    """
    label_dim = np.array([y.shape[1]])
    d2_xa = _sq_distance_block_grid(u, v, kx_grid, ka_grid, metric)
    d2_xy = _sq_distance_block_grid(u, y, kx_grid, label_dim, metric)[:, 0]
    d2_ay = _sq_distance_block_grid(v, y, ka_grid, label_dim, metric)[:, 0]
    return d2_xa, d2_xy, d2_ay


def _null_ensemble(
    dataset: Dataset, seed: int, n_null: int
) -> list[Callable[[], tuple[np.ndarray, sp.csr_matrix]]]:
    """One draw per fully randomized copy: calling it returns the copy's
    feature row permutation and sparse normalized adjacency, from
    ``derive_seed(seed, index, ·)``, so a redraw gives the identical
    operator (:func:`_objective` draws a null when it solves it)."""
    def draw(index: int) -> tuple[np.ndarray, sp.csr_matrix]:
        perm = feature_permutation(dataset.n_nodes, 100.0, derive_seed(seed, index, 0))
        a_null = randomize_graph(dataset.adjacency, 100.0, derive_seed(seed, index, 1))
        return perm, normalized_adjacency(a_null)

    return [partial(draw, index) for index in range(n_null)]


def _sam_table(d2_xa: np.ndarray, d2_xy: np.ndarray, d2_ay: np.ndarray) -> np.ndarray:
    """SAM sqrt(2 (d2_xa + d2_xy + d2_ay)) at every (k_x, k_a) cell, in
    place in the buffer of `d2_xa`, which the caller owns."""
    d2_xa += d2_xy[:, None]
    d2_xa += d2_ay[None, :]
    d2_xa *= 2.0
    return np.sqrt(d2_xa, out=d2_xa)


def _refine(objective: np.ndarray, kx_grid: np.ndarray, ka_grid: np.ndarray,
            grid_points: int) -> tuple[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """The argmax (k_x, k_a) of `objective` on the grid, and the next
    round's grids: the interval between the argmax's neighbors, clipped to
    the current grid at the boundaries."""
    ix, ia = np.unravel_index(int(np.argmax(objective)), objective.shape)
    next_grids = tuple(
        dimension_grid(int(g[max(i - 1, 0)]), int(g[min(i + 1, len(g) - 1)]), grid_points)
        for g, i in ((kx_grid, ix), (ka_grid, ia))
    )
    return (int(kx_grid[ix]), int(ka_grid[ia])), next_grids


def _objective(sam_of: Callable, u: np.ndarray, nulls, objective=0.0, cells: tuple = (),
               kept: list | None = None, grid_points: int | None = None) -> np.ndarray:
    """`objective` plus the mean SAM of the `nulls` (the draws of
    :func:`_null_ensemble`), where ``sam_of(u, v, *cells)`` gives the SAM of
    a feature and a graph factor at the cells searched: every cell for the
    chordal table, or one (k_x, k_a) grid.

    One null at a time: a null is drawn only when it is solved, its graph
    spectrum is solved before its feature factor is gathered as ``u[perm]``
    (:func:`left_singular_factor`), and all of it is dropped before the
    next draw. The chordal table starts from 0.0 and its caller subtracts
    the data's table after the loop, so the data's spectrum is not held
    through it either; only the summation order differs from adding the
    data first, so a cell may move by rounding.

    Next-round prediction: a grid round starts from the data's negated SAM
    at its grid, which the running objective below needs, and passes
    `kept`, one entry per null, which it updates. A
    null whose entry is ``(cells, sam)`` for this round's cells adds that
    SAM and is not drawn. When another round follows, it passes its
    `grid_points`, and each null solved here is also scored at the grids
    that :func:`_refine` gives for the running objective, in which the
    nulls not yet seen count at the mean of those seen; that small grid's
    SAM is the null's new entry. The last null's entry always matches, as
    its running objective is the objective bit for bit. A miss, or a third
    round after a hit, solves the null again, and every value comes from
    the same evaluation, so the prediction changes no bit.

    Solve counts: chordal, 1 + n_null spectra; a grid search, the data's
    once and each null at most once per round.
    """
    n_null, seen_total = len(nulls), 0.0
    kept = [None] * n_null if kept is None else kept
    for index, draw in enumerate(nulls):
        entry, kept[index] = kept[index], None
        if entry is not None and all(map(np.array_equal, entry[0], cells)):
            null_sam = entry[1]
        else:
            perm, a_hat_null = draw()
            v_null = graph_spectrum(a_hat_null)[1]
            u_null = u[perm]
            null_sam = sam_of(u_null, v_null, *cells)
            if grid_points is not None:
                seen = index + 1
                running = (objective + null_sam / n_null
                           + (n_null - seen) / (n_null * seen) * (seen_total + null_sam))
                ahead = _refine(running, *cells, grid_points)[1]
                kept[index] = ahead, sam_of(u_null, v_null, *ahead)
            del perm, a_hat_null, u_null, v_null  # one null in memory at a time
        objective += null_sam / n_null
        if grid_points is not None:
            seen_total = seen_total + null_sam
        del null_sam  # a chordal table is the objective's size: free it before the next solve
    return objective


def optimize_dimensions(
    dataset: Dataset,
    metric: str = "chordal",
    n_null: int = 100,
    grid_points: int = 10,
    rounds: int = 2,
    seed: int = 0,
) -> AlignmentResult:
    """Pick subspace dimensions maximizing discrimination from the null model.

    The label dimension f is pinned to :func:`groundtruth_basis`'s, the count
    of classes with a member. The feature and graph dimensions are scanned
    jointly on an integer grid from f up to the feature factor's column
    count, respectively the node count minus one; the objective at each cell
    is the mean SAM of `n_null` fully randomized copies minus the data's; the argmax wins.
    Each later round re-grids the interval between the neighbors of the
    previous argmax (:func:`_refine`). Features are row-normalized before the
    decomposition, matching the classifier's preprocessing. Deterministic per
    seed. Raises ValueError when the feature factor is narrower than f.

    Each part is derived at its owner: one feature SVD for the data and
    every null (:func:`left_singular_factor`); one full spectrum per graph
    and one BLAS pool (:func:`graph_spectrum`); the chordal objective at
    every integer cell from one table (:func:`_chordal_tables`); the
    projection and grassmann grids from Gram blocks
    (:func:`_sq_distance_block_grid`); and the null loop, its memory and
    its solve counts (:func:`_objective`). The distances and SAM at k* come
    from :func:`_alignment`.
    """
    _choice("metric", metric, METRICS)
    for name, value, low in (("n_null", n_null, 1), ("grid_points", grid_points, 1),
                             ("rounds", rounds, 1), ("seed", seed, 0)):
        _integer(name, value, low=low)
    n = dataset.n_nodes
    y_basis = groundtruth_basis(one_hot(dataset.labels, dataset.num_classes))
    y, f = y_basis.matrix, y_basis.dim
    u_orig, _ = left_singular_factor(row_normalize_features(dataset.features))
    if u_orig.shape[1] < f:
        raise ValueError(
            f"the feature factor has {u_orig.shape[1]} columns (distinct feature rows or "
            f"features), fewer than the label dimension {f}, where the k_x grid starts"
        )
    kx_hi, ka_hi = min(u_orig.shape[1], n - 1), n - 1
    nulls = _null_ensemble(dataset, seed, n_null)

    if metric == "chordal":
        def sam_of(u, v):
            return _sam_table(*_chordal_tables(u, v, y, kx_hi, ka_hi))

        table = _objective(sam_of, u_orig, nulls)
        _, v_orig = graph_spectrum(normalized_adjacency(dataset.adjacency))
        table -= sam_of(u_orig, v_orig)
    else:
        def sam_of(u, v, kx_grid, ka_grid):
            return _sam_table(*_sq_distance_grids(u, v, y, kx_grid, ka_grid, metric))

        _, v_orig = graph_spectrum(normalized_adjacency(dataset.adjacency))
        kept = [None] * n_null

    kx_grid = dimension_grid(f, kx_hi, grid_points)
    ka_grid = dimension_grid(f, ka_hi, grid_points)
    for round_index in range(rounds):
        if metric == "chordal":
            objective = table[kx_grid - 1][:, ka_grid - 1]
        else:
            cells = kx_grid, ka_grid
            objective = _objective(sam_of, u_orig, nulls, -sam_of(u_orig, v_orig, *cells), cells,
                                   kept, grid_points if round_index + 1 < rounds else None)
        (kx_best, ka_best), (kx_grid, ka_grid) = _refine(objective, kx_grid, ka_grid, grid_points)

    return _alignment(OrthonormalBasis(u_orig[:, :kx_best]), OrthonormalBasis(v_orig[:, :ka_best]),
                      y_basis, metric)
