"""Subspace alignment of graph datasets and its link to GCN accuracy.

The package measures how well three subspaces of node space line up —
one spanned by the features, one by the normalized adjacency, one by the
ground-truth labels — and relates that alignment to the test accuracy of
a two-layer graph convolutional classifier under controlled
randomization of the graph and the features.
"""

from .datasets import (
    ConstructiveSpec,
    Dataset,
    DatasetFormatError,
    generate_constructive,
    largest_connected_component,
    load_dataset,
    one_hot,
    row_normalize_features,
    save_dataset,
)
from .experiments import (
    CorrelationResult,
    SweepRow,
    SweepSpec,
    correlate,
    pearson,
    read_rows,
    run_sweep_multi,
    write_rows,
)
from .models import (
    VARIANTS,
    GcnConfig,
    GcnModel,
    MeanFieldPropagation,
    SplitSpec,
    TrainingDiverged,
    TrainReport,
    build_split,
    forward,
    gradients,
    loss,
    propagation_operator,
    train,
)
from .randomize import derive_seed, feature_permutation, randomize_features, randomize_graph
from .subspaces import (
    METRICS,
    AlignmentResult,
    DistanceMatrix3,
    OrthonormalBasis,
    PrincipalAngles,
    alignment_at,
    dimension_grid,
    distance_matrix,
    feature_basis,
    graph_basis,
    groundtruth_basis,
    normalized_adjacency,
    optimize_dimensions,
    principal_angles,
    sam,
    subspace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "ConstructiveSpec",
    "CorrelationResult",
    "Dataset",
    "DatasetFormatError",
    "DistanceMatrix3",
    "GcnConfig",
    "GcnModel",
    "METRICS",
    "MeanFieldPropagation",
    "OrthonormalBasis",
    "PrincipalAngles",
    "SplitSpec",
    "SweepRow",
    "SweepSpec",
    "TrainReport",
    "TrainingDiverged",
    "VARIANTS",
    "alignment_at",
    "build_split",
    "correlate",
    "derive_seed",
    "dimension_grid",
    "distance_matrix",
    "feature_basis",
    "feature_permutation",
    "forward",
    "generate_constructive",
    "gradients",
    "graph_basis",
    "groundtruth_basis",
    "largest_connected_component",
    "load_dataset",
    "loss",
    "normalized_adjacency",
    "one_hot",
    "optimize_dimensions",
    "pearson",
    "principal_angles",
    "propagation_operator",
    "randomize_features",
    "randomize_graph",
    "read_rows",
    "row_normalize_features",
    "run_sweep_multi",
    "sam",
    "save_dataset",
    "subspace_distance",
    "train",
    "write_rows",
]
