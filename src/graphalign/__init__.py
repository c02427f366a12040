"""Subspace alignment of graph datasets and its link to GCN accuracy.

The package measures how well three subspaces of node space line up —
one spanned by the features, one by the normalized adjacency, one by the
ground-truth labels — and relates that alignment to the test accuracy of
a two-layer graph convolutional classifier under controlled
randomization of the graph and the features.
"""

from . import datasets, experiments, models, randomize, subspaces
from .datasets import *  # noqa: F403
from .experiments import *  # noqa: F403
from .models import *  # noqa: F403
from .randomize import *  # noqa: F403
from .subspaces import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *datasets.__all__, *experiments.__all__, *models.__all__, *randomize.__all__,
    *subspaces.__all__,
]
