"""treexact: decide, build, and audit positive-weighted trees realizing a
dissimilarity matrix on exactly its n labeled points."""

from .conditions import CheckFragment, CheckReport, Witness, check_all
from .core import (
    DissimilarityMatrix,
    Edge,
    WeightedTree,
    all_pairs_weights,
    parse_matrix,
    parse_tree,
    path_weight,
    tree_to_dot,
    trees_equal,
)
from .errors import (
    BadRange,
    BadSequence,
    InvalidMatrix,
    InvalidTree,
    MalformedInput,
    PolicyMismatch,
    TooLarge,
    TooSmall,
    TreexactError,
    UniquenessViolation,
    UnknownVertex,
)
from .numeric import EXACT, ExactPolicy, FloatPolicy, Policy, Scalar
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    RealizationCensus,
    count_realizations,
    prufer_decode,
    random_weighted_tree,
    realize_on_topology,
)
from .reconstruct import UnrealizableWitness, reconstruct

__version__ = "0.1.0"

__all__ = [
    "BadRange",
    "BadSequence",
    "CheckFragment",
    "CheckReport",
    "DEFAULT_ENUMERATION_CAP",
    "DissimilarityMatrix",
    "EXACT",
    "Edge",
    "ExactPolicy",
    "FloatPolicy",
    "InvalidMatrix",
    "InvalidTree",
    "MalformedInput",
    "Policy",
    "PolicyMismatch",
    "RealizationCensus",
    "Scalar",
    "TooLarge",
    "TooSmall",
    "TreexactError",
    "UniquenessViolation",
    "UnknownVertex",
    "UnrealizableWitness",
    "WeightedTree",
    "Witness",
    "all_pairs_weights",
    "check_all",
    "count_realizations",
    "parse_matrix",
    "parse_tree",
    "path_weight",
    "prufer_decode",
    "random_weighted_tree",
    "realize_on_topology",
    "reconstruct",
    "tree_to_dot",
    "trees_equal",
]
