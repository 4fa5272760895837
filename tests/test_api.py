"""The package's public surface: exactly these names, each importable, and
one way to run the realizability checks."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import treexact
from treexact import conditions, errors, numeric, oracle

PUBLIC = [
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
    "reconstruct",
    "tree_to_dot",
    "trees_equal",
]

REMOVED = [
    "DuplicateIndex",
    "QuadrupleClass",
    "QuadrupleKind",
    "classify_quadruple",
    "condition_i_check",
    "condition_ii_check",
    "four_point_check",
    "realize_on_topology",
]


def test_public_names_are_pinned():
    assert sorted(treexact.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(treexact, name), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(treexact, name), name
        assert not hasattr(conditions, name), name
        assert not hasattr(errors, name), name
        assert not hasattr(oracle, name), name
    assert conditions.__all__ == ["Witness", "CheckFragment", "CheckReport", "check_all"]
    for prop in ("four_point_ok", "condition_i_ok", "condition_ii_ok"):
        assert not hasattr(treexact.CheckReport, prop), prop
    for attr in ("le", "is_positive"):
        assert not hasattr(numeric.ExactPolicy, attr), attr
        assert not hasattr(numeric.FloatPolicy, attr), attr


def test_check_all_takes_only_the_matrix():
    assert list(inspect.signature(treexact.check_all).parameters) == ["m"]


def test_readme_quick_start_prints_what_its_comments_say():
    """Run the README's Python block. Each printed line is the comment of its
    `print` line, or that comment's text before a colon."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    comments = [
        line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 5
    for line, comment in zip(printed, comments):
        assert comment == line or comment.startswith(line + ":"), (line, comment)
