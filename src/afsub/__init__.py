"""Anagram-free colourings of graph subdivisions.

Constructions that subdivide trees and general graphs so that few colours
suffice to avoid anagram colour sequences on every path, exhaustive and
sampled verification oracles, and constructive witnesses for the matching
lower bounds.
"""

from .graph_model import (
    BaseGraph,
    ColouredGraph,
    ColouredSubdivision,
    RootedTree,
    SubdividedGraph,
    complete_dary_tree,
    complete_graph,
    k_subdivision,
    one_subdivision,
    path_graph,
    subdivide,
)
from .tree_constructions import extend_plus_4, prune_to_subtree
from .words import Word, find_abelian_square, find_square, keranen_word, thue_word

__version__ = "0.1.0"

__all__ = [
    "BaseGraph",
    "ColouredGraph",
    "ColouredSubdivision",
    "RootedTree",
    "SubdividedGraph",
    "Word",
    "complete_dary_tree",
    "complete_graph",
    "extend_plus_4",
    "find_abelian_square",
    "find_square",
    "k_subdivision",
    "keranen_word",
    "one_subdivision",
    "path_graph",
    "prune_to_subtree",
    "subdivide",
    "thue_word",
    "__version__",
]
