"""Anagram-free colourings of graph subdivisions.

Constructions that subdivide trees and general graphs so that few colours
suffice to avoid anagram colour sequences on every path, exhaustive and
sampled verification oracles, and constructive witnesses for the matching
lower bounds.

import afsub is lazy: it loads none of the package's modules, and each
export is imported from its module when it is first read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each export and the module it comes from.
_HOMES = {
    "BaseGraph": "graph_model",
    "ColouredGraph": "graph_model",
    "ColouredSubdivision": "graph_model",
    "RootedTree": "graph_model",
    "SubdividedGraph": "graph_model",
    "complete_dary_tree": "graph_model",
    "complete_graph": "graph_model",
    "k_subdivision": "graph_model",
    "one_subdivision": "graph_model",
    "path_graph": "graph_model",
    "subdivide": "graph_model",
    "extend_plus_4": "tree_constructions",
    "prune_to_subtree": "tree_constructions",
    "Word": "words",
    "find_abelian_square": "words",
    "find_square": "words",
    "keranen_word": "words",
    "thue_word": "words",
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
