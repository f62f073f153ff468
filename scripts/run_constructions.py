#!/usr/bin/env python3
"""Build every construction at desk scale and verify each one.

Prints a table of palette size, largest division count, and verification
outcome, and exits 1 if any construction is refuted by a counterexample.
Everything is deterministic; tweak the sizes below to explore.
"""

import argparse
import sys
import time

from afsub.graph_constructions import colour_14, colour_8, colour_merged
from afsub.graph_model import complete_dary_tree, complete_graph, cycle_graph, path_graph, random_binary_tree
from afsub.tree_constructions import build_binary_tree_8, build_dary_banded, build_dary_tree_10
from afsub.verifier import WindowCeilingExceeded, find_anagram


def rows(seed: int):
    yield "binary-tree h=3", build_binary_tree_8(complete_dary_tree(2, 3)).coloured
    yield "binary-tree h=4", build_binary_tree_8(complete_dary_tree(2, 4)).coloured
    yield "binary-tree h=6", build_binary_tree_8(complete_dary_tree(2, 6)).coloured
    yield "binary-tree h=7", build_binary_tree_8(complete_dary_tree(2, 7)).coloured
    yield f"random binary seed={seed}", build_binary_tree_8(random_binary_tree(4, seed)).coloured
    yield "dary d=2 h=3", build_dary_tree_10(2, 3).coloured
    yield "dary d=2 h=5", build_dary_tree_10(2, 5).coloured
    yield "dary d=3 h=2", build_dary_tree_10(3, 2).coloured
    yield "dary-banded d=2 h'=4 k=12", build_dary_banded(2, 4, 12).coloured
    yield "dary-banded d=2 h'=6 k=40", build_dary_banded(2, 6, 40).coloured
    yield "graph14 K_2", colour_14(path_graph(2)).coloured
    yield "graph14 K_3", colour_14(complete_graph(3)).coloured
    yield "graph14 C_4", colour_14(cycle_graph(4)).coloured
    yield "graph8 K_2", colour_8(path_graph(2)).coloured
    yield "graph-merged P_3 k=2", colour_merged(path_graph(3), 2).coloured


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for the random tree row")
    parser.add_argument("--max-windows", type=int, default=10_000_000)
    args = parser.parse_args()

    header = f"{'construction':<28} {'vertices':>8} {'palette':>7} {'max div':>8} {'verified':<22} {'secs':>6}"
    print(header)
    print("-" * len(header))
    refuted = False
    for name, cs in rows(args.seed):
        start = time.perf_counter()
        try:
            outcome = find_anagram(cs, max_windows=args.max_windows).outcome
        except WindowCeilingExceeded:
            outcome = "skipped (ceiling)"
        refuted |= outcome.startswith("counterexample")
        elapsed = time.perf_counter() - start
        print(
            f"{name:<28} {cs.graph.vertex_count:>8} {len(cs.palette):>7} "
            f"{cs.max_division_count:>8} {outcome:<22} {elapsed:>6.2f}"
        )
    return 1 if refuted else 0


if __name__ == "__main__":
    sys.exit(main())
