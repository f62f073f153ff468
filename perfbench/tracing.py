"""Span tracing for the afsub benchmark.

The tracer wraps afsub's public functions at the names their callers look
up (``afsub.verifier.find_abelian_square``, ``afsub.cli.find_anagram``, ...),
so no file of the package changes.  Each call records a span: name, start,
end, parent span and operation id, plus the machine-independent counts of
the work it did.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Optional

NAME, START, END, PARENT, OP, ATTRS = range(6)


def even_windows(n: int, hit: Optional[tuple[int, int]], length_major: bool) -> int:
    """Even windows a scan of n symbols examines, in its order, up to and
    including the returned hit (all of them when there is none)."""
    if hit is None:
        return (n // 2) * (n - n // 2)
    start, length = hit
    half = length // 2
    if length_major:
        return sum(n - 2 * h + 1 for h in range(1, half)) + start + 1
    return sum((n - s) // 2 for s in range(start)) + half


def even_path_count(adj) -> Optional[int]:
    """|A|*|B| for a forest with bipartition A, B (each even path has one
    endpoint in each class), or None when the graph has a cycle."""
    n = len(adj)
    side = [-1] * n
    sizes = [0, 0]
    edges = sum(len(ns) for ns in adj) // 2
    components = 0
    for root in range(n):
        if side[root] != -1:
            continue
        components += 1
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            sizes[side[v]] += 1
            for w in adj[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    stack.append(w)
    if edges != n - components:
        return None
    return sizes[0] * sizes[1]


class Tracer:
    """In-memory span recorder that patches module attributes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_labels: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, label: str) -> None:
        self.op_labels.append(label)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, len(self.op_labels) - 1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> list:
        span = self.spans[idx]
        span[END] = perf_counter_ns()
        self._stack.pop()
        return span

    def patch(self, module, attr: str, name, observe: Optional[Callable] = None) -> None:
        """Replace module.attr by a wrapper recording one span per call.

        name is a span name or a function of the call's arguments;
        observe(args, kwargs, result, exc) returns the span's counts.  A call
        made directly from a span of the same name is not recorded again.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][NAME] == span_name:
                return original(*args, **kwargs)
            idx = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span = tracer._close(idx)
                if observe is not None:
                    span[ATTRS] = observe(args, kwargs, None, exc)
                raise
            span = tracer._close(idx)
            if observe is not None:
                span[ATTRS] = observe(args, kwargs, result, None)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def patch_generator(self, module, attr: str, name: str, observe: Callable) -> None:
        """Wrap a generator function: one span per next(), covering only the
        time spent producing that item."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(idx)
                    return
                except Exception:
                    tracer._close(idx)
                    raise
                tracer._close(idx)[ATTRS] = observe(item)
                yield item

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _abelian_counts(args, kwargs, result, exc):
    w = args[0]
    n = len(w.symbols if hasattr(w, "symbols") else w)
    return {
        "symbols": n,
        "windows": even_windows(n, result, kwargs.get("length_major", False)),
        "hits": int(result is not None),
    }


def _find_anagram_counts(args, kwargs, result, exc):
    if exc is not None:
        windows = getattr(exc, "windows", None)
        return {"ceiling_exits": 1, "ceiling_windows": windows} if windows is not None else None
    counts = {"paths_checked": result.paths_checked}
    if result.is_anagram_free:
        even = even_path_count(args[0].graph.adjacency)
        if even is not None:
            counts["even_paths"] = even
    return counts


def install(tracer: Tracer) -> None:
    """Wrap every traced afsub function at the names its callers use."""
    m = {name: importlib.import_module(f"afsub.{name}") for name in (
        "cli", "tree_constructions", "graph_constructions", "verifier", "words", "bounds")}

    def result_bytes(args, kwargs, result, exc):
        return None if exc else {"bytes": len(result)}

    def arg_bytes(args, kwargs, result, exc):
        return {"bytes": len(args[0])}

    def built_vertices(args, kwargs, result, exc):
        return None if exc else {"vertices": result.coloured.graph.vertex_count}

    tracer.patch(m["cli"], "main", lambda args: f"cli.{args[0][0]}")
    tracer.patch(m["cli"], "to_json_str", "serialize.to_json_str", result_bytes)
    tracer.patch(m["cli"], "from_json_str", "serialize.from_json_str", arg_bytes)
    tracer.patch(m["cli"], "to_dot", "serialize.to_dot", result_bytes)
    for attr in ("build_binary_tree_8", "build_dary_tree_10", "build_dary_banded"):
        tracer.patch(m["tree_constructions"], attr, "tree_constructions.build", built_vertices)
    for attr in ("colour_14", "colour_8", "colour_merged"):
        tracer.patch(m["graph_constructions"], attr, "graph_constructions.build", built_vertices)
    tracer.patch_generator(
        m["verifier"], "enumerate_maximal_simple_paths", "graph_model.enumerate_maximal_simple_paths",
        lambda path: {"paths": 1, "path_vertices": len(path)},
    )
    tracer.patch(m["cli"], "find_anagram", "verifier.find_anagram", _find_anagram_counts)
    tracer.patch(
        m["cli"], "find_anagram_sampled", "verifier.find_anagram_sampled",
        lambda args, kwargs, result, exc: None if exc else {"samples": result.paths_checked},
    )
    tracer.patch(m["verifier"], "check_discriminating", "verifier.check_discriminating")
    tracer.patch(m["verifier"], "revalidate", "verifier.revalidate")
    tracer.patch(m["verifier"], "find_abelian_square", "words.find_abelian_square", _abelian_counts)
    tracer.patch(m["words"], "find_abelian_square", "words.find_abelian_square", _abelian_counts)
    tracer.patch(m["words"], "find_square", "words.find_square")
    for attr in ("keranen_word", "thue_word"):
        tracer.patch(m["words"], attr, "words.generate")
    for module in ("tree_constructions", "graph_constructions"):
        tracer.patch(m[module], "keranen_symbols", "words.generate")
    for attr in ("find_anagram_pigeonhole", "find_anagram_undercoloured_tree"):
        tracer.patch(m["bounds"], attr, "bounds.witness")
    for attr in ("seeded_complete_subdivision_colouring", "seeded_tree_colouring"):
        tracer.patch(m["bounds"], attr, "bounds.colouring")


def op_counters(tracer: Tracer) -> list[tuple[str, dict[str, int]]]:
    """Per operation run: its label and its span calls and summed counts,
    keyed by span name."""
    per_op = [Counter() for _ in tracer.op_labels]
    for span in tracer.spans:
        if span[OP] < 0:
            continue
        counts = per_op[span[OP]]
        counts[f"{span[NAME]}.calls"] += 1
        for key, value in (span[ATTRS] or {}).items():
            counts[f"{span[NAME]}.{key}"] += value
    return [(label, dict(sorted(c.items()))) for label, c in zip(tracer.op_labels, per_op)]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass.  Self time is a span's duration
    minus the durations of its direct children (calls nest, so they never
    overlap)."""
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child_time = [0] * len(spans)
    child_windows = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
            if s[NAME] == "words.find_abelian_square":
                child_windows[s[PARENT]] += s[ATTRS]["windows"]

    total: Counter = Counter()   # seconds and counts summed over all passes
    for i, s in enumerate(spans):
        name = s[NAME]
        total[f"{name}.s"] += dur[i] / 1e9
        total[f"{name}.self_s"] += (dur[i] - child_time[i]) / 1e9
        total[f"{name}.calls"] += 1
        for key, value in (s[ATTRS] or {}).items():
            total[f"{name}.{key}"] += value
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if name == "verifier.find_anagram":
            total["verifier.find_anagram.windows"] += child_windows[i]
            if s[ATTRS] and "even_paths" in s[ATTRS]:
                total["forest.windows"] += child_windows[i]
            if parent == "cli.construct":
                total["cli.construct.hidden_verify_s"] += dur[i] / 1e9
        elif name == "words.find_abelian_square" and parent == "verifier.find_anagram_sampled":
            total["verifier.find_anagram_sampled.scans"] += 1

    def ratio(a: str, b: str, scale: float = 1.0) -> float:
        return scale * total[a] / total[b] if total[b] else 0.0

    metrics = {name: total[name] / passes for name in LAYER_TOTALS}
    metrics["verifier.find_anagram.windows_per_even_path"] = ratio(
        "forest.windows", "verifier.find_anagram.even_paths")
    metrics["verifier.find_anagram_sampled.scan_ratio"] = ratio(
        "verifier.find_anagram_sampled.scans", "verifier.find_anagram_sampled.samples")
    metrics["words.find_abelian_square.ns_per_window"] = ratio(
        "words.find_abelian_square.s", "words.find_abelian_square.windows", 1e9)
    metrics["verifier.ceiling_exits"] = total["verifier.find_anagram.ceiling_exits"] / passes
    return metrics


# Metrics reported as totals per traced pass, straight from the span sums.
LAYER_TOTALS = (
    "cli.construct.s", "cli.verify.s", "cli.word.s", "cli.witness.s", "cli.export.s",
    "cli.construct.hidden_verify_s",
    "serialize.to_json_str.s", "serialize.to_json_str.bytes",
    "serialize.from_json_str.s", "serialize.from_json_str.bytes", "serialize.to_dot.s",
    "tree_constructions.build.s", "tree_constructions.build.vertices",
    "graph_constructions.build.s", "graph_constructions.build.vertices",
    "graph_model.enumerate_maximal_simple_paths.s",
    "graph_model.enumerate_maximal_simple_paths.paths",
    "graph_model.enumerate_maximal_simple_paths.path_vertices",
    "verifier.find_anagram.s", "verifier.find_anagram.self_s", "verifier.find_anagram.calls",
    "verifier.find_anagram.paths_checked", "verifier.find_anagram.windows",
    "verifier.find_anagram_sampled.s", "verifier.find_anagram_sampled.self_s",
    "verifier.find_anagram_sampled.samples", "verifier.find_anagram_sampled.scans",
    "verifier.check_discriminating.s", "verifier.revalidate.s", "verifier.revalidate.calls",
    "words.find_abelian_square.s", "words.find_abelian_square.calls",
    "words.find_abelian_square.symbols", "words.find_abelian_square.windows",
    "words.find_abelian_square.hits", "words.find_square.s", "words.generate.s",
    "bounds.witness.s", "bounds.witness.calls", "bounds.colouring.s",
)


def write_spans(tracer: Tracer, path) -> None:
    """One tab-separated line per span: id, parent, op label, name, start and
    end in ns."""
    with open(path, "w") as fh:
        fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
        for i, s in enumerate(tracer.spans):
            op = tracer.op_labels[s[OP]] if s[OP] >= 0 else ""
            fh.write(f"{i}\t{s[PARENT]}\t{op}\t{s[NAME]}\t{s[START]}\t{s[END]}\n")
