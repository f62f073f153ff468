"""Canonical JSON interchange and DOT export for coloured subdivisions.

Schema:
{"vertices": [{"id": int, "kind": "original"|"division", "colour": int|null}],
 "base_edges": [{"u": int, "v": int, "division": [int, ...]}],
 "palette": [int], "provenance": {...}}

Serialisation is canonical (sorted keys, 2-space indent, one scalar per
line, [] for an empty list, ASCII escapes, a trailing newline), so parse
followed by serialise is byte-identical.  Parsing checks the canonical
layout in bulk first (vertex i has id i, originals first, the division
lists concatenating to the division ids in order); only a file that fails
it is read entry by entry, which accepts vertex entries in any order,
names the first error, and refuses division ids out of that order too.
"""

from __future__ import annotations

import colorsys
import itertools
import json
from typing import Any, Optional

from .graph_model import BaseGraph, ColouredSubdivision, SubdividedGraph


class SchemaError(ValueError):
    pass


_ORIGINAL = '{\n      "colour": %d,\n      "id": %d,\n      "kind": "original"\n    }'
_DIVISION = '{\n      "colour": %d,\n      "id": %d,\n      "kind": "division"\n    }'
_EDGE = '{\n      "division": %s,\n      "u": %d,\n      "v": %d\n    }'
_DOCUMENT = '{\n  "base_edges": %s,\n  "palette": %s,\n  "provenance": %s,\n  "vertices": %s\n}\n'


def _json_list(items: list[str], indent: int) -> str:
    """A JSON list of formatted items, one per line at indent spaces, as
    json.dumps with indent=2 writes it at depth indent // 2."""
    if not items:
        return "[]"
    pad = " " * indent
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[2:] + "]"


def to_json_str(cs: ColouredSubdivision) -> str:
    """The canonical bytes: sorted keys, 2-space indent, ASCII escapes and a
    trailing newline, as json.dumps(..., indent=2, sort_keys=True) + "\\n"
    writes the schema's document.  Every field but provenance has a fixed
    layout, so it is written from templates; provenance goes through
    json.dumps and is re-indented one level, which is safe because every
    newline inside a JSON string is escaped."""
    g, colour = cs.graph, cs.colour
    n0, n = g.base.vertex_count, g.vertex_count
    vertices = list(map(_ORIGINAL.__mod__, zip(colour[:n0], range(n0))))
    vertices += map(_DIVISION.__mod__, zip(colour[n0:], range(n0, n)))
    edges = [
        _EDGE % (_json_list(list(map(str, path)), 8), u, v)
        for (u, v), path in zip(g.base.edges, g.division_paths)
    ]
    provenance = json.dumps(cs.provenance, indent=2, sort_keys=True).replace("\n", "\n  ")
    return _DOCUMENT % (_json_list(edges, 4), _json_list(list(map(str, cs.palette)), 4), provenance,
                        _json_list(vertices, 4))


def from_json_dict(data: Any) -> ColouredSubdivision:
    """Check data against the schema and build the subdivision.

    Ids, endpoints, colours and palette entries must be JSON integers, not
    booleans, and provenance, when present, an object.  A canonical file,
    as to_json_str writes one, passes a bulk check first: one
    comprehension per field, then whole-list comparisons and one test of
    the set of types.
    Only when that check fails does the per-entry loop run, which raises
    SchemaError at the first failed check with that check's own message,
    or accepts a valid file whose entries are out of canonical order.
    Both build the same subdivision.
    """
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    for key in ("vertices", "base_edges", "palette"):
        if key not in data:
            raise SchemaError(f"missing key {key!r}")
    n_original, edges, counts, colours = _canonical_parts(data) or _checked_parts(data)
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise SchemaError("provenance must be an object")
    try:
        base = BaseGraph(n_original, edges)
        graph = SubdividedGraph(base, counts)
        return ColouredSubdivision(graph, colours, tuple(data["palette"]), provenance)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _canonical_parts(data: dict) -> Optional[tuple]:
    """(originals, edges, division counts, colours) when data has the
    canonical layout, else None: vertex i has id i, the originals come
    first, the division lists concatenate to the division ids in order,
    and every id, endpoint, colour and palette entry is an int.  Every
    file it accepts passes each check of _checked_parts."""
    vertices, base_edges, palette = data["vertices"], data["base_edges"], data["palette"]
    if not (type(vertices) is list and type(base_edges) is list and type(palette) is list):
        return None
    if not {type(e) for e in vertices} | {type(e) for e in base_edges} <= {dict}:
        return None
    try:
        ids = [e["id"] for e in vertices]
        kinds = [e["kind"] for e in vertices]
        colours = tuple([e["colour"] for e in vertices])
        us = [e["u"] for e in base_edges]
        vs = [e["v"] for e in base_edges]
        divisions = [e["division"] for e in base_edges]
    except KeyError:
        return None
    n = len(vertices)
    n_original = kinds.count("original")
    if not (ids == list(range(n)) and kinds == ["original"] * n_original + ["division"] * (n - n_original)):
        return None
    if not {type(x) for x in divisions} <= {list}:
        return None
    flat = list(itertools.chain.from_iterable(divisions))
    types = set(map(type, itertools.chain(ids, colours, us, vs, flat, palette)))
    if not (types <= {int} and flat == list(range(n_original, n))):
        return None
    if us and not (0 <= min(us) and 0 <= min(vs) and max(us) < n_original and max(vs) < n_original):
        return None
    return n_original, tuple(zip(us, vs)), tuple(map(len, divisions)), colours


def _checked_parts(data: dict) -> tuple:
    """The same parts as _canonical_parts, checked entry by entry."""
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise SchemaError("vertices must be a list")
    n = len(vertices)
    kinds: list[str] = [""] * n
    colours: list = [None] * n
    seen_ids = set()
    for entry in vertices:
        if not isinstance(entry, dict):
            raise SchemaError("vertex entries must be objects")
        for key in ("id", "kind", "colour"):
            if key not in entry:
                raise SchemaError(f"vertex entry missing {key!r}")
        vid = entry["id"]
        if not (type(vid) is int and 0 <= vid < n):
            raise SchemaError(f"vertex id {vid!r} out of range")
        if vid in seen_ids:
            raise SchemaError(f"duplicate vertex id {vid}")
        seen_ids.add(vid)
        kind = entry["kind"]
        if kind not in ("original", "division"):
            raise SchemaError(f"vertex {vid}: bad kind {kind!r}")
        kinds[vid] = kind
        colour = entry["colour"]
        if not (colour is None or type(colour) is int):
            raise SchemaError(f"vertex {vid}: colour must be int or null")
        colours[vid] = colour

    n_original = kinds.count("original")
    if "division" in kinds[:n_original]:
        raise SchemaError("original vertices must occupy the low id range")

    base_edges = data["base_edges"]
    if not isinstance(base_edges, list):
        raise SchemaError("base_edges must be a list")
    edges = []
    divisions = []
    covered: set[int] = set()
    for entry in base_edges:
        if not isinstance(entry, dict):
            raise SchemaError("edge entries must be objects")
        for key in ("u", "v", "division"):
            if key not in entry:
                raise SchemaError(f"edge entry missing {key!r}")
        u, v, division = entry["u"], entry["v"], entry["division"]
        if not (type(u) is int and type(v) is int and 0 <= u < n_original and 0 <= v < n_original):
            raise SchemaError(f"edge ({u!r}, {v!r}) endpoints must be original vertex ids")
        if not isinstance(division, list):
            raise SchemaError("division must be a list of vertex ids")
        for dv in division:
            if not (type(dv) is int and n_original <= dv < n and kinds[dv] == "division"):
                raise SchemaError(f"division vertex {dv!r} invalid")
            if dv in covered:
                raise SchemaError(f"division vertex {dv} listed twice")
            covered.add(dv)
        edges.append((u, v))
        divisions.append(division)
    if len(covered) != n - n_original:
        raise SchemaError("some division vertices belong to no edge")

    palette = data["palette"]
    if not (isinstance(palette, list) and all(type(c) is int for c in palette)):
        raise SchemaError("palette must be a list of ints")
    if None in colours:
        raise SchemaError("all vertices must be coloured")
    if list(itertools.chain.from_iterable(divisions)) != list(range(n_original, n)):
        raise SchemaError("division vertex ids must be sequential per edge")
    return n_original, tuple(edges), tuple(map(len, divisions)), tuple(colours)


def from_json_str(text: str) -> ColouredSubdivision:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: line {exc.lineno}, column {exc.colno}") from exc
    return from_json_dict(data)


def _fill(index: int, size: int) -> str:
    """The fill of palette entry index out of size: evenly spaced hues."""
    r, g, b = colorsys.hsv_to_rgb(index / max(size, 1), 0.45, 0.95)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def to_dot(cs: ColouredSubdivision) -> str:
    """DOT rendering: originals as boxes, division vertices as points.

    Each colour's fill follows the first place it has in the palette, so
    a palette with repeated or unsorted entries still gives each colour
    one fill."""
    palette, colour = cs.palette, cs.colour
    fills: dict[int, str] = {}
    for i, c in enumerate(palette):
        fills.setdefault(c, _fill(i, len(palette)))
    points = {c: '  v%%d [shape=point, fillcolor="%s", color="%s"];' % (f, f) for c, f in fills.items()}
    n0, n = cs.graph.base.vertex_count, cs.graph.vertex_count
    lines = ["graph subdivision {", "  node [style=filled];"]
    lines += ['  v%d [shape=box, label="%d:%d", fillcolor="%s"];' % (v, v, c, fills[c])
              for v, c in zip(range(n0), colour)]
    lines += [points[c] % v for v, c in zip(range(n0, n), colour[n0:])]
    lines += map("  v%d -- v%d;".__mod__, cs.graph.chain_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
