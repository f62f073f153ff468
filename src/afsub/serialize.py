"""Canonical JSON interchange and DOT export for coloured subdivisions.

Schema:
{"vertices": [{"id": int, "kind": "original"|"division", "colour": int}],
 "base_edges": [{"u": int, "v": int, "division": [int, ...]}],
 "palette": [int], "provenance": {...}}

Serialisation is canonical (sorted keys, 2-space indent, one scalar per
line, [] for an empty list, ASCII escapes, a trailing newline), so parse
followed by serialise is byte-identical.  There is one reader: its checks
run in a fixed order, each as one test over a whole list, and only a
failed test walks its list for the first offending entry, whose message
it raises.  So a file with several defects gets the first failed check's
message.  Vertex entries may come in any order; division ids must run
from the originals' count in edge order, and an edge with two or more
division vertices must be written u < v, since they run from u to v.
"""

from __future__ import annotations

import colorsys
import itertools
import json
import operator
from typing import Any, Iterable

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
    booleans, and provenance, when present, an object.  The checks run in
    one fixed order, each as one test over a whole list, and the first
    that fails raises SchemaError with its own message, naming the first
    entry that breaks it (_parts).  Vertex entries may come in any order.
    """
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    for key in ("vertices", "base_edges", "palette"):
        if key not in data:
            raise SchemaError(f"missing key {key!r}")
    n_original, edges, counts, colours = _parts(data)
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise SchemaError("provenance must be an object")
    try:
        base = BaseGraph(n_original, edges)
        graph = SubdividedGraph(base, counts)
        return ColouredSubdivision(graph, colours, tuple(data["palette"]), provenance)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _refuse(messages: Iterable[str]) -> None:
    """Raise SchemaError with the first of messages, if there is one."""
    for message in messages:
        raise SchemaError(message)


def _fields(entries: list, keys: tuple[str, ...], what: str) -> list[list]:
    """Per key, the list of the entries' values: each entry must be an
    object holding every key."""
    if not set(map(type, entries)) <= {dict}:
        _refuse(f"{what} entries must be objects" for e in entries if not isinstance(e, dict))
    try:
        return [[e[key] for e in entries] for key in keys]
    except KeyError:
        _refuse(f"{what} entry missing {key!r}" for e in entries for key in keys if key not in e)
        raise


def _parts(data: dict) -> tuple:
    """(originals, edges, division counts, colours) of a schema document.

    Each rule is one test over its whole list, in a fixed order, and only
    a failed test walks the list (_refuse) for the first entry that breaks
    the rule.  A test may be stricter than its rule: a type set refuses a
    dict subclass or a null colour, and u < v an undivided edge written
    v, u.  Its walk then finds nothing, and the checks go on.  A canonical
    file passes the tests of its ids and its division ids at once."""
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise SchemaError("vertices must be a list")
    n = len(vertices)
    ids, kinds, colours = _fields(vertices, ("id", "kind", "colour"), "vertex")
    int_ids = set(map(type, ids)) <= {int}
    if not (int_ids and ids == list(range(n))):
        if not (int_ids and min(ids, default=0) >= 0 and max(ids, default=-1) < n):
            _refuse(f"vertex id {v!r} out of range" for v in ids if not (type(v) is int and 0 <= v < n))
        first: dict = {}  # each id's first place, so a later place repeats it
        _refuse(f"duplicate vertex id {v}" for i, v in enumerate(ids) if first.setdefault(v, i) != i)
        # ids are now 0 .. n - 1 in another order: read the entries by id
        order = sorted(range(n), key=ids.__getitem__)
        kinds, colours = [kinds[i] for i in order], [colours[i] for i in order]
    n_original = kinds.count("original")
    if n_original + kinds.count("division") < n:
        _refuse(f"vertex {v}: bad kind {k!r}" for v, k in enumerate(kinds) if k not in ("original", "division"))
    if not set(map(type, colours)) <= {int}:
        _refuse(f"vertex {v}: colour must be int or null" for v, c in enumerate(colours)
                if not (c is None or type(c) is int))
    if "division" in kinds[:n_original]:
        raise SchemaError("original vertices must occupy the low id range")

    base_edges = data["base_edges"]
    if not isinstance(base_edges, list):
        raise SchemaError("base_edges must be a list")
    us, vs, divisions = _fields(base_edges, ("u", "v", "division"), "edge")
    ends = us + vs
    if not (set(map(type, ends)) <= {int} and min(ends, default=0) >= 0 and max(ends, default=-1) < n_original):
        _refuse(f"edge ({u!r}, {v!r}) endpoints must be original vertex ids" for u, v in zip(us, vs)
                if not (type(u) is int and type(v) is int and 0 <= u < n_original and 0 <= v < n_original))
    if not set(map(type, divisions)) <= {list}:
        _refuse("division must be a list of vertex ids" for d in divisions if not isinstance(d, list))
    flat = list(itertools.chain.from_iterable(divisions))
    # a canonical list of division ids passes every division check
    int_flat = set(map(type, flat)) <= {int}
    sequential = int_flat and flat == list(range(n_original, n))
    if not sequential:
        if not (int_flat and min(flat, default=n) >= n_original and max(flat, default=-1) < n):
            _refuse(f"division vertex {dv!r} invalid" for dv in flat
                    if not (type(dv) is int and n_original <= dv < n))
        first = {}
        _refuse(f"division vertex {dv} listed twice" for i, dv in enumerate(flat) if first.setdefault(dv, i) != i)
        if len(flat) != n - n_original:
            raise SchemaError("some division vertices belong to no edge")

    palette = data["palette"]
    if not (isinstance(palette, list) and set(map(type, palette)) <= {int}):
        raise SchemaError("palette must be a list of ints")
    if None in colours:
        raise SchemaError("all vertices must be coloured")
    if not sequential:
        raise SchemaError("division vertex ids must be sequential per edge")
    # BaseGraph stores an edge as (min, max), and its division ids run from
    # the first end, so a path listed from the larger end would be reversed
    if not all(map(operator.lt, us, vs)):
        _refuse(f"edge ({u}, {v}) has {len(d)} division vertices, so it must have u < v"
                for u, v, d in zip(us, vs, divisions) if u > v and len(d) > 1)
    return n_original, tuple(zip(us, vs)), tuple(map(len, divisions)), tuple(colours)


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
