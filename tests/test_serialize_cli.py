import colorsys
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afsub
from afsub import cli, graph_model, serialize, tree_constructions
from afsub.cli import main
from afsub.graph_constructions import colour_8, colour_14, colour_merged
from afsub.graph_model import (
    BaseGraph,
    ColouredSubdivision,
    complete_graph,
    coloured_subdivision,
    cycle_graph,
    k_subdivision,
    path_graph,
    subdivide,
)
from afsub.serialize import SchemaError, from_json_dict, from_json_str, to_dot, to_json_str
from afsub.verifier import Counterexample, VerificationReport
from afsub.tree_constructions import (
    build_binary_tree_8,
    build_dary_banded,
    build_dary_tree_10,
    prune_to_subtree,
)
from afsub.graph_model import complete_dary_tree, random_binary_tree
from oracles import checked_parts, report_json


PAW = BaseGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))  # a triangle and a pendant edge


def to_json_dict(cs: ColouredSubdivision) -> dict:
    """The schema's document for cs, built entry by entry: json.dumps of it
    with sorted keys and a 2-space indent is the oracle of to_json_str."""
    vertices = [
        {
            "id": v,
            "kind": "original" if v < cs.graph.base.vertex_count else "division",
            "colour": cs.colour[v],
        }
        for v in range(cs.graph.vertex_count)
    ]
    base_edges = [
        {"u": u, "v": v, "division": list(path)}
        for (u, v), path in zip(cs.graph.base.edges, cs.graph.division_paths)
    ]
    return {
        "vertices": vertices,
        "base_edges": base_edges,
        "palette": list(cs.palette),
        "provenance": cs.provenance,
    }


def oracle_json_str(cs: ColouredSubdivision) -> str:
    return json.dumps(to_json_dict(cs), indent=2, sort_keys=True) + "\n"


def oracle_fill(colour: int, palette: tuple[int, ...]) -> str:
    idx = palette.index(colour) if colour in palette else 0
    hue = idx / max(len(palette), 1)
    r, g, b = colorsys.hsv_to_rgb(hue, 0.45, 0.95)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def oracle_to_dot(cs: ColouredSubdivision) -> str:
    """to_dot one vertex at a time, each fill computed afresh: its oracle."""
    lines = ["graph subdivision {", "  node [style=filled];"]
    palette = cs.palette
    for v in range(cs.graph.vertex_count):
        fill = oracle_fill(cs.colour[v], palette)
        if v < cs.graph.base.vertex_count:
            lines.append(f'  v{v} [shape=box, label="{v}:{cs.colour[v]}", fillcolor="{fill}"];')
        else:
            lines.append(f'  v{v} [shape=point, fillcolor="{fill}", color="{fill}"];')
    lines.extend(f"  v{a} -- v{b};" for a, b in cs.graph.chain_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def alternating_path_file(tmp_path, colours):
    s = k_subdivision(path_graph(len(colours)), 0)
    cs = coloured_subdivision(s, colours, {"construction": "test"})
    path = tmp_path / "graph.json"
    path.write_text(to_json_str(cs))
    return path


class TestRoundtrip:
    @pytest.mark.parametrize("make", [
        lambda: build_binary_tree_8(complete_dary_tree(2, 2)).coloured,
        lambda: colour_14(path_graph(2)).coloured,
        lambda: coloured_subdivision(k_subdivision(path_graph(3), 1), (0, 1, 0, 2, 2), {"x": 1}),
    ])
    def test_parse_then_serialise_is_identity(self, make):
        text = to_json_str(make())
        assert to_json_str(from_json_str(text)) == text

    def test_colour_outside_palette_names_vertex(self):
        cs = colour_14(path_graph(2)).coloured
        data = json.loads(to_json_str(cs))
        data["vertices"][3]["colour"] = 999
        with pytest.raises(SchemaError, match="vertex 3"):
            from_json_str(json.dumps(data))

    def test_empty_graph_is_valid(self):
        text = json.dumps({"vertices": [], "base_edges": [], "palette": [], "provenance": {}})
        cs = from_json_str(text)
        assert cs.graph.vertex_count == 0
        assert to_json_str(from_json_str(to_json_str(cs))) == to_json_str(cs)

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            from_json_str("not json at all {")

    def test_missing_division_vertex_rejected(self):
        cs = coloured_subdivision(k_subdivision(path_graph(2), 1), (0, 1, 2), {})
        data = json.loads(to_json_str(cs))
        data["base_edges"][0]["division"] = []
        with pytest.raises(SchemaError):
            from_json_str(json.dumps(data))


def small_document() -> dict:
    """One edge 0 - 1 through division vertex 2, coloured 0, 1, 2."""
    return {
        "vertices": [
            {"id": 0, "kind": "original", "colour": 0},
            {"id": 1, "kind": "original", "colour": 1},
            {"id": 2, "kind": "division", "colour": 2},
        ],
        "base_edges": [{"u": 0, "v": 1, "division": [2]}],
        "palette": [0, 1, 2],
        "provenance": {},
    }


def edit(*path_and_value):
    """An edit of small_document that sets the entry at path to value."""
    *path, last, value = path_and_value

    def apply(data):
        for key in path:
            data = data[key]
        data[last] = value

    return apply


def drop(*path):
    """An edit of small_document that deletes the entry at path."""
    *path, last = path

    def apply(data):
        for key in path:
            data = data[key]
        del data[last]

    return apply


def parse_error(text: str) -> str:
    with pytest.raises(SchemaError) as info:
        from_json_str(text)
    return str(info.value)


def edited_error(apply) -> str:
    data = small_document()
    apply(data)
    return parse_error(json.dumps(data))


class TestSchemaErrors:
    """Each check of from_json_str keeps its exact message: a malformed file
    gets the same first complaint whatever the parser does inside."""

    def test_small_document_is_valid(self):
        text = json.dumps(small_document())
        assert to_json_str(from_json_str(text)) == json.dumps(small_document(), indent=2, sort_keys=True) + "\n"

    def test_not_json(self):
        assert parse_error("{]") == "not valid JSON: line 1, column 2"

    def test_top_level(self):
        assert parse_error("[]") == "top level must be an object"

    @pytest.mark.parametrize("apply, message", [
        (drop("vertices"), "missing key 'vertices'"),
        (drop("base_edges"), "missing key 'base_edges'"),
        (drop("palette"), "missing key 'palette'"),
        (edit("vertices", {}), "vertices must be a list"),
        (edit("vertices", 0, 7), "vertex entries must be objects"),
        (drop("vertices", 0, "id"), "vertex entry missing 'id'"),
        (drop("vertices", 0, "kind"), "vertex entry missing 'kind'"),
        (drop("vertices", 0, "colour"), "vertex entry missing 'colour'"),
        (edit("vertices", 2, "id", 3), "vertex id 3 out of range"),
        (edit("vertices", 2, "id", -1), "vertex id -1 out of range"),
        (edit("vertices", 2, "id", "2"), "vertex id '2' out of range"),
        (edit("vertices", 1, "id", 0), "duplicate vertex id 0"),
        (edit("vertices", 0, "kind", "leaf"), "vertex 0: bad kind 'leaf'"),
        (edit("vertices", 1, "colour", "1"), "vertex 1: colour must be int or null"),
        (edit("vertices", 0, "kind", "division"), "original vertices must occupy the low id range"),
        (edit("base_edges", {}), "base_edges must be a list"),
        (edit("base_edges", 0, [0, 1]), "edge entries must be objects"),
        (drop("base_edges", 0, "u"), "edge entry missing 'u'"),
        (drop("base_edges", 0, "v"), "edge entry missing 'v'"),
        (drop("base_edges", 0, "division"), "edge entry missing 'division'"),
        (edit("base_edges", 0, "v", 2), "edge (0, 2) endpoints must be original vertex ids"),
        (edit("base_edges", 0, "u", "0"), "edge ('0', 1) endpoints must be original vertex ids"),
        (edit("base_edges", 0, "division", 2), "division must be a list of vertex ids"),
        (edit("base_edges", 0, "division", [1]), "division vertex 1 invalid"),
        (edit("base_edges", 0, "division", [3]), "division vertex 3 invalid"),
        (edit("base_edges", 0, "division", ["2"]), "division vertex '2' invalid"),
        (edit("base_edges", 0, "division", [2, 2]), "division vertex 2 listed twice"),
        (edit("base_edges", 0, "division", []), "some division vertices belong to no edge"),
        (edit("palette", {}), "palette must be a list of ints"),
        (edit("palette", [0, 1, 2.0]), "palette must be a list of ints"),
        (edit("palette", [0, 1]), "vertex 2 coloured 2, outside palette"),
        (edit("vertices", 2, "colour", None), "all vertices must be coloured"),
        (edit("base_edges", 0, "v", 0), "self-loop at vertex 0"),
    ])
    def test_message(self, apply, message):
        assert edited_error(apply) == message

    def test_duplicate_edge(self):
        data = small_document()
        data["vertices"].append({"id": 3, "kind": "division", "colour": 2})
        data["base_edges"].append({"u": 1, "v": 0, "division": [3]})
        assert parse_error(json.dumps(data)) == "duplicate edge (0, 1)"

    @pytest.mark.parametrize("u, v, code, err", [
        (1, 0, 65, "input error: edge (1, 0) has 2 division vertices, so it must have u < v\n"),
        (0, 1, 0, ""),
    ], ids=["reversed", "in-order"])
    def test_reversed_divided_edge_is_refused(self, tmp_path, capsys, u, v, code, err):
        # read from u = 1, the path 1-2-3-0 has the anagram 1-2 (colours
        # 1, 1); stored as (0, 1), its run would be read 0-2-3-1, which has none
        data = {
            "vertices": [
                {"id": 0, "kind": "original", "colour": 0},
                {"id": 1, "kind": "original", "colour": 1},
                {"id": 2, "kind": "division", "colour": 1},
                {"id": 3, "kind": "division", "colour": 2},
            ],
            "base_edges": [{"u": u, "v": v, "division": [2, 3]}],
            "palette": [0, 1, 2],
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == code
        assert capsys.readouterr().err == err

    def test_one_vertex_reversed_edge_reads_as_before(self):
        # one division vertex reads the same from either end
        data = small_document()
        data["base_edges"][0].update(u=1, v=0)
        assert outcome(data) == loop_outcome(data) == outcome(small_document())
        assert from_json_dict(data).graph == from_json_dict(small_document()).graph

    @pytest.mark.parametrize("apply, message", [
        (edit("vertices", 1, "id", True), "vertex id True out of range"),
        (edit("vertices", 0, "id", False), "vertex id False out of range"),
        (edit("vertices", 1, "colour", True), "vertex 1: colour must be int or null"),
        (edit("vertices", 0, "colour", False), "vertex 0: colour must be int or null"),
        (edit("base_edges", 0, "u", False), "edge (False, 1) endpoints must be original vertex ids"),
        (edit("base_edges", 0, "v", True), "edge (0, True) endpoints must be original vertex ids"),
        (edit("palette", [0, True, 2]), "palette must be a list of ints"),
        (edit("palette", [False, 1, 2]), "palette must be a list of ints"),
    ])
    def test_booleans_are_not_ints(self, apply, message):
        # isinstance(True, int) holds, so an isinstance check lets each through
        assert edited_error(apply) == message

    def test_boolean_division_vertex(self):
        # vertex 1 is a division vertex here, so only the type rules out true
        data = {
            "vertices": [
                {"id": 0, "kind": "original", "colour": 0},
                {"id": 1, "kind": "division", "colour": 1},
            ],
            "base_edges": [{"u": 0, "v": 0, "division": [True]}],
            "palette": [0, 1],
        }
        assert parse_error(json.dumps(data)) == "division vertex True invalid"

    @pytest.mark.parametrize("divisions, message", [
        ([[3, 5], [], [4]], "division vertex ids must be sequential per edge"),
        ([[4, 3], [], [5]], "division vertex ids must be sequential per edge"),
        ([[5], [], [3, 4]], "division vertex ids must be sequential per edge"),
        ([[3, 4], [], [6]], "division vertex 6 invalid"),
        ([[2], [3], [4]], "division vertex 2 invalid"),
    ], ids=["across-edges", "reversed", "swapped", "gap", "original-id"])
    def test_division_ids_out_of_sequence_rejected(self, divisions, message):
        # ids follow from the division counts, so only a file can list them
        # out of sequence
        data = to_json_dict(coloured_subdivision(subdivide(cycle_graph(3), [2, 0, 1]), range(6), {}))
        for entry, division in zip(data["base_edges"], divisions):
            entry["division"] = division
        assert parse_error(json.dumps(data)) == message
        assert loop_outcome(data) == ("error", message)

    @pytest.mark.parametrize("value", [3, [1], "x", None])
    def test_provenance_must_be_an_object(self, value, tmp_path, capsys):
        data = small_document()
        data["provenance"] = value
        assert parse_error(json.dumps(data)) == "provenance must be an object"
        assert loop_outcome(data) == ("error", "provenance must be an object")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 65
        assert capsys.readouterr().err == "input error: provenance must be an object\n"

    def test_missing_provenance_is_empty(self):
        data = small_document()
        del data["provenance"]
        assert outcome(data) == loop_outcome(data) == (to_json_str(from_json_dict(small_document())), {})

    def test_size_guard_refuses_a_file(self, monkeypatch):
        data = to_json_dict(coloured_subdivision(subdivide(cycle_graph(3), [2, 0, 1]), range(6), {}))
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 2)
        assert parse_error(json.dumps(data)) == "subdivision needs 3 division vertices, more than 2"

    def test_malformed_file_exit_65_names_the_check(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = small_document()
        edit("vertices", 0, "kind", "leaf")(data)
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 65
        assert capsys.readouterr().err == "input error: vertex 0: bad kind 'leaf'\n"


# JSON values whose encoding needs every kind of escape: quotes,
# backslashes, newlines, control and non-ASCII characters
provenance_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10 ** 20), 10 ** 20)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text('a"\\\n\t\x00é€😀', max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text('ab"\né', max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def coloured_subdivisions(draw):
    """A random coloured subdivision: up to 6 originals, each edge divided
    0 to 3 times, colours from -2 to 4, a palette in any order that may
    repeat entries, and a nested provenance."""
    n = draw(st.integers(0, 6))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=8)) if possible else []
    s = subdivide(BaseGraph(n, tuple(edges)), draw(st.lists(st.integers(0, 3), min_size=len(edges),
                                                             max_size=len(edges))))
    colours = draw(st.lists(st.integers(-2, 4), min_size=s.vertex_count, max_size=s.vertex_count))
    palette = draw(st.permutations(sorted(set(colours) | set(draw(st.lists(st.integers(5, 7), max_size=2))))))
    if palette:
        palette += draw(st.lists(st.sampled_from(palette), max_size=2))
    provenance = draw(st.dictionaries(st.text('abc"\né', max_size=3), provenance_values, max_size=3))
    return ColouredSubdivision(s, tuple(colours), tuple(palette), provenance)


@st.composite
def canonical_documents(draw):
    """to_json_dict of a random coloured subdivision."""
    return to_json_dict(draw(coloured_subdivisions()))


def outcome(data):
    """What from_json_dict makes of data: the canonical bytes and provenance
    it builds, or the text of the SchemaError it raises."""
    try:
        cs = from_json_dict(data)
    except SchemaError as exc:
        return "error", str(exc)
    return to_json_str(cs), cs.provenance


def exhausted(*_args, **_kwargs):
    """A stand-in for a call that runs out of memory, so no test allocates."""
    raise MemoryError


def loop_outcome(data):
    """outcome with the parts read by the reference loop
    oracles.checked_parts in place of the reader's."""
    with mock.patch.object(serialize, "_parts", checked_parts):
        return outcome(data)


@st.composite
def mutated_documents(draw):
    """A canonical document with one defect that the reader must turn
    away: a dropped key, a true or 1.0 id or colour, a true or out-of-range
    endpoint, a duplicate id, a division id out of order, or a dict where a
    list belongs."""
    data = draw(canonical_documents())
    vertices, base_edges = data["vertices"], data["base_edges"]
    divided = [e for e in base_edges if e["division"]]
    kinds = ["top-dict"]
    if vertices:
        kinds += ["vertex-key", "vertex-true", "vertex-float", "duplicate-id"]
    if base_edges:
        kinds += ["edge-key", "edge-true", "edge-range", "edge-dict"]
    if sum(len(e["division"]) for e in base_edges) >= 2:
        kinds.append("division-order")
    kind = draw(st.sampled_from(kinds))
    if kind == "top-dict":
        data[draw(st.sampled_from(("vertices", "base_edges", "palette")))] = {}
    elif kind.startswith("vertex") or kind == "duplicate-id":
        entry = draw(st.sampled_from(vertices))
        if kind == "vertex-key":
            del entry[draw(st.sampled_from(("id", "kind", "colour")))]
        elif kind == "duplicate-id":
            if len(vertices) < 2:
                entry["id"] = 1
            else:
                entry["id"] = draw(st.sampled_from([e["id"] for e in vertices if e is not entry]))
        else:
            field = draw(st.sampled_from(("id", "colour")))
            entry[field] = True if kind == "vertex-true" else float(entry[field])
    elif kind.startswith("edge"):
        entry = draw(st.sampled_from(base_edges))
        if kind == "edge-key":
            del entry[draw(st.sampled_from(("u", "v", "division")))]
        elif kind == "edge-true":
            entry[draw(st.sampled_from(("u", "v")))] = True
        elif kind == "edge-range":
            originals = sum(e["kind"] == "original" for e in vertices)
            entry[draw(st.sampled_from(("u", "v")))] = draw(st.sampled_from((-1, originals, len(vertices))))
        else:
            entry["division"] = {}
    else:
        flat = [dv for e in base_edges for dv in e["division"]]
        i, j = sorted(draw(st.lists(st.integers(0, len(flat) - 1), min_size=2, max_size=2, unique=True)))
        flat[i], flat[j] = flat[j], flat[i]
        for e in divided:
            e["division"], flat = flat[: len(e["division"])], flat[len(e["division"]):]
    return data


class TestBulkSchemaCheck:
    """from_json_dict checks each rule in bulk over a whole list; it builds
    or refuses alike with the reference loop oracles.checked_parts."""

    @given(canonical_documents())
    @settings(max_examples=150)
    def test_bulk_check_and_loop_build_equal_subdivisions(self, data):
        assert serialize._parts(data) == checked_parts(data)
        assert outcome(data) == loop_outcome(data)
        assert outcome(data) == (json.dumps(data, indent=2, sort_keys=True) + "\n", data["provenance"])

    @given(mutated_documents())
    @settings(max_examples=300)
    def test_mutated_documents_get_the_loops_error(self, data):
        assert outcome(data) == loop_outcome(data)

    @given(canonical_documents(), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_shuffled_vertex_entries_parse_through_the_loop(self, data, rng):
        expected = outcome(data)
        rng.shuffle(data["vertices"])
        assert outcome(data) == expected == loop_outcome(data)

    @pytest.mark.parametrize("edits, reader, loop", [
        ([edit("vertices", 1, "id", 0), edit("vertices", 2, "id", 5)],
         "vertex id 5 out of range", "duplicate vertex id 0"),
        ([edit("vertices", 0, "colour", True), edit("vertices", 1, "kind", "bogus")],
         "vertex 1: bad kind 'bogus'", "vertex 0: colour must be int or null"),
    ], ids=["ids", "colour-and-kind"])
    def test_several_defects_are_named_in_rule_order(self, edits, reader, loop):
        # the reader tests one rule at a time over the whole list, so the
        # first rule broken names the error; the reference loop names the
        # first entry that breaks any rule.  With several defects they differ
        data = small_document()
        for apply in edits:
            apply(data)
        assert outcome(data) == ("error", reader)
        assert loop_outcome(data) == ("error", loop)

    def test_reversed_vertex_entries_verify_alike(self, tmp_path, capsys):
        cs = build_binary_tree_8(complete_dary_tree(2, 3)).coloured
        colours = list(cs.colour)
        colours[cs.graph.adjacency[0][0]] = colours[0]
        planted = ColouredSubdivision(cs.graph, tuple(colours), cs.palette, {})
        data = to_json_dict(planted)
        canonical, reversed_ = tmp_path / "canonical.json", tmp_path / "reversed.json"
        canonical.write_text(json.dumps(data))
        data["vertices"].reverse()
        reversed_.write_text(json.dumps(data))
        assert main(["verify", str(canonical)]) == 2
        report = capsys.readouterr().out
        assert main(["verify", str(reversed_)]) == 2
        assert capsys.readouterr().out == report


def edge_cases(test):
    """test, run also on no vertices, originals without edges, and an
    edge left undivided beside an unsorted palette that repeats a colour."""
    for cs in (
        ColouredSubdivision(subdivide(BaseGraph(0, ()), []), (), (), {}),
        ColouredSubdivision(subdivide(BaseGraph(2, ()), []), (-1, -1), (-1,), {"s": 'a\n"b', "é": [{"x": None}]}),
        ColouredSubdivision(subdivide(path_graph(3), [0, 2]), (3, 1, 3, -2, 1), (3, -2, 1, 3), {}),
    ):
        test = example(cs)(test)
    return test


class TestWriterOracles:
    """to_json_str and to_dot write what their entry-by-entry oracles
    write, byte for byte."""

    @given(coloured_subdivisions())
    @edge_cases
    @settings(max_examples=200)
    def test_to_json_str_matches_oracle(self, cs):
        assert to_json_str(cs) == oracle_json_str(cs)

    @given(coloured_subdivisions())
    @edge_cases
    @settings(max_examples=200)
    def test_to_dot_matches_oracle(self, cs):
        assert to_dot(cs) == oracle_to_dot(cs)


def read_both_ways(text):
    """(what from_json_str makes of text, what the general reader makes of
    it, whether from_json_str took the canonical path): a subdivision or the
    text of the SchemaError raised."""
    def read():
        try:
            return from_json_str(text)
        except SchemaError as exc:
            return "error", str(exc)

    taken = []
    canonical_vertices = serialize._canonical_vertices

    def spy(text):
        taken.append(canonical_vertices(text))
        return taken[-1]

    with mock.patch.object(serialize, "_canonical_vertices", spy):
        fast = read()
    with mock.patch.object(serialize, "_canonical_vertices", lambda _t: None):
        general = read()
    return fast, general, taken[0] is not None


def vertex_section_edit(pattern, replacement):
    """An edit of a canonical file that makes one regex substitution in
    its vertices section, at the first match."""
    def apply(text):
        at = text.rindex('\n  "vertices": ')
        return text[:at] + re.sub(pattern, replacement, text[at:], count=1)

    return apply


def swap_ids(text):
    at = text.rindex('\n  "vertices": ')
    section = text[at:].replace('"id": 0,', '"id": X,').replace('"id": 1,', '"id": 0,').replace('"id": X,', '"id": 1,')
    return text[:at] + section


CANONICAL_EDITS = {
    **{f"colour-{spelling[:8]}": vertex_section_edit(r'"colour": -?\d+,', f'"colour": {spelling},')
       for spelling in ("07", "-0", "1.0", "true", "null", "9" * 5000)},
    "ids-swapped": swap_ids,
    "kind-changed": vertex_section_edit(r'"kind": "original"', '"kind": "division"'),
    "extra-space": vertex_section_edit(r'"id": ', '"id":  '),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "bom": lambda text: "\ufeff" + text,
    "earlier-duplicate-vertices": lambda text: text.replace('{\n  "base_edges"', '{\n  "vertices": 5,\n  "base_edges"', 1),
    "vertices-in-provenance": lambda text: text.replace('"provenance": {', '"provenance": {\n  "vertices": [],', 1),
    "cut-short": lambda text: text[:-1],
    "list-closed-twice": lambda text: text[:-3] + "\n  ]\n}\n",
}


class TestCanonicalReader:
    """from_json_str reads a canonical vertices section by rendering it
    again, and gives what the general reader gives on every file."""

    @given(canonical_documents())
    @settings(max_examples=150)
    def test_canonical_documents_take_the_canonical_path(self, data):
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        fast, general, taken = read_both_ways(text)
        # a subdivision's equality compares its graph, colours, palette and provenance
        assert fast == general == from_json_dict(json.loads(text))
        # an empty list is written [], which leaves nothing to render
        assert taken == bool(data["vertices"])

    @pytest.mark.parametrize("make", [
        lambda: colour_14(path_graph(2)).coloured,
        lambda: build_binary_tree_8(complete_dary_tree(2, 2)).coloured,
        lambda: colour_merged(path_graph(3), 1).coloured,
    ], ids=["graph14-P2", "binary-tree-h2", "merged-P3-k1"])
    @pytest.mark.parametrize("name", CANONICAL_EDITS)
    def test_edited_files_read_as_the_general_reader_reads_them(self, make, name):
        text = to_json_str(make())
        edited = CANONICAL_EDITS[name](text)
        assert edited != text
        fast, general, taken = read_both_ways(edited)
        assert fast == general
        # a duplicate member before the section, or one nested elsewhere,
        # leaves a canonical section that the canonical path reads
        assert taken == (name in ("earlier-duplicate-vertices", "vertices-in-provenance"))

    def test_edited_files_keep_their_messages(self):
        text = to_json_str(colour_14(path_graph(2)).coloured)
        outcomes = {name: read_both_ways(CANONICAL_EDITS[name](text))[0] for name in CANONICAL_EDITS}
        assert outcomes["colour-07"] == ("error", "not valid JSON: line 43, column 18")
        assert outcomes["colour-1.0"] == ("error", "vertex 0: colour must be int or null")
        assert outcomes["colour-true"] == ("error", "vertex 0: colour must be int or null")
        assert outcomes["colour-null"] == ("error", "all vertices must be coloured")
        assert outcomes["colour-99999999"][1].startswith("not valid JSON: Exceeds the limit")
        assert outcomes["kind-changed"] == ("error", "original vertices must occupy the low id range")
        assert outcomes["bom"] == ("error", "not valid JSON: line 1, column 1")
        assert outcomes["list-closed-twice"][0] == "error"
        assert outcomes["vertices-in-provenance"].provenance["vertices"] == []
        for name in ("colour--0", "ids-swapped", "extra-space", "crlf", "earlier-duplicate-vertices", "cut-short"):
            assert isinstance(outcomes[name], ColouredSubdivision), name

    @given(coloured_subdivisions())
    @edge_cases
    @settings(max_examples=100)
    def test_small_chunks_write_and_read_alike(self, cs):
        text = to_json_str(cs)
        for chunk in (1, 2, 3):
            with mock.patch.object(serialize, "_CHUNK", chunk):
                assert to_json_str(cs) == text
                fast, general, taken = read_both_ways(text)
            assert fast == general == cs
            assert taken == bool(cs.colour)


@st.composite
def verification_reports(draw):
    """A report as verify writes it: anagram_free, or a counterexample of an
    even vertex list halved in the middle whose multiset holds colours of
    any size and sign, so that keys of several digits sort as strings; the
    exhaustive mode or a sampled one, with or without its exhaustive
    hand-over; paths_checked from 0 up."""
    mode = draw(st.just("exhaustive") | st.builds(
        "sampled(budget={},seed={}){}".format, st.integers(1, 10**6), st.integers(-(10**6), 10**6),
        st.sampled_from(["", ":exhaustive"])))
    checked = draw(st.just(0) | st.integers(0, 10**12))
    if draw(st.booleans()):
        return VerificationReport("anagram_free", None, checked, mode)
    half = draw(st.integers(1, 6))
    vertices = tuple(draw(st.lists(st.integers(0, 10**7), min_size=2 * half, max_size=2 * half, unique=True)))
    colours = draw(st.lists(st.integers(-(2**70), 2**70) | st.integers(0, 120), min_size=1, max_size=half,
                            unique=True))
    counts = draw(st.lists(st.integers(1, 99), min_size=len(colours), max_size=len(colours)))
    multiset = tuple(sorted(zip(colours, counts)))
    return VerificationReport("counterexample", Counterexample(vertices, half, multiset), checked, mode)


class TestReportTemplate:
    """verify writes its report from a fixed template, byte for byte what
    json.dumps writes of its payload (oracles.report_json)."""

    @given(verification_reports())
    @example(VerificationReport("counterexample", Counterexample((4, 9, 11, 30), 2, ((2, 1), (10, 1))), 0,
                                "exhaustive"))
    @example(VerificationReport("anagram_free", None, 0, "sampled(budget=3,seed=1):exhaustive"))
    @settings(max_examples=300)
    def test_against_json_dumps(self, report):
        assert cli._report_text(report) == report_json(report)

    def test_multi_digit_keys_sort_as_strings(self):
        report = VerificationReport("counterexample", Counterexample((0, 1, 2, 3), 2, ((2, 1), (10, 1))), 8,
                                    "exhaustive")
        text = cli._report_text(report)
        assert text.index('"10": 1') < text.index('"2": 1')
        assert json.loads(text)["counterexample"]["multiset"] == {"10": 1, "2": 1}


class TestArtifactBytes:
    """Canonical JSON of the constructions is pinned byte for byte.

    The digests were recorded before the scanners and builders were folded
    into one implementation each; a refactor that changes any artifact
    fails here without a benchmark run.
    """

    @pytest.mark.parametrize("make,digest", [
        (lambda: colour_14(path_graph(2)).coloured,
         "d955f318e767c3b2c69d412e14e06b1031b234ffb9918398c3b2b55ee7bfa6f5"),
        (lambda: colour_14(complete_graph(3)).coloured,
         "6201da05bc4c38df255997aef7b485436214486578d2166284986b94fe094411"),
        (lambda: colour_merged(path_graph(3), 1).coloured,
         "42ca9a61cc61d87f498f4b911bf4e44cee8f8cb75ebfa0a7066d4ff33d244dba"),
        (lambda: colour_merged(path_graph(3), 2).coloured,
         "3a7da959a3585c3f3be176e54cd51dfa0da2da830a6c1a253734a880e9bed6e6"),
        (lambda: colour_8(path_graph(2)).coloured,
         "7f7419dcd76e93eafe0e1ec79cfab63b17ef41d15aac3a003026ddb24e07ae23"),
        (lambda: build_dary_banded(2, 4, 12).coloured,
         "ad1d7437642742439e411e86218b6028d1066695e4050edb8e9896ad92a2e1fd"),
        (lambda: build_binary_tree_8(complete_dary_tree(2, 3)).coloured,
         "e2fac35ef87782f470e39d1e3d7d5b71166114294ac2ffe26572e712afe2a683"),
        (lambda: build_dary_tree_10(2, 4).coloured,
         "4e1a92ee44003bc99c1b0f5618e63182023d816e9b1c0b068f5acceb82f461a8"),
        (lambda: build_dary_tree_10(3, 3).coloured,
         "07bb17fdecc966c68bc394a6355e195ed0975efeec6847c2788d9b37fc8483c8"),
        (lambda: build_binary_tree_8(random_binary_tree(5, 7)).coloured,
         "9b6fba2cdfdec0506f35725cf958761ff95abd0f96cd4d83b9a7f5dd0a828703"),
        (lambda: prune_to_subtree(build_dary_tree_10(3, 2), complete_dary_tree(2, 2)).coloured,
         "aacf25e5c2481c2328dff73a3b5e37f18b6a64d72d399c8185d08a3e4e4035eb"),
        (lambda: build_dary_banded(2, 6, 40).coloured,
         "cf1f50e4620f95108284734c3889188d89be775d6b5a7250f42a93bab3393ca0"),
        # recorded while the labels still stored the ranks and the thirds;
        # the C_4 and K_4 digests are those of perfbench/reference.json
        (lambda: colour_14(PAW).coloured,
         "46969eb36aacd75261a5e030b418e387b6a4df4f77663dc6dcd43cc338428397"),
        (lambda: colour_merged(cycle_graph(4), 1).coloured,
         "e8f621018a8960f89d53805be50901f577d0011485b14c932d283208179c02c9"),
        (lambda: colour_merged(PAW, 2).coloured,
         "3107cb5e751af0c80e88e9db39911b7238ad85021cbfcd1695233546f60133cc"),
        (lambda: colour_14(complete_graph(4)).coloured,
         "6f031f9037f23bb39759c7a279fe55bfaff5ec1fc2c444980217ec6db00aec22"),
    ], ids=["graph14-P2", "graph14-K3", "merged-P3-k1", "merged-P3-k2",
            "graph8-P2", "dary-banded-2-4-12", "binary-tree-h3",
            "dary-2-4", "dary-3-3", "random-binary-h5-seed7", "dary-3-2-pruned-to-binary-h2",
            "dary-banded-2-6-40", "graph14-paw", "merged-C4-k1", "merged-paw-k2", "graph14-K4"])
    def test_sha256(self, make, digest):
        assert hashlib.sha256(to_json_str(make()).encode()).hexdigest() == digest

    @pytest.mark.parametrize("make,digest", [
        (lambda: colour_14(complete_graph(3)).coloured,
         "0cc30b42856f630b63b60b0bf8246db25c98bd4c214e180efca630e8189c30c1"),
        (lambda: build_binary_tree_8(complete_dary_tree(2, 3)).coloured,
         "884b3771c6cf550c81ef610975b57db1d1337a2ecec3ae7ba55d4b3eb36e5442"),
        (lambda: build_dary_banded(2, 4, 12).coloured,
         "29e5be7f51abe1d909318564ac1698af12861b418e525601a7771496a873f899"),
        # the digest of perfbench/reference.json's "export graph14-K4"
        (lambda: colour_14(complete_graph(4)).coloured,
         "267ca7527a75818bcdff0d70356cb0c2c10b85881441602a91488c1f1ba39c0a"),
    ], ids=["graph14-K3", "binary-tree-h3", "dary-banded-2-4-12", "graph14-K4"])
    def test_dot_sha256(self, make, digest):
        # recorded before to_dot, adjacency and flatten shared
        # SubdividedGraph.chain_edges
        assert hashlib.sha256(to_dot(make()).encode()).hexdigest() == digest


class TestDot:
    def test_shapes_and_edges(self):
        cs = coloured_subdivision(k_subdivision(path_graph(2), 1), (0, 1, 2), {})
        dot = to_dot(cs)
        assert "shape=box" in dot and "shape=point" in dot
        assert dot.count("--") == 2


class TestCliWord:
    def test_thue(self, capsys):
        assert main(["word", "--alphabet", "3", "--length", "20"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 20 and set(out) <= set("abc")

    def test_keranen_deterministic(self, capsys):
        assert main(["word", "--alphabet", "4", "--length", "100"]) == 0
        first = capsys.readouterr().out
        assert main(["word", "--alphabet", "4", "--length", "100"]) == 0
        assert capsys.readouterr().out == first

    def test_usage_error_exit_64(self, capsys):
        assert main(["word", "--alphabet", "5", "--length", "3"]) == 64

    @pytest.mark.parametrize("alphabet", ["3", "4"])
    def test_length_past_the_vertex_cap_exit_64(self, monkeypatch, capsys, alphabet):
        # a small cap, so that a broken guard fails fast instead of growing
        # the word cache until the process is killed
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 100)
        assert main(["word", "--alphabet", alphabet, "--length", "100"]) == 0
        capsys.readouterr()
        assert main(["word", "--alphabet", alphabet, "--length", "101"]) == 64
        assert capsys.readouterr().err == "usage error: --length must be at most 100\n"


class TestCliConstructVerify:
    def test_binary_tree_height2(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["construct", "binary-tree", "--height", "2", "-o", str(out)]) == 0
        assert capsys.readouterr().err.startswith("palette=")
        cs = from_json_str(out.read_text())
        assert cs.max_division_count == 2
        assert len(cs.palette) <= 8
        assert main(["verify", str(out)]) == 0

    def test_construct_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["construct", "dary", "--d", "2", "--height", "2", "-o", str(a)])
        main(["construct", "dary", "--d", "2", "--height", "2", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_random_tree_needs_seed_value(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["construct", "binary-tree", "--height", "3", "--random", "7", "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize("name,extra", [
        ("graph14", []),
        ("graph8", []),
        ("graph-merged", ["--k", "1"]),
    ])
    def test_graph_constructions_verify(self, tmp_path, name, extra, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n")
        out = tmp_path / "g.json"
        assert main(["construct", name, "--edges", str(edges), *extra, "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_dary_banded(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["construct", "dary-banded", "--d", "2", "--height", "2", "--k", "5", "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_counterexample_exit_2(self, tmp_path, capsys):
        bad = alternating_path_file(tmp_path, (1, 2, 1, 2))
        assert main(["verify", str(bad)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "counterexample"
        assert payload["counterexample"]["vertices"] == [0, 1, 2, 3]

    @pytest.mark.parametrize("scanner,flags", [
        ("find_anagram", []),
        ("find_anagram_sampled", ["--sample", "5", "--seed", "1"]),
    ])
    def test_forged_counterexample_fails_the_self_check(self, tmp_path, monkeypatch, capsys, scanner, flags):
        # verify recounts the counterexample before it reports one: (0, 2)
        # has equal halves but is no path of the file
        bad = alternating_path_file(tmp_path, (1, 2, 1, 2))
        forged = VerificationReport("counterexample", Counterexample.of((0, 2), 1, (1, 2, 1, 2)), 1, "forged")
        monkeypatch.setattr(cli, scanner, lambda *args, **kwargs: forged)
        assert main(["verify", str(bad), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("self-check failed:") and captured.err.count("\n") == 1

    def test_self_check_messages_are_pinned(self, tmp_path, monkeypatch, capsys):
        # the stderr of word's and verify's self-check failures, byte for byte
        from afsub import words

        monkeypatch.setattr(words, "find_abelian_square", lambda *args, **kwargs: (0, 2))
        assert main(["word", "--alphabet", "4", "--length", "8"]) == 1
        assert capsys.readouterr() == ("", "self-check failed: generated word contains a repetition\n")
        bad = alternating_path_file(tmp_path, (1, 2, 1, 2))
        forged = VerificationReport("counterexample", Counterexample.of((0, 2), 1, (1, 2, 1, 2)), 1, "forged")
        monkeypatch.setattr(cli, "find_anagram", lambda *args, **kwargs: forged)
        assert main(["verify", str(bad)]) == 1
        expected = "self-check failed: the counterexample is not an anagram path of the input\n"
        assert capsys.readouterr() == ("", expected)

    def test_ceiling_exit_3(self, tmp_path, monkeypatch, capsys):
        from afsub import words

        good = alternating_path_file(tmp_path, tuple(words.keranen_symbols(40)))
        assert main(["verify", str(good), "--max-windows", "5"]) == 3
        # a path takes no DFS steps, so its 400 windows trip the ceiling
        assert "more than 5 path-windows (reached 400)" in capsys.readouterr().err
        # K_4 with two leaves on vertex 0 is not max-degree-2: a ceiling of
        # 2 caps its DFS at 6 + 4 * 2 steps, which trip before any window
        edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5))
        cs = coloured_subdivision(k_subdivision(BaseGraph(6, edges), 0), tuple(range(6)), {"construction": "test"})
        k4_file = tmp_path / "k4.json"
        k4_file.write_text(to_json_str(cs))
        assert main(["verify", str(k4_file), "--max-windows", "2"]) == 3
        assert "more than 14 path-enumeration DFS steps" in capsys.readouterr().err
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", "5")
        assert main(["verify", str(good)]) == 3
        monkeypatch.delenv("AFSUB_MAX_WINDOWS")
        assert main(["verify", str(good)]) == 0

    def test_sample_requires_seed(self, tmp_path):
        good = alternating_path_file(tmp_path, (1, 2, 3))
        assert main(["verify", str(good), "--sample", "10"]) == 64
        assert main(["verify", str(good), "--sample", "10", "--seed", "1"]) == 0

    @pytest.mark.parametrize("flags,err", [
        (["--sample", "5"], "usage error: --sample requires --seed for reproducibility\n"),
        (["--sample", "0", "--seed", "1"], "usage error: --sample must be at least 1\n"),
        (["--sample", "-3", "--seed", "1"], "usage error: --sample must be at least 1\n"),
        (["--seed", "1"], "usage error: --seed applies only to --sample\n"),
        (["--sample", "5", "--seed", "1", "--max-windows", "9"],
         "usage error: --max-windows does not apply to --sample, which has no window ceiling\n"),
        (["--max-windows", "-1"], "usage error: the window ceiling must be non-negative, got -1\n"),
    ], ids=["no-seed", "zero", "negative", "seed-without-sample", "ceiling-with-sample", "negative-ceiling"])
    def test_sample_flags_are_refused_before_the_file_is_read(self, tmp_path, capsys, flags, err):
        # the file does not exist, so reading it first would exit 65
        assert main(["verify", str(tmp_path / "nosuch.json"), *flags]) == 64
        assert capsys.readouterr() == ("", err)

    def test_flags_outside_their_mode_exit_64(self, tmp_path, monkeypatch, capsys):
        good = alternating_path_file(tmp_path, (1, 2, 3))
        for flags in (["--seed", "1"], ["--sample", "10", "--seed", "1", "--max-windows", "0"]):
            assert main(["verify", str(good), *flags]) == 64
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("usage error:")
        # the environment ceiling is a default, not a flag given to --sample
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", "0")
        assert main(["verify", str(good), "--sample", "10", "--seed", "1"]) == 0

    def test_restrict(self, tmp_path, capsys):
        # --restrict is gone: it is refused before the file is read, and the
        # plain scan decides the paths that a restriction misjudged
        unrecognised = "usage error: unrecognized arguments: --restrict 1\n"
        for colours, outcome, code in (((1, 2, 1, 2), "counterexample", 2),
                                       ((0, 1, 0), "anagram_free", 0), ((1, 2, 2), "counterexample", 2)):
            path = alternating_path_file(tmp_path, colours)
            assert main(["verify", str(path), "--restrict", "1"]) == 64
            assert capsys.readouterr() == ("", unrecognised)
            assert main(["verify", str(path)]) == code
            assert json.loads(capsys.readouterr().out)["outcome"] == outcome
        assert main(["verify", str(tmp_path / "nosuch.json"), "--restrict", "1"]) == 64
        assert capsys.readouterr() == ("", unrecognised)

    @pytest.mark.parametrize("keep", ["", ","])
    def test_empty_restriction_exits_64(self, tmp_path, capsys, keep):
        # an empty keep set certifies nothing, and is now refused as an
        # unknown option: here a binary-tree h=3 file with a planted
        # two-vertex anagram
        cs = build_binary_tree_8(complete_dary_tree(2, 3)).coloured
        colours = list(cs.colour)
        colours[cs.graph.adjacency[0][0]] = colours[0]
        bad = tmp_path / "bad.json"
        bad.write_text(to_json_str(coloured_subdivision(cs.graph, colours, cs.provenance)))
        assert main(["verify", str(bad)]) == 2
        capsys.readouterr()
        assert main(["verify", str(bad), "--restrict", keep]) == 64
        assert capsys.readouterr() == ("", f"usage error: unrecognized arguments: --restrict {keep}\n")

    def test_restrict_with_sample_exit_64(self, tmp_path, capsys):
        bad = alternating_path_file(tmp_path, (1, 2, 1, 2))
        assert main(["verify", str(bad), "--restrict", "1", "--sample", "5", "--seed", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --restrict 1\n"
        assert main(["verify", str(bad), "--sample", "5", "--seed", "1"]) == 2

    def test_construct_scans_a_forest_past_the_path_window_estimate(self, tmp_path, capsys):
        # 10,237 vertices: n^2/4 is 26.2M, above the default ceiling, but the
        # forest scan decides the tree within it
        out = tmp_path / "b.json"
        assert main(["construct", "dary-banded", "--d", "2", "--height", "10", "--k", "40", "-o", str(out)]) == 0
        assert capsys.readouterr().err.endswith("verification=anagram_free\n")
        assert from_json_str(out.read_text()).graph.vertex_count == 10_237

    def test_construct_skips_a_large_graph_with_cycles(self, tmp_path, capsys):
        edges = tmp_path / "k4.txt"
        edges.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert main(["construct", "graph14", "--edges", str(edges), "-o", str(tmp_path / "k4.json")]) == 0
        assert capsys.readouterr().err.endswith("verification=skipped(window ceiling)\n")

    @pytest.mark.parametrize("raw", ["abc", "1.5", "", "-1"])
    def test_malformed_ceiling_in_environment_exit_64(self, tmp_path, monkeypatch, capsys, raw):
        good = alternating_path_file(tmp_path, (1, 2, 3))
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", raw)
        assert main(["verify", str(good)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize("raw", ["abc", "-1"])
    def test_malformed_ceiling_flag_exit_64(self, tmp_path, capsys, raw):
        good = alternating_path_file(tmp_path, (1, 2, 3))
        assert main(["verify", str(good), "--max-windows", raw]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["bound", "kn", "--n", "100", "--c", "2"],
        ["word", "--alphabet", "4", "--length", "16"],
        ["witness", "kn", "--n", "30", "--c", "2", "--k", "1", "--seed", "4"],
        ["export", "FILE", "--dot", "OUT"],
        ["verify", "FILE", "--sample", "10", "--seed", "1"],
    ], ids=["bound", "word", "witness", "export", "verify-sample"])
    def test_malformed_ceiling_is_read_only_where_used(self, tmp_path, monkeypatch, capsys, argv):
        good = alternating_path_file(tmp_path, (1, 2, 3))
        files = {"FILE": str(good), "OUT": str(tmp_path / "g.dot")}
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", "junk")
        assert main([files.get(arg, arg) for arg in argv]) == 0
        assert "usage error" not in capsys.readouterr().err

    def test_malformed_ceiling_stops_construct_before_it_writes(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "t.json"
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", "junk")
        assert main(["construct", "dary", "--d", "2", "--height", "1", "-o", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: AFSUB_MAX_WINDOWS") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("patched", ["builder", "serialiser", "dot"])
    def test_construct_out_of_memory_exit_64(self, tmp_path, monkeypatch, capsys, patched):
        if patched == "builder":
            monkeypatch.setattr(tree_constructions, "build_dary_tree_10", exhausted)
        else:
            monkeypatch.setattr(cli, "to_json_str" if patched == "serialiser" else "to_dot", exhausted)
        out, dot = tmp_path / "t.json", tmp_path / "t.dot"
        assert main(["construct", "dary", "--d", "2", "--height", "2", "-o", str(out), "--dot", str(dot)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "memory" in err and "Traceback" not in err
        assert not out.exists() and not dot.exists()

    @pytest.mark.parametrize("argv, patched", [
        (["export", "FILE", "--dot", "OUT"], "to_dot"),
        (["verify", "FILE"], "find_anagram"),
    ], ids=["export", "verify"])
    def test_out_of_memory_exit_64(self, tmp_path, monkeypatch, capsys, argv, patched):
        files = {"FILE": str(alternating_path_file(tmp_path, (1, 2, 3))), "OUT": str(tmp_path / "g.dot")}
        monkeypatch.setattr(cli, patched, exhausted)
        assert main([files.get(arg, arg) for arg in argv]) == 64
        out, err = capsys.readouterr()
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "memory" in err and "Traceback" not in err
        assert out == "" and not (tmp_path / "g.dot").exists()

    def test_summary_out_of_memory_skips_verification(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "t.json"
        monkeypatch.setattr(cli, "find_anagram", exhausted)
        assert main(["construct", "dary", "--d", "2", "--height", "2", "-o", str(out)]) == 0
        assert capsys.readouterr().err.endswith(" verification=skipped(out of memory)\n")
        assert out.exists()

    def test_malformed_file_exit_65(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["verify", str(bad)]) == 65
        assert main(["verify", str(tmp_path / "missing.json")]) == 65

    def test_bad_edge_file_exit_65(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 2\n")
        assert main(["construct", "graph14", "--edges", str(edges)]) == 65

    @pytest.mark.parametrize("big", [10**20, 10**7])
    def test_edge_file_id_at_the_vertex_cap_exit_65(self, tmp_path, capsys, big):
        # refused before any per-vertex list of that length is built
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 {big}\n")
        assert main(["construct", "graph14", "--edges", str(edges)]) == 65
        assert capsys.readouterr().err == "input error: vertex ids must be below 10000000\n"
        edges.write_text("0 1\n")
        assert main(["construct", "graph14", "--edges", str(edges), "-o", str(tmp_path / "p2.json")]) == 0

    @pytest.mark.parametrize("argv, what", [
        (["verify", "FILE"], "file"),
        (["export", "FILE", "--dot", "OUT"], "file"),
        (["construct", "graph14", "--edges", "FILE"], "edge file"),
    ], ids=["verify", "export", "construct-edges"])
    def test_file_that_is_not_utf8_exit_65(self, tmp_path, capsys, argv, what):
        bad = tmp_path / "bad"
        bad.write_bytes(b"0 1\n1 \xff2\n")
        files = {"FILE": str(bad), "OUT": str(tmp_path / "out.dot")}
        assert main([files.get(arg, arg) for arg in argv]) == 65
        assert capsys.readouterr().err == f"input error: cannot read {what}: not UTF-8 at byte 6\n"
        assert not (tmp_path / "out.dot").exists()

    def test_integer_past_the_int_string_limit_exit_65(self, tmp_path, capsys):
        data = small_document()
        data["provenance"]["seed"] = 0
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data).replace('"seed": 0', '"seed": ' + "9" * 5000))
        assert main(["verify", str(path)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("input error: not valid JSON: ") and "Traceback" not in err


class TestCliBoundWitness:
    def test_bound_kn(self, capsys):
        assert main(["bound", "kn", "--n", "100", "--c", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound"] == pytest.approx(7.8995, abs=1e-4)

    def test_bound_tree(self, capsys):
        assert main(["bound", "tree", "--d", "2", "--heff", "16", "--h", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"bound": 2, "height_condition_met": True}

    def test_bound_dary(self, capsys):
        assert main(["bound", "dary", "--d", "2", "--h", "16", "--k", "12"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upper"] == pytest.approx(174.0)
        assert payload["lower"] <= payload["upper"]

    def test_bound_dary_rejects_small_k(self, capsys):
        assert main(["bound", "dary", "--d", "2", "--h", "16", "--k", "4"]) == 64

    def test_bound_kn_radicand_past_float_range(self, capsys):
        # the radicand 199! * 800 has 1,248 bits
        assert main(["bound", "kn", "--n", "1000", "--c", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["bound"] == pytest.approx(-124.5786, abs=1e-4)

    @pytest.mark.parametrize("argv", [
        ["kn", "--n", str(10**400), "--c", "1"],
        ["tree", "--d", "2", "--heff", str(10**400), "--h", "16"],
        ["tree", "--d", str(10**400), "--heff", "16", "--h", "16"],
        ["tree", "--d", str(10**24), "--heff", str(10**307), "--h", "2"],
        ["dary", "--d", "2", "--h", str(10**400), "--k", "12"],
        ["dary", "--d", "2", "--h", str(10**18), "--k", str(10**400)],
    ], ids=["kn", "tree-heff", "tree-d", "tree-infinite", "dary-h", "dary-k"])
    def test_bound_past_float_range_exit_64(self, capsys, argv):
        assert main(["bound", *argv]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_witness_kn(self, capsys):
        assert main(["witness", "kn", "--n", "30", "--c", "2", "--k", "1", "--seed", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        vertices = payload["witness"]["vertices"]
        assert len(vertices) == 2 * payload["witness"]["split"]

    def test_witness_tree(self, capsys):
        assert main(["witness", "tree", "--d", "16", "--h", "3", "--x", "2", "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["witness"]["vertices"]) >= 2

    def test_witness_requires_seed(self):
        assert main(["witness", "kn", "--n", "30", "--c", "2", "--k", "1"]) == 64

    @pytest.mark.parametrize("argv,finder", [
        (["witness", "kn", "--n", "30", "--c", "2", "--k", "1", "--seed", "4"], "find_anagram_pigeonhole"),
        (["witness", "tree", "--d", "16", "--h", "3", "--x", "2", "--seed", "1"], "find_anagram_undercoloured_tree"),
    ])
    def test_forged_witness_fails_the_self_check(self, monkeypatch, capsys, argv, finder):
        # witness recounts its witness with revalidate before it prints it
        from afsub import bounds

        forged = Counterexample((1, 2), 1, ((0, 1),))
        monkeypatch.setattr(bounds, finder, lambda *args, **kwargs: forged)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "self-check failed: the witness is not an anagram path of its colouring\n"


class TestCachedParser:
    """main builds its parser once per process, yet each call still reads
    AFSUB_MAX_WINDOWS and calls the library functions its modules hold now."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_ceiling_is_read_at_each_call(self, tmp_path, monkeypatch, capsys):
        from afsub import words

        good = alternating_path_file(tmp_path, tuple(words.keranen_symbols(40)))
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", "5")
        assert main(["verify", str(good)]) == 3
        assert "more than 5 path-windows (reached 400)" in capsys.readouterr().err
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", "7")
        assert main(["verify", str(good)]) == 3
        assert "more than 7 path-windows (reached 400)" in capsys.readouterr().err

    def test_verifier_patched_after_a_call_is_called(self, tmp_path, capsys):
        good = alternating_path_file(tmp_path, (1, 2, 3))
        assert main(["verify", str(good)]) == 0
        with mock.patch.object(cli, "find_anagram", wraps=cli.find_anagram) as patched:
            assert main(["verify", str(good)]) == 0
        assert patched.call_count == 1
        capsys.readouterr()

    def test_builder_patched_after_a_call_is_called(self, capsys):
        argv = ["construct", "dary", "--d", "2", "--height", "2"]
        assert main(argv) == 0
        build = tree_constructions.build_dary_tree_10
        with mock.patch.object(tree_constructions, "build_dary_tree_10", wraps=build) as patched:
            assert main(argv) == 0
        patched.assert_called_once_with(2, 2)
        capsys.readouterr()


def run_python(*args):
    """Run a fresh interpreter on args, with this afsub first on its path."""
    src = str(Path(afsub.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


class TestDeferredNumpy:
    """Each command loads only the modules it runs.  Only the scanners
    import numpy, so bound and witness start without it, bound loads no
    module of the package but closed_forms, and no dataclasses, and verify
    no builder."""

    # runs main on its arguments, then prints its exit code, whether numpy
    # was loaded, and the package modules that were, with dataclasses
    SCRIPT = (
        "import sys\n"
        "from afsub import cli\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, 'numpy' in sys.modules,\n"
        "      *sorted(m for m in sys.modules if m.startswith('afsub') or m == 'dataclasses'))\n"
    )
    WITNESS = {"afsub.bounds", "afsub.closed_forms", "afsub.graph_model", "afsub.verifier", "afsub.words",
               "dataclasses"}
    # the modules each command loads besides afsub and afsub.cli
    LOADS = {
        (): set(),
        ("bound", "kn"): {"afsub.closed_forms"},
        ("bound", "tree"): {"afsub.closed_forms"},
        ("bound", "dary"): {"afsub.closed_forms"},
        ("witness", "tree"): WITNESS,
        ("witness", "kn"): WITNESS,
    }

    def loaded(self, *argv) -> tuple[bool, set[str]]:
        """Whether numpy was loaded, and the package modules that were."""
        proc = run_python("-c", self.SCRIPT, *argv)
        code, numpy, *modules = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stderr
        return numpy == "True", set(modules)

    @pytest.mark.parametrize("argv", [
        (),
        ("bound", "kn", "--n", "100", "--c", "2"),
        ("witness", "tree", "--d", "2", "--h", "3", "--x", "1", "--seed", "0"),
        ("witness", "kn", "--n", "30", "--c", "2", "--k", "1", "--seed", "4"),
        ("bound", "tree", "--d", "2", "--heff", "16", "--h", "16"),
        ("bound", "dary", "--d", "2", "--h", "16", "--k", "12"),
    ])
    def test_not_loaded(self, argv):
        numpy, modules = self.loaded(*argv)
        assert not numpy
        assert modules == {"afsub", "afsub.cli"} | self.LOADS[argv[:2]]

    def test_loaded_by_verify_of_a_tree(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(to_json_str(build_binary_tree_8(complete_dary_tree(2, 2)).coloured))
        numpy, modules = self.loaded("verify", str(tree))
        assert numpy
        assert modules == {"afsub", "afsub.cli", "afsub.serialize", "afsub.graph_model", "afsub.verifier",
                           "afsub.words", "dataclasses"}

    def test_import_afsub_loads_no_submodule(self):
        proc = run_python("-c", "import sys, afsub; print(*[m for m in sys.modules if m.startswith('afsub')])")
        assert proc.stdout.split() == ["afsub"], proc.stderr


class TestLazyNames:
    """Names are bound on first use, never over a replacement: a function
    set on afsub.cli before any command runs is the one every command
    calls, and every export of the package resolves."""

    # replaces each scanner and serialiser on afsub.cli with a counting
    # wrapper of the real one, runs four commands, and prints their exit
    # codes, the wrappers' calls and whether cli still holds every wrapper
    SCRIPT = (
        "import sys\n"
        "import afsub.cli as cli\n"
        "from afsub import serialize, verifier\n"
        "names = {'to_json_str': serialize, 'from_json_str': serialize, 'to_dot': serialize,\n"
        "         'find_anagram': verifier, 'find_anagram_sampled': verifier}\n"
        "calls = []\n"
        "def counting(name, real):\n"
        "    def fake(*args, **kwargs):\n"
        "        calls.append(name)\n"
        "        return real(*args, **kwargs)\n"
        "    return fake\n"
        "fakes = {name: counting(name, getattr(module, name)) for name, module in names.items()}\n"
        "for name, fake in fakes.items():\n"
        "    setattr(cli, name, fake)\n"
        "tree, dot = sys.argv[1:]\n"
        "codes = [cli.main(argv) for argv in (\n"
        "    ['construct', 'binary-tree', '--height', '2', '-o', tree, '--dot', dot],\n"
        "    ['verify', tree], ['verify', tree, '--sample', '5', '--seed', '1'], ['export', tree, '--dot', dot])]\n"
        "print(*codes, *calls, all(getattr(cli, name) is fake for name, fake in fakes.items()))\n"
    )

    def test_replacements_set_before_any_command_are_called(self, tmp_path):
        proc = run_python("-c", self.SCRIPT, str(tmp_path / "t.json"), str(tmp_path / "t.dot"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == [
            "0", "0", "0", "0",
            "to_json_str", "to_dot", "find_anagram",  # construct, then its summary's scan
            "from_json_str", "find_anagram",
            "from_json_str", "find_anagram_sampled",
            "from_json_str", "to_dot",
            "True",
        ]

    def test_traced_names_resolve_in_a_fresh_process(self):
        # the names the benchmark tracer reads off afsub.cli, each with the
        # module that defines it (or is it)
        homes = {
            "main": "afsub.cli", "to_json_str": "afsub.serialize", "from_json_str": "afsub.serialize",
            "to_dot": "afsub.serialize", "find_anagram": "afsub.verifier", "find_anagram_sampled": "afsub.verifier",
            "bounds": "afsub.bounds", "tree_constructions": "afsub.tree_constructions",
            "graph_constructions": "afsub.graph_constructions", "words": "afsub.words",
        }
        code = (
            "import types, afsub.cli as cli\n"
            f"for name in {list(homes)!r}:\n"
            "    value = getattr(cli, name)\n"
            "    print(value.__name__ if isinstance(value, types.ModuleType) else value.__module__)\n"
        )
        proc = run_python("-c", code)
        assert proc.stdout.split() == list(homes.values()), proc.stderr

    def test_unknown_names_raise_attribute_error(self):
        for module in (afsub, cli):
            with pytest.raises(AttributeError):
                module.no_such_name

    def test_every_export_resolves(self):
        code = (
            "import afsub\n"
            "from afsub import *\n"
            "names = [name for name in afsub.__all__ if name != '__version__']\n"
            "homes = [getattr(afsub, name).__module__ for name in names]\n"
            "print(all(name in dir(afsub) for name in afsub.__all__), all(name in globals() for name in names),\n"
            "      __version__, *sorted(set(homes)))\n"
        )
        proc = run_python("-c", code)
        assert proc.stdout.split() == [
            "True", "True", "0.1.0", "afsub.graph_model", "afsub.tree_constructions", "afsub.words",
        ], proc.stderr


class TestModuleEntry:
    """python -m afsub.cli runs the same CLI as the afsub entry point."""

    @staticmethod
    def run_module(*argv):
        return run_python("-m", "afsub.cli", *argv)

    def test_bound(self):
        proc = self.run_module("bound", "kn", "--n", "100", "--c", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["bound"] == pytest.approx(7.8995, abs=1e-4)

    def test_usage_error(self):
        proc = self.run_module("construct", "dary", "--d", "1", "--height", "2")
        assert proc.returncode == 64
        assert proc.stderr.startswith("usage error:") and "Traceback" not in proc.stderr


def run_leaf(argv, tmp_path, capsys):
    """Run main on argv with EDGE, EDGES, TREE, BAD and DOT replaced by
    files: one edge, a four-edge tree with a degree-3 vertex, the
    binary-tree h=2 construction, a path with a counterexample, and an
    output path.
    Returns the exit code, the sha256 of stdout followed by any DOT file
    written, and stderr."""
    edge = tmp_path / "edge.txt"
    edge.write_text("0 1\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 3\n1 4\n")
    tree = tmp_path / "tree.json"
    tree.write_text(to_json_str(build_binary_tree_8(complete_dary_tree(2, 2)).coloured))
    bad = alternating_path_file(tmp_path, (1, 2, 1, 2))
    dot = tmp_path / "out.dot"
    files = {"EDGE": edge, "EDGES": edges, "TREE": tree, "BAD": bad, "DOT": dot}
    code = main([str(files.get(arg, arg)) for arg in argv])
    captured = capsys.readouterr()
    written = dot.read_bytes() if dot.exists() else b""
    return code, hashlib.sha256(captured.out.encode() + written).hexdigest(), captured.err


class TestCliDispatchBytes:
    """Every CLI leaf, once at a small size, through main: exit code,
    stdout and stderr are pinned as recorded before the dispatch moved
    into argparse."""

    @pytest.mark.parametrize("argv,code,digest,err", [
        (["word", "--alphabet", "3", "--length", "30"], 0,
         "b588ab0be8594de2ee6603051bcb0d319c5dbac89d86e383ad5742a5c131f429", ""),
        (["word", "--alphabet", "4", "--length", "100"], 0,
         "013657ec3bb56247ea3ce34bc0eb4958f202411d1725bc068341bf5335d6db25", ""),
        (["construct", "binary-tree", "--height", "2"], 0,
         "fc468e31ca856c10acfc8b8de2ae82c6dd531183a685e601e137b900280995c8", "palette=6 max_division=2 verification=anagram_free\n"),
        (["construct", "binary-tree", "--height", "3", "--random", "7"], 0,
         "9b6fba2cdfdec0506f35725cf958761ff95abd0f96cd4d83b9a7f5dd0a828703", "palette=6 max_division=2 verification=anagram_free\n"),
        (["construct", "dary", "--d", "2", "--height", "2"], 0,
         "f8105d2e9e31f8e1fb692a2e9e465a1351dd8bb82be929b240f17392bdea3430", "palette=10 max_division=12 verification=anagram_free\n"),
        (["construct", "dary-banded", "--d", "2", "--height", "2", "--k", "5"], 0,
         "677b383d792d491834bd0e2e43ce9e218ae85e066ed841f2facdf00c0f4eaf5f", "palette=3 max_division=0 verification=anagram_free\n"),
        (["construct", "graph14", "--edges", "EDGES"], 0,
         "fca7a4666c20460ec6e68a9c115aa5fcc19a0bd5111ddfab6c2589bcc1e8a54d", "palette=14 max_division=384 verification=anagram_free\n"),
        (["construct", "graph8", "--edges", "EDGE"], 0,
         "7f7419dcd76e93eafe0e1ec79cfab63b17ef41d15aac3a003026ddb24e07ae23", "palette=8 max_division=243 verification=anagram_free\n"),
        (["construct", "graph-merged", "--edges", "EDGES", "--k", "2"], 0,
         "e82557aea20dd42faeed204f90a015edabbcc106d3b4aea46bf7bb672df4d8a7", "palette=26 max_division=24 verification=anagram_free\n"),
        (["verify", "TREE"], 0,  # paths_checked counts 50 half-paths, as test_verify_tree_counts_half_paths asserts
         "7258f7481b788fe36ee5ada263b48ee182975b02684c67d79cdf1f2aade874ce", ""),
        (["verify", "BAD"], 2,
         "503a035f5dc516777bf7c360e27cefa353e2bde93213a7b90bc48fa8f898ebf4", ""),
        (["verify", "TREE", "--sample", "50", "--seed", "3"], 0,
         "aba3e12de18286aa9984cb347586c0876c0752b9e9e900dd528dde5d0ebbd1cb", ""),
        (["verify", "BAD", "--restrict", "1"], 64,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "usage error: unrecognized arguments: --restrict 1\n"),
        (["bound", "kn", "--n", "100", "--c", "2"], 0,
         "8a404027567e1ee7bacf5b14a3dacc9e5884587bd8bc4a2a0fb319bdd543e837", ""),
        (["bound", "tree", "--d", "2", "--heff", "16", "--h", "16"], 0,
         "6b52a677aee235ebacf33e5dd7fa683697fc7cd52cfb347bd71002a935b1a183", ""),
        (["bound", "dary", "--d", "2", "--h", "16", "--k", "12"], 0,
         "da7fa0f20910042ce2ba190e69563ff1cbe6db2a37baff46d72af4d135676e04", ""),
        (["witness", "kn", "--n", "30", "--c", "2", "--k", "1", "--seed", "4"], 0,
         "a634861fa1b832e6a45f10b8001092c0b2d1800e88395b4917560a69a1132760", ""),
        (["witness", "tree", "--d", "16", "--h", "3", "--x", "2", "--seed", "0"], 0,
         "afc02c971ec314187fa34c538504519ee8cccb06e5ed2b5545c3180b612f0c53", ""),
        (["export", "TREE", "--dot", "DOT"], 0,
         "9f0add9f822991618cbba77d070ddcdbf02dbb6029cb07c13ff570c71776cb47", ""),
        (["verify", "BAD", "--max-windows", "1"], 3,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "verification needs more than 1 path-windows (reached 4); raise the ceiling or use sampling\n"),
        (["construct", "binary-tree", "--height", "0"], 64,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage error: --height must be at least 1\n"),
        (["bound", "dary", "--d", "2", "--h", "16", "--k", "4"], 64,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage error: need k > 2d\n"),
        (["witness", "kn", "--n", "30", "--c", "2", "--k", "1"], 64,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage error: the following arguments are required: --seed\n"),
    ], ids=["word-3", "word-4", "construct-binary-tree", "construct-binary-tree-random",
            "construct-dary", "construct-dary-banded", "construct-graph14",
            "construct-graph8", "construct-graph-merged", "verify", "verify-counterexample",
            "verify-sample", "verify-restrict-unrecognised",
            "bound-kn", "bound-tree", "bound-dary", "witness-kn", "witness-tree",
            "export", "verify-ceiling", "construct-height-0", "bound-dary-small-k",
            "witness-no-seed"])
    def test_leaf(self, tmp_path, monkeypatch, capsys, argv, code, digest, err):
        monkeypatch.delenv("AFSUB_MAX_WINDOWS", raising=False)
        assert run_leaf(argv, tmp_path, capsys) == (code, digest, err)

    def test_verify_tree_counts_half_paths(self, tmp_path, capsys):
        # binary-tree h=2 is a forest with a degree-3 vertex, so verify takes
        # the centre-edge scan: 11 vertices, 10 edges, 50 half-paths
        tree = tmp_path / "tree.json"
        tree.write_text(to_json_str(build_binary_tree_8(complete_dary_tree(2, 2)).coloured))
        assert main(["verify", str(tree)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "mode": "exhaustive", "outcome": "anagram_free", "paths_checked": 50}


class TestCliBadParameters:
    @pytest.mark.parametrize("argv", [
        ["construct", "dary", "--d", "1", "--height", "2"],
        ["construct", "dary", "--d", "2", "--height", "-1"],
        ["construct", "dary-banded", "--d", "2", "--height", "3", "--k", "3"],
        ["construct", "graph-merged", "--edges", "EDGES", "--k", "0"],
        ["construct", "dary", "--d", "2", "--height", "1", "-o", "MISSING/t.json"],
        ["construct", "dary", "--d", "2", "--height", "1", "--dot", "MISSING/t.dot"],
        ["word", "--alphabet", "4", "--length", "5", "-o", "MISSING/w.txt"],
        ["export", "TREE", "--dot", "MISSING/t.dot"],
        # refused from the height, before 2 ** (10**20 + 1) is computed
        ["construct", "dary", "--d", "2", "--height", str(10**20)],
        ["construct", "binary-tree", "--height", str(10**20)],
        ["construct", "dary-banded", "--d", "2", "--height", str(10**20), "--k", "5"],
        ["witness", "tree", "--d", "2", "--h", str(10**20), "--x", "1", "--seed", "0"],
        # refused before the clique's 4,999,950,000 edges are listed
        ["witness", "kn", "--n", "100000", "--c", "2", "--k", "3", "--seed", "1"],
    ], ids=["dary-d1", "dary-negative-height", "banded-small-k", "merged-k0",
            "construct-output", "construct-dot", "word-output", "export-dot",
            "dary-huge-height", "binary-tree-huge-height", "banded-huge-height", "witness-tree-huge-height",
            "witness-kn-huge-n"])
    def test_usage_error_exit_64(self, tmp_path, capsys, argv):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n")
        tree = tmp_path / "tree.json"
        tree.write_text(to_json_str(build_binary_tree_8(complete_dary_tree(2, 1)).coloured))
        files = {"EDGES": str(edges), "TREE": str(tree)}
        argv = [files.get(arg, arg.replace("MISSING", str(tmp_path / "missing"))) for arg in argv]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_graph8_too_large_exit_64(self, tmp_path, capsys):
        # a 4-edge tree would need 179,905,728 division vertices
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 3\n1 4\n")
        out = tmp_path / "g8.json"
        assert main(["construct", "graph8", "--edges", str(edges), "-o", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: subdivision needs 179905728 division vertices, more than 10000000")
        assert "Traceback" not in err and not out.exists()


    @pytest.mark.parametrize("argv, refused", [
        (["binary-tree", "--height", "16"], "complete 2-ary tree of height 16 has 131071 vertices"),
        (["dary", "--d", "2", "--height", "14"], "subdivision needs 28599510 division vertices"),
        (["dary-banded", "--d", "2", "--height", "40", "--k", "12"], "complete 2-ary tree of height 40"),
        (["graph14", "--edges", "K6"], "subdivision needs 3221225469 division vertices"),
        (["graph-merged", "--edges", "K6", "--k", "1"], "subdivision needs 3221225469 division vertices"),
    ], ids=["binary-tree", "dary", "dary-banded", "graph14", "graph-merged"])
    def test_oversized_construction_exit_64(self, tmp_path, monkeypatch, capsys, argv, refused):
        # a small cap, so that a broken guard fails fast instead of
        # allocating gigabytes
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 100_000)
        k6 = tmp_path / "k6.edges"
        k6.write_text("".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6)))
        out = tmp_path / "big.json"
        argv = ["construct", *(str(k6) if arg == "K6" else arg for arg in argv), "-o", str(out)]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {refused}") and err.endswith("more than 100000\n")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("argv, err", [
        # height 1,918: refused from its root edges, before every edge's
        # 3 ** (h - depth - 1) - 1 is computed or any total is printed
        (["--height", str(10**20), "--random", "280"],
         "binary tree of height 1918 needs more than 10000000 division vertices on a root edge"),
        # under a cap of 1,000,000 a root edge of 3 ** 12 - 1 fits, so the
        # total is refused as before, and one of 3 ** 13 - 1 does not
        (["--height", "13"], "subdivision needs 3155880 division vertices, more than 1000000"),
        (["--height", "14"], "binary tree of height 14 needs more than 1000000 division vertices on a root edge"),
    ], ids=["random-huge-height", "total", "root-edge"])
    def test_binary_tree_refused_from_its_root_edges(self, monkeypatch, capsys, argv, err):
        if "--random" not in argv:
            monkeypatch.setattr(graph_model, "MAX_VERTICES", 1_000_000)
        assert main(["construct", "binary-tree", *argv]) == 64
        assert capsys.readouterr().err == f"usage error: {err}\n"


class TestCliExport:
    def test_export_dot(self, tmp_path):
        src = tmp_path / "g.json"
        main(["construct", "binary-tree", "--height", "1", "-o", str(src)])
        out = tmp_path / "g.dot"
        assert main(["export", str(src), "--dot", str(out)]) == 0
        assert out.read_text().startswith("graph subdivision {")

    def test_construct_with_dot_sidecar(self, tmp_path):
        out = tmp_path / "g.json"
        dot = tmp_path / "g.dot"
        assert main(["construct", "binary-tree", "--height", "1", "-o", str(out), "--dot", str(dot)]) == 0
        assert "shape=box" in dot.read_text()
