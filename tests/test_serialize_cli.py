import hashlib
import json

import pytest

from afsub.cli import main
from afsub.graph_constructions import colour_8, colour_14, colour_merged
from afsub.graph_model import (
    BaseGraph,
    complete_graph,
    coloured_subdivision,
    k_subdivision,
    path_graph,
)
from afsub.serialize import SchemaError, from_json_str, to_dot, to_json_str
from afsub.tree_constructions import (
    build_binary_tree_8,
    build_dary_banded,
    build_dary_tree_10,
    prune_to_subtree,
)
from afsub.graph_model import complete_dary_tree, random_binary_tree


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
    ], ids=["graph14-P2", "graph14-K3", "merged-P3-k1", "merged-P3-k2",
            "graph8-P2", "dary-banded-2-4-12", "binary-tree-h3",
            "dary-2-4", "dary-3-3", "random-binary-h5-seed7", "dary-3-2-pruned-to-binary-h2"])
    def test_sha256(self, make, digest):
        assert hashlib.sha256(to_json_str(make()).encode()).hexdigest() == digest


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

    def test_ceiling_exit_3(self, tmp_path, monkeypatch, capsys):
        from afsub import words

        good = alternating_path_file(tmp_path, tuple(words.keranen_symbols(40)))
        assert main(["verify", str(good), "--max-windows", "5"]) == 3
        # a path takes no DFS steps, so its 400 windows trip the ceiling
        assert "more than 5 path-windows (reached 400)" in capsys.readouterr().err
        # a spider, three 13-vertex legs on centre 0, is not max-degree-2,
        # so its DFS steps trip first
        legs = [[0, *range(1 + 13 * leg, 14 + 13 * leg)] for leg in range(3)]
        spider = BaseGraph(40, tuple(e for leg in legs for e in zip(leg, leg[1:])))
        cs = coloured_subdivision(k_subdivision(spider, 0), words.keranen_symbols(40), {"construction": "test"})
        spider_file = tmp_path / "spider.json"
        spider_file.write_text(to_json_str(cs))
        assert main(["verify", str(spider_file), "--max-windows", "5"]) == 3
        assert "more than 5 path-enumeration DFS steps" in capsys.readouterr().err
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", "5")
        assert main(["verify", str(good)]) == 3
        monkeypatch.delenv("AFSUB_MAX_WINDOWS")
        assert main(["verify", str(good)]) == 0

    def test_sample_requires_seed(self, tmp_path):
        good = alternating_path_file(tmp_path, (1, 2, 3))
        assert main(["verify", str(good), "--sample", "10"]) == 64
        assert main(["verify", str(good), "--sample", "10", "--seed", "1"]) == 0

    def test_restrict(self, tmp_path):
        bad = alternating_path_file(tmp_path, (1, 2, 1, 2))
        assert main(["verify", str(bad), "--restrict", "1"]) == 2
        assert main(["verify", str(bad), "--restrict", ""]) == 0

    def test_restrict_honours_the_ceiling(self, tmp_path, monkeypatch, capsys):
        from afsub import words

        good = alternating_path_file(tmp_path, tuple(words.keranen_symbols(60)))
        assert main(["verify", str(good), "--restrict", "0,1,2,3", "--max-windows", "10"]) == 3
        assert "raise the ceiling" in capsys.readouterr().err
        monkeypatch.setenv("AFSUB_MAX_WINDOWS", "10")
        assert main(["verify", str(good), "--restrict", "0,1,2,3"]) == 3
        monkeypatch.delenv("AFSUB_MAX_WINDOWS")
        assert main(["verify", str(good), "--restrict", "0,1,2,3"]) == 0

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

    def test_malformed_file_exit_65(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["verify", str(bad)]) == 65
        assert main(["verify", str(tmp_path / "missing.json")]) == 65

    def test_bad_edge_file_exit_65(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 2\n")
        assert main(["construct", "graph14", "--edges", str(edges)]) == 65


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
