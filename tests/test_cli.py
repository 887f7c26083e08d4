import csv
import json

import pytest

from idcodes.cli import main
from idcodes.families import cycle, path, star, tight_tree_a
from idcodes.graph import parse_edge_list, save_graph


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.edges"
    save_graph(path(4), f)
    return str(f)


@pytest.fixture
def c7_file(tmp_path):
    f = tmp_path / "c7.edges"
    save_graph(cycle(7), f)
    return str(f)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_valid(self, capsys, p4_file):
        code, out, _ = run(capsys, ["verify", p4_file, "--code", "0,1,2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "valid"
        assert payload["size"] == 3

    def test_invalid_with_witness(self, capsys, c7_file):
        code, out, _ = run(capsys, ["verify", c7_file, "--code", "0,1,2"])
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] in ("undominated", "unseparated")
        assert payload["witness"] is not None

    def test_total_flag(self, capsys, tmp_path):
        f = tmp_path / "star.edges"
        save_graph(star(4), f)
        code, out, _ = run(capsys, ["verify", str(f), "--code", "0,1,2", "--total"])
        assert code == 0 and json.loads(out)["verdict"] == "valid"

    def test_out_of_range_code(self, capsys, p4_file):
        code, _, err = run(capsys, ["verify", p4_file, "--code", "0,9"])
        assert code == 3
        assert "out of range" in err


class TestSolve:
    def test_p4(self, capsys, p4_file):
        code, out, _ = run(capsys, ["solve", p4_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 3
        assert payload["proven_optimal"] is True
        assert len(payload["witness"]) == 3

    def test_budget_exceeded(self, capsys, c7_file):
        code, out, _ = run(capsys, ["solve", c7_file, "--budget", "2"])
        assert code == 4
        assert json.loads(out)["proven_optimal"] is False

    def test_budget_env(self, capsys, c7_file, monkeypatch):
        monkeypatch.setenv("IDCODE_BUDGET", "2")
        code, out, _ = run(capsys, ["solve", c7_file])
        assert code == 4

    def test_not_identifiable(self, capsys, tmp_path):
        f = tmp_path / "k3.edges"
        f.write_text("3 3\n0 1\n0 2\n1 2\n")
        code, _, err = run(capsys, ["solve", str(f)])
        assert code == 2
        assert "closed twins" in err

    def test_total(self, capsys, tmp_path):
        f = tmp_path / "star4.edges"
        save_graph(star(4), f)
        code, out, _ = run(capsys, ["solve", str(f), "--total"])
        assert code == 0 and json.loads(out)["value"] == 3


class TestConstruct:
    def test_parity_shift_tight_tree(self, capsys, tmp_path):
        f = tmp_path / "tight.edges"
        save_graph(tight_tree_a(), f)
        code, out, _ = run(capsys, ["construct", str(f), "--method", "parity-shift"])
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 5 and payload["verdict"] == "valid"
        assert len(payload["traces"]) == 2

    def test_parity_shift_rejects_odd_cycle(self, capsys, tmp_path):
        f = tmp_path / "c5.edges"
        save_graph(cycle(5), f)
        code, _, err = run(capsys, ["construct", str(f), "--method", "parity-shift"])
        assert code == 2
        assert "bipartite" in err

    def test_auto_picks_best(self, capsys, tmp_path):
        f = tmp_path / "p7.edges"
        save_graph(path(7), f)
        code, out, _ = run(capsys, ["construct", str(f), "--method", "auto"])
        assert code == 0
        assert json.loads(out)["size"] == 4

    def test_auto_no_method(self, capsys, tmp_path):
        from idcodes.families import clique_corona1

        f = tmp_path / "kc3.edges"
        save_graph(clique_corona1(3), f)  # triangles and a non-identifiable core
        code, _, err = run(capsys, ["construct", str(f), "--method", "auto"])
        assert code == 2
        assert "no construction applies" in err


class TestGen:
    def test_path(self, capsys):
        code, out, _ = run(capsys, ["gen", "path", "4"])
        assert code == 0
        assert parse_edge_list(out) == path(4)

    def test_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "c6.edges"
        code, _, _ = run(capsys, ["gen", "cycle", "6", "--out", str(out_file)])
        assert code == 0
        assert parse_edge_list(out_file.read_text()) == cycle(6)

    def test_corona_with_inner(self, capsys, tmp_path):
        inner = tmp_path / "p2.edges"
        save_graph(path(2), inner)
        code, out, _ = run(capsys, ["gen", "corona", "2", "--inner", str(inner)])
        assert code == 0
        assert parse_edge_list(out).n == 6

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, ["gen", "cycle", "2"])
        assert code == 3

    def test_spider(self, capsys):
        code, out, _ = run(capsys, ["gen", "spider", "1", "3", "5"])
        assert code == 0
        assert parse_edge_list(out).n == 10


class TestBounds:
    def test_exact(self, capsys, p4_file):
        code, out, _ = run(capsys, ["bounds", p4_file, "--exact"])
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == 3
        by_name = {e["name"]: e for e in payload["bounds"]}
        assert by_name["(n+l)/2"]["value"] == 3
        assert by_name["(n+l)/2"]["tight"] is True

    def test_without_exact(self, capsys, c7_file):
        code, out, _ = run(capsys, ["bounds", c7_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is None
        assert payload["exact_status"] == "skipped"

    def test_deterministic_output(self, capsys, p4_file):
        _, out1, _ = run(capsys, ["bounds", p4_file, "--exact"])
        _, out2, _ = run(capsys, ["bounds", p4_file, "--exact"])
        assert out1 == out2


class TestSurvey:
    def test_csv_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "survey.csv"
        code, _, err = run(
            capsys, ["survey", "trees", "--max-n", "4", "--out", str(out_file)]
        )
        assert code == 0
        rows = list(csv.DictReader(out_file.open()))
        assert len(rows) == 3
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["trees_checked"] == 3

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, ["survey", "trees", "--max-n", "3"])
        assert code == 0
        assert out.startswith("index,")

    def test_large_needs_flag(self, capsys):
        code, _, err = run(capsys, ["survey", "trees", "--max-n", "13"])
        assert code == 3

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, ["survey", "trees", "--max-n", "6", "--budget", "1"])
        assert code == 4
        assert "budget" in err


class TestParseErrors:
    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, ["solve", "/nonexistent/graph.edges"])
        assert code == 3

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("not a graph\n")
        code, _, err = run(capsys, ["solve", str(f)])
        assert code == 3
