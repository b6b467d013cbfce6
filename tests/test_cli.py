import json
import os
import subprocess
import sys

import pytest

from giwa.cli import main
from giwa.specio import (graph_from_spec, group_from_spec, load_json,
                         parse_element, tower_from_spec, voltage_from_spec)
from giwa.errors import ValidationError

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")


def spec_path(name):
    return os.path.join(SPECS, name)


# Row names of `giwa examples --json`, in order; the benchmark looks rows up by name.
EX1_ROWS = [
    "ex1 base mu", "ex1 base lambda", "ex1 base ord3(kappa_1)", "ex1 base ord3(kappa_2)",
    "ex1 base ord3(kappa_3)", "ex1 base fit (mu,lambda,nu,n0)", "ex1 pullback mu",
    "ex1 pullback lambda", "ex1 kida identity", "ex1 pullback f coefficient T^2",
    "ex1 pullback f coefficient T^3", "ex1 pullback f coefficient T^4",
    "ex1 pullback series note", "ex1 pullback first coefficient prime to 3 at",
    "ex1 pullback ord3(kappa_0)", "ex1 pullback kappa_0", "ex1 pullback ord3(kappa_1)",
    "ex1 pullback kappa_1", "ex1 pullback ord3(kappa_2)", "ex1 pullback kappa_2",
    "ex1 pullback ord3(kappa_3)", "ex1 pullback kappa_3",
]
EX2_BASE_ROWS = [
    "ex2 base mu", "ex2 base lambda", "ex2 base f coefficient T^2",
    "ex2 base f coefficient T^3", "ex2 base f coefficient T^4",
    "ex2 base f coefficient T^5", "ex2 base kappa_1", "ex2 base kappa_2",
    "ex2 base kappa_3", "ex2 base kappa_4", "ex2 base ord2(kappa_0)",
    "ex2 base ord2(kappa_1)", "ex2 base ord2(kappa_2)", "ex2 base ord2(kappa_3)",
    "ex2 base ord2(kappa_4)", "ex2 base fit (mu,lambda,nu,n0)",
]
EX2_PULLBACK_ROWS = [
    "ex2 pullback mu", "ex2 pullback lambda", "ex2 kida identity",
    "ex2 pullback f coefficient T^2", "ex2 pullback f coefficient T^3",
    "ex2 pullback f coefficient T^4", "ex2 pullback first odd coefficient at",
    "ex2 pullback ord2(kappa_0)", "ex2 pullback kappa_0", "ex2 pullback ord2(kappa_1)",
    "ex2 pullback kappa_1", "ex2 pullback ord2(kappa_2)", "ex2 pullback kappa_2",
    "ex2 pullback ord2(kappa_3)", "ex2 pullback kappa_3", "ex2 pullback ord2(kappa_4)",
    "ex2 pullback kappa_4", "ex2 pullback fit (mu,lambda,nu,n0)",
]
SL2_ROWS = [f"sl2 base f coefficient T^{k}" for k in range(2, 11)] + [
    "sl2 base mu", "sl2 base lambda",
    "sl2 level 0 mu", "sl2 level 0 lambda", "sl2 level 0 growth formula",
    "sl2 level 0 connectedness certified",
    "sl2 level 1 mu", "sl2 level 1 lambda", "sl2 level 1 growth formula",
    "sl2 level 1 connectedness certified",
]


class TestSpecIO:
    def test_graph_spec(self):
        g = graph_from_spec({"vertices": ["a", "b"],
                             "edges": [["a", "b"], ["a", "a", "loop"]]})
        assert g.vertex_count == 2
        assert g.undirected_edge_count == 2

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown fields"):
            graph_from_spec({"vertices": [], "edges": [], "extra": 1})

    def test_group_specs(self):
        assert group_from_spec({"type": "cyclic", "order": 5}).order == 5
        assert group_from_spec({"type": "dihedral8"}).order == 8
        G = group_from_spec({"type": "product",
                             "factors": [{"type": "cyclic", "order": 2},
                                         {"type": "cyclic", "order": 3}]})
        assert G.order == 6
        sl2 = group_from_spec({"type": "sl2", "ell": 3, "level": 1})
        assert sl2.order == 27

    def test_parse_elements(self):
        G = group_from_spec({"type": "product",
                             "factors": [{"type": "cyclic", "order": 3},
                                         {"type": "cyclic", "order": 3}]})
        assert parse_element(G, "(1,2)") == (1, 2)
        D8 = group_from_spec({"type": "dihedral8"})
        r = parse_element(D8, "r")
        assert parse_element(D8, "r2") == D8.multiply(r, r)
        assert parse_element(D8, "1") == D8.identity
        with pytest.raises(ValidationError):
            parse_element(D8, "x")

    def test_orientation_flip(self):
        from giwa.specio import orientation_from_spec
        g = graph_from_spec({"vertices": ["a", "b"],
                             "edges": [["a", "b", "e1"], ["a", "b", "e2"]]})
        o = orientation_from_spec(g, ["~e1", "e2"])
        assert o.edges == (1, 2)
        with pytest.raises(ValidationError):
            orientation_from_spec(g, ["e1"])

    def test_tower_spec_roundtrip(self):
        t, va_beta, levels = tower_from_spec(load_json(spec_path("ex1_tower.json")))
        assert t.ell == 3
        assert levels == 3
        assert va_beta.group.order == 9

    def test_voltage_spec(self):
        va = voltage_from_spec(load_json(spec_path("b3_level1_voltage.json")))
        assert va.group.order == 3


class TestInvariantsCommand:
    def test_ex1_table(self, capsys):
        code = main(["invariants", spec_path("ex1_tower.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("mu=0 lambda=5 nu=-2 (n>=1)")

    def test_ex2_table(self, capsys):
        code = main(["invariants", spec_path("ex2_tower.json"), "--levels", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("mu=0 lambda=1 nu=0 (n>=0)")

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["invariants", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed JSON" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["invariants", "/nonexistent.json"]) == 2

    def test_json_output_deterministic(self, capsys):
        main(["invariants", spec_path("ex1_tower.json"), "--json"])
        first = capsys.readouterr().out
        main(["invariants", spec_path("ex1_tower.json"), "--json"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["invariants"] == {"mu": 0, "lambda": 5}

    def test_deep_levels_render_kappa_past_the_str_limit(self, capsys, monkeypatch):
        # kappa_8 of ex1 has more digits than int-to-str conversion allows
        monkeypatch.setenv("GIWA_VERTEX_CAP", "100000")
        code = main(["invariants", spec_path("ex1_tower.json"), "--levels", "8",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        top = payload["levels"][8]
        assert (top["n"], top["vertices"], top["ord"]) == (8, 3 ** 8, 38)
        assert len(top["kappa"]) > 4300 and top["kappa"].isdigit()
        assert payload["fit"] == {"mu": 0, "lambda": 5, "nu": -2, "n0": 1}

    def test_factor_flag(self, capsys):
        code = main(["invariants", spec_path("ex2_tower.json"),
                     "--levels", "2", "--factor"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2^2 * 3^3" in out

    @pytest.mark.parametrize("argv, message", [
        (["--cap", "0"], "cap must be >= 1"),
        (["--cap", "-3"], "cap must be >= 1"),
        (["--levels", "-1"], "level must be >= 0"),
    ])
    def test_bad_cap_or_level_exits_2(self, capsys, argv, message):
        code = main(["invariants", spec_path("ex1_tower.json"), *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_negative_spec_levels_exit_2(self, tmp_path, capsys):
        spec = load_json(spec_path("ex1_tower.json"))
        spec["levels"] = -1
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(spec))
        assert main(["invariants", str(path)]) == 2
        assert "level must be >= 0" in capsys.readouterr().err


class TestKidaCommand:
    def test_ex1(self, capsys):
        code = main(["kida", spec_path("ex1_tower.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "53+1 = 9*(5+1)  [ok]" in out

    def test_ex2(self, capsys):
        code = main(["kida", spec_path("ex2_tower.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "15+1 = 8*(1+1)  [ok]" in out

    def test_trivial_group_degree_one(self, capsys):
        code = main(["kida", spec_path("trivial_kida.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "5+1 = 1*(5+1)  [ok]" in out

    def test_tower_spec_without_beta_rejected(self, capsys):
        code = main(["kida", spec_path("b3_graph.json")])
        assert code == 2


class TestChecksCommand:
    def test_plain_graph(self, capsys):
        code = main(["checks", spec_path("b3_graph.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "h'(1) = -2*chi*kappa" in out
        assert "1/Z(u)" in out

    def test_level_one_voltage(self, capsys):
        code = main(["checks", spec_path("b3_level1_voltage.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "|G|*kappa_Y = kappa_X * prod h(1,psi)" in out

    def test_cycle_class_number_refused(self, capsys):
        code = main(["checks", spec_path("c5_voltage.json")])
        out = capsys.readouterr().out
        assert code == 0        # the refusal is reported, not a failure
        assert "refused" in out
        assert "chi(X) = 0" in out

    def test_json_deterministic(self, capsys):
        main(["checks", spec_path("b3_level1_voltage.json"), "--json"])
        first = capsys.readouterr().out
        main(["checks", spec_path("b3_level1_voltage.json"), "--json"])
        assert first == capsys.readouterr().out


class TestExamplesCommand:
    def test_single_example_shallow(self, capsys):
        code = main(["examples", "ex2", "--level", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out

    def test_ex1_builds_each_laurent_determinant_once(self, capsys, monkeypatch):
        import giwa.iwasawa
        real = giwa.iwasawa._laurent_determinant
        built = []

        def counting(t, *args):
            built.append(t.graph.vertex_count)
            return real(t, *args)

        monkeypatch.setattr(giwa.iwasawa, "_laurent_determinant", counting)
        assert main(["examples", "ex1"]) == 0
        assert sorted(built) == [1, 9]       # the base and its pullback

    def test_sl2_builds_each_laurent_determinant_once(self, capsys, monkeypatch):
        import giwa.iwasawa
        real = giwa.iwasawa._laurent_determinant
        built = []

        def counting(t, *args):
            built.append(t.graph.vertex_count)
            return real(t, *args)

        monkeypatch.setattr(giwa.iwasawa, "_laurent_determinant", counting)
        assert main(["examples", "sl2"]) == 0
        # the B4 tower; its level-1 lift is certified from f mod ell
        assert sorted(built) == [1]

    def test_unknown_example(self, capsys):
        assert main(["examples", "nope"]) == 2

    def test_unstabilized_fit_exits_1(self, capsys, monkeypatch):
        import giwa.cli
        from giwa.iwasawa import NotStabilizedError

        def refuse(*_args):
            raise NotStabilizedError("no 3-point suffix fits")

        monkeypatch.setattr(giwa.cli, "fit_iwasawa", refuse)
        assert main(["examples", "ex1"]) == 1
        assert capsys.readouterr().err == "error: no 3-point suffix fits\n"

    def test_unknown_name_refused_before_any_runner(self, capsys, monkeypatch):
        import giwa.iwasawa
        real = giwa.iwasawa._laurent_determinant
        built = []

        def counting(t, *args):
            built.append(t.graph.vertex_count)
            return real(t, *args)

        monkeypatch.setattr(giwa.iwasawa, "_laurent_determinant", counting)
        assert main(["examples", "ex1", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: unknown example 'nope'; "
                                "choose from ex1, ex2, sl2\n")
        assert built == []

    def test_vertex_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GIWA_VERTEX_CAP", "10")
        code = main(["examples", "ex1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "GIWA_VERTEX_CAP" in err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "giwa.cli", "examples", "sl2", "--level", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout

    @pytest.mark.parametrize("name", ["ex1", "ex2", "sl2"])
    def test_negative_level_exits_2(self, capsys, name):
        code = main(["examples", name, "--level", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "level must be >= 0" in captured.err

    @staticmethod
    def check_names(capsys, argv):
        assert main(["examples", *argv, "--json"]) == 0
        return [row["check"] for row in json.loads(capsys.readouterr().out)["checks"]]

    def test_all_example_rows_in_order(self, capsys):
        assert self.check_names(capsys, ["ex1", "ex2", "sl2"]) == (
            EX1_ROWS + EX2_BASE_ROWS + EX2_PULLBACK_ROWS + SL2_ROWS)

    def test_shallow_ex2_rows_in_order(self, capsys):
        assert self.check_names(capsys, ["ex2", "--level", "2"]) == (
            EX2_BASE_ROWS + EX2_PULLBACK_ROWS[:13])


class TestChecksExampleTwoLevelOne:
    def test_class_number_with_kappa_six(self, capsys):
        code = main(["checks", spec_path("ex2_level1_voltage.json")])
        out = capsys.readouterr().out
        assert code == 0
        # |G| kappa_1 = 2 * 6 on the left, kappa_X * h(1,psi) = 1 * 12 right
        assert "lhs=12 rhs=12" in out
