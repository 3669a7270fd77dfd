from __future__ import annotations

import io
import json

import pytest

from votingpower.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCompute:
    def test_eu27_csv_row_count(self):
        code, out, err = invoke(["compute", "--scenario", "eu27", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 28
        assert err == ""

    def test_bloc_flag(self):
        code, out, _ = invoke(
            ["compute", "--scenario", "eu27", "--bloc", "weimar", "--format", "csv"]
        )
        assert code == 0
        assert out.strip().splitlines()[1].startswith("weimar,Weimar Triangle,")

    def test_index_selection(self):
        code, out, _ = invoke(
            ["compute", "--scenario", "eec1958", "--index", "banzhaf", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert "banzhaf_index" in doc["voters"][0]
        assert "shapley_shubik" not in doc["voters"][0]

    def test_verify_small_game(self):
        code, out, err = invoke(["compute", "--scenario", "eec1958", "--verify"])
        assert code == 0
        assert "verified against enumeration oracle (n=6)" in err

    def test_verify_skips_above_limit(self):
        code, _, err = invoke(
            ["compute", "--scenario", "eec1958", "--verify", "--oracle-limit", "3"]
        )
        assert code == 0
        assert "skipped" in err

    def test_blocking_override_changes_rule(self):
        code, out, _ = invoke(
            ["compute", "--scenario", "eu27", "--blocking-minority", "on"]
        )
        assert code == 0
        assert "OR seats >= 24" in out

    def test_unknown_scenario(self):
        code, out, err = invoke(["compute", "--scenario", "eu99"])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_population_with_bundled_name_rejected(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text("id,name,pop\nA,Alpha,5\n")
        code, _, err = invoke(
            ["compute", "--scenario", "eu27", "--population", str(pop)]
        )
        assert code == 1
        assert "cannot be combined" in err

    def test_scenario_file(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text("id,name,pop\nA,Alpha,50\nB,Beta,30\nC,Gamma,20\n")
        scen = tmp_path / "tri.scenario"
        scen.write_text("name = tri\nmembers = A B C\n")
        code, out, _ = invoke(
            [
                "compute",
                "--scenario",
                str(scen),
                "--population",
                str(pop),
                "--format",
                "csv",
            ]
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_bloc_from_scenario_file_is_accepted(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text("id,name,pop\nA,Alpha,50\nB,Beta,30\nC,Gamma,20\n")
        scen = tmp_path / "duo.scenario"
        scen.write_text("name = duo\nmembers = A B C\nbloc.pair = B C\n")
        code, out, _ = invoke(
            [
                "compute",
                "--scenario",
                str(scen),
                "--population",
                str(pop),
                "--bloc",
                "pair",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + A + merged pair
        assert any(l.startswith("pair,") for l in lines)

    def test_scenario_file_requires_population(self, tmp_path):
        scen = tmp_path / "tri.scenario"
        scen.write_text("name = tri\nmembers = A\n")
        code, _, err = invoke(["compute", "--scenario", str(scen)])
        assert code == 1
        assert "--population" in err

    def test_player_limit_resource_error(self, tmp_path):
        rows = "\n".join(f"v{i},V{i},1" for i in range(63))
        pop = tmp_path / "big.csv"
        pop.write_text("id,name,pop\n" + rows + "\n")
        scen = tmp_path / "big.scenario"
        scen.write_text("name = big\nmembers = " + " ".join(f"v{i}" for i in range(63)) + "\n")
        code, _, err = invoke(
            ["compute", "--scenario", str(scen), "--population", str(pop)]
        )
        assert code == 2
        assert "resource error" in err

    @pytest.mark.parametrize(
        "n,pop,message",
        [
            (63, 1, "63 players"),
            # 40 sizes x 1 level x 1,000,001 cells x 8 bytes = 320 MB
            (40, 25_000, "over the 268435456-byte budget"),
        ],
    )
    def test_resource_refusal_without_traceback(self, tmp_path, n, pop, message):
        ids = [f"v{i}" for i in range(n)]
        population = tmp_path / "big.csv"
        population.write_text("id,name,pop\n" + "".join(f"{i},{i.upper()},{pop}\n" for i in ids))
        scenario = tmp_path / "big.scenario"
        scenario.write_text(f"name = big\nmembers = {' '.join(ids)}\n")
        code, out, err = invoke(
            ["compute", "--scenario", str(scenario), "--population", str(population)]
        )
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err


class TestCompare:
    def test_paradox_lists_malta(self):
        code, out, _ = invoke(
            ["compare", "--base", "eu27", "--target", "eu33", "--paradox"]
        )
        assert code == 0
        assert "Malta" in out
        assert "entrants:" in out

    def test_csv_diff(self):
        code, out, _ = invoke(
            ["compare", "--base", "eu27", "--target", "eu36", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[1].startswith("DE,Germany,")

    def test_single_family_diff_with_paradox(self):
        code, out, _ = invoke(
            [
                "compare",
                "--base",
                "eu27",
                "--target",
                "eu33",
                "--index",
                "banzhaf",
                "--paradox",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        germany = next(l for l in out.splitlines() if l.startswith("DE,"))
        cells = germany.split(",")
        assert cells[4] == "-2.56"
        assert cells[6] == "" and cells[7] == ""  # shapley columns empty
        gainers = [l for l in out.splitlines() if l.startswith("# paradox-gainer:")]
        assert gainers and all(",banzhaf," in l for l in gainers)


class TestMisc:
    def test_presets(self):
        code, out, _ = invoke(["presets"])
        assert code == 0
        assert "v4: Visegrad Group = PL CZ HU SK" in out
        assert "eu36" in out

    def test_emit(self):
        code, out, _ = invoke(["emit", "table1", "--format", "csv"])
        assert code == 0
        assert out.startswith("country,")

    def test_no_command(self):
        code, _, err = invoke([])
        assert code == 1
        assert "usage:" in err

    def test_unknown_flag(self):
        code, _, err = invoke(["compute", "--scenario", "eu27", "--frobnicate"])
        assert code == 1
        assert "usage:" in err

    def test_unknown_subcommand(self):
        code, _, err = invoke(["explode"])
        assert code == 1
        assert "usage:" in err

    def test_unknown_artifact(self):
        code, _, err = invoke(["emit", "table99"])
        assert code == 1
        assert "usage:" in err

    def test_output_determinism(self):
        _, first, _ = invoke(["compute", "--scenario", "eu27", "--format", "json"])
        _, second, _ = invoke(["compute", "--scenario", "eu27", "--format", "json"])
        assert first == second
