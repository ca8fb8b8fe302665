import json
import shlex
from pathlib import Path

import pytest

from wreathbench.cli import main
from wreathbench.monoids import fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestVerifyCommand:
    def test_r_degree3(self, capsys):
        code, report = run_json(capsys, "verify", "--family", "R", "-n", "3")
        assert code == 0
        assert report["result"]["verdict"]["status"] == "certified"
        assert report["result"]["verdict"]["class_count"] == 21

    def test_r1_non_chain_precondition(self, capsys):
        code, report = run_json(capsys, "verify", "--family", "R1", "--monoid", "@RZ1", "-n", "2")
        assert code == 2
        assert report["error"] == "PreconditionError"
        assert "chain" in report["message"]

    def test_r1p_z2(self, capsys):
        code, report = run_json(
            capsys, "verify", "--family", "R1p", "--monoid", "@Z2", "-n", "2"
        )
        assert code == 0
        assert report["result"]["verdict"]["class_count"] == 8

    def test_emonoid_t2(self, capsys):
        code, report = run_json(
            capsys, "verify", "--family", "Emonoid", "--monoid", "@T2", "-n", "2"
        )
        assert code == 0
        assert report["result"]["verdict"]["class_count"] == 41

    def test_limit_elements_bounds_wreath_target(self, capsys):
        code, report = run_json(
            capsys,
            "verify", "--family", "R2", "--monoid", "@Z2", "-n", "3", "--limit-elements", "100",
        )
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"] == "closure limit exceeded (reached 168)"

    def test_limit_elements_bounds_sing_target(self, capsys):
        code, report = run_json(
            capsys, "verify", "--family", "R", "-n", "4", "--limit-elements", "10"
        )
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"] == "closure limit exceeded (reached 232)"

    def test_emonoid_target_refused_before_enumerating(self, capsys, monkeypatch):
        # the Emonoid target filters the idempotents from all of T2 wr T_5,
        # 4^5 * 5^5 elements: over the default limit, refused by its size
        from wreathbench.wreath import WreathContext

        def refuse(self):
            raise AssertionError("target enumerated")

        monkeypatch.setattr(WreathContext, "elements", refuse)
        code, report = run_json(
            capsys, "verify", "--family", "Emonoid", "--monoid", "@T2", "-n", "5"
        )
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"] == "closure limit exceeded (reached 3200000)"

    def test_budget_exhaustion_is_negative(self, capsys):
        code, report = run_json(
            capsys, "verify", "--family", "R", "-n", "3", "--limit-nodes", "10"
        )
        assert code == 1
        assert report["result"]["verdict"]["status"] == "inconclusive"
        assert report["counters"]["nodes_allocated"] == 11


class TestIdempotentsCommand:
    def test_check_match(self, capsys):
        code, report = run_json(
            capsys, "idempotents", "--monoid", "@Z2", "-n", "2", "--check"
        )
        assert code == 0
        row = report["result"]["rows"][0]
        assert row["formula"] == row["brute"] == 5

    def test_singular_subtraction(self, capsys):
        code, report = run_json(
            capsys,
            "idempotents", "--monoid", "@Z2", "-n", "2", "--part", "singular", "--check",
        )
        assert code == 0
        assert report["result"]["rows"][0]["formula"] == 4

    def test_trivial_monoid_count(self, capsys):
        code, report = run_json(
            capsys, "idempotents", "--monoid", "@T1", "-n", "3", "--method", "brute"
        )
        assert code == 0
        assert report["result"]["rows"][0]["brute"] == 10

    def test_element_listing(self, capsys):
        code, report = run_json(
            capsys,
            "idempotents", "--monoid", "@Z2", "-n", "2", "--method", "brute", "--list",
        )
        assert code == 0
        row = report["result"]["rows"][0]
        assert len(row["elements"]) == row["brute"] == 5
        assert {"tuple", "trans"} == set(row["elements"][0])

    def test_listing_refused_before_enumerating(self, capsys, monkeypatch):
        # listing filters every element of T2 wr T_9, 4^9 * 9^9 of them:
        # over the brute bound, refused by its size
        from wreathbench.wreath import WreathContext

        def refuse(self):
            raise AssertionError("elements enumerated")

        monkeypatch.setattr(WreathContext, "elements", refuse)
        code, report = run_json(
            capsys, "idempotents", "--monoid", "@T2", "-n", "9", "--method", "formula", "--list"
        )
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"] == f"brute idempotent count too large (reached {4**9 * 9**9})"

    def test_method_both_refused(self, capsys):
        # --check is the one way to run both counts
        code, report = run_json(
            capsys, "idempotents", "--monoid", "@Z2", "-n", "2", "--method", "both"
        )
        assert code == 2
        assert report["error"] == "UsageError"
        assert "--method" in report["message"]

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_degree_below_one_refused(self, capsys, degree):
        code, report = run_json(capsys, "idempotents", "--monoid", "@Z2", "-n", degree)
        assert code == 2
        assert report == {"error": "ValueError", "message": f"degree {degree} is below 1"}

    def test_csv_export(self, capsys, tmp_path):
        out = tmp_path / "counts.csv"
        code, _ = run_json(
            capsys,
            "idempotents", "--monoid", "@Z2", "-n", "2,3", "--check", "--csv", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,|M|,formula,brute"
        assert lines[1].split(",") == ["2", "2", "5", "5"]
        assert len(lines) == 3


class TestRankCommand:
    def test_b01_both(self, capsys):
        code, report = run_json(capsys, "rank", "--monoid", "@B01", "-n", "2", "--mode", "both")
        assert code == 0
        assert report["result"]["status"] == "match"
        assert report["result"]["formula"]["exact_rank"] == 3
        assert report["result"]["brute"]["rank"] == 3
        assert report["result"]["brute"]["idrank"] == 4

    def test_z2_both(self, capsys):
        code, report = run_json(capsys, "rank", "--monoid", "@Z2", "-n", "2", "--mode", "both")
        assert code == 0
        assert report["result"]["brute"]["rank"] == 2

    def test_brute_refused_before_enumerating(self, capsys, monkeypatch):
        # |T2 wr Sing_5| = 4^5 * (5^5 - 5!) is over the default limit; the
        # closed-form size refuses it without building any element
        from wreathbench.wreath import WreathContext

        def refuse(self):
            raise AssertionError("target enumerated")

        monkeypatch.setattr(WreathContext, "elements", refuse)
        code, report = run_json(capsys, "rank", "--monoid", "@T2", "-n", "5", "--mode", "brute")
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"] == "closure limit exceeded (reached 3077120)"

    def test_brute_refused_over_table_limit(self, capsys, monkeypatch):
        # |Z2 wr Sing_4| = 3712 is within the element limit, but its Cayley
        # table is not, so the search refuses before its first product
        from wreathbench import wreath

        def refuse(*args):
            raise AssertionError("table built")

        monkeypatch.setattr(wreath, "wr_multiply", refuse)
        code, report = run_json(capsys, "rank", "--monoid", "@Z2", "-n", "4", "--mode", "brute")
        assert code == 2
        assert report == {"error": "CapacityError",
                          "message": "Cayley table limit exceeded (reached 13778944)"}

    def test_non_chain_formula_bounds_status(self, capsys):
        code, report = run_json(capsys, "rank", "--monoid", "@RZ1", "-n", "2", "--mode", "formula")
        assert code == 0
        assert report["result"]["status"] == "bounds"
        assert report["result"]["formula"]["exact_rank"] is None


class TestGensCommand:
    def test_cycle_confirmed(self, capsys):
        code, report = run_json(
            capsys, "gens", "-n", "3", "--edges", "1:2,2:3,3:1", "--confirm"
        )
        assert code == 0
        assert report["result"]["criterion"]["generates"]
        assert report["result"]["closure"]["generates"]

    def test_acyclic_negative(self, capsys):
        code, report = run_json(capsys, "gens", "-n", "3", "--edges", "1:2,1:3,2:3")
        assert code == 1
        assert not report["result"]["generates"]

    def test_element_list(self, capsys):
        # the six rank-2 idempotent maps of degree 3
        elems = json.dumps(
            [[1, 1, 3], [2, 2, 3], [1, 2, 1], [1, 2, 2], [3, 2, 3], [1, 3, 3]]
        )
        code, report = run_json(capsys, "gens", "-n", "3", "--elements", elems)
        assert code == 0
        assert report["result"]["generates"]

    def test_small_degree_rejected(self, capsys):
        code, report = run_json(capsys, "gens", "-n", "2", "--edges", "1:2,2:1")
        assert code == 2

    def test_degree_one_rejected(self, capsys):
        code, report = run_json(capsys, "gens", "-n", "1", "--elements", "[]")
        assert code == 2
        assert report["error"] == "ValueError"

    def test_degree5_confirmed(self, capsys):
        # a strongly connected orientation of K5: the cycle 1..5 and the
        # pentagram 1,3,5,2,4; the closure check runs inside all of Sing_5
        edges = "1:2,2:3,3:4,4:5,5:1,1:3,3:5,5:2,2:4,4:1"
        code, report = run_json(capsys, "gens", "-n", "5", "--edges", edges, "--confirm")
        assert code == 0
        assert report["result"]["criterion"]["generates"]
        assert report["result"]["closure"]["generates"]

    @pytest.mark.parametrize(
        "elements", ["[1]", '["113"]', "[[1.0,1,3]]", "{}", "[[true,1,3]]"]
    )
    def test_malformed_element_list_refused(self, capsys, elements):
        code, report = run_json(capsys, "gens", "-n", "3", "--elements", elements)
        assert code == 2
        assert report["error"] == "ValueError"
        assert "--elements" in report["message"]

    def test_empty_element_list_is_negative(self, capsys):
        code, report = run_json(capsys, "gens", "-n", "3", "--elements", "[]")
        assert code == 1
        assert report["result"]["generates"] is False

    def test_disagreement_is_internal_error(self, capsys, monkeypatch):
        # the criterion and the closure can only disagree through a bug;
        # force one to check the exit contract
        import wreathbench.cli as cli

        monkeypatch.setattr(cli, "tournament_check", lambda n, e: (False, False, False))
        code, report = run_json(
            capsys, "gens", "-n", "3", "--edges", "1:2,2:3,3:1", "--confirm"
        )
        assert code == 70
        assert "disagree" in report["result"]["error"]
        assert report["parameters"]["confirm"] is True


class TestReports:
    def test_deterministic_modulo_wall_time(self, capsys):
        _, a = run_json(capsys, "verify", "--family", "R", "-n", "2")
        _, b = run_json(capsys, "verify", "--family", "R", "-n", "2")
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, report = run_json(
            capsys, "verify", "--family", "R", "-n", "2", "--out", str(path)
        )
        assert code == 0
        on_disk = json.loads(path.read_text())
        assert on_disk == report

    def test_table_format(self, capsys):
        code, out = run(capsys, "verify", "--family", "R", "-n", "2", "--format", "table")
        assert code == 0
        assert "result.verdict.status: certified" in out

    def test_monoid_file_loading(self, capsys, tmp_path):
        path = tmp_path / "z3.json"
        Z3 = fixture("@Z3")
        data = {"name": Z3.name, "elements": list(Z3.labels), "identity": Z3.identity,
                "table": [list(row) for row in Z3.table]}
        path.write_text(json.dumps(data))
        code, report = run_json(
            capsys, "idempotents", "--monoid", str(path), "-n", "2", "--check"
        )
        assert code == 0

    def test_invalid_monoid_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"elements": ["1"], "identity": 0, "table": [[0]], "junk": 1}))
        code, report = run_json(capsys, "idempotents", "--monoid", str(path), "-n", "2")
        assert code == 2
        assert report["error"] == "MonoidValidationError"

    def test_unknown_fixture(self, capsys):
        code, report = run_json(capsys, "idempotents", "--monoid", "@NOPE", "-n", "2")
        assert code == 2


class TestMalformedValues:
    """A value argparse accepts but the command cannot parse is refused in
    the error envelope, naming the option and quoting the text."""

    @pytest.mark.parametrize(
        "argv, option, text",
        [
            (["gens", "-n", "3", "--edges", "1-2"], "--edges", "'1-2'"),
            (["gens", "-n", "3", "--edges", "1:2,2:3:1"], "--edges", "'2:3:1'"),
            (["verify", "--family", "R", "-n", "x"], "-n", "'x'"),
            (["rank", "--monoid", "@Z2", "-n", "2.0"], "-n", "'2.0'"),
            (["idempotents", "--monoid", "@Z2", "-n", "2,y"], "-n", "'y'"),
        ],
    )
    def test_names_option_and_text(self, capsys, argv, option, text):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["error"] == "ValueError"
        assert report["message"].startswith(option + " ")
        assert text in report["message"]


class TestNegativeBudgets:
    """A negative budget is refused naming the option, before any work; a
    budget of 0 is a real budget."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "--family", "R", "-n", "3", "--limit-nodes", "-5"], "--limit-nodes"),
            (["verify", "--family", "R", "-n", "3", "--limit-elements", "-1"], "--limit-elements"),
            (["gens", "-n", "3", "--elements", "[[1,1,2]]", "--limit-elements", "-1"],
             "--limit-elements"),
            (["rank", "--monoid", "@Z2", "-n", "2", "--mode", "brute", "--limit-subsets", "-1"],
             "--limit-subsets"),
        ],
    )
    def test_refused(self, capsys, argv, option):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report == {"error": "ValueError",
                          "message": f"{option} must be at least 0, got {argv[-1]}"}

    def test_zero_node_limit_is_a_run(self, capsys):
        code, report = run_json(capsys, "verify", "--family", "R", "-n", "3", "--limit-nodes", "0")
        assert code == 1
        assert report["result"]["verdict"]["status"] == "inconclusive"
        assert report["counters"]["nodes_allocated"] == 1


class TestUsageErrors:
    """A command line that argparse refuses gets the error envelope too."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["idempotents", "-n", "2"], "--monoid"),
            ([], "command"),
            (["verify", "--family", "R9", "-n", "2"], "--family"),
            (["frobnicate"], "frobnicate"),
        ],
    )
    def test_one_envelope_line(self, capsys, argv, needle):
        code, out = run(capsys, *argv)
        assert code == 2
        assert len(out.splitlines()) == 1
        report = json.loads(out)
        assert set(report) == {"error", "message"}
        assert report["error"] == "UsageError"
        assert needle in report["message"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--limit-nodes" in capsys.readouterr().out


def readme_examples():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:", 1)[1].split("\n\n", 2)[1]
    lines = [shlex.split(line) for line in block.splitlines()]
    return [words[1:] for words in lines if words[:1] == ["wreathbench"]]


def test_readme_examples_found():
    examples = readme_examples()
    assert len(examples) >= 5
    assert {argv[0] for argv in examples} == {"idempotents", "verify", "rank", "gens"}


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_runs(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # one example writes counts.csv
    code, out = run(capsys, *argv)
    assert code in (0, 1)
    report = json.loads(out)
    assert report["command"] == argv[0]
    assert "result" in report
