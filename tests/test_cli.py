import json
import os
import shlex
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import pytest

from wreathbench.cli import main
from wreathbench.monoids import FIXTURES, fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def _subprocess_env(**extra):
    """The environment with ``extra`` set and this checkout's src/ first on
    PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_json_subprocess(*argv, timeout):
    """One command line in its own interpreter, stopped after ``timeout``
    seconds: a count that hangs fails the test instead of the run."""
    proc = subprocess.run(
        [sys.executable, "-m", "wreathbench.cli", *argv],
        env=_subprocess_env(), capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, json.loads(proc.stdout)


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

    def test_emonoid_t2_degree3(self, capsys):
        # the Emonoid presentation above n = 2: 1,371 elements of <E(T2 wr T_3)>
        code, report = run_json(
            capsys, "verify", "--family", "Emonoid", "--monoid", "@T2", "-n", "3"
        )
        assert code == 0
        verdict = report["result"]["verdict"]
        assert verdict["status"] == "certified"
        assert verdict["class_count"] == verdict["target_size"] == 1371

    def test_limit_elements_bounds_wreath_target(self, capsys):
        code, report = run_json(
            capsys,
            "verify", "--family", "R2", "--monoid", "@Z2", "-n", "3", "--limit-elements", "100",
        )
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"] == "the target's size, 168, is over the element limit 100"

    def test_limit_elements_bounds_sing_target(self, capsys):
        code, report = run_json(
            capsys, "verify", "--family", "R", "-n", "4", "--limit-elements", "10"
        )
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"] == "the target's size, 232, is over the element limit 10"

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
        assert report["message"] == "the target's size, 3200000, is over the element limit 1000000"

    def test_r_refused_before_emitting(self, capsys, monkeypatch):
        # |Sing_24| is over the default limit; emit_R would first write
        # 559,728 relations
        from wreathbench import cli

        def refuse(n):
            raise AssertionError("presentation emitted")

        monkeypatch.setattr(cli, "emit_R", refuse)
        code, report = run_json(capsys, "verify", "--family", "R", "-n", "24")
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"] == (
            f"the target's size, {24**24 - factorial(24)}, is over the element limit 1000000"
        )

    def test_rn_relation_budget_refused_before_emitting(self):
        # Rn over T2 at n=4 passes the target (59,392 elements) and alphabet
        # (3,072 letters) checks, but its semidirect construction would write
        # 9,480,192 relations; the run is held to 200 MB of address space, so
        # building them fails the test as a MemoryError in seconds
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (200 * 2**20, 200 * 2**20))

        proc = subprocess.run(
            [sys.executable, "-m", "wreathbench.cli",
             "verify", "--family", "Rn", "--monoid", "@T2", "-n", "4"],
            env=_subprocess_env(), capture_output=True, text=True, timeout=60, preexec_fn=cap,
        )
        assert proc.returncode == 2
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout) == {
            "error": "CapacityError",
            "message": "relations over the limit 1000000 (reached 9480192)",
        }

    @pytest.mark.parametrize("family, table, identity, count", [
        # the min-semilattice on 0..99 with 99 as the identity, an L-chain
        ("R1", [[min(i, j) for j in range(100)] for i in range(100)], 99, 1_403_302),
        # the cyclic group of order 45: 4,050 letters, 4 * 45^4 relations
        ("R2", [[(i + j) % 45 for j in range(45)] for i in range(45)], 0, 16_402_500),
    ], ids=["R1-chain-100", "R2-Z45"])
    def test_relation_budget_refused_before_emitting(self, tmp_path, family, table, identity,
                                                     count):
        # both pass the target and alphabet checks at n=2; under 200 MB of
        # address space, building their relations fails as a MemoryError
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (200 * 2**20, 200 * 2**20))

        path = tmp_path / "monoid.json"
        path.write_text(json.dumps(
            {"elements": [str(i) for i in range(len(table))], "identity": identity, "table": table}
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "wreathbench.cli",
             "verify", "--family", family, "--monoid", str(path), "-n", "2"],
            env=_subprocess_env(), capture_output=True, text=True, timeout=60, preexec_fn=cap,
        )
        assert proc.returncode == 2
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout) == {
            "error": "CapacityError",
            "message": f"relations over the limit 1000000 (reached {count})",
        }

    @pytest.mark.parametrize("emitter, argv, message", [
        ("emit_R", ["--family", "R", "-n", "9"], "degree 9 outside supported range 1..7"),
        ("emit_E_wreath_monoid", ["--family", "Emonoid", "--monoid", "@Z2", "-n", "12"],
         f"the brute-force size, {2**12 * 12**12}, is over its bound 1000000"),
        # the target's refusal comes ahead of the emitter's hypothesis: RZ1's
        # L-classes form no chain, and <E(N3)> is not {1} u (N3 \ G)
        ("emit_R1", ["--family", "R1", "--monoid", "@RZ1", "-n", "8"],
         "degree 8 outside supported range 1..7"),
        ("emit_E_wreath_monoid", ["--family", "Emonoid", "--monoid", "@N3", "-n", "6"],
         f"the brute-force size, {3**6 * 6**6}, is over its bound 1000000"),
    ], ids=["R", "Emonoid", "R1-off-chain", "Emonoid-off-hypothesis"])
    def test_target_refused_before_emitting(self, capsys, monkeypatch, emitter, argv, message):
        # a limit that admits the size leaves the degree and brute-force
        # bounds, which verify checks before it emits
        from wreathbench import cli

        def refuse(*args):
            raise AssertionError("presentation emitted")

        monkeypatch.setattr(cli, emitter, refuse)
        code, report = run_json(capsys, "verify", *argv, "--limit-elements", str(10**30))
        assert code == 2
        assert report == {"error": "CapacityError", "message": message}

    def test_emonoid_precondition_before_enumerating(self, capsys, monkeypatch):
        # |N3 wr T_4| is within the limit, so the emitter's precondition
        # refuses, and the target is never built
        from wreathbench.wreath import WreathContext

        def refuse(self):
            raise AssertionError("target enumerated")

        monkeypatch.setattr(WreathContext, "elements", refuse)
        code, report = run_json(
            capsys, "verify", "--family", "Emonoid", "--monoid", "@N3", "-n", "4"
        )
        assert code == 2
        assert report["error"] == "PreconditionError"

    @pytest.mark.parametrize("family", ["R", "R2", "Emonoid"])
    @pytest.mark.parametrize("degree", ["1", "0"])
    def test_degree_below_two_refused(self, capsys, family, degree):
        # the emitters' message, ahead of the target's size check
        code, report = run_json(
            capsys, "verify", "--family", family, "--monoid", "@Z2", "-n", degree
        )
        assert code == 2
        assert report == {"error": "ValueError", "message": "n must be at least 2"}

    def test_monoid_refused_for_R(self, capsys):
        code, report = run_json(capsys, "verify", "--family", "R", "--monoid", "@Z2", "-n", "2")
        assert code == 2
        assert report == {"error": "PreconditionError", "message": "family R takes no monoid"}

    def test_budget_exhaustion_is_negative(self, capsys):
        code, report = run_json(
            capsys, "verify", "--family", "R", "-n", "3", "--limit-nodes", "10"
        )
        assert code == 1
        assert report["result"]["verdict"]["status"] == "inconclusive"
        assert report["counters"]["nodes_allocated"] == 11

    def test_word_graph_edge_against_the_map_is_internal_error(self, capsys, monkeypatch):
        # Todd-Coxeter only identifies words that a sound map also identifies,
        # so an edge that disagrees with the map is a program fault: force one
        # by pointing the last row of the last column of R's word graph at the
        # root, which has no value in a semigroup
        from wreathbench import certify

        original = certify.todd_coxeter

        def corrupted(p, node_limit):
            res = original(p, node_limit=node_limit)
            res.graph[-1][-1] = 0
            return res

        monkeypatch.setattr(certify, "todd_coxeter", corrupted)
        code = main(["verify", "--family", "R", "-n", "3"])
        captured = capsys.readouterr()
        assert code == 70
        assert len(captured.out.splitlines()) == 1
        assert json.loads(captured.out)["error"] == "InternalError"
        assert captured.err == ""

    @pytest.mark.parametrize("args", [
        ["--family", "R", "-n", "3"],
        ["--family", "R1p", "--monoid", "@Z2", "-n", "2"],
        ["--family", "Emonoid", "--monoid", "@Z2", "-n", "2"],
    ], ids=["R", "R1p", "Emonoid"])
    def test_non_tree_edge_against_the_map_is_internal_error(self, capsys, monkeypatch, args):
        # a certified graph gives each node its own value, so a non-tree edge
        # pointed at another node, reached before it, disagrees at that edge:
        # over transformations, a wreath semigroup and a monoid whose root
        # holds the identity
        from wreathbench import certify

        original = certify.todd_coxeter
        corrupted_edge = []

        def corrupted(p, node_limit):
            res = original(p, node_limit=node_limit)
            corrupted_edge.append(_point_a_non_tree_edge_elsewhere(res.graph))
            return res

        monkeypatch.setattr(certify, "todd_coxeter", corrupted)
        code = main(["verify"] + args)
        captured = capsys.readouterr()
        assert code == 70
        node, c, end = corrupted_edge[0]
        assert json.loads(captured.out) == {
            "error": "InternalError",
            "message": f"word graph edge {node}.{c} -> {end} disagrees with the map",
        }
        assert captured.err == ""


def _point_a_non_tree_edge_elsewhere(graph):
    """Redirect the last non-tree edge of the breadth-first walk of ``graph``
    (an edge that does not discover its end) to the first node the walk
    reaches after the root; return it as (node, letter, new end)."""
    queue, seen, tree = [0], {0}, set()
    for node in queue:
        for c, col in enumerate(graph):
            if col[node] not in seen:
                seen.add(col[node])
                queue.append(col[node])
                tree.add((node, c))
    first = queue[1]
    node, c = next((x, c) for x in reversed(queue) for c in reversed(range(len(graph)))
                   if (x, c) not in tree and graph[c][x] != first)
    graph[c][node] = first
    return node, c, first


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
        assert report["message"] == f"the brute-force size, {4**9 * 9**9}, is over its bound 1000000"

    @pytest.mark.parametrize("part", ["full", "singular"])
    def test_group_at_degree_100(self, part):
        # for a group G the formula is sum_k C(n,k) (k|G|)^(n-k), less
        # |E(G)|^n = 1 for the singular part
        code, report = run_json_subprocess(
            "idempotents", "--monoid", "@Z3", "-n", "100", "--part", part, timeout=30
        )
        assert code == 0
        expected = sum(comb(100, k) * (3 * k) ** (100 - k) for k in range(1, 101))
        assert report["result"]["rows"][0]["formula"] == expected - (part == "singular")

    def test_t2_at_degree_100(self):
        # the value of bench/expected.py's idempotent_count_poly for the @T2
        # table at n = 100, a route written apart from the program's
        code, report = run_json_subprocess("idempotents", "--monoid", "@T2", "-n", "100", timeout=30)
        assert code == 0
        assert report["result"]["rows"][0]["formula"] == int(
            "84276055342103166835393072141393424622196205528631995528086530493916973214"
            "43140901294059001128931944495036389969729588618227128145543001205064646009"
            "7186076238833461751073896601"
        )

    def test_formula_degree_budget(self, capsys, monkeypatch):
        from wreathbench import wreath

        def refuse(*args):
            raise AssertionError("a term computed before the degree check")

        monkeypatch.setattr(wreath, "comb", refuse)
        n = wreath.MAX_FORMULA_DEGREE + 1
        code, report = run_json(capsys, "idempotents", "--monoid", "@T2", "-n", str(n))
        assert code == 2
        assert report == {
            "error": "CapacityError",
            "message": f"degree {n} outside the formula's range 1..{wreath.MAX_FORMULA_DEGREE}",
        }

    def test_every_degree_checked_before_the_first_row(self, capsys, monkeypatch):
        from wreathbench import cli

        def refuse(*args):
            raise AssertionError("a row counted before the degree check")

        monkeypatch.setattr(cli, "count_idempotents", refuse)
        code, report = run_json(capsys, "idempotents", "--monoid", "@T2", "-n", "600,601")
        assert code == 2
        assert report == {"error": "CapacityError",
                          "message": "degree 601 outside the formula's range 1..600"}

    def test_degree_list_budget_checked_before_the_first_row(self, capsys, monkeypatch):
        # each degree is within range, but their work, about n^3 each, sums
        # past that of one degree 600
        from wreathbench import cli

        def refuse(*args):
            raise AssertionError("a row counted before the list's budget check")

        monkeypatch.setattr(cli, "count_idempotents", refuse)
        code, report = run_json(capsys, "idempotents", "--monoid", "@T2", "-n", "600,600")
        assert code == 2
        assert report == {"error": "CapacityError",
                          "message": "2 degrees over the formula's budget: their cubes sum to "
                                     "432000000, over 600^3"}

    def test_brute_budget_summed_over_the_degrees(self, capsys, monkeypatch):
        # |Z3 wr T_5| = 3^5 * 5^5 = 759,375 is within the brute bound, twice
        # that is not
        from wreathbench import cli

        def refuse(*args):
            raise AssertionError("a row counted before the list's budget check")

        monkeypatch.setattr(cli, "count_idempotents", refuse)
        code, report = run_json(capsys, "idempotents", "--monoid", "@Z3", "-n", "5,5", "--check")
        assert code == 2
        assert report == {"error": "CapacityError",
                          "message": f"the brute-force size, {2 * 3**5 * 5**5}, is over its bound 1000000"}

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
        assert report["message"] == "the target's size, 3077120, is over the element limit 1000000"

    def test_brute_degree_refused_before_enumerating(self, capsys, monkeypatch):
        # within a limit of 10^40, degree 20 is refused as the enumerated
        # targets refuse it, before the 4^20 tuples of T2 are built
        from wreathbench.wreath import WreathContext

        def refuse(self):
            raise AssertionError("target enumerated")

        monkeypatch.setattr(WreathContext, "elements", refuse)
        code, report = run_json(capsys, "rank", "--monoid", "@T2", "-n", "20", "--mode", "brute",
                                "--limit-elements", "1" + "0" * 40)
        assert code == 2
        assert report == {"error": "CapacityError",
                          "message": "degree 20 outside supported range 1..7"}

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

    @pytest.mark.parametrize("mode", ["formula", "brute", "both"])
    @pytest.mark.parametrize("degree", ["1", "0"])
    def test_degree_below_two_refused(self, capsys, mode, degree):
        # one refusal in every mode, ahead of the brute target's own
        code, report = run_json(capsys, "rank", "--monoid", "@Z2", "-n", degree, "--mode", mode)
        assert code == 2
        assert report == {"error": "ValueError", "message": "n must be at least 2"}

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

    @pytest.mark.parametrize("elements, image", [("[[1,1,4]]", 4), ("[[0,1,1]]", 0)])
    def test_image_out_of_range_refused(self, capsys, elements, image):
        code, report = run_json(capsys, "gens", "-n", "3", "--elements", elements)
        assert code == 2
        assert report == {"error": "ValueError", "message": f"image {image} out of range 1..3"}

    @pytest.mark.parametrize("elements", ["[[1,2,3]]"], ids=["permutation"])
    def test_foreign_element_refused(self, capsys, elements):
        # a permutation of degree 3 is not in Sing_3
        code, report = run_json(capsys, "gens", "-n", "3", "--elements", elements)
        assert code == 2
        assert report["error"] == "ForeignElementError"
        assert report["message"].endswith(" is not an element of the target")

    @pytest.mark.parametrize(
        "elements, degree",
        [("[[1,1]]", 2), ("[[1,1,1,4]]", 4), ("[[1,1,3],[1,2,2,4]]", 4)],
        ids=["degree2", "degree4", "second"],
    )
    def test_degree_mismatch_refused(self, capsys, elements, degree):
        # an image list of another length than -n is refused by its degree,
        # not as a foreign element or by an image out of its own range
        code, report = run_json(capsys, "gens", "-n", "3", "--elements", elements)
        assert code == 2
        assert report == {"error": "DegreeMismatch", "message": f"degree mismatch: {degree} vs 3"}

    def test_empty_element_list_is_negative(self, capsys):
        code, report = run_json(capsys, "gens", "-n", "3", "--elements", "[]")
        assert code == 1
        assert report["result"]["generates"] is False

    def test_empty_edge_list_is_negative(self, capsys):
        # the closure of no generators is not Sing_3, as the criterion says
        code, report = run_json(capsys, "gens", "-n", "3", "--edges", "", "--confirm")
        assert code == 1
        assert report["result"]["generates"] is False
        assert report["result"]["closure"]["generates"] is False

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

    def test_edges_with_elements_refused(self, capsys):
        # one generating set per run: the pair is refused, not one of them dropped
        code, report = run_json(capsys, "gens", "-n", "3", "--edges", "1:2,2:3,3:1",
                                "--elements", "[[1,1,3]]")
        assert code == 2
        assert report["error"] == "UsageError"
        assert "--edges" in report["message"] and "not allowed with" in report["message"]


def _verdict(size, nodes, coincidences):
    return {"class_count": size, "coincidences_processed": coincidences, "generated_size": size,
            "nodes_allocated": nodes, "soundness_failures": [], "status": "certified",
            "target_size": size}


class TestNoTargetList:
    """verify and gens put only letters or generators to Sing_n and M wr
    Sing_n, by the closed form: with no element of either enumerable, the
    reports are those of the enumerated targets."""

    @pytest.mark.parametrize("argv, code, parameters, result, counters", [
        (["verify", "--family", "R", "-n", "4"], 0,
         {"family": "R", "monoid": None, "n": 4, "limit_nodes": 1_000_000},
         {"alphabet": 12, "family": "R", "monoid": None, "n": 4, "relations": 168,
          "relation_families": {"R1": 24, "R2": 24, "R3": 24, "R4": 48, "R5": 24, "R6": 24},
          "verdict": _verdict(232, 863, 630)},
         {"coincidences_processed": 630, "nodes_allocated": 863}),
        (["verify", "--family", "R2", "--monoid", "@Z2", "-n", "2"], 0,
         {"family": "R2", "monoid": "@Z2", "n": 2, "limit_nodes": 1_000_000},
         {"alphabet": 8, "family": "R2", "monoid": "Z2", "n": 2, "relations": 64,
          "relation_families": {"R1_2": 64}, "verdict": _verdict(8, 9, 0)},
         {"coincidences_processed": 0, "nodes_allocated": 9}),
        (["gens", "-n", "4", "--edges", "1:2,2:3,3:4,4:1,1:3,2:4", "--confirm"], 0,
         {"n": 4, "edges": "1:2,2:3,3:4,4:1,1:3,2:4", "elements": None, "confirm": True},
         {"closure": {"generates": True}, "generates": True, "n": 4,
          "criterion": {"complete": True, "generates": True, "strongly_connected": True}},
         {}),
        (["gens", "-n", "3", "--elements", "[[1,1,3],[2,2,3]]"], 1,
         {"n": 3, "edges": None, "elements": "[[1,1,3],[2,2,3]]", "confirm": False},
         {"closure": {"generates": False}, "generates": False, "n": 3},
         {}),
    ], ids=["R", "R2", "edges", "elements"])
    def test_reports_without_enumerating(self, capsys, monkeypatch, argv, code, parameters,
                                         result, counters):
        from wreathbench import certify, wreath

        def refuse(*args, **kwargs):
            raise AssertionError("a target enumerated")

        monkeypatch.setattr(certify, "enumerate_Tn", refuse)
        monkeypatch.setattr(wreath.WreathContext, "elements", refuse)
        got, report = run_json(capsys, *argv)
        del report["wall_time_s"]
        assert (got, report) == (code, {"command": argv[0], "parameters": parameters,
                                        "result": result, "counters": counters})

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "R2", "--monoid", "@T1", "-n", "8"],
        ["gens", "-n", "8", "--elements", "[[1,1,3,4,5,6,7,8]]"],
    ], ids=["verify", "gens"])
    def test_degree_8_refused(self, capsys, argv):
        # within the element limit, the degree is still refused as it is for
        # the enumerated targets: certifying at degree 8 would not finish
        code, report = run_json_subprocess(*argv, "--limit-elements", "20000000", timeout=60)
        assert code == 2
        assert report == {"error": "CapacityError",
                          "message": "degree 8 outside supported range 1..7"}


class TestRefusalMessages:
    """Refusals of malformed or incomplete command lines, each in its exact text."""

    @pytest.mark.parametrize("argv, error, message", [
        (["idempotents", "--monoid", "@Z2", "-n", ","], "ValueError", "no degree given"),
        (["gens", "-n", "3"], "PreconditionError", "either --edges or --elements is required"),
        (["gens", "-n", "3", "--edges", "1:5"], "ValueError", "edge (1,5) out of range 1..3"),
        (["verify", "--family", "R2", "-n", "2"], "PreconditionError",
         "family R2 needs a monoid"),
    ], ids=["no-degree", "no-generators", "edge-range", "no-monoid"])
    def test_envelope(self, capsys, argv, error, message):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report == {"error": error, "message": message}


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

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"elements": 5, "identity": 0, "table": [[0]]}, "elements"),
            ({"elements": "1g", "identity": 0, "table": [[0, 1], [1, 0]]}, "elements"),
            ({"elements": ["1", "g"], "identity": 0, "table": 5}, "table"),
            ({"elements": ["1", "g"], "identity": 0, "table": [[0, 1], 5]}, "table"),
            ({"elements": ["1", "g"], "identity": 0, "table": [[0, 1], [1, True]]}, "table"),
            ({"elements": ["1", "g"], "identity": True, "table": [[0, 1], [1, 0]]}, "identity"),
            ({"name": 7, "elements": ["1", "g"], "identity": 0, "table": [[0, 1], [1, 0]]},
             "name"),
        ],
    )
    def test_malformed_monoid_file(self, capsys, tmp_path, body, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        code, out = run(capsys, "idempotents", "--monoid", str(path), "-n", "2")
        assert code == 2
        assert len(out.splitlines()) == 1
        report = json.loads(out)
        assert report["error"] == "MonoidValidationError"
        assert report["message"].startswith(key)

    def test_monoid_file_over_the_order_limit(self, capsys, tmp_path):
        # the cyclic group of order 257: refused before its table is checked
        m = 257
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"elements": [str(i) for i in range(m)], "identity": 0,
                                    "table": [[(i + j) % m for j in range(m)] for i in range(m)]}))
        code, report = run_json(capsys, "idempotents", "--monoid", str(path), "-n", "2")
        assert code == 2
        assert report == {"error": "CapacityError",
                          "message": "monoid order over the limit 256 (reached 257)"}

    def test_unknown_fixture(self, capsys):
        code, report = run_json(capsys, "idempotents", "--monoid", "@NOPE", "-n", "2")
        assert code == 2
        assert report == {
            "error": "KeyError",
            "message": f"unknown fixture '@NOPE'; known: {sorted(FIXTURES)}",
        }

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [["verify", "--family", "R", "-n", "3"], ["idempotents", "--monoid", "@NOPE"]],
        ids=["report", "refusal"],
    )
    def test_closed_stdout(self, argv, unbuffered):
        # the read end is closed before the child starts, so its first write
        # to stdout fails, whether it writes at print or at the flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wreathbench.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=_subprocess_env(PYTHONUNBUFFERED=unbuffered),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, b"")


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


class TestDegreeBound:
    """A degree above 10,000 is refused where -n is read, before any
    closed-form size is computed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "R", "-n", "1000000"],
            ["rank", "--monoid", "@Z2", "-n", "1000000", "--mode", "brute"],
            ["idempotents", "--monoid", "@Z2", "-n", "2,1000000", "--method", "brute"],
            ["gens", "-n", "1000000", "--edges", "1:2"],
        ],
        ids=["verify", "rank", "idempotents", "gens"],
    )
    def test_refused(self, capsys, monkeypatch, argv):
        from wreathbench import cli

        def refuse(*args, **kwargs):
            raise AssertionError("size computed")

        monkeypatch.setattr(cli, "target_size", refuse)
        monkeypatch.setattr(cli, "WreathContext", refuse)
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report == {"error": "ValueError",
                          "message": "-n must be at most 10000, got 1000000"}

    @pytest.mark.parametrize("prefix", ["", "+", "000"])
    def test_past_the_digit_limit(self, capsys, prefix):
        # int() refuses more than 4,300 digits; the bound is the reason, and
        # the value is named by its digit count, not quoted
        code, out = run(capsys, "verify", "--family", "R", "-n", prefix + "1" * 5000)
        assert code == 2
        assert json.loads(out) == {"error": "ValueError",
                                   "message": "-n must be at most 10000, got a 5000-digit number"}
        assert len(out) < 100

    def test_negative_past_the_digit_limit(self, capsys):
        # a negative number is named by its digit count too, and the reason
        # is its sign, not the bound above
        code, out = run(capsys, "verify", "--family", "R", "-n=-" + "1" * 5000)
        assert code == 2
        message = json.loads(out)["message"]
        assert message == "-n must be positive, got a 5000-digit negative number"
        assert len(message.encode()) < 200

    def test_underscores_past_the_digit_limit(self, capsys):
        # int() reads single underscores between digits, so this is a number
        # of 5,001 digits, refused by the bound, not text that fails to parse
        code, out = run(capsys, "verify", "--family", "R", "-n", "1_" * 5000 + "1")
        assert code == 2
        assert json.loads(out) == {"error": "ValueError",
                                   "message": "-n must be at most 10000, got a 5001-digit number"}

    def test_long_text_quoted_in_part(self, capsys):
        code, out = run(capsys, "verify", "--family", "R", "-n", "x" * 5000)
        assert code == 2
        message = json.loads(out)["message"]
        assert message == "-n must be an integer, got 5000 characters starting " + repr("x" * 100)
        assert len(message.encode()) < 200

    def test_leading_zeros_are_not_digits(self, capsys):
        code, report = run_json(capsys, "rank", "--monoid", "@Z2", "-n", "0" * 5000 + "2")
        assert code == 0
        assert report["parameters"]["n"] == 2

    def test_bound_itself_is_a_degree(self, capsys):
        code, report = run_json(capsys, "verify", "--family", "R", "-n", "10000")
        assert code == 2
        assert report["error"] == "CapacityError"
        assert report["message"].startswith("the target's size, a 40000-digit number")


class TestEdgesPastOneHundredCharacters:
    """--edges endpoints are read as -n is: a number past 100 digits is named
    by its digit count, and unreadable text is quoted to 100 characters."""

    def test_endpoint_past_the_digit_limit(self, capsys):
        code, out = run(capsys, "gens", "-n", "3", "--edges", "1:" + "9" * 4000)
        assert code == 2
        assert json.loads(out) == {
            "error": "ValueError",
            "message": "--edges endpoints must be at most 3, got a 4000-digit number",
        }

    def test_negative_endpoint_past_the_digit_limit(self, capsys):
        code, out = run(capsys, "gens", "-n", "3", "--edges=-" + "1_" * 5000 + "1:2")
        assert code == 2
        assert json.loads(out)["message"] == (
            "--edges endpoints must be positive, got a 5001-digit negative number"
        )

    def test_pair_past_100_digits_quoted_in_part(self, capsys):
        # each endpoint is within 100 digits, but an out-of-range refusal
        # would state both of them
        chunk = "9" * 60 + ":" + "8" * 60
        code, out = run(capsys, "gens", "-n", "3", "--edges", chunk)
        assert code == 2
        assert json.loads(out)["message"] == (
            "--edges endpoints must be in 1..3, got 121 characters starting " + repr(chunk[:100])
        )

    def test_long_text_quoted_in_part(self, capsys):
        code, out = run(capsys, "gens", "-n", "3", "--edges", "x" * 500)
        assert code == 2
        message = json.loads(out)["message"]
        assert message == "--edges must be i:j pairs, got 500 characters starting " + repr("x" * 100)


class TestSizesPastTheDigitLimit:
    """A closed-form size of more than 4,300 digits, which Python will not
    convert to text, is refused as a capacity problem, named by its number
    of digits."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--family", "R", "-n", "2000"],
             "the target's size, a 6603-digit number, is over the element limit 1000000"),
            (["rank", "--monoid", "@Z2", "-n", "2000", "--mode", "brute"],
             "the target's size, a 7205-digit number, is over the element limit 1000000"),
            (["idempotents", "--monoid", "@Z2", "-n", "2000", "--method", "brute"],
             "the brute-force size, a 7205-digit number, is over its bound 1000000"),
        ],
        ids=["verify", "rank", "idempotents"],
    )
    def test_refused(self, capsys, argv, message):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report == {"error": "CapacityError", "message": message}


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


class TestBudgetValues:
    """A budget is read as -n is: a value that is not an integer is quoted in
    part, and one past 100 digits is named by its digit count, in an envelope
    of a few hundred bytes at most."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "R", "-n", "3", "--limit-nodes"],
        ["verify", "--family", "R", "-n", "3", "--limit-elements"],
        ["gens", "-n", "3", "--elements", "[[1,1,2]]", "--limit-elements"],
        ["rank", "--monoid", "@Z2", "-n", "2", "--mode", "brute", "--limit-subsets"],
    ], ids=["nodes", "elements", "gens", "subsets"])
    @pytest.mark.parametrize("value, message", [
        ("1" * 5000, "must be at most a 100-digit number, got a 5000-digit number"),
        ("-" + "1" * 5000, "must be at least 0, got a 5000-digit negative number"),
        ("x", "must be an integer, got 'x'"),
        ("x" * 500, "must be an integer, got 500 characters starting " + repr("x" * 100)),
    ], ids=["long", "long-negative", "x", "long-text"])
    def test_refused(self, capsys, argv, value, message):
        code, out = run(capsys, *argv, value)
        assert code == 2
        assert json.loads(out) == {"error": "ValueError", "message": f"{argv[-1]} {message}"}
        assert len(out.encode()) < 300


def test_out_of_memory_is_one_envelope(capsys, monkeypatch):
    from wreathbench import cli

    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "brute_rank", exhaust)
    code = main(["rank", "--monoid", "@Z2", "-n", "2", "--mode", "brute"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == ['{"error": "MemoryError", "message": "out of memory"}']
    assert captured.err == ""


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


def test_readme_library_block_runs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "verify(" in block
    exec(compile(block, "README.md", "exec"), {})


HASH_SEED_COMMANDS = [
    ["verify", "--family", "Emonoid", "--monoid", "@T2", "-n", "2"],
    ["verify", "--family", "R1", "--monoid", "@RZ1", "-n", "2"],
    ["rank", "--monoid", "@B01", "-n", "2", "--mode", "both"],
    ["idempotents", "--monoid", "@RZ1", "-n", "2,3", "--check", "--list"],
    ["gens", "-n", "3", "--edges", "1:2,2:3,3:1", "--confirm"],
]


def _reports_under_hash_seed(seed):
    """Each command's output lines, without the wall-time line, from one
    interpreter started with PYTHONHASHSEED=seed."""
    script = (
        "import json, sys\n"
        "from wreathbench.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    main(argv)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(HASH_SEED_COMMANDS)],
        env=_subprocess_env(PYTHONHASHSEED=str(seed)), capture_output=True, text=True, check=True,
    ).stdout
    return [line for line in out.splitlines() if '"wall_time_s"' not in line]


def test_reports_do_not_depend_on_the_hash_seed():
    first = _reports_under_hash_seed(1)
    assert sum(line.startswith('{"error": "PreconditionError"') for line in first) == 1
    assert first == _reports_under_hash_seed(2)
