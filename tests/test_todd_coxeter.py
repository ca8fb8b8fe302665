import builtins
import json
import random
import re
import sys
import tokenize
import tracemalloc

import pytest

from wreathbench import (
    emit_E_wreath_monoid, emit_R, emit_R1p, emit_R2, emit_Rn, fixture, table_presentation,
    todd_coxeter,
)
from wreathbench.monoids import load_monoid
from wreathbench.presentations import Presentation, Relation, Letter
from wreathbench.todd_coxeter import _pairs, _walk_sources

# the module, which the package's ``todd_coxeter`` function shadows
tc = sys.modules["wreathbench.todd_coxeter"]

from test_acceptance import _matrix

# criterion 8's presentations and R at n=3, 4, as (test id, presentation)
REFERENCE_CASES = [(f"{fam}-{name}-{n}", p) for fam, name, n, p, _ in _matrix()] + [
    ("R-3", emit_R(3)),
    ("R-4", emit_R(4)),
]


# (class_count, nodes_allocated, coincidences_processed): the enumeration
# schedule, which renumbering the live rows must leave exactly as it was
SCHEDULES = [
    ("R-3", lambda: emit_R(3), (21, 34, 12)),
    ("R-4", lambda: emit_R(4), (232, 863, 630)),
    ("R-5", lambda: emit_R(5), (3005, 25937, 22931)),
    ("R1p-Z3-3", lambda: emit_R1p(fixture("@Z3"), 3), (567, 4270, 3702)),
    ("Rn-Z2-3", lambda: emit_Rn(fixture("@Z2"), 3), (168, 265, 96)),
    ("R2-Z2-3", lambda: emit_R2(fixture("@Z2"), 3), (168, 897, 728)),
    ("Emonoid-Z2-3", lambda: emit_E_wreath_monoid(fixture("@Z2"), 3), (169, 838, 669)),
]


@pytest.fixture(scope="module")
def R5():
    return emit_R(5)


def shuffled(p, seed):
    rng = random.Random(seed)
    rels = list(p.relations)
    rng.shuffle(rels)
    return with_relations(p, rels)


def with_relations(p, relations):
    return Presentation(p.kind, p.letters, tuple(relations), dict(p.provenance))


def _closed(parent, cols, steps, ends):
    """Reference finishing check: whether every live row of the table, one
    column per letter, is complete, and both sides of every relation reach
    the same node from every live node.  The live nodes are renumbered, each
    column is read at them as representatives, and the trie is walked for
    256 live nodes at a time, one list per trie node."""
    rep = []
    live = []
    for x, p in enumerate(parent):  # parent[x] <= x: a merge keeps the smaller node
        if p == x:
            rep.append(len(live))
            live.append(x)
        else:
            rep.append(rep[p])
    columns = []
    for col in cols:
        column = [col[x] for x in live]
        if -1 in column:
            return False
        columns.append([rep[v] for v in column])
    steps = [(t, columns[c]) for t, c in steps]
    for lo in range(0, len(live), 256):
        reached = [list(range(lo, min(lo + 256, len(live))))]
        for t, column in steps:
            reached.append([column[v] for v in reached[t]])
        for a, b in ends:
            if reached[a] != reached[b]:
                return False
    return True


def _todd_coxeter_by_relations(p):
    """Reference for ``todd_coxeter``: the same HLT sweeps, tracing each
    relation word separately from every live node and identifying its two
    ends at once.  Returns ``(status, class_count)``; no node limit."""
    na = len(p.letters)
    rels = [(r.lhs, r.rhs) for r in p.relations if r.lhs != r.rhs]
    parent = []
    tab = []
    pending = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_node():
        parent.append(len(parent))
        tab.extend([-1] * na)
        return len(parent) - 1

    def process_pending():
        while pending:
            x, y = pending.pop()
            x = find(x)
            y = find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            for c in range(na):
                vy = tab[y * na + c]
                if vy != -1:
                    vx = tab[x * na + c]
                    if vx == -1:
                        tab[x * na + c] = vy
                    elif find(vx) != find(vy):
                        pending.append((vx, vy))

    def trace_fill(start, word):
        cur = start
        for c in word:
            nxt = tab[cur * na + c]
            if nxt == -1:
                nxt = tab[cur * na + c] = new_node()
            cur = find(nxt)
        return cur

    new_node()
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(parent):
            if find(i) != i:
                i += 1
                continue
            before = len(parent)
            for lhs, rhs in rels:
                a = trace_fill(i, lhs)
                b = trace_fill(i, rhs)
                if a != b:
                    pending.append((a, b))
                    process_pending()
                    changed = True
                if find(i) != i:
                    break
            if find(i) == i:
                for c in range(na):
                    if tab[i * na + c] == -1:
                        tab[i * na + c] = new_node()
            if len(parent) != before:
                changed = True
            i += 1
    live = sum(1 for i in range(len(parent)) if parent[i] == i)
    return "certified", live if p.kind == "monoid" else live - 1


class TestCounts:
    def test_degree2(self):
        res = todd_coxeter(emit_R(2))
        assert res.status == "certified" and res.class_count == 2

    def test_degree3(self):
        res = todd_coxeter(emit_R(3))
        assert res.status == "certified" and res.class_count == 21

    def test_degree4(self):
        res = todd_coxeter(emit_R(4))
        assert res.status == "certified" and res.class_count == 256 - 24

    def test_empty_alphabet_monoid(self):
        p = Presentation("monoid", (), (), {})
        res = todd_coxeter(p)
        assert res.status == "certified" and res.class_count == 1
        assert res.graph == []  # one root row of no edges

    def test_monoid_table_presentation(self, B01):
        p, _ = table_presentation(B01)
        res = todd_coxeter(p)
        assert res.status == "certified" and res.class_count == 2

    def test_free_semigroup_on_one_idempotent(self):
        p = Presentation(
            "semigroup",
            (Letter("x"),),
            (Relation((0, 0), (0,), "sq"),),
            {},
        )
        res = todd_coxeter(p)
        assert res.class_count == 1

    def test_monoid_with_an_empty_side(self):
        # x^2 = 1: the empty word and x
        p = Presentation("monoid", (Letter("x"),), (Relation((0, 0), (), "inv"),), {})
        res = todd_coxeter(p)
        assert res.status == "certified" and res.class_count == 2

    def test_counters_populated(self):
        res = todd_coxeter(emit_R(3))
        assert res.nodes_allocated >= res.class_count
        assert res.coincidences_processed > 0


class TestBounds:
    def test_node_limit(self):
        # the free semigroup and the free monoid on two letters are infinite
        for kind in ("semigroup", "monoid"):
            p = Presentation(kind, (Letter("a"), Letter("b")), (), {})
            res = todd_coxeter(p, node_limit=50)
            assert res.status == "bound_exceeded"
            assert res.class_count is None
            assert res.nodes_allocated == 51

    @pytest.mark.parametrize("limit", [10, 50])
    def test_node_limit_kept_to_the_unit(self, limit):
        # the run stops at the allocation that passes the limit; R at n=4
        # needs 863 nodes, so both limits are reached
        res = todd_coxeter(emit_R(4), node_limit=limit)
        assert res.status == "bound_exceeded"
        assert res.nodes_allocated == limit + 1

    def test_zero_node_limit_stops_at_the_root(self):
        res = todd_coxeter(emit_R(3), node_limit=0)
        assert (res.status, res.nodes_allocated) == ("bound_exceeded", 1)

    def test_limit_at_the_certified_node_count_certifies(self):
        full = todd_coxeter(emit_R(3))
        assert todd_coxeter(emit_R(3), node_limit=full.nodes_allocated).status == "certified"
        res = todd_coxeter(emit_R(3), node_limit=full.nodes_allocated - 1)
        assert (res.status, res.nodes_allocated) == ("bound_exceeded", full.nodes_allocated)

    @pytest.mark.parametrize("limit, want", [
        (20000, ("bound_exceeded", 20001, 16245)),
        (25936, ("bound_exceeded", 25937, 22928)),
        (25937, ("certified", 25937, 22931)),
    ])
    def test_node_limit_kept_after_compactions(self, R5, limit, want):
        # R at n=5 compacts its table 4 times before node 20,000 and 6 times
        # before node 25,936
        res = todd_coxeter(R5, node_limit=limit)
        assert (res.status, res.nodes_allocated, res.coincidences_processed) == want

    def test_dropped_relation_diverges_or_grows(self):
        # removing one absorption relation can only coarsen upward
        p = emit_R(3)
        idx = next(i for i, r in enumerate(p.relations) if r.tag == "R5")
        q = Presentation(
            p.kind, p.letters, p.relations[:idx] + p.relations[idx + 1 :], dict(p.provenance)
        )
        res = todd_coxeter(q, node_limit=3000)
        assert res.status == "bound_exceeded" or res.class_count >= 21


class TestSchedule:
    @pytest.mark.parametrize("make, want", [case[1:] for case in SCHEDULES],
                             ids=[case[0] for case in SCHEDULES])
    def test_counters(self, make, want):
        res = todd_coxeter(make())
        assert (res.class_count, res.nodes_allocated, res.coincidences_processed) == want

    def test_dead_rows_compacted(self, R5, monkeypatch):
        # R at n=5 allocates 25,937 rows but never has more than 4,028 live;
        # a table that keeps its dead rows peaks near 6 MB here.  The run
        # compiles its walk, 64 steps to a piece, which adds about 1 MB;
        # compiling the walk as one function peaks near 12 MB
        R5.trie  # the presentation's own memory, built before the measurement
        compiled = spy_on_compile(monkeypatch)
        tracemalloc.start()
        try:
            todd_coxeter(R5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert compiled
        assert peak < 4_000_000


def spy_on_compile(monkeypatch):
    """The sources the module passes to ``compile``, as a list that fills."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(tc, "compile", spy, raising=False)
    return sources


def compile_at_once(monkeypatch, size):
    """Compile the walk at the first visit, ``size`` steps to a piece."""
    monkeypatch.setattr(tc, "_COMPILE_NS", 0)
    monkeypatch.setattr(tc, "_PIECE_STEPS", size)


class TestCompiledWalk:
    """The compiled walk takes the loop's schedule exactly: the same
    counters, the same word graph and the same node-limit stops, with the
    walk compiled from the first visit, one step and seven steps to a piece."""

    @staticmethod
    def both(p, monkeypatch, size, **kw):
        with monkeypatch.context() as m:
            m.setattr(tc, "_COMPILE_BUDGET", -1)  # never compile: the loop
            loop = todd_coxeter(p, **kw)
        with monkeypatch.context() as m:
            compile_at_once(m, size)
            compiled = spy_on_compile(m)
            walked = todd_coxeter(p, **kw)
        assert compiled
        return loop, walked

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize(
        "make", [case[1] for case in SCHEDULES] + [lambda p=p: p for _, p in REFERENCE_CASES],
        ids=[case[0] for case in SCHEDULES] + [name for name, _ in REFERENCE_CASES])
    def test_same_result_as_the_loop(self, make, size, monkeypatch):
        p = make()
        reversed_sides = with_relations(p, [Relation(r.rhs, r.lhs, r.tag) for r in p.relations])
        for q in (p, reversed_sides, shuffled(p, 0)):
            loop, walked = self.both(q, monkeypatch, size)
            assert walked == loop

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("n", [4, 5])
    def test_same_node_limit_stops(self, n, size, monkeypatch):
        p = emit_R(n)
        for limit in (10, 100, 1000, 5000):
            loop, walked = self.both(p, monkeypatch, size, node_limit=limit)
            assert walked == loop
            assert (loop.status == "bound_exceeded") == (limit < {4: 863, 5: 25937}[n])

    def test_used_on_R5_only_among_the_schedules(self, monkeypatch):
        # the rule compiles once the live rows ahead repay it: of the
        # scheduled runs, only R at n=5 has them
        used = []
        for name, make, _ in SCHEDULES:
            compiled = spy_on_compile(monkeypatch)
            todd_coxeter(make())
            if compiled:
                used.append(name)
        assert used == ["R-5"]

    def test_budget(self, R5, monkeypatch):
        steps, ends = R5.trie
        monkeypatch.setattr(tc, "_COMPILE_BUDGET", len(steps) + len(_pairs(ends)[0]) - 1)
        compiled = spy_on_compile(monkeypatch)
        assert todd_coxeter(R5).nodes_allocated == 25937
        assert not compiled

    def test_no_input_text_in_the_source(self, tmp_path, monkeypatch):
        hostile = ['1', '"); import os; os.remove("x") #', "\nexec(input())", "c0[0]", "r1 = 0"]
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps({
            "name": "__import__('os').system('true')",
            "elements": hostile[:2],
            "identity": 0,
            "table": [[0, 1], [1, 0]],
        }))
        p = emit_R2(load_monoid(path), 3)
        assert any(hostile[1] in lt.name for lt in p.letters)
        writes = []
        real_open = builtins.open

        def watch(file, mode="r", *args, **kw):
            if set(mode) & set("wax+"):
                writes.append(file)
            return real_open(file, mode, *args, **kw)

        compile_at_once(monkeypatch, 7)
        sources = spy_on_compile(monkeypatch)
        monkeypatch.setattr(builtins, "open", watch)
        monkeypatch.chdir(tmp_path)
        res = todd_coxeter(p)
        monkeypatch.undo()
        assert res.class_count == 168
        assert sources and not writes
        assert sorted(x.name for x in tmp_path.iterdir()) == ["monoid.json"]
        fixed = {"def", "piece", "if", "parent", "fill", "deduce", "push"}
        for source in sources:
            for tok in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
                if tok.type == tokenize.NAME:
                    assert tok.string in fixed or re.fullmatch(r"[rc][0-9]+", tok.string)
                elif tok.type == tokenize.NUMBER:
                    assert tok.string.isdigit()
                elif tok.type == tokenize.OP:
                    assert tok.string in {"(", ")", "[", "]", ",", ":", "=", "!="}
                else:
                    assert tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                                        tokenize.ENDMARKER)

    def test_pieces_read_earlier_values_again(self):
        # a^2 = 1 and a^3 = a: trie nodes 1, 2, 3 over one letter, pairs
        # (2, 0) and (3, 1); one step to a piece, so the third piece walks
        # a and a^2 again from the node before its own step
        p = Presentation("monoid", (Letter("a"),), (
            Relation((0, 0), (), "inv"), Relation((0, 0, 0), (0,), "cube"),
        ), {})
        steps, ends = p.trie
        pairs, partner = _pairs(ends)
        third = list(_walk_sources(steps, pairs, partner, 1))[2]
        assert third == (
            "def piece(r0):\n"
            " r1 = c0[r0]\n"
            " r2 = c0[r1]\n"
            " r3 = c0[r2]\n"
            " if parent[r3] != r3: r3 = deduce(c0, r2, r3, r1)\n"
            " if r3 != r1: push((r3, r1))\n"
        )


class TestAgainstReference:
    """The trie walk certifies the same count as tracing every relation
    word separately, on every presentation of acceptance criterion 8, with
    the relations as given, with every side reversed and under two shuffles:
    the trie, and so which edges are deduced, depends on that order.  Its one
    sweep leaves a finished word graph: the reference finishing check holds
    on every graph it returns."""

    @pytest.mark.parametrize("p", [p for _, p in REFERENCE_CASES],
                             ids=[name for name, _ in REFERENCE_CASES])
    def test_same_count(self, p):
        want = _todd_coxeter_by_relations(p)
        reversed_sides = with_relations(p, [Relation(r.rhs, r.lhs, r.tag) for r in p.relations])
        na = len(p.letters)
        for q in (p, reversed_sides, shuffled(p, 0), shuffled(p, 1)):
            res = todd_coxeter(q)
            assert (res.status, res.class_count) == want
            rows = res.class_count + (q.kind != "monoid")
            assert len(res.graph) == na
            assert all(len(col) == rows for col in res.graph)
            steps, ends = q.trie
            assert _closed(list(range(rows)), res.graph, steps, _pairs(ends)[0])


class TestClosed:
    """The reference finishing check on hand-built tables of <a | a^2 = 1>."""

    @staticmethod
    def closed(tab, parent=None):
        p = Presentation("monoid", (Letter("a"),), (Relation((0, 0), (), "inv"),), {})
        steps, ends = p.trie
        return _closed(parent or list(range(len(tab))), [tab], steps, ends)

    def test_complete_table_satisfying_the_relation(self):
        assert self.closed([1, 0])

    def test_relation_broken_at_the_root(self):
        # a^2 leads from node 0 to node 1, not back to node 0
        assert not self.closed([1, 1])

    def test_missing_edge(self):
        assert not self.closed([1, -1])
        # read as node 2 itself, the missing edge would satisfy the relation
        assert not self.closed([1, 0, -1])

    def test_edges_read_through_the_representative(self):
        # node 2 was merged into node 1, and node 0's edge still points at it
        assert self.closed([2, 0, 0], parent=[0, 1, 1])
        assert not self.closed([2, 2, 0], parent=[0, 1, 1])

    def test_every_chunk_checked(self):
        # 300 live nodes swapped in pairs; with node 299 fixed, the relation
        # breaks at node 298 alone, past the first chunk of 256
        pairs = [x ^ 1 for x in range(300)]
        assert self.closed(pairs)
        pairs[299] = 299
        assert not self.closed(pairs)


class TestCompiledRelations:
    def test_partner_is_the_earlier_end_of_the_first_pair(self):
        # a^2 = 1 ends at trie nodes 2 and 0; a^3 = a at 3 and 1
        p = Presentation("monoid", (Letter("a"),), (
            Relation((0, 0), (), "inv"), Relation((0, 0, 0), (0,), "cube"),
        ), {})
        steps, ends = p.trie
        pairs, partner = _pairs(ends)
        assert steps == [(0, 0), (1, 0), (2, 0)]
        assert ends == pairs == [(2, 0), (3, 1)]
        assert partner == {2: 0, 3: 1}

    def test_equal_sides_insert_nothing(self):
        p = Presentation("monoid", (Letter("a"),), (
            Relation((0, 0), (0, 0), "trivial"), Relation((0,), (), "unit"),
            Relation((0,), (), "again"),
        ), {})
        steps, ends = p.trie
        assert steps == [(0, 0)]
        assert ends == [None, (1, 0), (1, 0)]
        assert _pairs(ends) == ([(1, 0)], {1: 0})

    def test_duplicate_and_trivial_relations_change_nothing(self):
        p = emit_R(3)
        rels = list(p.relations)
        # the last word is no prefix of any relation side
        trivial = [Relation(r.lhs, r.lhs, "trivial") for r in rels[:3]] + [
            Relation((0,) * 9, (0,) * 9, "trivial")
        ]
        q = with_relations(p, trivial[:2] + rels + rels[::2] + trivial[2:])
        a, b = todd_coxeter(p), todd_coxeter(q)
        assert (b.status, b.class_count, b.nodes_allocated) == (
            a.status, a.class_count, a.nodes_allocated
        )

    def test_relations_written_both_ways_round(self, Z2):
        for p, want in ((emit_R(3), 21), (emit_R1p(Z2, 2), 8)):
            q = with_relations(p, [Relation(r.rhs, r.lhs, r.tag) for r in p.relations])
            res = todd_coxeter(q)
            assert res.status == "certified" and res.class_count == want


class TestDeterminism:
    def test_relation_order_immaterial(self, Z2):
        for p, want in ((emit_R(3), 21), (emit_R2(Z2, 2), 8), (emit_R1p(Z2, 2), 8)):
            for seed in range(5):
                res = todd_coxeter(shuffled(p, seed))
                assert res.status == "certified" and res.class_count == want

    def test_repeat_runs_identical(self):
        p = emit_R(3)
        a = todd_coxeter(p)
        b = todd_coxeter(p)
        assert (a.status, a.class_count, a.nodes_allocated, a.coincidences_processed) == (
            b.status, b.class_count, b.nodes_allocated, b.coincidences_processed
        )
