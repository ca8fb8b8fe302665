import random

import pytest

from wreathbench import emit_R, emit_R1p, emit_R2, table_presentation, todd_coxeter
from wreathbench.presentations import Presentation, Relation, Letter

from test_acceptance import _matrix

# criterion 8's presentations and R at n=3, 4, as (test id, presentation)
REFERENCE_CASES = [(f"{fam}-{name}-{n}", p) for fam, name, n, p, _ in _matrix()] + [
    ("R-3", emit_R(3)),
    ("R-4", emit_R(4)),
]


def shuffled(p, seed):
    rng = random.Random(seed)
    rels = list(p.relations)
    rng.shuffle(rels)
    return with_relations(p, rels)


def with_relations(p, relations):
    return Presentation(p.kind, p.letters, tuple(relations), dict(p.provenance))


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
        # the run stops at the allocation that passes the limit
        res = todd_coxeter(emit_R(3), node_limit=limit)
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

    def test_dropped_relation_diverges_or_grows(self):
        # removing one absorption relation can only coarsen upward
        p = emit_R(3)
        idx = next(i for i, r in enumerate(p.relations) if r.tag == "R5")
        q = Presentation(
            p.kind, p.letters, p.relations[:idx] + p.relations[idx + 1 :], dict(p.provenance)
        )
        res = todd_coxeter(q, node_limit=3000)
        assert res.status == "bound_exceeded" or res.class_count >= 21


class TestAgainstReference:
    """The trie walk certifies the same count as tracing every relation
    word separately, on every presentation of acceptance criterion 8."""

    @pytest.mark.parametrize("p", [p for _, p in REFERENCE_CASES],
                             ids=[name for name, _ in REFERENCE_CASES])
    def test_same_count(self, p):
        res = todd_coxeter(p)
        assert (res.status, res.class_count) == _todd_coxeter_by_relations(p)


class TestCompiledRelations:
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
