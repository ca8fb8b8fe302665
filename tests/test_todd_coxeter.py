import random

import pytest

from wreathbench import emit_R, emit_R1p, emit_R2, table_presentation, todd_coxeter
from wreathbench.presentations import Presentation, Relation, Letter


def shuffled(p, seed):
    rng = random.Random(seed)
    rels = list(p.relations)
    rng.shuffle(rels)
    return Presentation(p.kind, p.letters, tuple(rels), dict(p.provenance))


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

    def test_counters_populated(self):
        res = todd_coxeter(emit_R(3))
        assert res.nodes_allocated >= res.class_count
        assert res.coincidences_processed > 0


class TestBounds:
    def test_node_limit(self):
        # the free semigroup on two letters is infinite
        p = Presentation("semigroup", (Letter("a"), Letter("b")), (), {})
        res = todd_coxeter(p, node_limit=50)
        assert res.status == "bound_exceeded"
        assert res.class_count is None
        assert res.nodes_allocated > 50

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
