import pytest

from wreathbench import (
    WreathContext,
    close,
    compose,
    e_wreath_target,
    emit_R,
    emit_R1p,
    emit_R2,
    epsilon,
    fixture,
    gen_family,
    sing_target,
    standard_map,
    verify,
    wreath_sing_target,
)
from wreathbench import certify, wreath
from wreathbench.errors import CapacityError
from wreathbench.monoids import FIXTURES
from wreathbench.presentations import EvaluationMap, Letter, Presentation, Relation

from conftest import rank_one_less_idempotents


class TestVerify:
    def test_r2_z2(self, Z2):
        p = emit_R2(Z2, 2)
        v = verify(p, standard_map(p, Z2), wreath_sing_target(Z2, 2))
        assert v.status == "certified" and v.class_count == 8

    def test_r1p_z2(self, Z2):
        p = emit_R1p(Z2, 2)
        v = verify(p, standard_map(p, Z2), wreath_sing_target(Z2, 2))
        assert v.status == "certified" and v.class_count == 8

    def test_dropping_relations_never_falsely_certifies(self):
        # dropping relations can only coarsen the congruence upward, so a
        # deficient set must either still present the same semigroup (when
        # the dropped relation was derivable) or fail certification; it can
        # never certify at the wrong count.  At degree 3 every single
        # relation happens to be derivable from the other 35, so the
        # growing case is exercised by dropping a whole family.
        p = emit_R(3)
        target = sing_target(3)
        for idx in range(len(p.relations)):
            q = Presentation(
                p.kind, p.letters, p.relations[:idx] + p.relations[idx + 1 :], dict(p.provenance)
            )
            v = verify(q, standard_map(q), target, node_limit=3000)
            if v.status == "certified":
                assert v.class_count == 21
            else:
                assert v.status in ("size_mismatch", "inconclusive")

    def test_dropped_family_never_certifies(self):
        p = emit_R(3)
        target = sing_target(3)
        for fam in ("R1", "R3", "R4", "R5"):
            q = Presentation(
                p.kind,
                p.letters,
                tuple(r for r in p.relations if r.tag != fam),
                dict(p.provenance),
            )
            v = verify(q, standard_map(q), target, node_limit=5000)
            assert v.status in ("size_mismatch", "inconclusive")

    def test_unsound_reported(self):
        p = emit_R(2)
        bad = Presentation(
            p.kind,
            p.letters,
            p.relations + (Relation((0,), (1,), "forged"),),
            dict(p.provenance),
        )
        v = verify(bad, standard_map(bad), sing_target(2))
        assert v.status == "unsound"
        assert any(f["tag"] == "forged" for f in v.failures)

    def test_not_surjective(self):
        # one idempotent letter into the 2-element right-zero semigroup
        p = Presentation(
            "semigroup",
            (Letter("x", (("i", 1), ("j", 2))),),
            (Relation((0, 0), (0,), "sq"),),
            {"family": "custom"},
        )
        emap = EvaluationMap((epsilon(2, 1, 2),), compose)
        v = verify(p, emap, sing_target(2))
        assert v.status == "not_surjective"
        assert v.generated_size == 1

    def test_foreign_image_rejected(self):
        p = Presentation(
            "semigroup", (Letter("x"),), (Relation((0, 0), (0,), "sq"),), {}
        )
        emap = EvaluationMap((epsilon(3, 1, 2),), compose)
        v = verify(p, emap, sing_target(2))
        assert v.status == "not_surjective"

    def test_forced_chain_presentation_never_certifies_off_hypothesis(self, RZ1):
        # off the chain hypothesis the idempotent letters only generate the
        # idempotent-generated part, so certification must fail
        from wreathbench import emit_R1

        p = emit_R1(RZ1, 2, force=True)
        v = verify(p, standard_map(p, RZ1), wreath_sing_target(RZ1, 2))
        assert v.status != "certified"
        assert v.status == "not_surjective" and v.generated_size == 14

    def test_inconclusive_on_tiny_budget(self):
        p = emit_R(3)
        v = verify(p, standard_map(p), sing_target(3), node_limit=10)
        assert v.status == "inconclusive"

    def test_verdict_serialization(self, Z2):
        p = emit_R2(Z2, 2)
        v = verify(p, standard_map(p, Z2), wreath_sing_target(Z2, 2))
        d = v.to_dict()
        assert d["status"] == "certified"
        assert d["class_count"] == d["target_size"] == 8
        assert "nodes_allocated" in d


class TestRedundantPairExperiment:
    def test_r4_redundancy_drop_still_certifies(self, Z2):
        # one half of each chained mixed-position family is a substitution
        # instance of the other family's half; dropping the derivable halves
        # must leave the quotient intact.  The emitter appends the two halves
        # of every chain in order, so parity within a tag group selects them.
        p = emit_R2(Z2, 3)
        keep = []
        pos4a = pos4b = 0
        for rel in p.relations:
            if rel.tag == "R4a_2":
                drop = pos4a % 2 == 1  # second half of the chain
                pos4a += 1
                if drop:
                    continue
            elif rel.tag == "R4b_2":
                drop = pos4b % 2 == 0  # first half of the chain
                pos4b += 1
                if drop:
                    continue
            keep.append(rel)
        pruned = Presentation(p.kind, p.letters, tuple(keep), dict(p.provenance))
        assert len(pruned.relations) == len(p.relations) - 192
        v = verify(pruned, standard_map(pruned, Z2), wreath_sing_target(Z2, 3))
        assert v.status == "certified" and v.class_count == 168


class TestTargets:
    """The standard targets are enumerated directly; an independent route,
    the closure of a known generating family, must reach the same set."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sing_target_is_closure_of_idempotents(self, n):
        closed = close(rank_one_less_idempotents(n), compose)
        assert set(sing_target(n).elements) == set(closed.elements)

    @pytest.mark.parametrize(
        "name, n", [(f"@{k}", 2) for k in sorted(FIXTURES)] + [("@Z2", 3)]
    )
    def test_wreath_sing_target_is_closure_of_xn(self, name, n):
        M = fixture(name)
        ctx = WreathContext(M, n, "singular")
        closed = close(gen_family(ctx, "Xn"), ctx.multiply)
        assert set(wreath_sing_target(M, n).elements) == set(closed.elements)

    def test_targets_do_no_products(self, Z2, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(fn)
                return fn(*args)
            return wrapper

        for module, name in ((certify, "compose"), (wreath, "compose"), (wreath, "wr_multiply")):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        s = sing_target(4)
        w = wreath_sing_target(Z2, 3)
        assert calls == []
        # the counter does see the products the targets are later asked for
        s.product(0, 1)
        w.product(0, 1)
        assert len(calls) == 3  # wr_multiply also composes the transformations

    def test_size_checked_before_enumerating(self, T2, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(certify, "enumerate_Tn", refuse)
        monkeypatch.setattr(WreathContext, "elements", refuse)
        with pytest.raises(CapacityError) as exc:
            sing_target(5, limit=3004)
        assert exc.value.count == 3005
        with pytest.raises(CapacityError) as exc:
            wreath_sing_target(T2, 5)
        assert exc.value.count == 3_077_120
        # the Emonoid target filters its idempotents from all of T2 wr T_5
        with pytest.raises(CapacityError) as exc:
            e_wreath_target(T2, 5)
        assert exc.value.count == 3_200_000

    def test_limit_is_inclusive(self, Z2):
        assert len(sing_target(3, limit=21)) == 21
        assert len(wreath_sing_target(Z2, 2, limit=8)) == 8
        # the identity and Z2 wr Sing_2, closed inside the 16 elements of Z2 wr T_2
        assert len(e_wreath_target(Z2, 2, limit=16)) == 9
        with pytest.raises(CapacityError) as exc:
            e_wreath_target(Z2, 2, limit=15)
        assert exc.value.count == 16
