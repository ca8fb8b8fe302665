import pytest

from wreathbench import (
    WreathContext,
    close,
    compose,
    e_wreath_target,
    emit_R,
    emit_R1p,
    emit_R2,
    enumerate_Tn,
    epsilon,
    fixture,
    sing_target,
    standard_map,
    verify,
    wreath_sing_target,
)
from wreathbench import certify, wreath
from wreathbench.certify import singular_part
from wreathbench.errors import CapacityError
from wreathbench.cli import FAMILIES
from wreathbench.monoids import FIXTURES
from wreathbench.presentations import EvaluationMap, Letter, Presentation, Relation

from conftest import gen_family, rank_one_less_idempotents, sized


class TestVerify:
    def test_r2_z2(self, Z2):
        p = emit_R2(Z2, 2)
        v = verify(p, standard_map(p, Z2), *sized(wreath_sing_target(Z2, 2)))
        assert v.status == "certified" and v.class_count == 8

    def test_r1p_z2(self, Z2):
        p = emit_R1p(Z2, 2)
        v = verify(p, standard_map(p, Z2), *sized(wreath_sing_target(Z2, 2)))
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
            v = verify(q, standard_map(q), *sized(target), node_limit=3000)
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
            v = verify(q, standard_map(q), *sized(target), node_limit=5000)
            assert v.status in ("size_mismatch", "inconclusive")

    def test_unsound_reported(self):
        p = emit_R(2)
        bad = Presentation(
            p.kind,
            p.letters,
            p.relations + (Relation((0,), (1,), "forged"),),
            dict(p.provenance),
        )
        v = verify(bad, standard_map(bad), *sized(sing_target(2)))
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
        v = verify(p, emap, *sized(sing_target(2)))
        assert v.status == "not_surjective"
        assert v.generated_size == 1

    def test_foreign_image_rejected(self):
        p = Presentation(
            "semigroup", (Letter("x"),), (Relation((0, 0), (0,), "sq"),), {}
        )
        emap = EvaluationMap((epsilon(3, 1, 2),), compose)
        v = verify(p, emap, *sized(sing_target(2)))
        assert v.status == "not_surjective"

    def test_forced_chain_presentation_never_certifies_off_hypothesis(self, RZ1):
        # off the chain hypothesis the idempotent letters only generate the
        # idempotent-generated part, so certification must fail
        from wreathbench import emit_R1

        p = emit_R1(RZ1, 2, force=True)
        v = verify(p, standard_map(p, RZ1), *sized(wreath_sing_target(RZ1, 2)))
        assert v.status != "certified"
        assert v.status == "not_surjective" and v.generated_size == 14

    def test_not_surjective_before_inconclusive(self, RZ1):
        # Todd-Coxeter stops at its node limit, and the closure of the letter
        # images still reports the presentation as not surjective
        from wreathbench import emit_R1

        p = emit_R1(RZ1, 2, force=True)
        v = verify(p, standard_map(p, RZ1), *sized(wreath_sing_target(RZ1, 2)), node_limit=1)
        assert v.status == "not_surjective" and v.generated_size == 14
        assert "nodes_allocated" not in v.to_dict()

    @pytest.mark.parametrize("images, relations, status, generated", [
        # x -> 1, y -> 0: both elements, the identity among them
        ((0, 1), [((0, 0), (0,)), ((0, 1), (1,)), ((1, 0), (1,)), ((1, 1), (1,))],
         "certified", 2),
        # x -> 1 alone: the identity, as a letter's value
        ((0,), [((0, 0), (0,))], "not_surjective", 1),
        # y -> 0 alone: the root's identity is no value of a semigroup
        ((1,), [((0, 0), (0,))], "not_surjective", 1),
    ])
    def test_semigroup_root_has_no_value(self, B01, images, relations, status, generated):
        # a semigroup presentation over the monoid {1, 0}, whose evaluation
        # map carries the identity
        letters = tuple(Letter(name) for name in "xy"[:len(images)])
        p = Presentation("semigroup", letters,
                         tuple(Relation(u, v, "r") for u, v in relations), {})
        emap = EvaluationMap(images, B01.multiply, identity=B01.identity)
        v = verify(p, emap, *sized(B01))
        assert (v.status, v.generated_size) == (status, generated)

    @pytest.mark.parametrize("kind, status, generated", [
        ("monoid", "certified", 1), ("semigroup", "not_surjective", 0),
    ])
    def test_empty_alphabet(self, kind, status, generated):
        # one root node and no edges: the trivial monoid, or the empty semigroup
        T1 = fixture("@T1")
        p = Presentation(kind, (), (), {})
        v = verify(p, EvaluationMap((), T1.multiply, identity=T1.identity), *sized(T1))
        assert (v.status, v.generated_size) == (status, generated)

    def test_size_mismatch_reported(self, Z2):
        # <g | g^4 = 1> onto Z2 by g -> g is sound and surjective, but it
        # presents the cyclic group of order 4: 4 classes against 2 elements
        g = Z2.labels.index("g")
        p = Presentation("monoid", (Letter("g"),), (Relation((0,) * 4, (), "order"),), {})
        v = verify(p, EvaluationMap((g,), Z2.multiply, Z2.identity), *sized(Z2))
        assert (v.status, v.class_count, v.target_size) == ("size_mismatch", 4, 2)
        assert v.to_dict()["soundness_failures"] == []

    def test_inconclusive_on_tiny_budget(self):
        p = emit_R(3)
        v = verify(p, standard_map(p), *sized(sing_target(3)), node_limit=10)
        assert v.status == "inconclusive"

    def test_verdict_serialization(self, Z2):
        p = emit_R2(Z2, 2)
        v = verify(p, standard_map(p, Z2), *sized(wreath_sing_target(Z2, 2)))
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
        v = verify(pruned, standard_map(pruned, Z2), *sized(wreath_sing_target(Z2, 3)))
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

    @pytest.mark.parametrize(
        "name, n", [(f"@{k}", 2) for k in sorted(FIXTURES)] + [("@Z2", 3), ("@B01", 3)]
    )
    def test_e_wreath_target_is_closure_of_filtered_idempotents(self, name, n):
        # reference: filter the idempotents of M wr T_n by squaring, then
        # close them; same elements in the same order
        M = fixture(name)
        ctx = WreathContext(M, n, "full")
        idem = [x for x in ctx.elements() if ctx.multiply(x, x) == x]
        assert e_wreath_target(M, n).elements == close(idem, ctx.multiply).elements

    @pytest.mark.parametrize("name", ["@Z2", "@T2", "@N3"])
    def test_e_wreath_target_enumerates_no_wreath_product(self, name, monkeypatch):
        # the reference above, built before enumerating M wr T_n is refused
        M = fixture(name)
        ctx = WreathContext(M, 2, "full")
        idem = [x for x in ctx.elements() if ctx.multiply(x, x) == x]
        want = close(idem, ctx.multiply).elements

        def refuse(self):
            raise AssertionError("M wr T_n enumerated")

        monkeypatch.setattr(WreathContext, "elements", refuse)
        assert e_wreath_target(M, 2).elements == want

    def test_standard_map_identity_only_for_emonoid(self, Z2):
        for family, (presentation, _) in FAMILIES.items():
            M = None if family == "R" else Z2
            emap = standard_map(presentation(M, 2), M)
            if family == "Emonoid":
                assert emap.identity == (Z2.identity, Z2.identity, 1, 2)
            else:
                assert emap.identity is None, family

    def test_elements_are_plain_int_tuples(self, Z2, T2, N3):
        # the targets' elements, and the letter images of every family as
        # verify builds them
        def plain(x):
            return type(x) is tuple and all(type(v) is int for v in x)

        for target in (sing_target(3), wreath_sing_target(T2, 2), e_wreath_target(N3, 2)):
            assert all(map(plain, target.elements))
        for family, (presentation, _) in FAMILIES.items():
            M = None if family == "R" else Z2
            assert all(map(plain, standard_map(presentation(M, 2), M).images)), family

    def test_targets_do_no_products(self, Z2, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(fn)
                return fn(*args)
            return wrapper

        for module, name in ((certify, "compose"), (wreath, "wr_multiply")):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        s = sing_target(4)
        w = wreath_sing_target(Z2, 3)
        assert calls == []
        # the counter does see the products the targets are later asked for
        s.multiply(s.elements[0], s.elements[1])
        w.multiply(w.elements[0], w.elements[1])
        assert len(calls) == 2

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singular_part_is_sing_target(self, n):
        # the closed form against the enumerated target, on every map of T_n
        target = sing_target(n)
        size, contains = singular_part(None, n, limit=10**6)
        assert size == len(target)
        full = enumerate_Tn(n)
        assert [contains(t) for t in full] == [t in target.index for t in full]

    @pytest.mark.parametrize(
        "name, n", [(f"@{k}", 2) for k in sorted(FIXTURES)] + [("@Z2", 3)]
    )
    def test_singular_part_is_wreath_sing_target(self, name, n):
        # ... and on every element of M wr T_n
        M = fixture(name)
        target = wreath_sing_target(M, n)
        size, contains = singular_part(M, n, limit=10**6)
        assert size == len(target)
        full = WreathContext(M, n, "full").elements()
        assert [contains(x) for x in full] == [x in target.index for x in full]

    def test_singular_part_rejects_wrong_degrees_and_indices(self, Z2):
        _, sing = singular_part(None, 3, limit=21)
        _, wr = singular_part(Z2, 2, limit=8)
        assert sing((1, 1, 3)) and wr((0, 1, 1, 1))
        # another degree, or a map of Sing_n where an element of Z2 wr Sing_n belongs
        for x in ((), (1, 1), (1, 1, 1, 1), (0, 0, 1, 1)):
            assert not sing(x), x
        for x in ((1, 1), (0, 1, 1), (0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1)):
            assert not wr(x), x
        # images outside 1..n, and monoid indices outside 0..|M|-1
        for x in ((0, 1, 1), (1, 1, 4), (-1, 1, 1)):
            assert not sing(x), x
        for x in ((0, 0, 1, 3), (0, 0, 0, 1), (2, 0, 1, 1), (0, -1, 1, 1)):
            assert not wr(x), x

    def test_singular_part_refusals(self, T1, Z2, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(certify, "enumerate_Tn", refuse)
        monkeypatch.setattr(WreathContext, "elements", refuse)
        assert singular_part(Z2, 7, limit=10**10)[0] == 2**7 * (7**7 - 5040)
        with pytest.raises(CapacityError) as exc:
            singular_part(None, 3, limit=20)
        assert exc.value.count == 21
        # the degree refusal of the enumerated targets, after the size check
        for M in (None, T1):
            with pytest.raises(CapacityError, match=r"^degree 8 outside supported range 1\.\.7$"):
                singular_part(M, 8, limit=20_000_000)
        with pytest.raises(ValueError, match="empty below degree 2"):
            singular_part(None, 1, limit=10)

    def test_limit_is_inclusive(self, Z2):
        assert len(sing_target(3, limit=21)) == 21
        assert len(wreath_sing_target(Z2, 2, limit=8)) == 8
        # the identity and Z2 wr Sing_2, closed inside the 16 elements of Z2 wr T_2
        assert len(e_wreath_target(Z2, 2, limit=16)) == 9
        with pytest.raises(CapacityError) as exc:
            e_wreath_target(Z2, 2, limit=15)
        assert exc.value.count == 16
