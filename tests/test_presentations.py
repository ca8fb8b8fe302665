import dataclasses
import hashlib
import itertools
from math import factorial

import pytest

from wreathbench import (
    WreathContext,
    emit_E_wreath_monoid,
    emit_R,
    emit_R1,
    emit_R1p,
    emit_R2,
    emit_Rn,
    eps_a,
    eps_ab,
    eps_elem,
    fixture,
    is_L_chain,
    soundness,
    standard_map,
    table_presentation,
    validate_monoid,
    verify,
    wreath_sing_target,
)
from wreathbench.errors import DegreeMismatch, PreconditionError
from wreathbench.monoids import EnumeratedSemigroup, submonoid, units
from wreathbench.transformations import compose, enumerate_Tn, epsilon
from wreathbench.green import e_part_indices
from wreathbench.presentations import EvaluationMap, Letter, Presentation, Relation

from conftest import (
    evaluate, gen_family, monoid_census, omega_witnesses, reference_soundness, sized, word_E_X1,
    word_E_X2,
)


def name_index(p):
    return {lt.name: i for i, lt in enumerate(p.letters)}


def corrupt_and_detect(p, emap):
    """Corrupt the first letter of one relation at a time until the sides
    evaluate differently, and assert the soundness check reports that
    relation.  On every corruption built, the check reports what the
    reference fold does."""
    na = len(p.letters)
    for idx, rel in enumerate(p.relations):
        for shift in range(1, na):
            bad = (rel.lhs[0] + shift) % na
            mutated = Relation((bad,) + rel.lhs[1:], rel.rhs, rel.tag)
            q = Presentation(
                p.kind,
                p.letters,
                p.relations[:idx] + (mutated,) + p.relations[idx + 1 :],
                dict(p.provenance),
            )
            failures = soundness(q, emap)
            assert failures == reference_soundness(q, emap)
            if evaluate(mutated.lhs, emap) != evaluate(mutated.rhs, emap):
                assert any(f["index"] == idx for f in failures)
                return
    raise AssertionError("no effective corruption found")


class TestEmitR:
    def test_degree2(self):
        p = emit_R(2)
        assert len(p.letters) == 2
        assert p.family_counts() == {"R1": 4}

    def test_degree3_counts(self):
        p = emit_R(3)
        assert len(p.relations) == 36
        assert p.family_counts() == {"R1": 12, "R3": 6, "R4": 12, "R5": 6}

    def test_concrete_instance(self):
        p = emit_R(3)
        L = name_index(p)
        want = Relation((L["e(1,3)"], L["e(2,3)"]), (L["e(1,3)"],), "R3")
        assert want in p.relations

    def test_sound(self):
        for n in (2, 3, 4):
            p = emit_R(n)
            assert soundness(p, standard_map(p)) == []

    def test_mutation_detected(self):
        p = emit_R(3)
        corrupt_and_detect(p, standard_map(p))


class TestEmitRn:
    def test_alphabet_size(self, Z2):
        assert len(emit_Rn(Z2, 2).letters) == 8

    def test_collapse_instance_matches_action(self, Z2):
        # head tuple (1,g) folded with (g,1): position 2 reads through the
        # transformation, giving (1*g, g*g) = (g, 1)
        p = emit_Rn(Z2, 2)
        L = name_index(p)
        lhs = (L["e(1,2;[1,g])"], L["e(1,2;[g,1])"])
        rhs = (L["e(1,2;[g,1])"], L["e(1,2;[1,1])"])
        assert any(r.lhs == lhs and r.rhs == rhs for r in p.relations if r.tag == "R7_n")

    def test_sound(self, Z2, B01):
        for M in (Z2, B01):
            for n in (2, 3):
                p = emit_Rn(M, n)
                assert soundness(p, standard_map(p, M)) == []

    def test_capacity(self, Z2):
        from wreathbench.errors import CapacityError

        # 42 pairs times 2^7 tuples is over the 4,096-letter alphabet limit
        with pytest.raises(CapacityError) as exc:
            emit_Rn(Z2, 7)
        assert exc.value.count == 5376

    def test_relation_budget_refused_before_the_action_is_checked(self, monkeypatch):
        from wreathbench import presentations
        from wreathbench.errors import CapacityError

        def refuse(*args):
            raise AssertionError("the action checked before the relation budget")

        # R at n=4 has 12 letters and 168 relations; T2^4 has 256 elements:
        # 168 * 256 + (12 * 256)^2 relations
        monkeypatch.setattr(presentations, "validate_letter_action", refuse)
        with pytest.raises(CapacityError) as exc:
            emit_Rn(fixture("@T2"), 4)
        assert exc.value.count == 9_480_192
        assert str(exc.value) == "relations over the limit 1000000 (reached 9480192)"

    def test_relation_budget_kept_to_the_unit(self, Z2, monkeypatch):
        from wreathbench import presentations
        from wreathbench.errors import CapacityError

        # R at n=3 has 6 letters and 36 relations; Z2^3 has 8 elements
        monkeypatch.setattr(presentations, "RELATION_LIMIT", 2592)
        assert len(emit_Rn(Z2, 3).relations) == 36 * 8 + (6 * 8) ** 2 == 2592
        monkeypatch.setattr(presentations, "RELATION_LIMIT", 2591)
        with pytest.raises(CapacityError) as exc:
            emit_Rn(Z2, 3)
        assert exc.value.count == 2592

    def test_mutation_detected(self, Z2):
        p = emit_Rn(Z2, 2)
        corrupt_and_detect(p, standard_map(p, Z2))

    # (fixture, n, letter digest, relation-multiset digest, relation count),
    # recorded from the hand-written emitter the semidirect wrapper replaced
    RECORDED = (
        ("@Z2", 2, "5301234b3ff5e744", "7a22a0a7b18553a1", 80),
        ("@Z3", 2, "d8f6d311d2a542f3", "b1866e0426c60e45", 360),
        ("@T2", 2, "a0c96215028377f3", "999e263a9fdcc2ca", 1088),
        ("@Z2", 3, "ce0356812787d956", "f4004c712412d3e1", 2592),
        ("@B01", 3, "cc08abd52a9cbd86", "c55c1868aff13b96", 2592),
    )

    @pytest.mark.parametrize("name,n,letters,relations,count", RECORDED)
    def test_matches_recorded_emission(self, name, n, letters, relations, count):
        def digest(obj):
            return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]

        p = emit_Rn(fixture(name), n)
        assert digest(tuple((lt.name, lt.params) for lt in p.letters)) == letters
        assert digest(sorted((r.lhs, r.rhs, r.tag) for r in p.relations)) == relations
        assert len(p.relations) == count

    # emission visits only the letters of R, never Sing_n itself: at n = 8,
    # Sing_n has 8^8 - 8! elements, past the closure limit
    @pytest.mark.parametrize("name,n,count", (("@T1", 6, 2160), ("@T1", 8, 7952), ("@Z2", 5, 426240)))
    def test_large_degree_does_not_enumerate_sing(self, name, n, count):
        p = emit_Rn(fixture(name), n)
        assert len(p.letters) == n * (n - 1) * fixture(name).order**n
        assert len(p.relations) == count

    def test_certifies_every_census_monoid(self):
        n = 2
        for table in monoid_census(4):
            m = len(table)
            M = validate_monoid([f"m{i}" for i in range(m)], 0, [list(r) for r in table])
            p = emit_Rn(M, n)
            v = verify(p, standard_map(p, M), *sized(wreath_sing_target(M, n)))
            assert v.status == "certified", table
            assert v.class_count == m**n * (n**n - factorial(n)), table


class TestEmitR2:
    def test_degree2_only_first_family(self, B01):
        p = emit_R2(B01, 2)
        assert len(p.letters) == 8
        assert p.family_counts() == {"R1_2": 64}

    def test_product_entry_instance(self, B01):
        # i=1, j=2, a=b=1, c=d=0: both sides collapse onto entries (0,0)
        p = emit_R2(B01, 2)
        L = name_index(p)
        first = Relation(
            (L["e(1,2;1,1)"], L["e(1,2;0,0)"]), (L["e(1,2;0,0)"],), "R1_2"
        )
        second = Relation(
            (L["e(1,2;0,0)"],), (L["e(2,1;1,1)"], L["e(1,2;0,0)"]), "R1_2"
        )
        assert first in p.relations and second in p.relations

    def test_all_families_present_at_degree3(self, Z2):
        p = emit_R2(Z2, 3)
        assert set(p.family_counts()) == {
            "R1_2", "R3a_2", "R3b_2", "R3c_2", "R4a_2", "R4b_2", "R5_2",
        }

    def test_sound(self, Z2, B01, RZ1):
        for M in (Z2, B01, RZ1):
            for n in (2, 3):
                p = emit_R2(M, n)
                assert soundness(p, standard_map(p, M)) == []

    def test_mutation_detected(self, Z2):
        p = emit_R2(Z2, 2)
        corrupt_and_detect(p, standard_map(p, Z2))


class TestEmitR1:
    def test_chain_precondition(self, RZ1):
        with pytest.raises(PreconditionError) as exc:
            emit_R1(RZ1, 2)
        assert "chain" in str(exc.value)
        # force hook still emits sound relations
        p = emit_R1(RZ1, 2, force=True)
        assert soundness(p, standard_map(p, RZ1)) == []

    def test_cancellation_family_instance(self, B01):
        # 1*0 = 0*0, so the two left factors are interchangeable before e(1,2;0)
        p = emit_R1(B01, 2)
        L = name_index(p)
        zero, one = B01.labels.index("0"), B01.labels.index("1")
        want = Relation(
            (L["e(2,1;1)"], L["e(1,2;0)"]), (L["e(2,1;0)"], L["e(1,2;0)"]), "R1c_1"
        )
        flipped = Relation(
            (L["e(2,1;0)"], L["e(1,2;0)"]), (L["e(2,1;1)"], L["e(1,2;0)"]), "R1c_1"
        )
        assert want in p.relations or flipped in p.relations

    def test_group_cancellation_vacuous(self, Z2):
        p = emit_R1(Z2, 2)
        for rel in p.relations:
            if rel.tag == "R1c_1":
                assert rel.lhs == rel.rhs

    def test_omega(self, B01):
        omega, xwit = omega_witnesses(B01)
        one, zero = B01.labels.index("1"), B01.labels.index("0")
        assert omega == {(one, one), (zero, zero), (zero, one)}
        assert xwit[(zero, one)] == zero

    def test_omega_properties(self, Z3, B01, T1):
        for M in (Z3, B01, T1):
            omega, xwit = omega_witnesses(M)
            from wreathbench.green import green_cached

            left = green_cached(M).left
            for a in range(M.order):
                for b in range(M.order):
                    assert ((a, b) in omega) != ((b, a) in omega) or a == b
            for a, b in omega:
                assert left[b] >> a & 1
                assert M.table[xwit[(a, b)]][b] == a

    def test_sound(self, B01, T1):
        for M in (B01, T1):
            for n in (2, 3):
                p = emit_R1(M, n)
                assert soundness(p, standard_map(p, M)) == []

    def test_mutation_detected(self, B01):
        p = emit_R1(B01, 2)
        corrupt_and_detect(p, standard_map(p, B01))


class TestEmitR1p:
    def test_group_precondition(self, B01):
        with pytest.raises(PreconditionError):
            emit_R1p(B01, 2)

    def test_alphabet_and_inverse_instance(self, Z2):
        p = emit_R1p(Z2, 2)
        assert len(p.letters) == 4
        L = name_index(p)
        want = Relation((L["e(1,2;g)"],), (L["e(2,1;g)"], L["e(1,2;g)"]), "R1a'_1")
        assert want in p.relations

    def test_trivial_group_contains_renamed_base(self, T1):
        base = emit_R(3)
        p = emit_R1p(T1, 3)
        lb = name_index(base)
        lp = name_index(p)
        rename = {lb[f"e({i},{j})"]: lp[f"e({i},{j};1)"] for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
        renamed = {
            (tuple(rename[l] for l in r.lhs), tuple(rename[l] for l in r.rhs))
            for r in base.relations
        }
        ours = {(r.lhs, r.rhs) for r in p.relations}
        assert renamed <= ours

    def test_sound(self, Z2, Z3):
        for M in (Z2, Z3):
            for n in (2, 3):
                p = emit_R1p(M, n)
                assert soundness(p, standard_map(p, M)) == []

    def test_mutation_detected(self, Z3):
        p = emit_R1p(Z3, 2)
        corrupt_and_detect(p, standard_map(p, Z3))


class TestWords:
    def test_x2_degenerate_single_letter(self, Z2):
        g = Z2.labels.index("g")
        w = word_E_X2(Z2, 3, 1, 2, (g, g, 0))
        assert len(w) == 1

    def test_x2_instance(self, Z2):
        g = Z2.labels.index("g")
        p = emit_R2(Z2, 3)
        L = name_index(p)
        w = word_E_X2(Z2, 3, 1, 2, (0, g, g))
        assert list(w) == [L["e(1,2;1,g)"], L["e(3,2;g,1)"]]

    def test_x2_evaluates_to_tuple_element(self, Z2, B01, T1):
        for M in (Z2, B01, T1):
            for n in (2, 3):
                p = emit_R2(M, n)
                emap = standard_map(p, M)
                ctx = WreathContext(M, n, "singular")
                for i, j in ((1, 2), (2, 1), (1, n), (n, 1)):
                    if i == j:
                        continue
                    for tup in itertools.product(range(M.order), repeat=n):
                        w = word_E_X2(M, n, i, j, tup)
                        assert evaluate(w, emap) == eps_elem(ctx, i, j, tup)

    def test_x1_cases(self, B01):
        omega, xwit = omega_witnesses(B01)
        zero, one = B01.labels.index("0"), B01.labels.index("1")
        p = emit_R1(B01, 2)
        L = name_index(p)
        assert list(word_E_X1(B01, 2, 1, 2, zero, one, omega, xwit)) == [
            L["e(2,1;0)"], L["e(1,2;1)"],
        ]
        assert list(word_E_X1(B01, 2, 1, 2, one, zero, omega, xwit)) == [
            L["e(1,2;0)"], L["e(2,1;1)"], L["e(1,2;1)"],
        ]

    def test_x1_evaluates_to_two_entry_element(self, Z2, B01, T1):
        for M in (Z2, B01, T1):
            omega, xwit = omega_witnesses(M)
            for n in (2, 3):
                p = emit_R1(M, n)
                emap = standard_map(p, M)
                ctx = WreathContext(M, n, "singular")
                for i, j in ((1, 2), (2, 1)):
                    for a in range(M.order):
                        for b in range(M.order):
                            w = word_E_X1(M, n, i, j, a, b, omega, xwit)
                            assert evaluate(w, emap) == eps_ab(ctx, i, j, a, b)

    def test_x1_identity_entry_matches_single_letter(self, B01):
        # the two-entry element with identity at i is the plain generator
        omega, xwit = omega_witnesses(B01)
        p = emit_R1(B01, 2)
        emap = standard_map(p, B01)
        ctx = WreathContext(B01, 2, "singular")
        for a in range(B01.order):
            w = word_E_X1(B01, 2, 1, 2, B01.identity, a, omega, xwit)
            assert evaluate(w, emap) == eps_a(ctx, 1, 2, a)


class TestEvaluate:
    def test_single_letter(self):
        p = emit_R(2)
        emap = standard_map(p)
        assert evaluate((0,), emap) == emap.images[0]

    def test_empty_word_monoid(self, B01):
        base, gens = table_presentation(B01)
        emap = EvaluationMap(tuple(gens), B01.multiply, identity=B01.identity)
        assert evaluate((), emap) == B01.identity

    def test_empty_word_semigroup_rejected(self):
        p = emit_R(2)
        with pytest.raises(ValueError):
            evaluate((), standard_map(p))

    def test_two_letter_product(self):
        p = emit_R(2)
        emap = standard_map(p)
        L = name_index(p)
        val = evaluate((L["e(1,2)"], L["e(2,1)"]), emap)
        assert val == (2, 2)


class TestEvaluationMapLeft:
    def test_default_left_is_multiply(self, B01):
        emap = EvaluationMap((0,), B01.multiply, B01.identity)
        for x in range(B01.order):
            assert [emap.left(x)(y) for y in range(B01.order)] == [
                B01.multiply(x, y) for y in range(B01.order)]

    def test_default_left_keeps_the_degree_check(self):
        emap = EvaluationMap((epsilon(2, 1, 2),), compose)
        assert emap.left((2, 2))((2, 1)) == (1, 1)
        with pytest.raises(DegreeMismatch):
            emap.left((2, 2))((1, 1, 1))


class TestEvaluateThroughSoundness:
    """The reference fold's behaviours, read off the trie that soundness
    evaluates."""

    def test_single_letter_and_two_letter_product(self):
        p = emit_R(2)
        L = name_index(p)
        q = Presentation("semigroup", p.letters,
                         (Relation((L["e(1,2)"], L["e(2,1)"]), (L["e(1,2)"],), "t"),))
        assert soundness(q, standard_map(p)) == [{
            "index": 0, "tag": "t", "lhs": "e(1,2)*e(2,1)", "rhs": "e(1,2)",
            "lhs_value": "(2, 2)", "rhs_value": "(1, 1)",
        }]

    def test_empty_side_reads_as_the_identity(self, B01, Z2):
        base, gens = table_presentation(B01)
        assert soundness(base, EvaluationMap(tuple(gens), B01.multiply, B01.identity)) == []
        base, gens = table_presentation(Z2)
        assert () in [r.rhs for r in base.relations]
        assert soundness(base, EvaluationMap(tuple(gens), Z2.multiply, Z2.identity)) == []
        zero = B01.labels.index("0")
        p = Presentation("monoid", (Letter("0"),), (Relation((0,), (), "unit"),))
        emap = EvaluationMap((zero,), B01.multiply, B01.identity)
        assert soundness(p, emap) == [{
            "index": 0, "tag": "unit", "lhs": "0", "rhs": "1",
            "lhs_value": repr(zero), "rhs_value": repr(B01.identity),
        }]

    def test_empty_side_without_an_identity_rejected(self, B01):
        for rel in (Relation((0,), (), "unit"), Relation((), (), "trivial")):
            p = Presentation("monoid", (Letter("0"),), (rel,))
            with pytest.raises(ValueError, match="semigroup target"):
                soundness(p, EvaluationMap((1,), B01.multiply))


class TestSharedTrie:
    def test_soundness_matches_the_reference_fold(self):
        from test_acceptance import _matrix

        still_sound = []
        for fam, name, n, p, _ in _matrix():
            M = fixture(name) if name else None
            emap = standard_map(p, M)
            assert soundness(p, emap) == reference_soundness(p, emap) == []
            # every image moved to the next letter; on two letters this is the
            # swap of e(1,2) and e(2,1), which preserves every relation
            moved = EvaluationMap(emap.images[1:] + emap.images[:1], emap.multiply,
                                  emap.identity)
            failures = soundness(p, moved)
            assert failures == reference_soundness(p, moved), (fam, name, n)
            if not failures:
                still_sound.append(len(p.letters))
        assert still_sound == [2] * 4

    def test_relations_cannot_be_reassigned(self):
        p = emit_R(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.relations = ()


class TestPresentationRefusals:
    @pytest.mark.parametrize("kind, relations, message", [
        ("group", (), "unknown kind 'group'"),
        ("semigroup", (Relation((0,), (), "unit"),), "empty word in semigroup relation unit"),
        # a letter index outside the alphabet would make Todd-Coxeter read
        # another node's row of its table
        ("monoid", (Relation((0, 1), (0,), "r"),), "relation r references missing letter 1"),
        ("monoid", (Relation((0,), (-1,), "r"),), "relation r references missing letter -1"),
    ], ids=["kind", "empty", "past", "negative"])
    def test_refused(self, kind, relations, message):
        with pytest.raises(ValueError) as exc:
            Presentation(kind, (Letter("x"),), relations)
        assert str(exc.value) == message


class TestTablePresentation:
    def test_b01(self, B01):
        p, gens = table_presentation(B01)
        assert p.kind == "monoid"
        assert len(p.letters) == 1
        emap = EvaluationMap(tuple(gens), B01.multiply, identity=B01.identity)
        assert soundness(p, emap) == []

    def test_images_avoid_identity(self, T2):
        E_mon = submonoid(T2, sorted(e_part_indices(T2)))
        p, gens = table_presentation(E_mon)
        assert all(m != E_mon.identity for m in gens)


class TestEmitEMonoid:
    def test_group_base_degenerates(self, Z2):
        p = emit_E_wreath_monoid(Z2, 2)
        assert p.kind == "monoid"
        assert len(p.letters) == 4  # only the unit-entry generators
        assert set(p.family_counts()) == {"R1a'_1", "R1b_1"}

    def test_t2_shape(self, T2):
        p = emit_E_wreath_monoid(T2, 2)
        assert len(p.letters) == 8
        counts = p.family_counts()
        assert counts["RC"] == 8 and counts["Qbar"] == 8
        assert counts["nabla3"] == 16

    def test_absorb_instance(self, T2):
        # the coordinate copy at the collapsed position is absorbed
        p = emit_E_wreath_monoid(T2, 2)
        L = name_index(p)
        found = [
            r
            for r in p.relations
            if r.tag == "nabla1b" and r.lhs[0] == L["e(1,2;12)"] and len(r.lhs) == 2
        ]
        assert found and all(r.rhs == (r.lhs[0],) for r in found)

    def test_sound(self, Z2, T2):
        for M in (Z2, T2):
            p = emit_E_wreath_monoid(M, 2)
            assert soundness(p, standard_map(p, M)) == []

    def test_hypothesis_failure(self, N3):
        with pytest.raises(PreconditionError):
            emit_E_wreath_monoid(N3, 2)

    def test_mutation_detected(self, T2):
        p = emit_E_wreath_monoid(T2, 2)
        corrupt_and_detect(p, standard_map(p, T2))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["@T1", "@Z2", "@Z3"])
    def test_group_base_is_r1p(self, name, n):
        # a group has no per-coordinate letters: the units are all of M
        M = fixture(name)
        p, q = emit_E_wreath_monoid(M, n), emit_R1p(M, n)
        assert p.letters == q.letters
        assert p.relations == q.relations
        assert (p.kind, q.kind) == ("monoid", "semigroup")
        assert (p.provenance["family"], q.provenance["family"]) == ("Emonoid", "R1p")

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["@B01", "@RZ1", "@T2"])
    def test_unit_part_is_r1p_over_the_units(self, name, n):
        M = fixture(name)
        G = submonoid(M, units(M))
        q = emit_R1p(G, n)
        p = emit_E_wreath_monoid(M, n)
        shift = sum("coord" in dict(lt.params) for lt in p.letters)
        assert shift > 0 and all("coord" in dict(lt.params) for lt in p.letters[:shift])
        # R1p's letters in order, with a taken from G's positions to M's
        assert p.letters[shift:] == tuple(
            Letter(lt.name, (("i", lt.param("i")), ("j", lt.param("j")),
                             ("a", G.elements[lt.param("a")])))
            for lt in q.letters
        )
        tags = q.family_counts()
        assert [r for r in p.relations if r.tag in tags] == [
            Relation(tuple(l + shift for l in r.lhs), tuple(l + shift for l in r.rhs), r.tag)
            for r in q.relations
        ]


def _by_values(elements, name):
    """The monoid over the transformations ``elements``, multiplied by
    ``compose`` and labelled by their image strings: its values are not its
    positions."""
    labels = tuple("".join(str(v) for v in t) for t in elements)
    return EnumeratedSemigroup(list(elements), compose, labels=labels, name=name)


def _relabelled(S):
    return validate_monoid(S.labels, S.identity, S.table, S.name)


# each emitter reads positions through the table, so a monoid over its own
# values emits what its Cayley relabel emits, letter for letter and in order
_VALUE_EMITTERS = {  # family -> (emitter, elements of the monoid, its name)
    "R2": (emit_R2, enumerate_Tn(2, "full"), "T2"),
    "R1": (lambda M, n: emit_R1(M, n, force=True), enumerate_Tn(2, "full"), "T2"),
    "Rn": (emit_Rn, enumerate_Tn(2, "full"), "T2"),
    "Emonoid": (emit_E_wreath_monoid, enumerate_Tn(2, "full"), "T2"),
    "R1p": (emit_R1p, [(1, 2), (2, 1)], "S2"),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", list(_VALUE_EMITTERS))
def test_emitters_take_a_monoid_over_its_own_values(family, n):
    emit, elements, name = _VALUE_EMITTERS[family]
    S = _by_values(elements, name)
    p, q = emit(S, n), emit(_relabelled(S), n)
    assert p.letters == q.letters
    assert p.relations == q.relations
    assert (p.kind, p.provenance) == (q.kind, q.provenance)


def test_table_presentation_of_a_monoid_over_its_own_values():
    S = _by_values(enumerate_Tn(2, "full"), "T2")
    (p, gens), (q, want) = table_presentation(S), table_presentation(_relabelled(S))
    assert gens == want
    assert (p.letters, p.relations, p.provenance) == (q.letters, q.relations, q.provenance)


# every emitter refuses a degree below 2 first, also on a monoid that fails
# its hypothesis (R1 on @RZ1, R1p on @B01, Emonoid on @N3)
_LOW_DEGREE_EMITTERS = {
    "R": lambda n: emit_R(n),
    "Rn": lambda n: emit_Rn(fixture("@Z2"), n),
    "R2": lambda n: emit_R2(fixture("@Z2"), n),
    "R1": lambda n: emit_R1(fixture("@RZ1"), n),
    "R1p": lambda n: emit_R1p(fixture("@B01"), n),
    "Emonoid": lambda n: emit_E_wreath_monoid(fixture("@N3"), n),
}


@pytest.mark.parametrize("n", [1, 0, -1])
@pytest.mark.parametrize("family", list(_LOW_DEGREE_EMITTERS))
def test_degree_below_two_refused_before_the_hypothesis(family, n):
    with pytest.raises(ValueError) as exc:
        _LOW_DEGREE_EMITTERS[family](n)
    assert type(exc.value) is ValueError  # not its subclass PreconditionError
    assert str(exc.value) == "n must be at least 2"


# each emitter that builds its letters in _alphabet refuses the first degree
# whose alphabet, n(n-1) |M|^entries letters, is over ALPHABET_LIMIT: before
# any letter, and also on a monoid that fails its hypothesis (R1 on @RZ1, R1p
# on @B01); Emonoid's unit letters are emit_R1p's over the group of units
_WIDE_ALPHABETS = {  # family -> (emitter, first refused degree, alphabet size)
    "R": (lambda n: emit_R(n), 65, 65 * 64),
    "R2": (lambda n: emit_R2(fixture("@T2"), n), 17, 17 * 16 * 4**2),
    "R1": (lambda n: emit_R1(fixture("@RZ1"), n), 38, 38 * 37 * 3),
    "R1p": (lambda n: emit_R1p(fixture("@B01"), n), 46, 46 * 45 * 2),
    "Emonoid": (lambda n: emit_E_wreath_monoid(fixture("@Z2"), n), 46, 46 * 45 * 2),
}


@pytest.mark.parametrize("family", list(_WIDE_ALPHABETS))
def test_alphabet_over_the_limit_refused_before_any_letter(family, monkeypatch):
    from wreathbench import presentations
    from wreathbench.errors import CapacityError

    def refuse(*args):
        raise AssertionError("a letter built before the alphabet check")

    monkeypatch.setattr(presentations, "Letter", refuse)
    emit, n, size = _WIDE_ALPHABETS[family]
    assert size > presentations.ALPHABET_LIMIT
    with pytest.raises(CapacityError) as exc:
        emit(n)
    assert exc.value.count == size
    assert str(exc.value) == f"alphabet too large (reached {size})"


@pytest.mark.parametrize("name, entries, n", [(None, 0, 64), ("@T2", 2, 16), ("@RZ1", 1, 37)])
def test_alphabet_at_the_limit_is_built(name, entries, n):
    from wreathbench.presentations import ALPHABET_LIMIT, _alphabet

    M = fixture(name) if name else None
    letters, index = _alphabet(n, M, entries)
    assert len(letters) == len(index) == n * (n - 1) * (M.order**entries if M else 1)
    assert len(letters) <= ALPHABET_LIMIT


# each emitter counts its relations in closed form and refuses more than
# RELATION_LIMIT before it builds one; the fixtures each emitter accepts
_BUDGETED = {  # family -> (emitter, fixtures)
    "R": (lambda M, n: emit_R(n), [None]),
    "Rn": (emit_Rn, ["@T1", "@Z2", "@Z3", "@B01", "@RZ1", "@T2", "@N3"]),
    "R2": (emit_R2, ["@T1", "@Z2", "@Z3", "@B01", "@RZ1", "@T2", "@N3"]),
    "R1": (emit_R1, ["@T1", "@Z2", "@Z3", "@B01", "@N3"]),
    "R1p": (emit_R1p, ["@T1", "@Z2", "@Z3"]),
    "Emonoid": (emit_E_wreath_monoid, ["@T1", "@Z2", "@Z3", "@B01", "@RZ1", "@T2"]),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "family, name", [(family, name) for family, (_, names) in _BUDGETED.items() for name in names]
)
def test_relation_budget_of_each_emitter_kept_to_the_unit(family, name, n, monkeypatch):
    from wreathbench import presentations
    from wreathbench.errors import CapacityError

    emit = _BUDGETED[family][0]
    M = fixture(name) if name else None
    count = len(emit(M, n).relations)
    monkeypatch.setattr(presentations, "RELATION_LIMIT", count)
    assert len(emit(M, n).relations) == count

    def refuse(*args):
        raise AssertionError("a relation built before the relation budget")

    if family == "Rn":  # Rn's relations are its base R's, decorated
        base = emit_R(n)
        monkeypatch.setattr(presentations, "emit_R", lambda n: base)
    monkeypatch.setattr(presentations, "Relation", refuse)
    monkeypatch.setattr(presentations, "RELATION_LIMIT", count - 1)
    with pytest.raises(CapacityError) as exc:
        emit(M, n)
    assert exc.value.count == count
    assert str(exc.value) == f"relations over the limit {count - 1} (reached {count})"


# the hypothesis refusals come ahead of the relation budget
@pytest.mark.parametrize("emit", [
    lambda: emit_R1(fixture("@RZ1"), 2),
    lambda: emit_R1p(fixture("@B01"), 2),
    lambda: emit_E_wreath_monoid(fixture("@N3"), 2),
], ids=["R1-off-chain", "R1p-off-group", "Emonoid-off-hypothesis"])
def test_hypothesis_refused_before_the_relation_budget(emit, monkeypatch):
    from wreathbench import presentations

    monkeypatch.setattr(presentations, "RELATION_LIMIT", 0)
    with pytest.raises(PreconditionError):
        emit()


@pytest.mark.parametrize("family", list(_WIDE_ALPHABETS))
def test_alphabet_refused_before_the_relation_budget(family, monkeypatch):
    from wreathbench import presentations
    from wreathbench.errors import CapacityError

    monkeypatch.setattr(presentations, "RELATION_LIMIT", 0)
    emit, n, size = _WIDE_ALPHABETS[family]
    with pytest.raises(CapacityError) as exc:
        emit(n)
    assert str(exc.value) == f"alphabet too large (reached {size})"


# ---------------------------------------------------------------------------
# ordered emissions

def _emit(family, name, n):
    if family == "R":
        return emit_R(n)
    M = fixture(name)
    if family == "Rn":
        return emit_Rn(M, n)
    if family == "R2":
        return emit_R2(M, n)
    if family == "R1":
        return emit_R1(M, n, force=True)
    if family == "R1p":
        return emit_R1p(M, n)
    return emit_E_wreath_monoid(M, n)


# (family, monoid, n, letter digest, ordered-relation digest, relation count),
# recorded before the relation families shared by R, R2, R1 and R1p were
# factored into one helper each.  The relation order fixes Todd-Coxeter's
# node and coincidence counts, so relations are compared in emission order.
# R1 is emitted with force=True, R1p on the groups, and Emonoid wherever
# <E(M)> = {1} u (M \ G).
ORDERED_EMISSIONS = (
    ("R", None, 3, "1ed27ff2cf7c556c", "5ae25653916f6c35", 36),
    ("R", None, 4, "de9faf41908c9f15", "c3715d32401d419d", 168),
    ("R", None, 5, "3acb2737f5ef0c47", "99d66317e6ab6620", 520),
    ("Rn", "@T1", 2, "076c00fb1bb51f9c", "85fa45b857f9cbdf", 8),
    ("Rn", "@T1", 3, "a7394730dcb86712", "1e50bbd59bb30f90", 72),
    ("Rn", "@Z2", 2, "5301234b3ff5e744", "9372da3e2ce7d797", 80),
    ("Rn", "@Z2", 3, "ce0356812787d956", "752cb99afd09e393", 2592),
    ("Rn", "@Z3", 2, "d8f6d311d2a542f3", "8d2d3e634c57f179", 360),
    ("Rn", "@Z3", 3, "f09959665eb83dc3", "e0dfa5a66f2e3f23", 27216),
    ("Rn", "@B01", 2, "c1c79006295b08ca", "71921499af878123", 80),
    ("Rn", "@B01", 3, "cc08abd52a9cbd86", "db53e7566adeaac7", 2592),
    ("Rn", "@RZ1", 2, "35427bf23e17655d", "18b900b9e21b2b17", 360),
    ("Rn", "@RZ1", 3, "b33d7b700132b170", "55f6924b0e17a804", 27216),
    ("Rn", "@T2", 2, "a0c96215028377f3", "151ac54b7c051362", 1088),
    ("Rn", "@T2", 3, "9d0cde1a588f70ae", "aa47471ce6dbe2f6", 149760),
    ("Rn", "@N3", 2, "2ece31c20eb998f4", "95843bb9f948cf3a", 360),
    ("Rn", "@N3", 3, "1dab2f67570c7419", "1cf55cd2b2ae0ce2", 27216),
    ("R2", "@T1", 2, "481a58eec45b0129", "89c37951dd6c23de", 4),
    ("R2", "@T1", 3, "2fba329aae62e7b5", "5f8f574445f9cb6e", 60),
    ("R2", "@Z2", 2, "f914c18eff0c47ec", "1e0dad40cf653441", 64),
    ("R2", "@Z2", 3, "2440f1190b0f25b8", "b9b38633d8d069be", 702),
    ("R2", "@Z3", 2, "b70504d6329869db", "b26f8023a2f5a079", 324),
    ("R2", "@Z3", 3, "1c6ecabc3d2030bf", "f3da162732dd0485", 3300),
    ("R2", "@B01", 2, "c53acec1911f073c", "48b2fbfdc6be6ee2", 64),
    ("R2", "@B01", 3, "41687fc0a5ddf3ba", "09e224c591ea924d", 702),
    ("R2", "@RZ1", 2, "33354a1dc9a68df8", "76176d3c10c53f9b", 324),
    ("R2", "@RZ1", 3, "174eba2741c6c7dc", "7955db9931139a97", 3300),
    ("R2", "@T2", 2, "0d9167f5f697d6da", "96d52187450da94d", 1024),
    ("R2", "@T2", 3, "f6197ee946af9e4d", "ba478dcdbdfb0965", 10086),
    ("R2", "@N3", 2, "648ab43f80a217bc", "b4db28a1f3c618d0", 324),
    ("R2", "@N3", 3, "d03026ef67ac1949", "db81d5e5ba8e7bc8", 3300),
    ("R1", "@T1", 2, "1fb4090e355161cf", "bf2aaf95c62a7e87", 10),
    ("R1", "@T1", 3, "898d0c72e6dd5012", "f1f56380a282d099", 66),
    ("R1", "@Z2", 2, "1219bfe461bb7a7d", "0a07ec4f8f0f6737", 34),
    ("R1", "@Z2", 3, "ec9dcbb7b58d9073", "3e917e393e568b0e", 216),
    ("R1", "@Z3", 2, "c4ddbf1740222e44", "d16e9a63dc472b13", 74),
    ("R1", "@Z3", 3, "11d0761a87a3234d", "388769320b7c0fb8", 462),
    ("R1", "@B01", 2, "2a6fdeb0a2cb9ad8", "5bd583b75cb3aaf6", 40),
    ("R1", "@B01", 3, "c19beb00029b0fc6", "29c2ed390aeb0982", 234),
    ("R1", "@RZ1", 2, "92f95e4d742bfa4e", "a4602cb9bd1f268e", 118),
    ("R1", "@RZ1", 3, "85cbef8ad5684f27", "3766899d1344a64e", 594),
    ("R1", "@T2", 2, "0d03ac2af71459b8", "96d632dd729a9d77", 218),
    ("R1", "@T2", 3, "50fe8af89135d88b", "4a4f5c9546ec0117", 1068),
    ("R1", "@N3", 2, "f7d635170fd147a4", "12549573560ab046", 94),
    ("R1", "@N3", 3, "f2bcd9e949001751", "d54a6f183f839c83", 522),
    ("R1p", "@T1", 2, "1fb4090e355161cf", "ee0f1d5a59331e94", 6),
    ("R1p", "@T1", 3, "898d0c72e6dd5012", "41b611bd6c34b5ed", 54),
    ("R1p", "@Z2", 2, "1219bfe461bb7a7d", "a3e1a994df7b7505", 20),
    ("R1p", "@Z2", 3, "ec9dcbb7b58d9073", "13d2f410066cbdfa", 174),
    ("R1p", "@Z3", 2, "c4ddbf1740222e44", "d0cb799e581215ac", 42),
    ("R1p", "@Z3", 3, "11d0761a87a3234d", "d1db257af297485f", 366),
    ("Emonoid", "@T1", 2, "1fb4090e355161cf", "ee0f1d5a59331e94", 6),
    ("Emonoid", "@T1", 3, "898d0c72e6dd5012", "41b611bd6c34b5ed", 54),
    ("Emonoid", "@Z2", 2, "1219bfe461bb7a7d", "a3e1a994df7b7505", 20),
    ("Emonoid", "@Z2", 3, "ec9dcbb7b58d9073", "13d2f410066cbdfa", 174),
    ("Emonoid", "@Z3", 2, "c4ddbf1740222e44", "d0cb799e581215ac", 42),
    ("Emonoid", "@Z3", 3, "11d0761a87a3234d", "d1db257af297485f", 366),
    ("Emonoid", "@B01", 2, "b06a21419ae8051a", "deb1c551b724b86d", 18),
    ("Emonoid", "@B01", 3, "ae5d63a5dbbe7eda", "b0a9265e8f31a672", 93),
    ("Emonoid", "@RZ1", 2, "53758fa243b4265b", "2743b19a089ba0cc", 38),
    ("Emonoid", "@RZ1", 3, "9bcddf3a0983a7a7", "45cfe2511bfc29ec", 150),
    ("Emonoid", "@T2", 2, "aae89e1214927d08", "7152de6c16301f92", 76),
    ("Emonoid", "@T2", 3, "7f1d4dc2302b7e25", "fd2435c52792836c", 354),
)


@pytest.mark.parametrize(
    "family,name,n,letters,relations,count",
    [pytest.param(*row, id=f"{row[0]}-{row[1] or 'Sing'}-{row[2]}") for row in ORDERED_EMISSIONS],
)
def test_matches_recorded_ordered_emission(family, name, n, letters, relations, count):
    def digest(obj):
        return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]

    p = _emit(family, name, n)
    assert digest(tuple((lt.name, lt.params) for lt in p.letters)) == letters
    assert digest(tuple((r.lhs, r.rhs, r.tag) for r in p.relations)) == relations
    assert len(p.relations) == count


@pytest.mark.parametrize("family, gens", [("R1", "X1"), ("R2", "X2"), ("Rn", "Xn")])
def test_letter_images_are_the_generator_family_in_order(family, gens):
    # each emitter's alphabet is the paper's generator family, in its order:
    # ordered pairs (i, j) first, then the monoid entries by odometer
    for name in ("@T1", "@Z2", "@Z3", "@B01", "@RZ1", "@T2"):
        M = fixture(name)
        for n in (2, 3):
            images = standard_map(_emit(family, name, n), M).images
            assert list(images) == gen_family(WreathContext(M, n, "singular"), gens), (name, n)


def test_census_r2_certifies_and_r1_exactly_on_L_chains():
    # every monoid of order <= 4 up to isomorphism, at n = 2: R2 presents
    # M wr Sing_2 always, the forced R1 exactly when M/L is a chain
    n = 2
    chains = 0
    for table in monoid_census(4):
        m = len(table)
        M = validate_monoid([f"m{i}" for i in range(m)], 0, [list(r) for r in table])
        target = wreath_sing_target(M, n)
        p = emit_R2(M, n)
        assert verify(p, standard_map(p, M), *sized(target)).status == "certified", table
        p = emit_R1(M, n, force=True)
        certified = verify(p, standard_map(p, M), *sized(target)).status == "certified"
        assert certified == is_L_chain(M), table
        chains += certified
    assert chains == 33
