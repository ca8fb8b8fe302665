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
    evaluate,
    fixture,
    omega_witnesses,
    soundness,
    standard_map,
    table_presentation,
    validate_monoid,
    verify,
    word_E_X1,
    word_E_X2,
    wreath_sing_target,
)
from wreathbench.errors import PreconditionError
from wreathbench.monoids import submonoid
from wreathbench.green import e_part_indices
from wreathbench.presentations import Letter, Presentation, Relation

from conftest import monoid_census


def name_index(p):
    return {lt.name: i for i, lt in enumerate(p.letters)}


def corrupt_and_detect(p, emap):
    """Find a single-letter corruption whose sides evaluate differently and
    assert the soundness check reports exactly that relation."""
    na = len(p.letters)
    for idx, rel in enumerate(p.relations):
        for shift in range(1, na):
            bad = (rel.lhs[0] + shift) % na
            mutated = Relation((bad,) + rel.lhs[1:], rel.rhs, rel.tag)
            if evaluate(mutated.lhs, emap) != evaluate(mutated.rhs, emap):
                q = Presentation(
                    p.kind,
                    p.letters,
                    p.relations[:idx] + (mutated,) + p.relations[idx + 1 :],
                    dict(p.provenance),
                )
                rep = soundness(q, emap)
                assert not rep.ok
                assert any(f["index"] == idx for f in rep.failures)
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
            rep = soundness(p, standard_map(p))
            assert rep.ok and rep.checked == len(p.relations)

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
                assert soundness(p, standard_map(p, M)).ok

    def test_capacity(self, T2):
        from wreathbench.errors import CapacityError

        with pytest.raises(CapacityError):
            emit_Rn(T2, 3, alphabet_limit=100)

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
            v = verify(p, standard_map(p, M), wreath_sing_target(M, n))
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
                assert soundness(p, standard_map(p, M)).ok

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
        assert soundness(p, standard_map(p, RZ1)).ok

    def test_cancellation_family_instance(self, B01):
        # 1*0 = 0*0, so the two left factors are interchangeable before e(1,2;0)
        p = emit_R1(B01, 2)
        L = name_index(p)
        zero, one = B01.index_of("0"), B01.index_of("1")
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
        one, zero = B01.index_of("1"), B01.index_of("0")
        assert omega == {(one, one), (zero, zero), (zero, one)}
        assert xwit[(zero, one)] == zero

    def test_omega_properties(self, Z3, B01, T1):
        for M in (Z3, B01, T1):
            omega, xwit = omega_witnesses(M)
            from wreathbench.green import green_cached

            leq = green_cached(M).leq_L
            for a in range(M.order):
                for b in range(M.order):
                    assert ((a, b) in omega) != ((b, a) in omega) or a == b
            for a, b in omega:
                assert leq[a][b]
                assert M.mul(xwit[(a, b)], b) == a

    def test_sound(self, B01, T1):
        for M in (B01, T1):
            for n in (2, 3):
                p = emit_R1(M, n)
                assert soundness(p, standard_map(p, M)).ok

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
                assert soundness(p, standard_map(p, M)).ok

    def test_mutation_detected(self, Z3):
        p = emit_R1p(Z3, 2)
        corrupt_and_detect(p, standard_map(p, Z3))


class TestWords:
    def test_x2_degenerate_single_letter(self, Z2):
        g = Z2.index_of("g")
        w = word_E_X2(Z2, 3, 1, 2, (g, g, 0))
        assert len(w) == 1

    def test_x2_instance(self, Z2):
        g = Z2.index_of("g")
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
        zero, one = B01.index_of("0"), B01.index_of("1")
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
        emap = standard_map(base, B01)
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
        assert val.images == (2, 2)


class TestTablePresentation:
    def test_b01(self, B01):
        p, gens = table_presentation(B01)
        assert p.kind == "monoid"
        assert len(p.letters) == 1
        assert soundness(p, standard_map(p, B01)).ok

    def test_images_avoid_identity(self, T2):
        E_mon, carrier = submonoid(T2, sorted(e_part_indices(T2)))
        p, gens = table_presentation(E_mon)
        assert all(m != E_mon.identity for m in gens)


class TestEmitEMonoid:
    def _auto(self, M, n):
        E_mon, carrier = submonoid(M, sorted(e_part_indices(M)), name="E")
        base, base_gens = table_presentation(E_mon)
        return emit_E_wreath_monoid(M, n, base, [carrier[m] for m in base_gens])

    def test_group_base_degenerates(self, Z2):
        p = self._auto(Z2, 2)
        assert p.kind == "monoid"
        assert len(p.letters) == 4  # only the unit-entry generators
        assert set(p.family_counts()) == {"R1a'_1", "R1b_1"}

    def test_t2_shape(self, T2):
        p = self._auto(T2, 2)
        assert len(p.letters) == 8
        counts = p.family_counts()
        assert counts["RC"] == 8 and counts["Qbar"] == 8
        assert counts["nabla3"] == 16

    def test_absorb_instance(self, T2):
        # the coordinate copy at the collapsed position is absorbed
        p = self._auto(T2, 2)
        L = name_index(p)
        found = [
            r
            for r in p.relations
            if r.tag == "nabla1b" and r.lhs[0] == L["e(1,2;12)"] and len(r.lhs) == 2
        ]
        assert found and all(r.rhs == (r.lhs[0],) for r in found)

    def test_sound(self, Z2, T2):
        for M in (Z2, T2):
            p = self._auto(M, 2)
            assert soundness(p, standard_map(p, M)).ok

    def test_spec_style_two_generator_base(self, T2):
        # hand-built base: two letters, the chained idempotency/absorption
        # relations of the two singular maps
        y1, y2 = 0, 1
        base = Presentation(
            "monoid",
            (Letter("y1", (("m", T2.index_of("11")),)), Letter("y2", (("m", T2.index_of("22")),))),
            (
                Relation((y1, y1), (y1,), "Q"),
                Relation((y1,), (y2, y1), "Q"),
                Relation((y2, y2), (y2,), "Q"),
                Relation((y2,), (y1, y2), "Q"),
            ),
            {"family": "table", "monoid": "E"},
        )
        p = emit_E_wreath_monoid(T2, 2, base, [T2.index_of("11"), T2.index_of("22")])
        assert soundness(p, standard_map(p, T2)).ok

    def test_hypothesis_failure(self, N3):
        base = Presentation("monoid", (), (), {"family": "table"})
        with pytest.raises(PreconditionError):
            emit_E_wreath_monoid(N3, 2, base, [])

    def test_base_letter_mapping_to_identity_rejected(self, T2):
        base = Presentation(
            "monoid", (Letter("y", (("m", T2.identity),)),), (), {"family": "table"}
        )
        with pytest.raises(PreconditionError):
            emit_E_wreath_monoid(T2, 2, base, [T2.identity])

    def test_uncertified_base_rejected(self, T2):
        # a free letter on one idempotent never presents the 3-element part
        base = Presentation(
            "monoid", (Letter("y", (("m", T2.index_of("11")),)),), (), {"family": "table"}
        )
        with pytest.raises(PreconditionError):
            emit_E_wreath_monoid(T2, 2, base, [T2.index_of("11")])

    def test_mutation_detected(self, T2):
        p = self._auto(T2, 2)
        corrupt_and_detect(p, standard_map(p, T2))
