import itertools
import random

import pytest

from wreathbench import (
    WreathContext,
    close,
    compose,
    emit_R,
    emit_semidirect,
    enumerate_Tn,
    semidirect_multiply,
    validate_action,
    validate_monoid,
    wr_multiply,
)
from wreathbench.errors import ActionError
from wreathbench.presentations import EvaluationMap, soundness
from wreathbench.wreath import power_with_shuffle

from conftest import rank_one_less_idempotents


def trivial_semigroup():
    """One idempotent element."""
    return close(["e"], lambda x, y: "e")


def saturating_pair_monoid(cap):
    """(N x N, +) truncated at cap in each coordinate; a finite stand-in for
    the additive pair monoid."""
    pairs = list(itertools.product(range(cap + 1), repeat=2))
    pos = {p: i for i, p in enumerate(pairs)}
    table = [
        [pos[(min(a + c, cap), min(b + d, cap))] for (c, d) in pairs] for (a, b) in pairs
    ]
    return validate_monoid([f"{a},{b}" for a, b in pairs], pos[(0, 0)], table), pos, pairs


class TestAction:
    def test_trivial_action_gives_direct_product(self, Z2):
        S = trivial_semigroup()
        action = lambda s, a: a
        validate_action(Z2, S, action)
        for a in range(2):
            for b in range(2):
                prod = semidirect_multiply(Z2, S, action, (a, 0), (b, 0))
                assert prod == (Z2.multiply(a, b), 0)

    def test_first_coordinate_projection_action(self):
        # the action s.(a,b) = (a,a) of a one-element semigroup turns the
        # product into (a,b)(c,d) = (a+c, b+c)
        M, pos, pairs = saturating_pair_monoid(4)
        S = trivial_semigroup()
        action = lambda s, idx: pos[(pairs[idx][0], pairs[idx][0])]
        validate_action(M, S, action)
        for a, b in ((0, 0), (1, 2), (2, 1)):
            for c, d in ((0, 1), (1, 1), (2, 0)):
                got, _ = semidirect_multiply(M, S, action, (pos[(a, b)], 0), (pos[(c, d)], 0))
                assert got == pos[(a + c, b + c)]

    def test_invalid_action_names_axiom(self, Z2):
        S = trivial_semigroup()
        g = Z2.labels.index("g")
        bad = lambda s, a: g  # sends the identity to g
        with pytest.raises(ActionError) as exc:
            validate_action(Z2, S, bad)
        assert exc.value.axiom == "s.1 = 1"

    def test_composition_axiom_checked_on_generators(self, Z2):
        # S = <g> in Z2: g acts as the identity and g^2 = 1 trivially, each an
        # endomorphism, but (g g).g = 1 while g.(g.g) = g
        S = close([Z2.labels.index("g")], Z2.multiply)
        assert S.gen_indices == [0]
        action = lambda s, a: a if s == 0 else Z2.identity
        with pytest.raises(ActionError) as exc:
            validate_action(Z2, S, action)
        assert exc.value.axiom == "(st).a = s.(t.a)"
        assert exc.value.witness == (0, 0, Z2.labels.index("g"))

    def test_shuffle_action_reproduces_wreath_product(self, Z2):
        n = 2
        trans = enumerate_Tn(n, "singular")
        Mn, action = power_with_shuffle(Z2, n, trans)
        S = close(list(range(len(trans))), lambda s, t: trans.index(compose(trans[s], trans[t])))
        validate_action(Mn, S, action)
        ctx = WreathContext(Z2, n, "singular")
        tuples = list(itertools.product(range(Z2.order), repeat=n))
        pos = {t: i for i, t in enumerate(tuples)}
        rng = random.Random(99)
        for _ in range(100):
            ta, sa = rng.choice(tuples), rng.randrange(len(trans))
            tb, sb = rng.choice(tuples), rng.randrange(len(trans))
            got = semidirect_multiply(Mn, S, action, (pos[ta], sa), (pos[tb], sb))
            via_wreath = wr_multiply(ctx, ctx.element(ta, trans[sa]), ctx.element(tb, trans[sb]))
            assert tuples[got[0]] == via_wreath.tup
            assert trans[got[1]] == via_wreath.trans


class TestEmitSemidirect:
    def test_trivial_base_monoid_recovers_base(self, T1):
        base = emit_R(2)
        action = lambda s, a: a
        p = emit_semidirect(base, T1, action)
        assert len(p.letters) == len(base.letters)
        decorated = {(r.lhs, r.rhs) for r in p.relations if r.tag.startswith("RM1")}
        assert {(r.lhs, r.rhs) for r in base.relations} <= decorated

    def test_alphabet_is_cartesian(self, Z2):
        base = emit_R(2)
        action = lambda s, a: a
        p = emit_semidirect(base, Z2, action)
        assert len(p.letters) == len(base.letters) * Z2.order

    def test_letter_action_must_respect_base_relations(self, Z2):
        # e(1,2) fixes Z2 and e(2,1) collapses it: each is an endomorphism,
        # but e(1,2) = e(2,1) e(1,2) acts differently on its two sides
        base = emit_R(2)
        e12 = next(x for x, lt in enumerate(base.letters) if lt.name == "e(1,2)")
        action = lambda x, a: a if x == e12 else Z2.identity
        with pytest.raises(ActionError) as exc:
            emit_semidirect(base, Z2, action)
        assert exc.value.axiom == "u.a = v.a"

    def test_shuffle_example_relation_present(self, Z2):
        # with M = Z2 x Z2 shuffled by Sing_2, the fold of (e12)_{(g,1)} with
        # (e21)_{(1,g)} decorates the head with (g,1) again
        base = emit_R(2)
        M2, action = power_with_shuffle(Z2, 2, rank_one_less_idempotents(2))
        p = emit_semidirect(base, M2, action)
        L = {lt.name: i for i, lt in enumerate(p.letters)}
        lhs = (L["e(1,2)[(g,1)]"], L["e(2,1)[(1,g)]"])
        rhs = (L["e(1,2)[(g,1)]"], L["e(2,1)[(1,1)]"])
        assert any(r.lhs == lhs and r.rhs == rhs for r in p.relations if r.tag == "RM2")

    def test_sound_and_certifies(self, Z2):
        # the semidirect presentation for Z2^2 x| Sing_2 is the tuple-alphabet
        # presentation of the wreath product; certify it against the enumerated
        # semidirect product
        from wreathbench import EnumeratedSemigroup, verify

        gens = rank_one_less_idempotents(2)
        S = close(gens, compose)
        base = emit_R(2)
        base_images = [S.index[g] for g in gens]
        M2, action = power_with_shuffle(Z2, 2, list(S.elements))
        p = emit_semidirect(base, M2, lambda x, a: action(base_images[x], a))
        images = tuple((lt.param("a"), base_images[lt.param("x")]) for lt in p.letters)
        emap = EvaluationMap(images, lambda u, v: semidirect_multiply(M2, S, action, u, v))
        rep = soundness(p, emap)
        assert rep.ok
        elems = [(a, s) for a in range(M2.order) for s in range(len(S))]
        target = EnumeratedSemigroup(elems, lambda x, y: semidirect_multiply(M2, S, action, x, y))
        v = verify(p, emap, target)
        assert v.status == "certified" and v.class_count == 8
