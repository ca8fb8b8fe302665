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
    validate_monoid,
    wr_multiply,
)
from wreathbench.errors import ActionError
from wreathbench.presentations import EvaluationMap, soundness
from wreathbench.wreath import power_with_shuffle

from conftest import rank_one_less_idempotents, semidirect_multiply, sized


def saturating_pair_monoid(cap):
    """(N x N, +) truncated at cap in each coordinate; a finite stand-in for
    the additive pair monoid."""
    pairs = list(itertools.product(range(cap + 1), repeat=2))
    pos = {p: i for i, p in enumerate(pairs)}
    table = [
        [pos[(min(a + c, cap), min(b + d, cap))] for (c, d) in pairs] for (a, b) in pairs
    ]
    return validate_monoid([f"{a},{b}" for a, b in pairs], pos[(0, 0)], table), pos, pairs


def folds(p):
    """The RM2 relations of an emitted semidirect presentation, keyed by the
    (base letter, monoid element) pairs of their letters."""
    key = [(lt.param("x"), lt.param("a")) for lt in p.letters]
    return {
        (tuple(key[l] for l in r.lhs), tuple(key[l] for l in r.rhs))
        for r in p.relations
        if r.tag == "RM2"
    }


class TestAction:
    def test_trivial_action_gives_direct_product(self, Z2):
        # letters that fix every element fold (x, a)(y, b) into (x, ab)(y, 1)
        rm2 = folds(emit_semidirect(emit_R(2), Z2, lambda x, a: a))
        for x, y, a, b in itertools.product(range(2), repeat=4):
            assert (((x, a), (y, b)), ((x, Z2.multiply(a, b)), (y, Z2.identity))) in rm2

    def test_first_coordinate_projection_action(self):
        # every letter acts by s.(a,b) = (a,a), an endomorphism that respects
        # the relations of R at n = 2, so (x, (a,b))(y, (c,d)) folds into
        # (x, (a+c, b+c))(y, (0,0))
        M, pos, pairs = saturating_pair_monoid(4)
        action = lambda x, idx: pos[(pairs[idx][0], pairs[idx][0])]
        rm2 = folds(emit_semidirect(emit_R(2), M, action))
        for a, b in ((0, 0), (1, 2), (2, 1)):
            for c, d in ((0, 1), (1, 1), (2, 0)):
                lhs = ((0, pos[(a, b)]), (1, pos[(c, d)]))
                assert (lhs, ((0, pos[(a + c, b + c)]), (1, pos[(0, 0)]))) in rm2

    def test_invalid_action_names_axiom(self, Z2):
        # every letter sends the identity to g
        g = Z2.labels.index("g")
        with pytest.raises(ActionError) as exc:
            emit_semidirect(emit_R(2), Z2, lambda x, a: g)
        assert exc.value.axiom == "s.1 = 1"
        assert exc.value.witness == (0, Z2.identity)

    def test_non_endomorphism_names_axiom(self, Z3):
        # every letter fixes 1 and g and sends g2 to g, so s.(g g) = s.g2 = g
        # while (s.g)(s.g) = g g = g2
        g = Z3.labels.index("g")
        action = lambda x, a: g if a == Z3.labels.index("g2") else a
        with pytest.raises(ActionError) as exc:
            emit_semidirect(emit_R(2), Z3, action)
        assert exc.value.axiom == "s.(ab) = (s.a)(s.b)"
        assert exc.value.witness == (0, g, g)

    def test_shuffle_action_reproduces_wreath_product(self, Z2):
        n = 2
        trans = enumerate_Tn(n, "singular")
        Mn, action = power_with_shuffle(Z2, n, trans)
        S = close(list(range(len(trans))), lambda s, t: trans.index(compose(trans[s], trans[t])))
        ctx = WreathContext(Z2, n, "singular")
        tuples = list(itertools.product(range(Z2.order), repeat=n))
        pos = {t: i for i, t in enumerate(tuples)}
        rng = random.Random(99)
        for _ in range(100):
            ta, sa = rng.choice(tuples), rng.randrange(len(trans))
            tb, sb = rng.choice(tuples), rng.randrange(len(trans))
            got = semidirect_multiply(Mn, S, action, (pos[ta], sa), (pos[tb], sb))
            via_wreath = wr_multiply(ctx, ctx.element(ta, trans[sa]), ctx.element(tb, trans[sb]))
            assert tuples[got[0]] == via_wreath[:n]
            assert trans[got[1]] == via_wreath[n:]


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
        assert soundness(p, emap) == []
        elems = [(a, s) for a in range(M2.order) for s in range(len(S))]
        target = EnumeratedSemigroup(elems, lambda x, y: semidirect_multiply(M2, S, action, x, y))
        v = verify(p, emap, *sized(target))
        assert v.status == "certified" and v.class_count == 8
