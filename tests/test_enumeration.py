import itertools
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from wreathbench import (
    WreathContext,
    brute_rank,
    close,
    compose,
    eps_a,
    epsilon,
    fixture,
    generates,
    rank_formulas,
    tournament_check,
    wreath_sing_target,
)
from wreathbench import enumeration, wreath
from wreathbench.errors import CapacityError, ForeignElementError, PreconditionError

from conftest import gen_family, rank_one_less_idempotents, shortlex_closure, sized


def sing(n):
    return close(rank_one_less_idempotents(n), compose)


def _brute_rank_by_values(target, pool, idempotents_only=False):
    """Reference for ``brute_rank``: the same search, closing each candidate
    subset over element values with the target's own product.  It closes
    every candidate, with no cover skip, so it is independent of the rule
    that lets ``brute_rank`` pass a subset by without closing it."""
    seen = set()
    dedup = []
    for x in pool:
        i = target.index[x]
        if i not in seen:
            seen.add(i)
            dedup.append(x)
    if idempotents_only:
        dedup = [x for x in dedup if target.multiply(x, x) == x]
    want = len(target)
    for k in range(1, len(dedup) + 1):
        for subset in itertools.combinations(dedup, k):
            if len(close(list(subset), target.multiply, limit=want)) == want:
                return k, subset
    return None


def _shortlex_cases(Z2):
    """Sing_3 over its rank 2 idempotents, and Z2 wr Sing_2 over X2."""
    ctx = WreathContext(Z2, 2, "singular")
    return [(rank_one_less_idempotents(3), compose), (gen_family(ctx, "X2"), ctx.multiply)]


class TestClose:
    def test_sing2(self):
        assert len(sing(2)) == 2

    def test_sing3(self):
        assert len(sing(3)) == 27 - 6

    def test_x2_over_z2(self, Z2):
        ctx = WreathContext(Z2, 2, "singular")
        assert len(close(gen_family(ctx, "X2"), ctx.multiply)) == 8

    def test_shortlex_element_order(self, Z2):
        # generators first, then products in word-length order
        assert sing(2).elements == [(1, 1), (2, 2)]
        for gens, multiply in _shortlex_cases(Z2):
            elements, words = shortlex_closure(gens, multiply)
            assert close(gens, multiply).elements == elements
            lengths = [len(w) for w in words]
            assert lengths == sorted(lengths)

    def test_factorizations_evaluate(self, Z2):
        # the reference's words evaluate to its elements, which close lists
        # in the same order
        for gens, multiply in _shortlex_cases(Z2):
            elements, words = shortlex_closure(gens, multiply)
            assert close(gens, multiply).elements == elements
            for word, x in zip(words, elements):
                val = gens[word[0]]
                for g in word[1:]:
                    val = multiply(val, gens[g])
                assert val == x

    def test_product_table_consistent(self):
        s = sing(3)
        for i in range(len(s)):
            for j in range(len(s)):
                assert s.elements[s.table[i][j]] == compose(s.elements[i], s.elements[j])

    def test_order_insensitive(self):
        gens = rank_one_less_idempotents(3)
        base = set(sing(3).elements)
        for perm in (list(reversed(gens)), gens[3:] + gens[:3]):
            assert set(close(perm, compose).elements) == base

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_order_insensitive_random(self, order):
        gens = rank_one_less_idempotents(3)
        shuffled = [gens[i] for i in order]
        assert set(close(shuffled, compose).elements) == set(sing(3).elements)

    def test_limit(self):
        with pytest.raises(CapacityError) as exc:
            close(rank_one_less_idempotents(3), compose, limit=5)
        assert exc.value.count == 6

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            close([], compose)

    def test_duplicate_generators_collapse(self):
        gens = rank_one_less_idempotents(2)
        s = close(gens + gens, compose)
        assert len(s) == 2


class TestGenerates:
    def test_howie_small(self):
        target = sing(3)
        assert generates(rank_one_less_idempotents(3), target.multiply, *sized(target))

    def test_single_generator_fails(self):
        target = sing(2)
        assert not generates([epsilon(2, 1, 2)], target.multiply, *sized(target))

    def test_rank2_construction(self, Z2):
        ctx = WreathContext(Z2, 2, "singular")
        target = close(gen_family(ctx, "X2"), ctx.multiply)
        g = Z2.labels.index("g")
        gens = [eps_a(ctx, 1, 2, g), eps_a(ctx, 2, 1, Z2.identity)]
        assert generates(gens, target.multiply, *sized(target))

    def test_foreign_element(self):
        target = sing(2)
        with pytest.raises(ForeignElementError):
            generates([epsilon(3, 1, 2)], target.multiply, *sized(target))


class TestTournament:
    def test_cycle(self):
        assert tournament_check(3, [(1, 2), (2, 3), (3, 1)]) == (True, True, True)

    def test_acyclic(self):
        assert tournament_check(3, [(1, 2), (1, 3), (2, 3)]) == (False, False, True)

    def test_incomplete(self):
        assert tournament_check(3, [(1, 2), (2, 1), (2, 3), (3, 2)]) == (False, True, False)

    def test_small_degree_rejected(self):
        with pytest.raises(PreconditionError):
            tournament_check(2, [(1, 2)])

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            tournament_check(3, [(1, 1)])

    def test_agrees_with_closure_all_subsets(self):
        # exhaustive over all 2^6 subsets of the idempotent family at n=3
        target = sing(3)
        pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        for mask in range(64):
            edges = [pairs[b] for b in range(6) if mask >> b & 1]
            gens = [epsilon(3, i, j) for i, j in edges]
            by_closure = generates(gens, target.multiply, *sized(target)) if gens else False
            by_graph, _, _ = tournament_check(3, edges)
            assert by_graph == by_closure


class TestBruteRank:
    def test_sing2(self):
        target = sing(2)
        k, witness = brute_rank(target, list(target.elements))
        assert k == 2

    def test_sing3_idempotent_pool(self):
        target = sing(3)
        k, witness = brute_rank(
            target, rank_one_less_idempotents(3), idempotents_only=True
        )
        assert k == 3
        assert all(compose(w, w) == w for w in witness)

    def test_b01_wreath(self, B01):
        ctx = WreathContext(B01, 2, "singular")
        target = close(ctx.elements(), ctx.multiply)
        k, witness = brute_rank(target, list(target.elements))
        assert k == 3

    def test_budget(self):
        target = sing(3)
        with pytest.raises(CapacityError) as exc:
            brute_rank(target, list(target.elements), budget=10)
        assert exc.value.count == 10

    def test_budget_kept_to_the_unit(self):
        # Sing_2's two elements: (a), (b), then (a, b) generates
        target = sing(2)
        assert brute_rank(target, list(target.elements), budget=3)[0] == 2
        with pytest.raises(CapacityError) as exc:
            brute_rank(target, list(target.elements), budget=2)
        assert exc.value.count == 2

    @pytest.mark.parametrize("idempotents_only", [False, True])
    @pytest.mark.parametrize("name", ["@Z2", "@B01", "@RZ1", "@N3", "Sing_3"])
    def test_positions_agree_with_values(self, name, idempotents_only):
        target = sing(3) if name == "Sing_3" else wreath_sing_target(fixture(name), 2)
        pool = list(target.elements)
        assert brute_rank(target, pool, idempotents_only) == _brute_rank_by_values(
            target, pool, idempotents_only
        )

    def test_products_bounded_by_table(self, RZ1, monkeypatch):
        # the search multiplies values only to build the |S|^2 Cayley table
        target = wreath_sing_target(RZ1, 2)
        calls = []
        multiply = wreath.wr_multiply

        def counted(*args):
            calls.append(None)
            return multiply(*args)

        monkeypatch.setattr(wreath, "wr_multiply", counted)
        k, _ = brute_rank(target, list(target.elements))
        assert k == 7
        assert len(calls) <= len(target) ** 2

    def test_skipped_subsets_count_against_the_budget(self, RZ1):
        # the first 500 candidates of RZ1 wr Sing_2 hold no generating subset
        target = wreath_sing_target(RZ1, 2)
        with pytest.raises(CapacityError) as exc:
            brute_rank(target, list(target.elements), budget=500)
        assert exc.value.count == 500

    def test_skipped_subsets_are_not_closed(self, N3, monkeypatch):
        # closing every candidate up to the answer takes 4,182 closures
        target = wreath_sing_target(N3, 2)
        calls = []
        close_ = enumeration.close

        def counted(*args, **kwargs):
            calls.append(None)
            return close_(*args, **kwargs)

        monkeypatch.setattr(enumeration, "close", counted)
        assert brute_rank(target, list(target.elements))[0] == 5
        assert len(calls) < 10

    def test_first_witness_deterministic(self):
        target = sing(3)
        pool = rank_one_less_idempotents(3)
        k1, w1 = brute_rank(target, pool)
        k2, w2 = brute_rank(target, pool)
        assert (k1, w1) == (k2, w2)

    def test_no_generating_subset(self):
        target = sing(3)
        # a single idempotent never generates 21 elements
        assert brute_rank(target, [epsilon(3, 1, 2)]) is None


class TestCoverSkip:
    """The subsets that ``brute_rank`` skips cannot generate: a subset that
    misses an R- or an L-class of a maximal J-class is closed here and
    falls short of the target."""

    @pytest.mark.parametrize("name, largest", [("@Z2", 8), ("@B01", 8), ("Sing_3", 3)])
    def test_no_skipped_subset_generates(self, name, largest):
        target = sing(3) if name == "Sing_3" else wreath_sing_target(fixture(name), 2)
        bits, full = enumeration._cover_bits(target)
        skipped = 0
        for k in range(1, largest + 1):
            for subset in itertools.combinations(range(len(target)), k):
                if reduce(or_, (bits[i] for i in subset)) != full:
                    skipped += 1
                    gens = [target.elements[i] for i in subset]
                    assert not generates(gens, target.multiply, *sized(target))
        assert skipped > 0


class TestRankFormulas:
    def test_z2(self, Z2):
        r = rank_formulas(Z2, 2)
        assert (r["exact_rank"], r["exact_idrank"]) == (2, 2)

    def test_b01(self, B01):
        r = rank_formulas(B01, 2)
        assert (r["exact_rank"], r["exact_idrank"]) == (3, 4)

    def test_non_chain_bounds_only(self, RZ1):
        r = rank_formulas(RZ1, 2)
        assert (r["lower"], r["upper"]) == (5, 10)
        assert r["exact_rank"] is None and r["exact_idrank"] is None

    def test_trivial_monoid_cases(self, T1):
        assert rank_formulas(T1, 2)["exact_rank"] == 2
        assert rank_formulas(T1, 2)["exact_idrank"] == 2
        assert rank_formulas(T1, 3)["exact_rank"] == 3

    def test_upper_bound_shape(self, Z3):
        assert rank_formulas(Z3, 2)["upper"] == 10
        assert rank_formulas(Z3, 3)["upper"] == 27

    def test_lower_bounds_any_witness(self, Z2, B01):
        for M in (Z2, B01):
            ctx = WreathContext(M, 2, "singular")
            target = close(ctx.elements(), ctx.multiply)
            k, _ = brute_rank(target, list(target.elements))
            assert rank_formulas(M, 2)["lower"] <= k
