import hashlib
import itertools
import random
import tracemalloc
from functools import lru_cache
from math import comb

import pytest

from wreathbench import (
    WreathContext,
    close,
    count_idempotents,
    eps_a,
    eps_ab,
    epsilon,
    fixture,
    validate_monoid,
    wr_multiply,
)
from wreathbench import wreath
from wreathbench.errors import CapacityError, DegreeMismatch, PreconditionError
from wreathbench.monoids import FIXTURES
from wreathbench.transformations import enumerate_Tn, identity, is_permutation
from wreathbench.wreath import MAX_FORMULA_DEGREE, idempotent_elements

from conftest import gen_family, is_idempotent, monoid_census, pair_multiply, sigma_membership


def _count_formula_by_tuples(ctx):
    """Reference for the formula count: the sum over image sizes k of
    C(n,k) times the sum over every k-tuple of idempotents (e_1..e_k) of
    (|Me_1| + ... + |Me_k|)^(n-k), less |E(M)|^n for the singular part."""
    M = ctx.base
    n = ctx.degree
    idem = M.idempotents()
    ideal_size = {e: len({row[e] for row in M.table}) for e in idem}
    total = 0
    for k in range(1, n + 1):
        inner = 0
        for es in itertools.product(idem, repeat=k):
            inner += sum(ideal_size[e] for e in es) ** (n - k)
        total += comb(n, k) * inner
    if ctx.part == "singular":
        total -= len(idem) ** n
    return total


def _idempotents_by_filter(ctx):
    """Reference for the brute count and the listing: every element built,
    then filtered by the per-element definition."""
    return [x for x in ctx.elements() if ctx.multiply(x, x) == x]


def _idempotent_maps(n, part):
    """Reference for the maps brute force visits: the idempotent maps of the
    part of T_n in lexicographic order, grown point by point, so the n^n maps
    are never walked: k goes to itself, or, while no smaller point goes to k,
    to a smaller fixed point or to a larger point, which is then fixed in its
    turn."""
    maps = [()]
    for k in range(1, n + 1):
        maps = [t + (v,) for t in maps for v in ((k,) if k in t else range(1, n + 1))
                if v >= k or t[v - 1] == v]
    return [t for t in maps if not is_permutation(t)] if part == "singular" else maps


def _searched_maps(M, n, part):
    return [t for t, _, _ in wreath._idempotent_search(WreathContext(M, n, part))]


@lru_cache(maxsize=None)
def _census_monoids(max_order):
    return tuple(
        validate_monoid([f"m{i}" for i in range(len(t))], 0, [list(r) for r in t])
        for t in monoid_census(max_order)
    )


def _fixtures():
    return tuple(fixture("@" + key) for key in sorted(FIXTURES))


class TestMultiply:
    def test_worked_example(self, Z2):
        ctx = WreathContext(Z2, 2, "singular")
        g = Z2.labels.index("g")
        x = ctx.element((g, 0), epsilon(2, 1, 2))
        y = ctx.element((0, g), epsilon(2, 2, 1))
        z = wr_multiply(ctx, x, y)
        assert z[:2] == (g, 0)
        assert z[2:] == (2, 2)

    def test_left_multiplier_equals_wr_multiply(self):
        # every pair of M wr T_n, at n=1 (each gather of one index) and n=2
        cases = [(M, n) for M in _census_monoids(3) for n in (1, 2)]
        for M, n in cases + [(M, 2) for M in _fixtures()]:
            ctx = WreathContext(M, n, "full")
            elements = ctx.elements()
            for x in elements:
                times_x = ctx.left_multiplier(x)
                assert [times_x(y) for y in elements] == [wr_multiply(ctx, x, y) for y in elements]

    def test_left_multiplier_checks_the_left_degree(self, Z2):
        ctx = WreathContext(Z2, 2, "full")
        with pytest.raises(DegreeMismatch):
            ctx.left_multiplier(WreathContext(Z2, 3, "full").identity_element())

    def test_identity_element(self, Z2):
        ctx = WreathContext(Z2, 2, "full")
        e = ctx.identity_element()
        for x in ctx.elements():
            assert wr_multiply(ctx, e, x) == x
            assert wr_multiply(ctx, x, e) == x

    def test_coordinate_rule(self, T2):
        # oracle: coordinate k of the product is a_k * b_{k alpha}, computed
        # longhand
        ctx = WreathContext(T2, 3, "full")
        rng = random.Random(7)
        elems = ctx.elements()
        for _ in range(50):
            x, y = rng.choice(elems), rng.choice(elems)
            z = wr_multiply(ctx, x, y)
            for k in range(3):
                target = x[3 + k]
                assert z[k] == T2.table[x[k]][y[target - 1]]
            assert z[3:] == tuple(y[3 + v - 1] for v in x[3:])

    @pytest.mark.parametrize("name, n, part", [("@T2", 2, "full"), ("@Z2", 3, "singular")])
    def test_equals_pair_reference(self, name, n, part):
        M = fixture(name)
        ctx = WreathContext(M, n, part)
        elems = ctx.elements()
        for x in elems:
            for y in elems:
                tup, images = pair_multiply(M, (x[:n], x[n:]), (y[:n], y[n:]))
                assert wr_multiply(ctx, x, y) == tup + images

    def test_associative_exhaustive_small_bases(self, Z2, B01, RZ1):
        for M in (Z2, B01, RZ1):
            ctx = WreathContext(M, 2, "singular")
            elems = ctx.elements()
            for a, b, c in itertools.product(elems, repeat=3):
                assert wr_multiply(ctx, wr_multiply(ctx, a, b), c) == wr_multiply(
                    ctx, a, wr_multiply(ctx, b, c)
                )

    def test_associative_randomized(self, Z2):
        ctx = WreathContext(Z2, 3, "singular")
        elems = ctx.elements()
        rng = random.Random(20240817)
        for _ in range(10_000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert wr_multiply(ctx, wr_multiply(ctx, a, b), c) == wr_multiply(
                ctx, a, wr_multiply(ctx, b, c)
            )

    @pytest.mark.parametrize("part", ["foo", "Full", None])
    def test_unknown_part_rejected_on_construction(self, Z2, part):
        with pytest.raises(ValueError, match="unknown part"):
            WreathContext(Z2, 2, part)

    def test_transformation_tuple_part_rejected(self, Z2):
        # only the full and singular parts exist; a generating tuple of
        # transformations is not a part
        with pytest.raises(ValueError, match="unknown part"):
            WreathContext(Z2, 2, (epsilon(2, 1, 2), epsilon(2, 2, 1)))

    def test_serialization_round_trip(self, Z2):
        ctx = WreathContext(Z2, 2, "singular")
        x = eps_ab(ctx, 1, 2, Z2.labels.index("g"), 0)
        assert ctx.serialize(x) == {"tuple": ["g", "1"], "trans": [1, 1]}


class TestIdempotents:
    def test_eps_a_is_idempotent(self, T2):
        ctx = WreathContext(T2, 3, "singular")
        for i, j in ((1, 2), (2, 3), (3, 1)):
            for a in range(T2.order):
                x = eps_a(ctx, i, j, a)
                assert ctx.multiply(x, x) == x

    def test_group_diagonal_not_idempotent(self, Z2):
        ctx = WreathContext(Z2, 2, "full")
        g = Z2.labels.index("g")
        x = ctx.element((g, g), identity(2))
        assert ctx.multiply(x, x) != x

    def test_ones_tuple_over_idempotent(self, B01):
        ctx = WreathContext(B01, 3, "full")
        for t in enumerate_Tn(3, "full"):
            x = ctx.element((B01.identity,) * 3, t)
            assert (ctx.multiply(x, x) == x) == is_idempotent(t)

    def test_counts_spec_values(self, Z2, T1):
        assert count_idempotents(WreathContext(Z2, 2, "full"), "formula") == 5
        assert count_idempotents(WreathContext(Z2, 2, "full"), "brute") == 5
        assert count_idempotents(WreathContext(T1, 3, "full"), "brute") == 10
        assert count_idempotents(WreathContext(Z2, 2, "singular"), "formula") == 4

    def test_group_specialization(self, Z2, Z3):
        # a group has one idempotent e with |Ge| = |G|: the formula becomes
        # sum_k C(n,k) (k |G|)^(n-k)
        for G in (Z2, Z3):
            for n in (2, 3):
                assert count_idempotents(WreathContext(G, n, "full"), "formula") == sum(
                    comb(n, k) * (k * G.order) ** (n - k) for k in range(1, n + 1)
                )

    def test_brute_capacity_bound(self, T2):
        ctx = WreathContext(T2, 6, "full")
        with pytest.raises(CapacityError):
            count_idempotents(ctx, "brute")

    def test_brute_capacity_checked_before_enumeration(self, T2, monkeypatch):
        def refuse(*args):
            raise AssertionError("T_n enumerated before the budget check")

        monkeypatch.setattr(wreath, "enumerate_Tn", refuse)
        for part, n_trans in (("full", 7**7), ("singular", 7**7 - 5040)):
            with pytest.raises(CapacityError) as exc:
                count_idempotents(WreathContext(T2, 7, part), "brute")
            assert exc.value.count == 4**7 * n_trans

    def test_formula_equals_brute_all_monoids_up_to_order4(self):
        # exhaustive oracle over one representative per isomorphism class, up
        # to n = 4, the domain of the benchmark's --check jobs
        for table in monoid_census(4):
            m = len(table)
            M = validate_monoid([f"m{i}" for i in range(m)], 0, [list(r) for r in table])
            for n in (2, 3, 4):
                for part in ("full", "singular"):
                    ctx = WreathContext(M, n, part)
                    assert count_idempotents(ctx, "formula") == count_idempotents(
                        ctx, "brute"
                    )

    @pytest.mark.parametrize("part", ["full", "singular"])
    @pytest.mark.parametrize("name", ["@Z2", "@B01", "@Z3", "@N3", "@RZ1"])
    def test_formula_equals_brute_at_degree5(self, name, part):
        ctx = WreathContext(fixture(name), 5, part)
        assert count_idempotents(ctx, "brute") == count_idempotents(ctx, "formula")

    def test_brute_at_degree1_counts_the_base_idempotents(self):
        for M in _census_monoids(4) + _fixtures():
            ctx = WreathContext(M, 1, "full")
            assert count_idempotents(ctx, "brute") == len(M.idempotents())

    @pytest.mark.parametrize("part", ["full", "singular"])
    def test_pairs_one_per_idempotent_transformation(self, T2, part):
        # the all-identity tuple passes over every idempotent t, so each
        # appears, in element order, with its tuples ascending
        found = list(wreath._idempotent_search(WreathContext(T2, 3, part)))
        assert [t for t, _, _ in found] == [t for t in enumerate_Tn(3, part) if is_idempotent(t)]
        for _, prefixes, values in found:
            tuples = [p + (x,) for p, xs in zip(prefixes, values) for x in xs]
            assert (T2.identity,) * 3 in tuples
            assert tuples == sorted(set(tuples))

    @pytest.mark.parametrize("part", ["full", "singular"])
    def test_maps_equal_the_filtered_part(self, part):
        for n in range(1, 7):
            want = [t for t in enumerate_Tn(n, part) if is_idempotent(t)]
            assert _idempotent_maps(n, part) == want

    @pytest.mark.parametrize("part", ["full", "singular"])
    def test_search_visits_the_reference_maps(self, T1, T2, part):
        # the maps do not depend on the monoid: T1 reaches the bound's degree
        for n in range(1 if part == "full" else 2, 8):
            assert _searched_maps(T1, n, part) == _idempotent_maps(n, part)
        for n in range(2, 5):
            assert _searched_maps(T2, n, part) == _idempotent_maps(n, part)

    def test_maps_at_degree7(self):
        # an idempotent fixes its image, a set of k points, and sends each of
        # the other 7 - k points into it; the identity is the one permutation
        count = sum(comb(7, k) * k ** (7 - k) for k in range(1, 8))
        assert count == 6322
        assert len(_idempotent_maps(7, "full")) == count
        assert len(_idempotent_maps(7, "singular")) == count - 1

    def test_brute_count_at_degree7_holds_no_T7(self, T1):
        # the maps are grown, so the 823,543 maps of T_7 are never held: the
        # count peaks near 7 KB, where materialising them peaks past 80 MiB
        ctx = WreathContext(T1, 7, "full")
        tracemalloc.start()
        try:
            count = count_idempotents(ctx, "brute")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 6322
        assert peak < 8 * 2**20

    def test_formula_degree_budget(self, Z2):
        n = MAX_FORMULA_DEGREE
        assert count_idempotents(WreathContext(Z2, n, "full")) == sum(
            comb(n, k) * (2 * k) ** (n - k) for k in range(1, n + 1)
        )
        with pytest.raises(CapacityError) as exc:
            count_idempotents(WreathContext(Z2, n + 1, "singular"))
        assert str(exc.value) == f"degree {n + 1} outside the formula's range 1..{n}"


class TestAgainstReference:
    @pytest.mark.parametrize("part", ["full", "singular"])
    def test_formula_equals_tuple_sum_on_census(self, part):
        for M in _census_monoids(4):
            for n in range(2, 7):
                ctx = WreathContext(M, n, part)
                assert count_idempotents(ctx, "formula") == _count_formula_by_tuples(ctx)

    @pytest.mark.parametrize("part", ["full", "singular"])
    def test_formula_equals_tuple_sum_on_fixtures(self, part):
        for M in _fixtures():
            for n in range(1 if part == "full" else 2, 9):
                ctx = WreathContext(M, n, part)
                assert count_idempotents(ctx, "formula") == _count_formula_by_tuples(ctx)

    @pytest.mark.parametrize("part", ["full", "singular"])
    def test_listing_equals_filter(self, part):
        order4 = tuple(M for M in _census_monoids(4) if M.order == 4)
        cases = [(M, n) for M in _census_monoids(3) + _fixtures() for n in (2, 3, 4)]
        cases += [(M, n) for M in order4 for n in (1, 2, 3) if n > 1 or part == "full"]
        for M, n in cases:
            ctx = WreathContext(M, n, part)
            listed = idempotent_elements(ctx)
            assert listed == _idempotents_by_filter(ctx)
            assert count_idempotents(ctx, "brute") == len(listed)

    @pytest.mark.parametrize("name, n, part, count, digest", [
        ("@T2", 3, "full", 189, "23722ad38ca59c51e7020c6f4f8c511ea1b249f8caeaf324a27cf4e579c8cf23"),
        ("@RZ1", 4, "singular", 1352,
         "43aeb59796096592b3e84a341ef16de9592b096145bcd16f786a2e2618178393"),
        ("@N3", 3, "full", 86, "2b1be540bfb06f16181ffc70aea65af769e2971b07a1a078c7cf969d7ff9f25e"),
    ])
    def test_listing_digest(self, name, n, part, count, digest):
        # the --list order, fixed by a number as well as by the filter
        listed = idempotent_elements(WreathContext(fixture(name), n, part))
        assert len(listed) == count
        assert hashlib.sha256(repr(listed).encode()).hexdigest() == digest

    def test_listing_builds_only_idempotents(self, T2, monkeypatch):
        def refuse(self):
            raise AssertionError("every element built")

        monkeypatch.setattr(WreathContext, "elements", refuse)
        ctx = WreathContext(T2, 3, "full")
        assert count_idempotents(ctx, "brute") == len(idempotent_elements(ctx)) == 189


class TestFamilies:
    def test_sizes(self, Z2, B01):
        ctx = WreathContext(B01, 2, "singular")
        assert len(gen_family(ctx, "X1")) == 4
        ctx3 = WreathContext(B01, 3, "singular")
        assert len(gen_family(ctx3, "X")) == 6
        ctxz = WreathContext(Z2, 2, "singular")
        assert len(gen_family(ctxz, "Xn")) == 8

    def test_size_formulas(self, Z2, RZ1):
        for M in (Z2, RZ1):
            for n in (2, 3):
                ctx = WreathContext(M, n, "singular")
                m = M.order
                assert len(gen_family(ctx, "X")) == 2 * comb(n, 2)
                assert len(gen_family(ctx, "X1")) == 2 * m * comb(n, 2)
                assert len(gen_family(ctx, "X2")) == 2 * m * m * comb(n, 2)
                assert len(gen_family(ctx, "Xn")) == 2 * m**n * comb(n, 2)

    def test_nesting(self, Z2):
        ctx = WreathContext(Z2, 3, "singular")
        X = set(gen_family(ctx, "X"))
        X1 = set(gen_family(ctx, "X1"))
        X2 = set(gen_family(ctx, "X2"))
        Xn = set(gen_family(ctx, "Xn"))
        assert X <= X1 <= X2 <= Xn

    def test_x1_all_idempotent(self, RZ1):
        ctx = WreathContext(RZ1, 3, "singular")
        assert all(ctx.multiply(x, x) == x for x in gen_family(ctx, "X1"))


class TestSigma:
    def test_incomparable_entries(self, RZ1):
        ctx = WreathContext(RZ1, 2, "singular")
        x = ctx.element((RZ1.labels.index("x"), RZ1.labels.index("y")), epsilon(2, 1, 2))
        assert not sigma_membership(ctx, x)

    def test_comparable_entries(self, B01):
        ctx = WreathContext(B01, 2, "singular")
        x = ctx.element((B01.labels.index("0"), B01.labels.index("1")), epsilon(2, 1, 2))
        assert sigma_membership(ctx, x)

    def test_ones_always_member(self, RZ1):
        ctx = WreathContext(RZ1, 2, "singular")
        for t in enumerate_Tn(2, "singular"):
            assert sigma_membership(ctx, ctx.element((0, 0), t))

    def test_rejects_permutations(self, Z2):
        ctx = WreathContext(Z2, 2, "singular")
        with pytest.raises(PreconditionError):
            sigma_membership(ctx, ctx.element((0, 0), identity(2)))

    def test_matches_idempotent_closure(self, RZ1, T2):
        # Sigma is exactly the subsemigroup generated by all idempotents
        for M in (RZ1, T2):
            ctx = WreathContext(M, 2, "singular")
            elems = ctx.elements()
            idem = [x for x in elems if ctx.multiply(x, x) == x]
            generated = set(close(idem, ctx.multiply).elements)
            sigma = {x for x in elems if sigma_membership(ctx, x)}
            assert generated == sigma
