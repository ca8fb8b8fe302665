import itertools
import random
from math import comb

import pytest

from wreathbench import (
    WreathContext,
    close,
    count_idempotents,
    decompose_E,
    eps_a,
    eps_ab,
    epsilon,
    gen_family,
    is_wr_idempotent,
    sigma_membership,
    validate_monoid,
    wr_multiply,
)
from wreathbench.errors import PreconditionError
from wreathbench.transformations import enumerate_Tn, identity

from conftest import monoid_census


class TestMultiply:
    def test_worked_example(self, Z2):
        ctx = WreathContext(Z2, 2, "singular")
        g = Z2.labels.index("g")
        x = ctx.element((g, 0), epsilon(2, 1, 2))
        y = ctx.element((0, g), epsilon(2, 2, 1))
        z = wr_multiply(ctx, x, y)
        assert z.tup == (g, 0)
        assert z.trans.images == (2, 2)

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
                target = x.trans.images[k]
                assert z.tup[k] == T2.multiply(x.tup[k], y.tup[target - 1])
            assert z.trans.images == tuple(
                y.trans.images[v - 1] for v in x.trans.images
            )

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
                assert is_wr_idempotent(ctx, eps_a(ctx, i, j, a))

    def test_group_diagonal_not_idempotent(self, Z2):
        ctx = WreathContext(Z2, 2, "full")
        g = Z2.labels.index("g")
        assert not is_wr_idempotent(ctx, ctx.element((g, g), identity(2)))

    def test_ones_tuple_over_idempotent(self, B01):
        ctx = WreathContext(B01, 3, "full")
        for t in enumerate_Tn(3, "full"):
            x = ctx.element((B01.identity,) * 3, t)
            assert is_wr_idempotent(ctx, x) == t.is_idempotent()

    def test_flag_agrees_with_squaring(self, Z2, B01, RZ1):
        for M in (Z2, B01, RZ1):
            ctx = WreathContext(M, 2, "full")
            for x in ctx.elements():
                assert is_wr_idempotent(ctx, x) == (wr_multiply(ctx, x, x) == x)

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
        from wreathbench.errors import CapacityError

        ctx = WreathContext(T2, 6, "full")
        with pytest.raises(CapacityError):
            count_idempotents(ctx, "brute")

    def test_brute_capacity_checked_before_enumeration(self, T2, monkeypatch):
        from wreathbench import wreath
        from wreathbench.errors import CapacityError

        def refuse(*args):
            raise AssertionError("T_n enumerated before the budget check")

        monkeypatch.setattr(wreath, "enumerate_Tn", refuse)
        for part, n_trans in (("full", 7**7), ("singular", 7**7 - 5040)):
            with pytest.raises(CapacityError) as exc:
                count_idempotents(WreathContext(T2, 7, part), "brute")
            assert exc.value.count == 4**7 * n_trans

    def test_formula_equals_brute_all_monoids_up_to_order4(self):
        # exhaustive oracle over one representative per isomorphism class
        for table in monoid_census(4):
            m = len(table)
            M = validate_monoid([f"m{i}" for i in range(m)], 0, [list(r) for r in table])
            for n in (2, 3):
                for part in ("full", "singular"):
                    ctx = WreathContext(M, n, part)
                    assert count_idempotents(ctx, "formula") == count_idempotents(
                        ctx, "brute"
                    )


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
        assert all(is_wr_idempotent(ctx, x) for x in gen_family(ctx, "X1"))


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
            idem = [x for x in elems if is_wr_idempotent(ctx, x)]
            generated = set(close(idem, ctx.multiply).elements)
            sigma = {x for x in elems if sigma_membership(ctx, x)}
            assert generated == sigma


class TestDecompose:
    def test_t2_worked_example(self, T2):
        ctx = WreathContext(T2, 2, "singular")
        e12, sigma = T2.labels.index("11"), T2.labels.index("21")
        x = ctx.element((e12, sigma), epsilon(2, 2, 1))
        e_part, g_part = decompose_E(ctx, x)
        assert [T2.labels[i] for i in e_part.tup] == ["11", "12"]
        assert e_part.trans == identity(2)
        assert [T2.labels[i] for i in g_part.tup] == ["12", "21"]
        assert g_part.trans == x.trans

    def test_all_units_and_no_units(self, T2):
        ctx = WreathContext(T2, 2, "singular")
        sigma = T2.labels.index("21")
        e_part, g_part = decompose_E(ctx, ctx.element((sigma, T2.identity), epsilon(2, 1, 2)))
        assert set(e_part.tup) == {T2.identity}
        e_part, g_part = decompose_E(
            ctx, ctx.element((T2.labels.index("11"), T2.labels.index("22")), epsilon(2, 1, 2))
        )
        assert set(g_part.tup) == {T2.identity}

    def test_multiplies_back_everywhere(self, T2):
        ctx = WreathContext(T2, 2, "singular")
        from wreathbench.green import e_part_indices
        from wreathbench.monoids import units

        E = e_part_indices(T2)
        G = set(units(T2))
        for x in ctx.elements():
            e_part, g_part = decompose_E(ctx, x)
            assert wr_multiply(ctx, e_part, g_part) == x
            assert all(c in E for c in e_part.tup)
            assert all(c in G for c in g_part.tup)

    def test_hypothesis_failure(self, N3):
        ctx = WreathContext(N3, 2, "singular")
        with pytest.raises(PreconditionError) as exc:
            decompose_E(ctx, ctx.element((0, 0), epsilon(2, 1, 2)))
        assert "'a'" in str(exc.value)
