import itertools

from wreathbench import close, compose, enumerate_Tn, full_transformation_monoid, green, idempotent_generated_part, is_L_chain
from wreathbench.green import has_unit_complement_E, incomparable_L_witness

from conftest import rank_one_less_idempotents


def kernel_pairs(x):
    """The pairs (i, j) that x maps to the same point."""
    return {(i, j) for i, a in enumerate(x.images) for j, b in enumerate(x.images) if a == b}


class TestPreorders:
    def test_b01_left_order(self, B01):
        # oracle: M.0 = {0}, M.1 = M
        g = green(B01)
        one, zero = B01.labels.index("1"), B01.labels.index("0")
        assert g.leq_L[zero][one] and not g.leq_L[one][zero]
        assert g.classes_L == ((0,), (1,))

    def test_group_single_classes(self, Z3):
        g = green(Z3)
        for classes in (g.classes_L, g.classes_R, g.classes_J, g.classes_H, g.classes_D):
            assert classes == ((0, 1, 2),)

    def test_t3_epsilon_L_related_iff_same_target(self):
        # oracle on T_3: a <=_L b iff im(a) is a subset of im(b),
        # a <=_R b iff ker(a) contains ker(b), a <=_J b iff rank(a) <= rank(b)
        T3 = full_transformation_monoid(3)
        elems = enumerate_Tn(3)
        g = green(T3)
        for a, x in enumerate(elems):
            for b, y in enumerate(elems):
                assert g.leq_L[a][b] == (x.image() <= y.image())
                assert g.leq_R[a][b] == (kernel_pairs(x) >= kernel_pairs(y))
                assert g.leq_J[a][b] == (x.rank() <= y.rank())
        # eps maps with the same moved point are L-related
        from wreathbench import epsilon

        i12 = elems.index(epsilon(3, 1, 2))
        i32 = elems.index(epsilon(3, 3, 2))
        assert g.leq_L[i12][i32] and g.leq_L[i32][i12]
        i21 = elems.index(epsilon(3, 2, 1))
        assert not (g.leq_L[i12][i21] and g.leq_L[i21][i12])

    def test_d_equals_j_on_finite_carriers(self, Z2, B01, RZ1, T2):
        from wreathbench import WreathContext, gen_family

        carriers = [green(M) for M in (Z2, B01, RZ1, T2)]
        ctx = WreathContext(Z2, 2, "singular")
        wreath = close(gen_family(ctx, "X2"), ctx.multiply)
        carriers.append(green(wreath))
        sing3 = close(rank_one_less_idempotents(3), compose)
        carriers.append(green(sing3))
        for g in carriers:
            assert sorted(g.classes_D) == sorted(g.classes_J)

    def test_enumerated_semigroup_without_identity(self):
        sing2 = close(rank_one_less_idempotents(2), compose)
        g = green(sing2)
        # right-zero semigroup: one L-class per element, all R-related
        assert len(g.classes_L) == 2
        assert g.classes_R == ((0, 1),)


class TestChain:
    def test_values(self, Z2, Z3, B01, T1, RZ1, T2):
        for M in (Z2, Z3, B01, T1):
            assert is_L_chain(M)
        for M in (RZ1, T2):
            assert not is_L_chain(M)

    def test_against_ideal_inclusion_oracle(self, Z2, B01, RZ1, T2, N3):
        # independent oracle: pairwise comparability of principal left ideals
        for M in (Z2, B01, RZ1, T2, N3):
            ideals = [frozenset(M.multiply(x, a) for x in range(M.order)) for a in range(M.order)]
            chain = all(
                p <= q or q <= p for p, q in itertools.combinations(ideals, 2)
            )
            assert is_L_chain(M) == chain

    def test_witness(self, RZ1):
        a, b = incomparable_L_witness(RZ1)
        assert {RZ1.labels[a], RZ1.labels[b]} == {"x", "y"}


class TestIdempotentPart:
    def test_t2(self, T2):
        part = idempotent_generated_part(T2)
        assert sorted(T2.labels[i] for i in part.elements) == ["11", "12", "22"]

    def test_group_is_trivial(self, Z2):
        assert list(idempotent_generated_part(Z2).elements) == [Z2.identity]

    def test_b01_everything(self, B01):
        assert sorted(idempotent_generated_part(B01).elements) == [0, 1]

    def test_unit_complement_condition(self, Z2, B01, RZ1, T2, N3):
        for M, expected in ((Z2, True), (B01, True), (RZ1, True), (T2, True), (N3, False)):
            ok, witness = has_unit_complement_E(M)
            assert ok == expected
        ok, witness = has_unit_complement_E(N3)
        assert N3.labels[witness] == "a"
