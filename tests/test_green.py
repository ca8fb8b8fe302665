import itertools
import tracemalloc
from dataclasses import fields

from wreathbench import close, compose, enumerate_Tn, full_transformation_monoid, green, idempotent_generated_part, is_L_chain
from wreathbench import GreenData, fixture, sing_target, validate_monoid, wreath_sing_target
from wreathbench.green import e_part_indices, has_unit_complement_E, incomparable_L_witness
from wreathbench.monoids import FIXTURES
from wreathbench.transformations import rank

from conftest import gen_family, monoid_census, rank_one_less_idempotents


def kernel_pairs(x):
    """The pairs (i, j) that x maps to the same point."""
    return {(i, j) for i, a in enumerate(x) for j, b in enumerate(x) if a == b}


def _classes_by_relation(n, related):
    """Classes collected by pairwise relation tests, each from its least
    unseen element."""
    seen = [False] * n
    classes = []
    for a in range(n):
        if seen[a]:
            continue
        cls = [b for b in range(n) if related(a, b)]
        for b in cls:
            seen[b] = True
        classes.append(tuple(sorted(cls)))
    return tuple(classes)


def _reference_ideals(S):
    """The principal right, left and two-sided ideals over S^1, as sets."""
    prod = S.table
    n = len(prod)
    has_one = S.identity is not None
    right, left = [], []
    for a in range(n):
        ra = set(prod[a])
        la = set(prod[x][a] for x in range(n))
        if not has_one:
            ra.add(a)
            la.add(a)
        right.append(ra)
        left.append(la)
    two = []
    for a in range(n):
        ja = set()
        for b in right[a]:
            ja |= left[b]
        two.append(ja | right[a] | left[a])
    return right, left, two


def _related(ideals):
    """a and b are related when each is in the other's ideal."""
    return lambda a, b: a in ideals[b] and b in ideals[a]


def _green_by_relations(S):
    """Reference: the same ideals as sets, with every class found by pairwise
    tests of its relation; the ideals become bitsets only to compare."""
    right, left, two = _reference_ideals(S)
    n = len(right)
    return GreenData(
        left=tuple(sum(1 << a for a in ideal) for ideal in left),
        two=tuple(sum(1 << a for a in ideal) for ideal in two),
        classes_L=_classes_by_relation(n, _related(left)),
        classes_R=_classes_by_relation(n, _related(right)),
        classes_J=_classes_by_relation(n, _related(two)),
    )


def _d_classes_by_composite(S):
    """The D-classes of S as the composite of R and L of the reference: a D b
    iff a R c L b for some c."""
    right, left, _ = _reference_ideals(S)
    n = len(right)
    rel_r, rel_l = _related(right), _related(left)
    return sorted(
        {
            tuple(b for b in range(n) if any(rel_r(a, c) and rel_l(c, b) for c in range(n)))
            for a in range(n)
        }
    )


def _below(ideals, a, b):
    """a lies below b in the preorder whose principal ideals are ``ideals``."""
    return bool(ideals[b] >> a & 1)


def _reference_semigroups():
    """Census monoids of order <=4, the fixtures, T3, wreath targets, Sing_3
    and Sing_4: monoids and semigroups without an identity."""
    out = [validate_monoid([f"m{i}" for i in range(len(t))], 0, t) for t in monoid_census(4)]
    out += [fixture(f"@{k}") for k in sorted(FIXTURES)]
    out.append(full_transformation_monoid(3))
    out += [wreath_sing_target(fixture(k), 2) for k in ("@Z2", "@B01", "@T2", "@RZ1")]
    out += [wreath_sing_target(fixture("@Z2"), 3), sing_target(3), sing_target(4)]
    return out


class TestAgainstReference:
    def test_same_green_data(self):
        for S in _reference_semigroups():
            got, want = green(S), _green_by_relations(S)
            for f in fields(GreenData):
                assert getattr(got, f.name) == getattr(want, f.name), (S, f.name)


class TestPreorders:
    def test_b01_left_order(self, B01):
        # oracle: M.0 = {0}, M.1 = M
        g = green(B01)
        one, zero = B01.labels.index("1"), B01.labels.index("0")
        assert _below(g.left, zero, one) and not _below(g.left, one, zero)
        assert g.classes_L == ((0,), (1,))

    def test_group_single_classes(self, Z3):
        g = green(Z3)
        for classes in (g.classes_L, g.classes_R, g.classes_J):
            assert classes == ((0, 1, 2),)

    def test_t3_epsilon_L_related_iff_same_target(self):
        # oracle on T_3: a <=_L b iff im(a) is a subset of im(b),
        # a <=_J b iff rank(a) <= rank(b), a R b iff ker(a) = ker(b)
        T3 = full_transformation_monoid(3)
        elems = enumerate_Tn(3)
        g = green(T3)
        for a, x in enumerate(elems):
            for b, y in enumerate(elems):
                assert _below(g.left, a, b) == (set(x) <= set(y))
                assert _below(g.two, a, b) == (rank(x) <= rank(y))
        by_kernel = {}
        for a, x in enumerate(elems):
            by_kernel.setdefault(frozenset(kernel_pairs(x)), []).append(a)
        assert g.classes_R == tuple(tuple(cls) for cls in by_kernel.values())
        # eps maps with the same moved point are L-related
        from wreathbench import epsilon

        i12 = elems.index(epsilon(3, 1, 2))
        i32 = elems.index(epsilon(3, 3, 2))
        assert _below(g.left, i12, i32) and _below(g.left, i32, i12)
        i21 = elems.index(epsilon(3, 2, 1))
        assert not (_below(g.left, i12, i21) and _below(g.left, i21, i12))

    def test_d_equals_j_on_finite_carriers(self, Z2, B01, RZ1, T2):
        from wreathbench import WreathContext

        carriers = [Z2, B01, RZ1, T2]
        ctx = WreathContext(Z2, 2, "singular")
        carriers.append(close(gen_family(ctx, "X2"), ctx.multiply))
        carriers.append(close(rank_one_less_idempotents(3), compose))
        for S in carriers:
            assert sorted(green(S).classes_J) == _d_classes_by_composite(S)

    def test_enumerated_semigroup_without_identity(self):
        sing2 = close(rank_one_less_idempotents(2), compose)
        g = green(sing2)
        # right-zero semigroup: one L-class per element, all R-related
        assert len(g.classes_L) == 2
        assert g.classes_R == ((0, 1),)


class TestFootprint:
    def test_sing4_peak_under_a_mebibyte(self):
        # the ideals are bitsets and no n x n matrix is built, so green on
        # Sing_4 (232 elements) peaks near 0.05 MiB; the table is built first
        S = sing_target(4)
        S.table
        tracemalloc.start()
        try:
            green(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestChain:
    def test_values(self, Z2, Z3, B01, T1, RZ1, T2):
        for M in (Z2, Z3, B01, T1):
            assert is_L_chain(M)
        for M in (RZ1, T2):
            assert not is_L_chain(M)

    def test_against_ideal_inclusion_oracle(self, Z2, B01, RZ1, T2, N3):
        # independent oracle: pairwise comparability of principal left ideals
        for M in (Z2, B01, RZ1, T2, N3):
            ideals = [frozenset(M.table[x][a] for x in range(M.order)) for a in range(M.order)]
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
        assert sorted(T2.labels[T2.index[x]] for x in part.elements) == ["11", "12", "22"]

    def test_group_is_trivial(self, Z2):
        assert list(idempotent_generated_part(Z2).elements) == [Z2.identity]

    def test_b01_everything(self, B01):
        assert sorted(idempotent_generated_part(B01).elements) == [0, 1]

    def test_semigroups_of_values(self):
        # closed over element values, not positions; no identity is added
        for S, size in ((wreath_sing_target(fixture("@Z2"), 2), 8), (sing_target(3), 21)):
            assert len(idempotent_generated_part(S)) == size
            assert e_part_indices(S) == frozenset(range(size))

    def test_unit_complement_condition(self, Z2, B01, RZ1, T2, N3):
        for M, expected in ((Z2, True), (B01, True), (RZ1, True), (T2, True), (N3, False)):
            ok, witness = has_unit_complement_E(M)
            assert ok == expected
        ok, witness = has_unit_complement_E(N3)
        assert N3.labels[witness] == "a"
