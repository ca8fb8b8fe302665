import itertools
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from wreathbench import compose, enumerate_Tn, epsilon, identity, transformation, transformation_props
from wreathbench.errors import CapacityError, DegreeMismatch
from wreathbench.transformations import Transformation


def t(*images):
    return transformation(images)


class TestCompose:
    def test_identity_left_factor(self):
        assert compose(t(1, 2, 3), t(1, 1, 2)) == t(1, 1, 2)

    def test_direct_evaluation(self):
        # oracle: i -> t2[t1[i]] pointwise
        t1, t2 = t(2, 1, 3), t(1, 1, 2)
        expected = tuple(t2.images[v - 1] for v in t1.images)
        assert compose(t1, t2).images == expected == (1, 1, 2)

    def test_idempotent_squared(self):
        assert compose(t(1, 1, 3), t(1, 1, 3)) == t(1, 1, 3)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch) as exc:
            compose(t(1, 2), t(1, 1, 2))
        assert exc.value.left == 2 and exc.value.right == 3

    def test_left_to_right_order(self):
        # 1 -> 2 under the first map, then 2 -> 3 under the second
        assert compose(t(2, 1, 3), t(1, 3, 2)).images[0] == 3

    def test_associative_exhaustive_small(self):
        for n in (2, 3):
            elems = enumerate_Tn(n)
            for a, b, c in itertools.product(elems, repeat=3):
                assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_associative_exhaustive_degree4(self):
        import numpy as np

        elems = enumerate_Tn(4)
        pos = {x: i for i, x in enumerate(elems)}
        table = np.array(
            [[pos[compose(a, b)] for b in elems] for a in elems], dtype=np.int16
        )
        left = table[table, :]  # [i,j,k] -> table[table[i,j], k]
        right = table[:, table]  # [i,j,k] -> table[i, table[j,k]]
        assert np.array_equal(left, right)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(*[
                st.tuples(*[st.integers(1, n)] * n) for _ in range(3)
            ])
        )
    )
    def test_associative_random(self, triple):
        a, b, c = (Transformation(x) for x in triple)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestProps:
    def test_spec_example(self):
        props = transformation_props(t(1, 1, 3))
        assert props.image == frozenset({1, 3})
        assert props.kernel == ((1, 2), (3,))
        assert props.rank == 2
        assert props.idempotent

    def test_permutation_not_idempotent(self):
        props = transformation_props(t(2, 1))
        assert props.image == frozenset({1, 2})
        assert props.rank == 2
        assert not props.idempotent

    def test_identity(self):
        for n in range(1, 6):
            props = transformation_props(identity(n))
            assert props.rank == n and props.idempotent

    def test_idempotent_iff_fixes_image(self):
        # oracle: compare the flag against literal squaring
        for x in enumerate_Tn(3):
            assert x.is_idempotent() == (compose(x, x) == x)


class TestEpsilon:
    def test_values(self):
        assert epsilon(3, 1, 2) == t(1, 1, 3)
        assert epsilon(2, 2, 1) == t(2, 2)
        assert epsilon(4, 3, 4) == t(1, 2, 3, 3)

    def test_idempotent_of_corank_one(self):
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    e = epsilon(n, i, j)
                    assert e.is_idempotent()
                    assert e.rank() == n - 1

    def test_errors(self):
        with pytest.raises(ValueError):
            epsilon(3, 2, 2)
        with pytest.raises(ValueError):
            epsilon(3, 0, 2)
        with pytest.raises(ValueError):
            epsilon(3, 1, 4)


class TestEnumerate:
    def test_singular_degree2(self):
        assert [x.images for x in enumerate_Tn(2, "singular")] == [(1, 1), (2, 2)]

    def test_counts(self):
        for n in (1, 2, 3, 4):
            assert len(enumerate_Tn(n, "full")) == n**n
            assert len(enumerate_Tn(n, "singular")) == n**n - factorial(n)

    def test_singular_empty_below_degree2(self):
        assert enumerate_Tn(1, "singular") == []

    def test_lexicographic_order(self):
        elems = enumerate_Tn(3, "full")
        assert [x.images for x in elems] == sorted(x.images for x in elems)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_Tn(8)

    def test_documented_bound_degree7(self):
        # degree 7 passes the capacity check: the unknown part is what fails
        with pytest.raises(ValueError, match="unknown part"):
            enumerate_Tn(7, "symmetric")

    def test_idempotent_count_formula(self):
        # brute count against sum_k C(n,k) k^(n-k), degrees up to 5
        for n in range(1, 6):
            brute = sum(1 for x in enumerate_Tn(n) if x.is_idempotent())
            assert brute == sum(comb(n, k) * k ** (n - k) for k in range(1, n + 1))
