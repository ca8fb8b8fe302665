import itertools
import json

import pytest

from wreathbench import fixture, full_transformation_monoid, power_monoid, submonoid, units, validate_monoid
from wreathbench import EnumeratedSemigroup, compose, enumerate_Tn, identity, monoids
from wreathbench.errors import CapacityError, MonoidValidationError
from wreathbench.monoids import FIXTURES, ORDER_LIMIT, load_monoid, monoid_from_dict


class TestValidate:
    def test_z2_accepted(self):
        M = validate_monoid(["1", "g"], 0, [[0, 1], [1, 0]])
        assert M.order == 2 and M.multiply(1, 1) == 0

    def test_corrupted_table_rejected(self):
        # {1,0} with the identity row corrupted: 1*0 comes back as 1
        with pytest.raises(MonoidValidationError) as exc:
            validate_monoid(["1", "0"], 0, [[0, 0], [1, 1]])
        assert exc.value.witness is not None

    def test_right_zero_adjoin_identity_accepted(self):
        M = validate_monoid(["1", "x", "y"], 0, [[0, 1, 2], [1, 1, 2], [2, 1, 2]])
        # oracle: all 27 triples associate
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert M.multiply(M.multiply(i, j), k) == M.multiply(i, M.multiply(j, k))

    def test_associativity_error_names_triple(self):
        # a non-associative unital magma: 3 elements, (1*1)*2 != 1*(1*2)
        with pytest.raises(MonoidValidationError) as exc:
            validate_monoid(["e", "a", "b"], 0, [[0, 1, 2], [1, 2, 1], [2, 1, 1]])
        assert exc.value.witness == (1, 1, 1) or isinstance(exc.value.witness, tuple)

    def test_right_identity_only_rejected(self):
        # left-zero semigroup {a, b}: a is a right identity but not a left one
        with pytest.raises(MonoidValidationError) as exc:
            validate_monoid(["a", "b"], 0, [[0, 0], [1, 1]])
        assert "identity" in str(exc.value)

    def test_shape_errors(self):
        with pytest.raises(MonoidValidationError):
            validate_monoid(["1"], 0, [[0, 0]])
        with pytest.raises(MonoidValidationError):
            validate_monoid(["1", "g"], 0, [[0, 1], [1, 5]])
        with pytest.raises(MonoidValidationError):
            validate_monoid(["1", "1"], 0, [[0, 1], [1, 0]])
        with pytest.raises(MonoidValidationError):
            validate_monoid(["1", "g"], 7, [[0, 1], [1, 0]])

    def test_order_over_the_limit_refused_first(self):
        # no row is read: a malformed identity or table is not reached
        labels = [str(i) for i in range(ORDER_LIMIT + 1)]
        for identity, table in ((0, [[0] * 3]), (-1, 5), (0, [[0] * 257] * 257)):
            with pytest.raises(CapacityError) as exc:
                validate_monoid(labels, identity, table)
            assert exc.value.count == 257
            assert str(exc.value) == "monoid order over the limit 256 (reached 257)"

    def test_orders_up_to_the_limit_validate(self):
        T4 = full_transformation_monoid(4)
        assert T4.order == ORDER_LIMIT
        M = validate_monoid(T4.labels, T4.identity, [list(row) for row in T4.table])
        assert M.table == T4.table
        with pytest.raises(MonoidValidationError):
            validate_monoid(T4.labels, T4.identity, T4.table[:-1])


def monoid_dict(M):
    """M in the monoid file format."""
    return {"name": M.name, "elements": list(M.labels), "identity": M.identity,
            "table": [list(row) for row in M.table]}


class TestFileFormat:
    def test_round_trip(self, tmp_path, T2):
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(monoid_dict(T2)))
        loaded = load_monoid(path)
        assert loaded.table == T2.table and loaded.labels == T2.labels

    def test_unknown_keys_rejected(self):
        data = monoid_dict(fixture("@Z2"))
        data["extra"] = 1
        with pytest.raises(MonoidValidationError) as exc:
            monoid_from_dict(data)
        assert "extra" in str(exc.value)

    def test_missing_key_rejected(self):
        with pytest.raises(MonoidValidationError):
            monoid_from_dict({"elements": ["1"], "identity": 0})


class TestUnits:
    def test_t2_units_are_the_permutations(self, T2):
        G = units(T2)
        assert len(G) == 2
        assert all(T2.labels[u] in ("12", "21") for u in G)

    def test_b01(self, B01):
        assert units(B01) == (B01.identity,)

    def test_group(self, Z2):
        assert units(Z2) == (0, 1)
        assert len(units(Z2)) == Z2.order

    def test_units_form_a_group(self, T2, B01, RZ1, N3):
        for M in (T2, B01, RZ1, N3):
            G = set(units(M))
            assert M.identity in G
            for a in G:
                assert any(M.table[a][b] == M.identity == M.table[b][a] for b in G)
                for b in G:
                    assert M.table[a][b] in G


class TestConstructions:
    def test_submonoid_of_units(self, T2):
        sub = submonoid(T2, units(T2))
        assert sub.order == 2
        assert len(units(sub)) == sub.order
        assert [T2.labels[c] for c in sub.elements] == list(sub.labels)

    def test_submonoid_rejects_non_closed(self, T2):
        sigma = T2.labels.index("21")
        with pytest.raises(MonoidValidationError):
            submonoid(T2, [T2.identity, T2.labels.index("11"), sigma])

    def test_power_monoid(self, Z2):
        P = power_monoid(Z2, 2)
        assert P.order == 4
        g = Z2.labels.index("g")
        i = P.labels.index("(g,1)")
        j = P.labels.index("(g,g)")
        assert P.table[i][j] == P.labels.index("(1,g)")
        validate_monoid(P.labels, P.identity, P.table)

    def test_full_transformation_monoid(self):
        T3 = full_transformation_monoid(3)
        assert T3.order == 27
        validate_monoid(T3.labels, T3.identity, T3.table)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_transformation_monoid_by_compose(self, n):
        # reference: positions in lexicographic image order, products by compose
        elems = enumerate_Tn(n, "full")
        pos = {t: i for i, t in enumerate(elems)}
        T = full_transformation_monoid(n)
        assert T.table == tuple(tuple(pos[compose(s, t)] for t in elems) for s in elems)
        assert T.identity == pos[identity(n)]
        assert T.labels == tuple("".join(str(v) for v in t) for t in elems)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_transformation_monoid_keeps_image_tuples(self, n):
        # reference: T_n relabelled onto its positions 0..n^n-1 as a table
        S = EnumeratedSemigroup(enumerate_Tn(n, "full"), compose)
        labels = ["".join(str(v) for v in t) for t in S.elements]
        ref = validate_monoid(labels, S.identity, S.table, name=f"T{n}")
        T = full_transformation_monoid(n)
        assert T.elements == sorted(itertools.product(range(1, n + 1), repeat=n))
        assert (T.labels, T.name) == (ref.labels, ref.name)
        assert (T.table, T.identity) == (ref.table, ref.identity)

    def test_table_fixtures_are_validated(self, monkeypatch):
        # every fixture given by a table is built through validate_monoid,
        # once; T1 and T2 are built from their transformations
        seen, validate = [], monoids.validate_monoid

        def spy(labels, identity, table, name=""):
            seen.append(name)
            return validate(labels, identity, table, name)

        monkeypatch.setattr(monoids, "validate_monoid", spy)
        fixture.cache_clear()
        try:
            for key in sorted(FIXTURES):
                fixture("@" + key)
        finally:
            fixture.cache_clear()
        assert sorted(seen) == ["B01", "N3", "RZ1", "Z2", "Z3"]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("n", [1, 2])
    def test_power_monoid_coordinatewise(self, name, n):
        # reference: positions in odometer order, coordinatewise products
        M = fixture(name)
        tuples = list(itertools.product(range(M.order), repeat=n))
        pos = {t: i for i, t in enumerate(tuples)}
        P = power_monoid(M, n)
        assert P.elements == tuples
        assert P.table == tuple(
            tuple(pos[tuple(M.table[a[i]][b[i]] for i in range(n))] for b in tuples)
            for a in tuples
        )
        assert P.identity == pos[(M.identity,) * n]


def _relabelled_submonoid(M, indices, name=""):
    """Reference: the subset relabelled onto the Cayley monoid on 0..k-1, in
    the order of its sorted M-positions, refused as submonoid refuses it."""
    carrier = sorted(set(indices))
    if M.identity not in carrier:
        raise MonoidValidationError("subset does not contain the identity")
    pos = {m: i for i, m in enumerate(carrier)}
    table = []
    for a in carrier:
        row = []
        for b in carrier:
            c = M.table[a][b]
            if c not in pos:
                raise MonoidValidationError(
                    f"subset not closed: {M.labels[a]}*{M.labels[b]} escapes", witness=(a, b)
                )
            row.append(pos[c])
        table.append(tuple(row))
    labels = tuple(M.labels[m] for m in carrier)
    return validate_monoid(labels, pos[M.identity], tuple(table), name or M.name)


def _refusal(build, M, indices):
    with pytest.raises(MonoidValidationError) as exc:
        build(M, indices)
    return str(exc.value), exc.value.witness


class TestSubmonoid:
    """submonoid keeps M's positions as its elements; its table, identity,
    labels and name are those of the relabel onto 0..k-1."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_subset_with_the_identity(self, name):
        M = fixture(name)
        others = [x for x in range(M.order) if x != M.identity]
        for k in range(len(others) + 1):
            for rest in itertools.combinations(others, k):
                indices = list(rest) + [M.identity, M.identity]  # unsorted, repeated
                try:
                    ref = _relabelled_submonoid(M, indices)
                except MonoidValidationError:
                    assert (_refusal(submonoid, M, indices)
                            == _refusal(_relabelled_submonoid, M, indices))
                    continue
                sub = submonoid(M, indices)
                assert sub.elements == sorted(set(indices))
                assert (sub.table, sub.identity) == (ref.table, ref.identity)
                assert (sub.labels, sub.name) == (ref.labels, ref.name)
                assert submonoid(M, indices, name="S").name == "S"

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_subset_without_the_identity(self, name):
        M = fixture(name)
        others = [x for x in range(M.order) if x != M.identity]
        got = _refusal(submonoid, M, others)
        assert got == _refusal(_relabelled_submonoid, M, others)
        assert got == ("subset does not contain the identity", None)

    def test_non_closed_witness(self, T2):
        # 11*21 = 22 escapes {11, 12, 21}, and 11 and 21 are the first such pair
        indices = [T2.identity, T2.labels.index("11"), T2.labels.index("21")]
        got = _refusal(submonoid, T2, indices)
        assert got == _refusal(_relabelled_submonoid, T2, indices)
        assert got == ("subset not closed: 11*21 escapes",
                       (T2.labels.index("11"), T2.labels.index("21")))
