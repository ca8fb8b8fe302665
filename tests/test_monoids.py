import json

import pytest

from wreathbench import fixture, full_transformation_monoid, power_monoid, submonoid, units, validate_monoid
from wreathbench.errors import MonoidValidationError
from wreathbench.monoids import inverse_of, is_group, load_monoid, monoid_from_dict


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
        assert is_group(Z2)

    def test_units_form_a_group(self, T2, B01, RZ1, N3):
        for M in (T2, B01, RZ1, N3):
            G = set(units(M))
            assert M.identity in G
            for a in G:
                assert inverse_of(M, a) in G
                for b in G:
                    assert M.multiply(a, b) in G


class TestConstructions:
    def test_submonoid_of_units(self, T2):
        sub, carrier = submonoid(T2, units(T2))
        assert sub.order == 2
        assert is_group(sub)
        assert [T2.labels[c] for c in carrier] == list(sub.labels)

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
        assert P.multiply(i, j) == P.labels.index("(1,g)")
        validate_monoid(P.labels, P.identity, P.table)

    def test_full_transformation_monoid(self):
        T3 = full_transformation_monoid(3)
        assert T3.order == 27
        validate_monoid(T3.labels, T3.identity, T3.table)
