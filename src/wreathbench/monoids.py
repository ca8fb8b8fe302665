"""Finite semigroups, and monoids given by explicit Cayley tables.

One type, ``EnumeratedSemigroup``, holds every finite semigroup: its element
values, their product and each value's position.  A Cayley-table monoid is
the case whose values are the positions themselves.  The table convention is
``table[i][j] = index of element_i * element_j`` (left factor indexes rows).
The identity must be two-sided; a merely right identity is rejected by
validation.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property, lru_cache

from .errors import MonoidValidationError
from .transformations import Transformation, compose, enumerate_Tn

MONOID_FILE_KEYS = {"name", "elements", "identity", "table"}


class EnumeratedSemigroup:
    """A finite semigroup as the list of its element values, the value
    product ``multiply`` and ``index``, each value's position in the list.

    Positions are what the rest of the package computes with: ``product(i,
    j)`` is the position of elements[i] * elements[j], computed on demand;
    ``table`` is the whole Cayley table of positions and ``identity`` the
    position of the two-sided identity, or None, both derived once on first
    use.  ``cayley_monoid`` builds the case whose values are their own
    positions, with ``multiply`` the table lookup and the table and identity
    given.

    Built directly from a complete element list, deriving ``index``, or by
    ``close`` from a generating set.  Only ``close`` fills the closure data,
    which is None otherwise: gen_indices[g] is the element index of input
    generator g, and factorizations[i] is a shortest generator word for
    elements[i] (ties lexicographic), the list being in shortlex discovery
    order.
    """

    def __init__(self, elements, multiply, index=None, labels=None, name=""):
        self.elements = elements
        self.multiply = multiply
        self.index = {x: i for i, x in enumerate(elements)} if index is None else index
        self.labels = labels
        self.name = name
        self.gen_indices = self.factorizations = None

    def __len__(self):
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def product(self, i: int, j: int) -> int:
        return self.index[self.multiply(self.elements[i], self.elements[j])]

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        index, mul, elems = self.index, self.multiply, self.elements
        return tuple(tuple(index[mul(x, y)] for y in elems) for x in elems)

    @cached_property
    def identity(self) -> int | None:
        t = self.table
        for e, row in enumerate(t):
            if all(row[x] == x and t[x][e] == x for x in range(len(t))):
                return e
        return None

    def idempotents(self) -> list[int]:
        return [i for i in range(len(self)) if self.product(i, i) == i]

    def __repr__(self):
        return f"EnumeratedSemigroup({self.name or self.labels}, order={self.order})"


def cayley_monoid(labels, identity, table, name="") -> EnumeratedSemigroup:
    """The monoid on positions 0..m-1 with the given (already checked) Cayley
    table of position tuples; ``labels`` names the positions."""
    M = EnumeratedSemigroup(
        range(len(labels)), lambda a, b: table[a][b], labels=tuple(labels), name=name
    )
    M.table, M.identity = table, identity
    return M


def validate_monoid(labels, identity, table, name="") -> EnumeratedSemigroup:
    """Check a raw table and wrap it.  Errors cite the first offending datum:
    the violating triple (i,j,k) for associativity, the violating element for
    the identity law."""
    labels = tuple(str(x) for x in labels)
    m = len(labels)
    if m == 0:
        raise MonoidValidationError("empty element list")
    if len(set(labels)) != m:
        raise MonoidValidationError("element labels are not distinct")
    if not isinstance(identity, int) or not 0 <= identity < m:
        raise MonoidValidationError(f"identity index {identity!r} out of range 0..{m - 1}")
    if len(table) != m:
        raise MonoidValidationError(f"table has {len(table)} rows, expected {m}")
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != m:
            raise MonoidValidationError(f"row {i} has {len(row)} entries, expected {m}", witness=i)
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < m:
                raise MonoidValidationError(f"table[{i}][{j}] = {v!r} out of range", witness=(i, j))
        rows.append(row)
    tab = tuple(rows)
    e = identity
    for x in range(m):
        if tab[e][x] != x or tab[x][e] != x:
            raise MonoidValidationError(
                f"element {labels[x]!r} violates the two-sided identity law", witness=x
            )
    for i in range(m):
        ti = tab[i]
        for j in range(m):
            tij = ti[j]
            tj = tab[j]
            for k in range(m):
                if tab[tij][k] != ti[tj[k]]:
                    raise MonoidValidationError(
                        f"associativity fails at triple ({i},{j},{k}): "
                        f"({labels[i]}*{labels[j]})*{labels[k]} != {labels[i]}*({labels[j]}*{labels[k]})",
                        witness=(i, j, k),
                    )
    return cayley_monoid(labels, identity, tab, name)


def monoid_from_dict(data: dict) -> EnumeratedSemigroup:
    if not isinstance(data, dict):
        raise MonoidValidationError("monoid file must hold a JSON object")
    unknown = set(data) - MONOID_FILE_KEYS
    if unknown:
        raise MonoidValidationError(f"unknown keys in monoid file: {sorted(unknown)}")
    for key in ("elements", "identity", "table"):
        if key not in data:
            raise MonoidValidationError(f"monoid file missing key {key!r}")
    return validate_monoid(
        data["elements"], data["identity"], data["table"], name=data.get("name", "")
    )


def load_monoid(path) -> EnumeratedSemigroup:
    with open(path, "r", encoding="utf-8") as f:
        return monoid_from_dict(json.load(f))


def units(M: EnumeratedSemigroup) -> tuple[int, ...]:
    """The group of units, by brute-force invertibility."""
    e = M.identity
    out = []
    for a in range(M.order):
        if any(M.table[a][b] == e and M.table[b][a] == e for b in range(M.order)):
            out.append(a)
    return tuple(out)


def inverse_of(M: EnumeratedSemigroup, a: int) -> int:
    e = M.identity
    for b in range(M.order):
        if M.table[a][b] == e and M.table[b][a] == e:
            return b
    raise ValueError(f"element {M.labels[a]!r} is not invertible")


def is_group(M: EnumeratedSemigroup) -> bool:
    return len(units(M)) == M.order


def submonoid(M: EnumeratedSemigroup, indices, name="") -> tuple[EnumeratedSemigroup, list[int]]:
    """Relabel a closed, identity-containing subset as a monoid of its own.

    Returns (submonoid, carrier) where carrier[i] is the M-index of the
    i-th submonoid element.
    """
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
    sub = cayley_monoid(
        tuple(M.labels[m] for m in carrier), pos[M.identity], tuple(table), name or M.name
    )
    return sub, carrier


def units_submonoid(M: EnumeratedSemigroup) -> tuple[EnumeratedSemigroup, list[int]]:
    return submonoid(M, units(M), name=f"U({M.name})" if M.name else "")


def power_monoid(M: EnumeratedSemigroup, n: int) -> EnumeratedSemigroup:
    """Direct power M^n with coordinatewise multiplication; elements ordered
    by index-tuple odometer."""
    tuples = list(itertools.product(range(M.order), repeat=n))
    pos = {t: i for i, t in enumerate(tuples)}
    labels = tuple("(" + ",".join(M.labels[i] for i in t) + ")" for t in tuples)
    table = tuple(
        tuple(pos[tuple(M.table[a[i]][b[i]] for i in range(n))] for b in tuples) for a in tuples
    )
    return cayley_monoid(labels, pos[(M.identity,) * n], table, name=f"{M.name}^{n}")


def full_transformation_monoid(n: int) -> EnumeratedSemigroup:
    """T_n as a Cayley table; elements in lexicographic image order, labelled
    by their image strings."""
    elems = enumerate_Tn(n, "full")
    pos = {t: i for i, t in enumerate(elems)}
    labels = tuple("".join(str(v) for v in t.images) for t in elems)
    table = tuple(tuple(pos[compose(s, t)] for t in elems) for s in elems)
    ident = pos[Transformation(tuple(range(1, n + 1)))]
    return cayley_monoid(labels, ident, table, name=f"T{n}")


def _cyclic(k: int) -> EnumeratedSemigroup:
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(k))
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return cayley_monoid(labels, 0, table, name=f"Z{k}")


def _b01() -> EnumeratedSemigroup:
    # {1, 0} with 0 a two-sided zero
    return cayley_monoid(("1", "0"), 0, ((0, 1), (1, 1)), name="B01")


def _rz1() -> EnumeratedSemigroup:
    # right-zero semigroup {x, y} with an identity adjoined: xy = y, yx = x
    return cayley_monoid(("1", "x", "y"), 0, ((0, 1, 2), (1, 1, 2), (2, 1, 2)), name="RZ1")


def _n3() -> EnumeratedSemigroup:
    # monogenic {1, a, a^2} with a^3 = a^2: the non-unit part is not
    # idempotent-generated, so <E(M)> is a proper subset of {1} u (M \ G)
    return cayley_monoid(("1", "a", "a2"), 0, ((0, 1, 2), (1, 2, 2), (2, 2, 2)), name="N3")


FIXTURES = {
    "T1": lambda: full_transformation_monoid(1),
    "Z2": lambda: _cyclic(2),
    "Z3": lambda: _cyclic(3),
    "B01": _b01,
    "RZ1": _rz1,
    "T2": lambda: full_transformation_monoid(2),
    "N3": _n3,
}


@lru_cache(maxsize=None)
def fixture(name: str) -> EnumeratedSemigroup:
    key = name.lstrip("@")
    if key not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return FIXTURES[key]()


def resolve_monoid(spec: str) -> EnumeratedSemigroup:
    """Either a built-in fixture name like '@Z2' or a path to a JSON file."""
    if spec.startswith("@"):
        return fixture(spec)
    return load_monoid(spec)
