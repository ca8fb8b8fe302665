"""Finite semigroups, and monoids given by explicit Cayley tables.

One type, ``EnumeratedSemigroup``, holds every finite semigroup: its element
values, their product and each value's position.  Its ``table`` and
``identity`` are derived from them, never handed in.  Values equal positions
only in a monoid read from a table, whose product is the table lookup; T_n,
powers and submonoids keep their own elements.  A product of positions is
read from ``table``, and ``multiply`` is applied only to element values.  The
table convention is ``table[i][j] = index of element_i * element_j`` (left
factor indexes rows).  The identity must be two-sided; a merely right
identity is rejected by validation.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property, lru_cache

from .errors import CapacityError, MonoidValidationError
from .transformations import compose, enumerate_Tn

MONOID_FILE_KEYS = {"name", "elements", "identity", "table"}
# the largest order validate_monoid checks, that of T_4: associativity is
# checked over all |M|^3 triples
ORDER_LIMIT = 256


class EnumeratedSemigroup:
    """A finite semigroup as the list of its element values, the value
    product ``multiply`` and ``index``, each value's position in the list.

    Positions are what the rest of the package computes with: ``table`` is
    the Cayley table of positions and ``identity`` the position of the
    two-sided identity, or None, both derived once on first use and never
    handed in.  Code that multiplies positions reads ``table``; ``multiply``
    takes element values, which are their own positions only in a monoid
    read from a table by ``validate_monoid``, where ``multiply`` is the
    table lookup.

    Built directly from a complete element list, deriving ``index``, or by
    ``close`` from a generating set, in shortlex discovery order.  Only
    ``close`` fills ``gen_indices``, which is None otherwise: gen_indices[g]
    is the element index of input generator g.
    """

    def __init__(self, elements, multiply, index=None, labels=None, name=""):
        self.elements = elements
        self.multiply = multiply
        self.index = {x: i for i, x in enumerate(elements)} if index is None else index
        self.labels = labels
        self.name = name
        self.gen_indices = None

    def __len__(self):
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

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
        return [i for i, x in enumerate(self.elements) if self.multiply(x, x) == x]

    def __repr__(self):
        return f"EnumeratedSemigroup({self.name or self.labels}, order={self.order})"


def validate_monoid(labels, identity, table, name="") -> EnumeratedSemigroup:
    """Check a raw table and return the monoid on positions 0..m-1 that it
    multiplies, ``labels`` naming the positions; every table becomes a monoid
    here.  Errors cite the first offending datum: the violating triple
    (i,j,k) for associativity, the violating element for the identity law.
    Lists may be tuples; a bool is not an index.  An order above ORDER_LIMIT
    is refused with a CapacityError as soon as the labels are counted, before
    any row is read."""
    if not isinstance(name, str):
        raise MonoidValidationError(f"name must be a string, got {name!r}")
    if not isinstance(labels, (list, tuple)):
        raise MonoidValidationError(f"elements must be a list of labels, got {labels!r}")
    labels = tuple(str(x) for x in labels)
    m = len(labels)
    if m > ORDER_LIMIT:
        raise CapacityError(f"monoid order over the limit {ORDER_LIMIT}", count=m)
    if m == 0:
        raise MonoidValidationError("empty element list")
    if len(set(labels)) != m:
        raise MonoidValidationError("element labels are not distinct")
    if type(identity) is not int or not 0 <= identity < m:
        raise MonoidValidationError(f"identity must be an index in 0..{m - 1}, got {identity!r}")
    if not isinstance(table, (list, tuple)):
        raise MonoidValidationError(f"table must be a list of rows, got {table!r}")
    if len(table) != m:
        raise MonoidValidationError(f"table has {len(table)} rows, expected {m}")
    rows = []
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise MonoidValidationError(f"table row {i} must be a list, got {row!r}", witness=i)
        row = tuple(row)
        if len(row) != m:
            raise MonoidValidationError(f"row {i} has {len(row)} entries, expected {m}", witness=i)
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < m:
                raise MonoidValidationError(
                    f"table[{i}][{j}] must be an index in 0..{m - 1}, got {v!r}", witness=(i, j)
                )
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
    return EnumeratedSemigroup(range(m), lambda a, b: tab[a][b], labels=labels, name=name)


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


def submonoid(M: EnumeratedSemigroup, indices, name="") -> EnumeratedSemigroup:
    """The closed, identity-containing subset ``indices`` of M as a monoid
    of its own: its elements are the sorted positions in M, multiplied
    through M's table, with M's labels."""
    carrier = sorted(set(indices))
    if M.identity not in carrier:
        raise MonoidValidationError("subset does not contain the identity")
    table, members = M.table, set(carrier)
    for a in carrier:
        for b in carrier:
            if table[a][b] not in members:
                raise MonoidValidationError(
                    f"subset not closed: {M.labels[a]}*{M.labels[b]} escapes", witness=(a, b)
                )
    return EnumeratedSemigroup(carrier, lambda a, b: table[a][b],
                               labels=tuple(M.labels[m] for m in carrier), name=name or M.name)


def power_monoid(M: EnumeratedSemigroup, n: int) -> EnumeratedSemigroup:
    """Direct power M^n over the tuples of positions of M, multiplied
    coordinatewise; elements ordered by index-tuple odometer."""
    table = M.table
    tuples = list(itertools.product(range(M.order), repeat=n))
    labels = tuple("(" + ",".join(M.labels[i] for i in t) + ")" for t in tuples)
    return EnumeratedSemigroup(tuples, lambda a, b: tuple([table[x][y] for x, y in zip(a, b)]),
                               labels=labels, name=f"{M.name}^{n}")


def full_transformation_monoid(n: int) -> EnumeratedSemigroup:
    """T_n over its image tuples in lexicographic order, multiplied by
    ``compose`` and labelled by their image strings."""
    elements = enumerate_Tn(n, "full")
    labels = tuple("".join(str(v) for v in t) for t in elements)
    return EnumeratedSemigroup(elements, compose, labels=labels, name=f"T{n}")


def _cyclic(k: int) -> EnumeratedSemigroup:
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(k))
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return validate_monoid(labels, 0, table, name=f"Z{k}")


def _b01() -> EnumeratedSemigroup:
    # {1, 0} with 0 a two-sided zero
    return validate_monoid(("1", "0"), 0, ((0, 1), (1, 1)), name="B01")


def _rz1() -> EnumeratedSemigroup:
    # right-zero semigroup {x, y} with an identity adjoined: xy = y, yx = x
    return validate_monoid(("1", "x", "y"), 0, ((0, 1, 2), (1, 1, 2), (2, 1, 2)), name="RZ1")


def _n3() -> EnumeratedSemigroup:
    # monogenic {1, a, a^2} with a^3 = a^2: the non-unit part is not
    # idempotent-generated, so <E(M)> is a proper subset of {1} u (M \ G)
    return validate_monoid(("1", "a", "a2"), 0, ((0, 1, 2), (1, 2, 2), (2, 2, 2)), name="N3")


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
