"""Wreath products of a finite monoid by a transformation semigroup.

An element is one flat tuple (a_1, ..., a_n, s_1, ..., s_n): the monoid
element indices a, then the images of the transformation s, 1-based.
Multiplication shuffles the right tuple through the left transformation:

    (a, s)(b, t) = ((a_1 b_{1s}, ..., a_n b_{ns}), st).

Elements carry indices, not labels, so they are only meaningful next to
their context; every operation here takes the context explicitly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache, reduce
from math import comb
from operator import and_

from .errors import CapacityError, DegreeMismatch, format_count
from .monoids import EnumeratedSemigroup, power_monoid
from .transformations import enumerate_Tn, epsilon, identity, part_size

# Brute force caps the part at this many elements, which bounds its worst
# case: a monoid whose tuples all pass decides each of them coordinate by
# coordinate.  A typical run drops most tuples at a short prefix, and --list
# builds only the idempotents.
BRUTE_ELEMENT_BOUND = 10**6
# The formula's work grows about as n^3; at this degree the slowest fixture
# takes about a second (2-core x86 VM, Python 3.11).
MAX_FORMULA_DEGREE = 600


@dataclass(frozen=True)
class WreathContext:
    base: EnumeratedSemigroup
    degree: int
    part: str = "singular"  # "full" | "singular"

    def __post_init__(self):
        if self.part not in ("full", "singular"):
            raise ValueError(f"unknown part {self.part!r}; expected 'full' or 'singular'")
        if self.part == "singular" and self.degree < 2:
            raise ValueError("the singular part is empty below degree 2")
        if self.degree < 1:
            raise ValueError(f"degree {self.degree} is below 1")

    def element(self, tup, trans) -> tuple[int, ...]:
        """The element (tup, trans), with the monoid indices and the degree of
        ``trans`` checked."""
        tup = tuple(tup)
        for a in tup:
            if not 0 <= a < self.base.order:
                raise ValueError(f"monoid index {a} out of range")
        if len(tup) != self.degree or len(trans) != self.degree:
            raise DegreeMismatch((len(tup), len(trans)), self.degree)
        return tup + tuple(trans)

    def multiply(self, x, y) -> tuple[int, ...]:
        return wr_multiply(self, x, y)

    def identity_element(self) -> tuple[int, ...]:
        return (self.base.identity,) * self.degree + identity(self.degree)

    def size(self) -> int:
        """|M|^n times the size of the part of T_n, without enumerating."""
        return self.base.order**self.degree * part_size(self.degree, self.part)

    def elements(self) -> list[tuple[int, ...]]:
        """Every element of M wr S: transformation-major, tuple odometer minor."""
        tuples = list(itertools.product(range(self.base.order), repeat=self.degree))
        return [tup + t for t in enumerate_Tn(self.degree, self.part) for tup in tuples]

    def serialize(self, x) -> dict:
        n = self.degree
        return {
            "tuple": [self.base.labels[a] for a in x[:n]],
            "trans": list(x[n:]),
        }


def wr_multiply(ctx: WreathContext, x, y) -> tuple[int, ...]:
    n = ctx.degree
    if len(x) != 2 * n or len(y) != 2 * n:
        raise DegreeMismatch((len(x) // 2, len(y) // 2), n)
    table = ctx.base.table
    s = x[n:]
    return tuple([table[a][y[v - 1]] for a, v in zip(x, s)] + [y[n + v - 1] for v in s])


def eps_elem(ctx: WreathContext, i: int, j: int, tup) -> tuple[int, ...]:
    return ctx.element(tup, epsilon(ctx.degree, i, j))


def eps_ab(ctx: WreathContext, i: int, j: int, a: int, b: int) -> tuple[int, ...]:
    one = ctx.base.identity
    tup = [one] * ctx.degree
    tup[i - 1] = a
    tup[j - 1] = b
    return eps_elem(ctx, i, j, tup)


def eps_a(ctx: WreathContext, i: int, j: int, a: int) -> tuple[int, ...]:
    # identity at position i, a at position j
    return eps_ab(ctx, i, j, ctx.base.identity, a)


def count_idempotents(ctx: WreathContext, method: str = "formula") -> int:
    if method == "formula":
        return _count_formula(ctx)
    if method == "brute":
        return _count_brute(ctx)
    raise ValueError(f"unknown method {method!r}")


def check_formula_degrees(ns) -> None:
    """Refuse the formula for the degrees ``ns`` before any term: each degree
    must be at most MAX_FORMULA_DEGREE, and their work, about n^3 each, must
    sum to no more than that of MAX_FORMULA_DEGREE alone."""
    for n in ns:
        if n > MAX_FORMULA_DEGREE:
            raise CapacityError(f"degree {n} outside the formula's range 1..{MAX_FORMULA_DEGREE}")
    work = sum(n**3 for n in ns)
    if work > MAX_FORMULA_DEGREE**3:
        raise CapacityError(
            f"{len(ns)} degrees over the formula's budget: their cubes sum to {work}, "
            f"over {MAX_FORMULA_DEGREE}^3"
        )


def check_brute_size(size: int) -> None:
    """Refuse brute force over parts of ``size`` elements in all, before any
    of them is decided."""
    if size > BRUTE_ELEMENT_BOUND:
        error = CapacityError(
            f"the brute-force size, {format_count(size)}, is over its bound {BRUTE_ELEMENT_BOUND}"
        )
        error.count = size
        raise error


def _count_formula(ctx: WreathContext) -> int:
    """Sum over image sizes k of C(n,k) * sum over idempotent tuples
    (e_1..e_k) of (|Me_1| + ... + |Me_k|)^(n-k); the singular count subtracts
    the k = n term |E(M)|^n.  The tuples are counted by their sum t, which is
    the coefficient of x^t in P(x)^k for P(x) = sum over e of x^|Me|, so the
    work is polynomial in n.  Degrees above MAX_FORMULA_DEGREE are refused
    before any term is computed."""
    M = ctx.base
    n = ctx.degree
    check_formula_degrees([n])
    idem = M.idempotents()
    sizes = Counter(len({row[e] for row in M.table}) for e in idem)  # |Me| -> how many e
    power = [1]  # coefficients of P(x)^k
    total = 0
    for k in range(1, n + 1):
        nxt = [0] * (len(power) + max(sizes))
        for t, c in enumerate(power):
            if c:
                for size, count in sizes.items():
                    nxt[t + size] += c * count
        power = nxt
        total += comb(n, k) * sum(c * t ** (n - k) for t, c in enumerate(power) if c)
    if ctx.part == "singular":
        total -= len(idem) ** n
    return total


def _count_brute(ctx: WreathContext) -> int:
    return sum(len(xs) for _, _, values in _idempotent_search(ctx) for xs in values)


def idempotent_elements(ctx: WreathContext) -> list[tuple[int, ...]]:
    """The idempotents in element order, expanded from ``_idempotent_search``."""
    return [prefix + (x,) + t for t, prefixes, values in _idempotent_search(ctx)
            for prefix, xs in zip(prefixes, values) for x in xs]


def _idempotent_search(ctx: WreathContext):
    """Yield (t, prefixes, values) for every idempotent map t of the part, in
    element order: (a, t) is idempotent, a_i a_{it} = a_i in every coordinate
    i, for the tuples a = prefix + (x,), each prefix ascending and each x of
    its ascending list in ``values``.  No element is built, and a part of
    more than BRUTE_ELEMENT_BOUND elements is refused before any map grows.

    The map and its tuples grow together depth-first, point by point: k goes
    to itself, or, while no smaller point goes to k, to a smaller fixed point
    or to a larger point, which is then fixed in its turn.  k's image
    completes every pair (i, it) with max(i, it) = k, so the tuple prefixes
    that survive coordinates 1..k depend on t's first k points alone and are
    shared by every map that extends them.  Coordinate k's values intersect
    bit masks made once per monoid: the idempotents if k is fixed, {a : ab = a}
    if k goes to a smaller point of value b, and {b : xb = x} for each smaller
    point, of value x, that goes to k."""
    check_brute_size(ctx.size())  # sized before any map is grown
    table = ctx.base.table
    ms = range(ctx.base.order)
    n = ctx.degree

    @cache
    def members(mask):  # its set bits, ascending: one list per mask, shared
        return [a for a in ms if mask >> a & 1]

    idempotent = sum(1 << a for a in ms if table[a][a] == a)
    onto = [members(sum(1 << a for a in ms if table[a][b] == a)) for b in ms]  # {a : ab = a}
    fixing = [sum(1 << b for b in ms if row[b] == x) for x, row in enumerate(table)]  # {b : xb = x}
    fixed = [members(idempotent & mask) for mask in fixing]
    skip = identity(n) if ctx.part == "singular" else None  # the one idempotent permutation

    def grow(t, prefixes):
        k = len(t)  # the point being mapped is k + 1
        into = [i for i, v in enumerate(t) if v == k + 1]
        for v in (k + 1,) if into else [v for v in range(1, n + 1) if v > k or t[v - 1] == v]:
            if v <= k:
                values = [onto[p[v - 1]] for p in prefixes]
            elif len(into) == 1:
                values = [fixed[p[into[0]]] for p in prefixes]
            elif into:
                values = [members(reduce(and_, [fixing[p[i]] for i in into], idempotent))
                          for p in prefixes]
            else:
                values = [members(idempotent) if v == k + 1 else ms] * len(prefixes)
            if k + 1 < n:
                yield from grow(t + (v,), [p + (x,) for p, xs in zip(prefixes, values) for x in xs])
            elif t + (v,) != skip:
                yield t + (v,), prefixes, values

    return grow((), [()])


def power_with_shuffle(M: EnumeratedSemigroup, n: int, transformations):
    """Direct power M^n together with the coordinate-shuffle action of the
    given transformation list on its positions: (alpha . a)_k = a_{k alpha},
    read off the tuples and positions of ``power_monoid(M, n)``."""
    Mn = power_monoid(M, n)
    # tabulated, since emission and its checks query each pair (s, a) many times
    table = [
        [Mn.index[tuple(tup[v - 1] for v in alpha)] for tup in Mn.elements]
        for alpha in transformations
    ]
    return Mn, lambda s_idx, a_idx: table[s_idx][a_idx]
