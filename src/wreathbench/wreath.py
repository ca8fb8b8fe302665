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
from math import comb

from .errors import CapacityError, DegreeMismatch, format_count
from .monoids import EnumeratedSemigroup, power_monoid
from .transformations import enumerate_Tn, epsilon, identity, is_idempotent, part_size

# Brute force decides every element of the part, one table lookup per
# coordinate, so this bounds its time; --list builds only the idempotents.
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
    return sum(1 for _ in _idempotent_pairs(ctx))


def idempotent_elements(ctx: WreathContext) -> list[tuple[int, ...]]:
    """The idempotents in element order, built from the pairs that
    ``_idempotent_pairs`` decides."""
    return [tup + t for tup, t in _idempotent_pairs(ctx)]


def _idempotent_pairs(ctx: WreathContext):
    """Yield (tuple, transformation) for every idempotent of the part, in
    element order, deciding every element without building it: each
    transformation is tested once, and each tuple over an idempotent
    transformation s by a_k a_{ks} = a_k in every coordinate.  Refused with a
    CapacityError when the part has more than BRUTE_ELEMENT_BOUND elements."""
    check_brute_size(ctx.size())  # sized before enumerating any of T_n
    table = ctx.base.table
    tuples = list(itertools.product(range(ctx.base.order), repeat=ctx.degree))
    for t in enumerate_Tn(ctx.degree, ctx.part):
        if not is_idempotent(t):
            continue
        images = [v - 1 for v in t]
        for tup in tuples:
            for a, j in zip(tup, images):
                if table[a][tup[j]] != a:
                    break
            else:
                yield tup, t


def power_with_shuffle(M: EnumeratedSemigroup, n: int, transformations):
    """Direct power M^n together with the coordinate-shuffle action of the
    given transformation list: (alpha . a)_k = a_{k alpha}."""
    Mn = power_monoid(M, n)
    tuples = list(itertools.product(range(M.order), repeat=n))
    pos = {t: i for i, t in enumerate(tuples)}
    # tabulated, since emission and its checks query each pair (s, a) many times
    table = [
        [pos[tuple(tup[v - 1] for v in alpha)] for tup in tuples]
        for alpha in transformations
    ]

    def action(s_idx, a_idx):
        return table[s_idx][a_idx]

    return Mn, action
