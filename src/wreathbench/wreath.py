"""Wreath products of a finite monoid by a transformation semigroup.

An element is a pair (tuple of monoid-element indices, transformation);
multiplication shuffles the right tuple through the left transformation:

    (a, s)(b, t) = ((a_1 b_{1s}, ..., a_n b_{ns}), st).

Elements carry indices, not labels, so they are only meaningful next to
their context; every operation here takes the context explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import ActionError, CapacityError, DegreeMismatch, PreconditionError
from .green import green_cached, has_unit_complement_E
from .monoids import EnumeratedSemigroup, power_monoid, units
from .transformations import (
    Transformation, compose, enumerate_Tn, epsilon, identity, index_pairs, part_size,
)

BRUTE_ELEMENT_BOUND = 10**6


@dataclass(frozen=True)
class WreathElement:
    tup: tuple[int, ...]
    trans: Transformation

    def __post_init__(self):
        if len(self.tup) != self.trans.degree:
            raise DegreeMismatch(len(self.tup), self.trans.degree)

    @property
    def degree(self) -> int:
        return self.trans.degree

    def __repr__(self):
        return f"WreathElement({list(self.tup)}, {list(self.trans.images)})"


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

    def element(self, tup, trans) -> WreathElement:
        tup = tuple(tup)
        for a in tup:
            if not 0 <= a < self.base.order:
                raise ValueError(f"monoid index {a} out of range")
        return WreathElement(tup, trans)

    def multiply(self, x: WreathElement, y: WreathElement) -> WreathElement:
        return wr_multiply(self, x, y)

    def identity_element(self) -> WreathElement:
        one = self.base.identity
        return WreathElement((one,) * self.degree, identity(self.degree))

    def elements(self) -> list[WreathElement]:
        """Every element of M wr S: transformation-major, tuple odometer minor."""
        m = self.base.order
        out = []
        for t in enumerate_Tn(self.degree, self.part):
            for tup in itertools.product(range(m), repeat=self.degree):
                out.append(WreathElement(tup, t))
        return out

    def serialize(self, x: WreathElement) -> dict:
        return {
            "tuple": [self.base.labels[a] for a in x.tup],
            "trans": list(x.trans.images),
        }


def wr_multiply(ctx: WreathContext, x: WreathElement, y: WreathElement) -> WreathElement:
    if x.degree != ctx.degree or y.degree != ctx.degree:
        raise DegreeMismatch((x.degree, y.degree), ctx.degree)
    table = ctx.base.table
    xi = x.trans.images
    yt = y.tup
    tup = tuple(table[x.tup[k]][yt[xi[k] - 1]] for k in range(ctx.degree))
    return WreathElement(tup, compose(x.trans, y.trans))


def is_wr_idempotent(ctx: WreathContext, x: WreathElement) -> bool:
    """Idempotent iff the transformation is idempotent and a_i * a_{i.alpha}
    = a_i in every coordinate."""
    if not x.trans.is_idempotent():
        return False
    table = ctx.base.table
    im = x.trans.images
    return all(table[x.tup[k]][x.tup[im[k] - 1]] == x.tup[k] for k in range(ctx.degree))


def eps_elem(ctx: WreathContext, i: int, j: int, tup) -> WreathElement:
    return ctx.element(tup, epsilon(ctx.degree, i, j))


def eps_ab(ctx: WreathContext, i: int, j: int, a: int, b: int) -> WreathElement:
    one = ctx.base.identity
    tup = [one] * ctx.degree
    tup[i - 1] = a
    tup[j - 1] = b
    return eps_elem(ctx, i, j, tup)


def eps_a(ctx: WreathContext, i: int, j: int, a: int) -> WreathElement:
    # identity at position i, a at position j
    return eps_ab(ctx, i, j, ctx.base.identity, a)


def gen_family(ctx: WreathContext, family: str) -> list[WreathElement]:
    """The nested generator families over the singular part, ordered by (i, j)
    pair and then by tuple odometer over monoid indices:

    - "X": one idempotent per ordered pair;
    - "X1": identity at i, arbitrary entry at j (all idempotent);
    - "X2": arbitrary entries at i and j;
    - "Xn": arbitrary full tuples.
    """
    n = ctx.degree
    if n < 2:
        raise ValueError("generator families need degree >= 2")
    m = ctx.base.order
    one = ctx.base.identity
    pairs = index_pairs(n)
    out = []
    if family == "X":
        for i, j in pairs:
            out.append(eps_a(ctx, i, j, one))
    elif family == "X1":
        for i, j in pairs:
            for a in range(m):
                out.append(eps_a(ctx, i, j, a))
    elif family == "X2":
        for i, j in pairs:
            for a in range(m):
                for b in range(m):
                    out.append(eps_ab(ctx, i, j, a, b))
    elif family == "Xn":
        for i, j in pairs:
            for tup in itertools.product(range(m), repeat=n):
                out.append(eps_elem(ctx, i, j, tup))
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def count_idempotents(ctx: WreathContext, method: str = "formula") -> int:
    if method == "formula":
        return _count_formula(ctx)
    if method == "brute":
        return _count_brute(ctx)
    raise ValueError(f"unknown method {method!r}")


def _count_formula(ctx: WreathContext) -> int:
    """Sum over image sizes k of C(n,k) * sum over idempotent tuples
    (e_1..e_k) of (|Me_1| + ... + |Me_k|)^(n-k); the singular count subtracts
    the k = n term |E(M)|^n."""
    M = ctx.base
    n = ctx.degree
    idem = M.idempotents()
    ideal_size = {e: len({row[e] for row in M.table}) for e in idem}
    total = 0
    for k in range(1, n + 1):
        inner = 0
        for es in itertools.product(idem, repeat=k):
            inner += sum(ideal_size[e] for e in es) ** (n - k)
        total += comb(n, k) * inner
    if ctx.part == "singular":
        total -= len(idem) ** n
    return total


def _count_brute(ctx: WreathContext) -> int:
    return len(idempotent_elements(ctx))


def idempotent_elements(ctx: WreathContext) -> list[WreathElement]:
    """The idempotents in element order, filtered from every element; refused
    with a CapacityError when there are more than BRUTE_ELEMENT_BOUND
    elements."""
    # size the part before enumerating any of T_n
    total = ctx.base.order**ctx.degree * part_size(ctx.degree, ctx.part)
    if total > BRUTE_ELEMENT_BOUND:
        raise CapacityError("brute idempotent count too large", count=total)
    return [x for x in ctx.elements() if is_wr_idempotent(ctx, x)]


def sigma_membership(ctx: WreathContext, x: WreathElement) -> bool:
    """Membership in the idempotent-generated part: some non-diagonal kernel
    pair (i, j) of the transformation has a_i <=_L a_j in the base monoid."""
    if x.trans.is_permutation():
        raise PreconditionError("element's transformation is invertible")
    leq_L = green_cached(ctx.base).leq_L
    im = x.trans.images
    n = ctx.degree
    for i in range(n):
        for j in range(n):
            if i != j and im[i] == im[j] and leq_L[x.tup[i]][x.tup[j]]:
                return True
    return False


def decompose_E(ctx: WreathContext, x: WreathElement) -> tuple[WreathElement, WreathElement]:
    """Split x in M wr Sing_n as e_part * g_part with e_part supported on the
    idempotent-generated part of M (identity transformation) and g_part
    carrying a unit tuple.  Requires <E(M)> = {1} u (M \\ G)."""
    ok, witness = has_unit_complement_E(ctx.base)
    if not ok:
        raise PreconditionError(
            f"<E(M)> != {{1}} u (M \\ G); witness element {ctx.base.labels[witness]!r}",
            witness=witness,
        )
    if x.trans.is_permutation():
        raise PreconditionError("element's transformation is invertible")
    G = set(units(ctx.base))
    one = ctx.base.identity
    e_tup = tuple(one if c in G else c for c in x.tup)
    g_tup = tuple(c if c in G else one for c in x.tup)
    e_part = WreathElement(e_tup, identity(ctx.degree))
    g_part = WreathElement(g_tup, x.trans)
    return e_part, g_part


def validate_action(M: EnumeratedSemigroup, S, action) -> None:
    """Check that ``action(s, a)`` is a left action of S on M by monoid
    endomorphisms: s.1 = 1, s.(ab) = (s.a)(s.b), (st).a = s.(t.a).  The last
    axiom is checked for s among the generators ``close`` recorded, or every
    element of an S that was not closed; by induction on the length of s as
    a generator word, that covers every s."""
    _check_endomorphisms(M, len(S), action)
    for s in S.gen_indices or range(len(S)):
        for t in range(len(S)):
            st = S.product(s, t)
            for a in range(M.order):
                if action(st, a) != action(s, action(t, a)):
                    raise ActionError("(st).a = s.(t.a)", (s, t, a))


def validate_letter_action(M: EnumeratedSemigroup, base, action) -> None:
    """Check that ``action(x, a)``, given on the letters x of the semigroup
    presentation ``base``, extends to a left action by monoid endomorphisms
    of the semigroup it presents: every letter acts by an endomorphism and
    both sides of every relation act alike.  The semigroup is not enumerated."""
    _check_endomorphisms(M, len(base.letters), action)
    for rel in base.relations:
        for a in range(M.order):
            u = v = a
            for x in reversed(rel.lhs):
                u = action(x, u)
            for x in reversed(rel.rhs):
                v = action(x, v)
            if u != v:
                raise ActionError("u.a = v.a", (rel.lhs, rel.rhs, a))


def _check_endomorphisms(M: EnumeratedSemigroup, count: int, action) -> None:
    """Check s.1 = 1 and s.(ab) = (s.a)(s.b) for s in range(count)."""
    one = M.identity
    for s in range(count):
        if action(s, one) != one:
            raise ActionError("s.1 = 1", (s, one))
        for a in range(M.order):
            for b in range(M.order):
                if action(s, M.table[a][b]) != M.table[action(s, a)][action(s, b)]:
                    raise ActionError("s.(ab) = (s.a)(s.b)", (s, a, b))


def semidirect_multiply(M: EnumeratedSemigroup, S, action, x, y):
    """Product in the semidirect product M x| S: (a,s)(b,t) = (a(s.b), st).

    x and y are pairs (monoid index, S index); the action must have been
    validated with validate_action.
    """
    a, s = x
    b, t = y
    return (M.table[a][action(s, b)], S.product(s, t))


def power_with_shuffle(M: EnumeratedSemigroup, n: int, transformations):
    """Direct power M^n together with the coordinate-shuffle action of the
    given transformation list: (alpha . a)_k = a_{k alpha}."""
    Mn = power_monoid(M, n)
    tuples = list(itertools.product(range(M.order), repeat=n))
    pos = {t: i for i, t in enumerate(tuples)}
    # tabulated, since emission and its checks query each pair (s, a) many times
    table = [
        [pos[tuple(tup[v - 1] for v in alpha.images)] for tup in tuples]
        for alpha in transformations
    ]

    def action(s_idx, a_idx):
        return table[s_idx][a_idx]

    return Mn, action
