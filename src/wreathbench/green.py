"""Green's preorders and relations, and the idempotent-generated part, of
any ``EnumeratedSemigroup``.  Preorders are computed from principal ideals
over S^1, where an identity is adjoined only when the semigroup has no
two-sided identity element.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .monoids import EnumeratedSemigroup, units


@dataclass(frozen=True)
class GreenData:
    leq_L: tuple[tuple[bool, ...], ...]
    leq_R: tuple[tuple[bool, ...], ...]
    leq_J: tuple[tuple[bool, ...], ...]
    classes_L: tuple[tuple[int, ...], ...]
    classes_R: tuple[tuple[int, ...], ...]
    classes_H: tuple[tuple[int, ...], ...]
    classes_D: tuple[tuple[int, ...], ...]
    classes_J: tuple[tuple[int, ...], ...]


def green(S) -> GreenData:
    """Preorders via principal-ideal membership; classes group the elements
    with equal right (R), left (L), two-sided (J), or right and left (H)
    ideals, listed by least element; D = J, as in every finite semigroup."""
    prod = S.table
    n = len(prod)
    has_one = S.identity is not None

    # principal ideals; S^1 adjoins the element itself when S lacks an identity
    right = []
    left = []
    for a in range(n):
        ra = set(prod[a])
        la = set(prod[x][a] for x in range(n))
        if not has_one:
            ra.add(a)
            la.add(a)
        right.append(frozenset(ra))
        left.append(frozenset(la))
    two = []
    for a in range(n):
        ja = set()
        for b in right[a]:
            ja |= left[b]
        ja |= right[a] | left[a]
        two.append(frozenset(ja))

    leq_R = tuple(tuple(a in right[b] for b in range(n)) for a in range(n))
    leq_L = tuple(tuple(a in left[b] for b in range(n)) for a in range(n))
    leq_J = tuple(tuple(a in two[b] for b in range(n)) for a in range(n))

    def classes(ideals):
        by_ideal = {}
        for a, ideal in enumerate(ideals):
            by_ideal.setdefault(ideal, []).append(a)
        return tuple(tuple(cls) for cls in by_ideal.values())

    classes_J = classes(two)
    return GreenData(
        leq_L=leq_L,
        leq_R=leq_R,
        leq_J=leq_J,
        classes_L=classes(left),
        classes_R=classes(right),
        classes_H=classes(zip(right, left)),
        classes_D=classes_J,
        classes_J=classes_J,
    )


_GREEN = WeakKeyDictionary()


def green_cached(M: EnumeratedSemigroup) -> GreenData:
    """green(M), computed once per semigroup object: the cache is keyed by
    object identity, so no element list is hashed, and an entry goes with
    its semigroup."""
    g = _GREEN.get(M)
    if g is None:
        g = _GREEN[M] = green(M)
    return g


def is_L_chain(M: EnumeratedSemigroup) -> bool:
    """True iff the L-classes are totally ordered under <=_L, i.e. the
    principal left ideals form a chain under inclusion."""
    return incomparable_L_witness(M) is None


def incomparable_L_witness(M: EnumeratedSemigroup) -> tuple[int, int] | None:
    g = green_cached(M)
    reps = [cls[0] for cls in g.classes_L]
    for idx, a in enumerate(reps):
        for b in reps[idx + 1 :]:
            if not (g.leq_L[a][b] or g.leq_L[b][a]):
                return (a, b)
    return None


def idempotent_generated_part(S: EnumeratedSemigroup) -> EnumeratedSemigroup:
    """<E(S)>, the closure of the idempotents of S over element values, with
    |S| as its limit; it contains the identity only when S is a monoid."""
    from .enumeration import close

    return close([S.elements[i] for i in S.idempotents()], S.multiply, limit=len(S))


def e_part_indices(S: EnumeratedSemigroup) -> frozenset[int]:
    """The positions in S of the elements of <E(S)>."""
    return frozenset(S.index[x] for x in idempotent_generated_part(S).elements)


def has_unit_complement_E(M: EnumeratedSemigroup) -> tuple[bool, int | None]:
    """Whether <E(M)> = {1} u (M \\ G); on failure returns a witness index."""
    expected = {M.identity} | (set(range(M.order)) - set(units(M)))
    actual = set(e_part_indices(M))
    if actual == expected:
        return True, None
    diff = sorted(expected.symmetric_difference(actual))
    return False, diff[0]
