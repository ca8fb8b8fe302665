"""Green's preorders and classes, and the idempotent-generated part, of any
``EnumeratedSemigroup``.  Each principal ideal over S^1 is one ``int``
bitset over element positions, and the ideals are the preorders: a <=_L b
iff bit a of the left ideal of b is set.  S^1 adjoins an identity only when
the semigroup has no two-sided identity element.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .monoids import EnumeratedSemigroup, units


@dataclass(frozen=True)
class GreenData:
    """Bit a of ``left[b]`` is set iff a <=_L b, that is a is in S^1 b; bit a
    of ``two[b]`` is set iff a <=_J b, that is a is in S^1 b S^1.  The classes
    group the elements with equal left (L), right (R) or two-sided (J)
    ideals, each class listed by least element and the classes by their
    least elements; D = J, as in every finite semigroup."""

    left: tuple[int, ...]
    two: tuple[int, ...]
    classes_L: tuple[tuple[int, ...], ...]
    classes_R: tuple[tuple[int, ...], ...]
    classes_J: tuple[tuple[int, ...], ...]


def green(S) -> GreenData:
    """The principal ideals from the rows (right) and the columns (left) of
    the Cayley table, and the two-sided ideal of a as the union of the left
    ideals of its right ideal's elements; that union holds the right and
    left ideals of a, since every ideal over S^1 holds its generator."""
    prod = S.table
    adjoin = S.identity is None  # S^1 adjoins an identity: a is in its own ideals

    def ideal(a, members):
        bits = 1 << a if adjoin else 0
        for b in members:
            bits |= 1 << b
        return bits

    left = tuple(ideal(a, set(col)) for a, col in enumerate(zip(*prod)))
    right, two = [], []
    for a, row in enumerate(prod):
        members = set(row)
        right.append(ideal(a, members))
        ja = left[a]
        for b in members:
            ja |= left[b]
        two.append(ja)

    def classes(ideals):
        by_ideal = {}
        for a, bits in enumerate(ideals):
            by_ideal.setdefault(bits, []).append(a)
        return tuple(tuple(cls) for cls in by_ideal.values())

    return GreenData(
        left=left,
        two=tuple(two),
        classes_L=classes(left),
        classes_R=classes(right),
        classes_J=classes(two),
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
            if not (g.left[b] >> a & 1 or g.left[a] >> b & 1):
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
