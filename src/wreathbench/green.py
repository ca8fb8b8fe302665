"""Green's preorders and relations on a finite semigroup.

Works on any ``EnumeratedSemigroup``, through its Cayley table of positions
and its identity.  Preorders are computed from principal ideals over S^1,
where an identity is adjoined only when the semigroup has no two-sided
identity element.
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


def _classes_from(n, related) -> tuple[tuple[int, ...], ...]:
    seen = [False] * n
    classes = []
    for a in range(n):
        if seen[a]:
            continue
        cls = [b for b in range(n) if related(a, b)]
        for b in cls:
            seen[b] = True
        classes.append(tuple(sorted(cls)))
    return tuple(classes)


def green(S) -> GreenData:
    """Preorders via principal-ideal membership; D as the composite of R and L
    (which equals their join)."""
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
        right.append(ra)
        left.append(la)
    two = []
    for a in range(n):
        ja = set()
        for b in right[a]:
            ja |= left[b]
        ja |= right[a] | left[a]
        two.append(ja)

    leq_R = tuple(tuple(a in right[b] for b in range(n)) for a in range(n))
    leq_L = tuple(tuple(a in left[b] for b in range(n)) for a in range(n))
    leq_J = tuple(tuple(a in two[b] for b in range(n)) for a in range(n))

    rel_r = lambda a, b: leq_R[a][b] and leq_R[b][a]
    rel_l = lambda a, b: leq_L[a][b] and leq_L[b][a]
    rel_j = lambda a, b: leq_J[a][b] and leq_J[b][a]
    rel_h = lambda a, b: rel_r(a, b) and rel_l(a, b)
    rel_d = lambda a, b: any(rel_r(a, c) and rel_l(c, b) for c in range(n))

    return GreenData(
        leq_L=leq_L,
        leq_R=leq_R,
        leq_J=leq_J,
        classes_L=_classes_from(n, rel_l),
        classes_R=_classes_from(n, rel_r),
        classes_H=_classes_from(n, rel_h),
        classes_D=_classes_from(n, rel_d),
        classes_J=_classes_from(n, rel_j),
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


def l_chain_element_order(M: EnumeratedSemigroup) -> list[int]:
    """All element indices sorted bottom-up along the L-chain, ties within an
    L-class broken by index.  Requires M/L to be a chain (the sort key is only
    a linear order in that case)."""
    g = green_cached(M)
    below = lambda rep: sum(1 for b in range(M.order) if g.leq_L[b][rep])
    classes = sorted(g.classes_L, key=lambda cls: below(cls[0]))
    out = []
    for cls in classes:
        out.extend(sorted(cls))
    return out


def idempotent_generated_part(M: EnumeratedSemigroup):
    """The subsemigroup generated by all idempotents of M (always contains 1)."""
    from .enumeration import close

    gens = M.idempotents()
    return close(gens, M.multiply)


def e_part_indices(M: EnumeratedSemigroup) -> frozenset[int]:
    return frozenset(idempotent_generated_part(M).elements)


def has_unit_complement_E(M: EnumeratedSemigroup) -> tuple[bool, int | None]:
    """Whether <E(M)> = {1} u (M \\ G); on failure returns a witness index."""
    expected = {M.identity} | (set(range(M.order)) - set(units(M)))
    actual = set(e_part_indices(M))
    if actual == expected:
        return True, None
    diff = sorted(expected.symmetric_difference(actual))
    return False, diff[0]
