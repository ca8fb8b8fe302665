"""Breadth-first closure of generator sets, generation tests and rank search.

The closure enumerates elements in shortlex order of their defining words
(word length first, then generator index), which makes element order
deterministic.
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import CapacityError, ForeignElementError, PreconditionError
from .green import green_cached, is_L_chain
from .monoids import EnumeratedSemigroup, units

CLOSURE_LIMIT = 10**6
SUBSET_BUDGET = 10**7
# entries of the Cayley table the brute rank search builds: |S| <= 3162
TABLE_LIMIT = 10**7


def close(generators, multiply, limit: int = CLOSURE_LIMIT) -> EnumeratedSemigroup:
    """Breadth-first closure that multiplies every element by every generator.

    Aborts with a CapacityError carrying the partial count once more than
    ``limit`` elements have been found.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("generator list is empty")
    elements = []
    index = {}
    gen_indices = []
    for val in generators:
        if val not in index:
            index[val] = len(elements)
            elements.append(val)
        gen_indices.append(index[val])
    if len(elements) > limit:
        raise CapacityError("closure limit exceeded", count=len(elements))
    for x in elements:  # the list grows as it is walked: breadth-first
        for gval in generators:
            y = multiply(x, gval)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                if len(elements) > limit:
                    raise CapacityError("closure limit exceeded", count=len(elements))
    S = EnumeratedSemigroup(elements, multiply, index)
    S.gen_indices = gen_indices
    return S


def generates(gens, multiply, size: int, contains) -> bool:
    """Whether ``gens``, each passing ``contains``, generate a target of ``size`` elements."""
    for g in gens:
        if not contains(g):
            raise ForeignElementError(f"{g!r} is not an element of the target")
    if not gens:
        return size == 0
    return len(close(list(gens), multiply, limit=size)) == size


def _strongly_connected(n: int, adj: dict[int, set[int]]) -> bool:
    def reachable(adjmap):
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in adjmap.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    radj: dict[int, set[int]] = {}
    for v, ws in adj.items():
        for w in ws:
            radj.setdefault(w, set()).add(v)
    full = set(range(1, n + 1))
    return reachable(adj) == full and reachable(radj) == full


def tournament_check(n: int, edges) -> tuple[bool, bool, bool]:
    """Graph-theoretic generation criterion for subsets of the rank n-1
    idempotent family: the subset generates the whole singular part iff its
    digraph is strongly connected and its underlying undirected graph is
    complete.  Only meaningful for n >= 3 (there is no strongly connected
    tournament on 2 vertices).

    Returns (generates, strongly_connected, complete).
    """
    if n < 3:
        raise PreconditionError(f"criterion requires n >= 3, got {n}")
    adj: dict[int, set[int]] = {}
    undirected = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"loop edge ({i},{i}) not allowed")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
        adj.setdefault(i, set()).add(j)
        undirected.add(frozenset((i, j)))
    sc = _strongly_connected(n, adj)
    complete = len(undirected) == comb(n, 2)
    return (sc and complete, sc, complete)


def _cover_bits(target: EnumeratedSemigroup) -> tuple[list[int], int]:
    """One bit for each R-class and each L-class of a maximal J-class of
    ``target``; returns each position's OR of the bits of its classes, and
    the OR of them all."""
    g = green_cached(target)
    ideals = set(g.two)
    top = set()
    for cls in g.classes_J:  # maximal: no two-sided ideal strictly contains its own
        j = g.two[cls[0]]
        if not any(i != j and i & j == j for i in ideals):
            top.update(cls)
    cover = [cls for cls in g.classes_R + g.classes_L if cls[0] in top]
    bits = [0] * len(target)
    for b, cls in enumerate(cover):
        for i in cls:
            bits[i] |= 1 << b
    return bits, (1 << len(cover)) - 1


def brute_rank(
    target: EnumeratedSemigroup,
    pool,
    idempotents_only: bool = False,
    budget: int = SUBSET_BUDGET,
):
    """Smallest generating subset of ``pool`` by increasing-size search, with
    subsets visited in lexicographic order of pool positions; returns
    (k, witness_tuple) or None if no subset of the pool generates.

    The candidates are closed over element positions through the target's
    Cayley table, built once (|S|^2 products) before the first subset and
    refused with a CapacityError when it would exceed TABLE_LIMIT entries.

    A candidate that misses an R-class or an L-class of a maximal J-class
    is skipped without a closure, since it cannot generate (the cover
    constraint of Gray & Ruskuc, Comm. Algebra 33, 2005).  Let J be a
    J-class with nothing strictly J-above it and x in J.  In a factorisation
    x = a_1...a_k over a generating set every a_i >=_J x, so every a_i is
    in J.  Then x <=_R a_1 inside one J-class, which in a finite semigroup
    forces x R a_1; in the same way x L a_k.  A skipped candidate still
    counts against ``budget``, so the answer and every refusal are those of
    the search that closes them all."""
    positions = []
    for x in pool:
        i = target.index.get(x)
        if i is None:
            raise ForeignElementError(f"{x!r} is not an element of the target")
        positions.append(i)
    dedup = list(dict.fromkeys(positions))
    if len(target) ** 2 > TABLE_LIMIT:
        raise CapacityError("Cayley table limit exceeded", count=len(target) ** 2)
    table = target.table
    if idempotents_only:
        dedup = [i for i in dedup if table[i][i] == i]
    bits, full = _cover_bits(target)
    searched = 0
    want = len(target)
    for k in range(1, len(dedup) + 1):
        for subset in itertools.combinations(dedup, k):
            searched += 1
            if searched > budget:
                raise CapacityError("subset search budget exceeded", count=searched - 1)
            cover = 0
            for i in subset:
                cover |= bits[i]
            if cover != full:
                continue
            sub = close(subset, lambda a, b: table[a][b], limit=want)
            if len(sub) == want:
                return k, tuple(target.elements[i] for i in subset)
    return None


def rank_formulas(M: EnumeratedSemigroup, n: int) -> dict:
    """Bounds for the minimal generating set of the singular wreath product,
    plus exact rank/idrank whenever M/L is a chain (groups included), and an
    empty witness; the exact values are None off the chain case."""
    if n < 2:
        raise ValueError("n must be at least 2")
    m = M.order
    g = len(units(M))
    pairs = comb(n, 2)
    report = {"lower": (2 * m - g) * pairs, "upper": m * m + 1 if n == 2 else m * m * pairs,
              "exact_rank": None, "exact_idrank": None, "witness": []}
    if is_L_chain(M):
        report["exact_rank"] = 2 if (n == 2 and m == 1) else (2 * m - g) * pairs
        report["exact_idrank"] = 2 * m if (n == 2 and g == 1) else (2 * m - g) * pairs
    return report
