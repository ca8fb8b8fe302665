"""Breadth-first closure of generator sets, generation tests and rank search.

The closure enumerates elements in shortlex order of their defining words
(word length first, then generator index), which makes element order and the
recorded shortest factorizations deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .errors import CapacityError, ForeignElementError, PreconditionError
from .green import is_L_chain
from .monoids import EnumeratedSemigroup, units

CLOSURE_LIMIT = 10**6
SUBSET_BUDGET = 10**7
# entries of the Cayley table the brute rank search builds: |S| <= 3162
TABLE_LIMIT = 10**7


def close(generators, multiply, limit: int = CLOSURE_LIMIT) -> EnumeratedSemigroup:
    """Froidure-Pin style breadth-first closure with duplicate elimination.

    Aborts with a CapacityError carrying the partial count once more than
    ``limit`` elements have been found.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("generator list is empty")
    elements = []
    index = {}
    facts = []
    gen_indices = []
    for g, val in enumerate(generators):
        if val not in index:
            index[val] = len(elements)
            elements.append(val)
            facts.append((g,))
        gen_indices.append(index[val])
    if len(elements) > limit:
        raise CapacityError("closure limit exceeded", count=len(elements))
    i = 0
    while i < len(elements):
        x = elements[i]
        for g, gval in enumerate(generators):
            y = multiply(x, gval)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                facts.append(facts[i] + (g,))
                if len(elements) > limit:
                    raise CapacityError("closure limit exceeded", count=len(elements))
        i += 1
    S = EnumeratedSemigroup(elements, multiply, index)
    S.gen_indices, S.factorizations = gen_indices, facts
    return S


def generates(gens, target: EnumeratedSemigroup) -> bool:
    """Whether the closure of ``gens`` inside ``target`` is all of it."""
    for g in gens:
        if g not in target.index:
            raise ForeignElementError(f"{g!r} is not an element of the target")
    if not gens:
        return len(target) == 0
    sub = close(list(gens), target.multiply, limit=len(target))
    return len(sub) == len(target)


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
    refused with a CapacityError when it would exceed TABLE_LIMIT entries."""
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
    searched = 0
    want = len(target)
    for k in range(1, len(dedup) + 1):
        for subset in itertools.combinations(dedup, k):
            searched += 1
            if searched > budget:
                raise CapacityError("subset search budget exceeded", count=searched - 1)
            sub = close(subset, lambda a, b: table[a][b], limit=want)
            if len(sub) == want:
                return k, tuple(target.elements[i] for i in subset)
    return None


@dataclass
class RankReport:
    lower: int
    upper: int
    exact_rank: int | None = None
    exact_idrank: int | None = None
    witness: tuple = field(default_factory=tuple)

    def to_dict(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact_rank": self.exact_rank,
            "exact_idrank": self.exact_idrank,
            "witness": list(self.witness),
        }


def rank_formulas(M: EnumeratedSemigroup, n: int) -> RankReport:
    """Bounds for the minimal generating set of the singular wreath product,
    plus exact rank/idrank whenever M/L is a chain (groups included)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    m = M.order
    g = len(units(M))
    pairs = comb(n, 2)
    lower = (2 * m - g) * pairs
    upper = m * m + 1 if n == 2 else m * m * pairs
    report = RankReport(lower=lower, upper=upper)
    if is_L_chain(M):
        report.exact_rank = 2 if (n == 2 and m == 1) else (2 * m - g) * pairs
        report.exact_idrank = 2 * m if (n == 2 and g == 1) else (2 * m - g) * pairs
    return report


def diagonal_action_generated(M: EnumeratedSemigroup, omega) -> bool:
    """Whether Omega * M = M x M under the right action (a,b).c = (ac, bc)."""
    orbit = {(M.table[a][c], M.table[b][c]) for (a, b) in omega for c in range(M.order)}
    return len(orbit) == M.order * M.order
