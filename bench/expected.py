"""Expected values computed without the program under test.

Everything here works on plain Cayley tables (lists of rows, identity at
index 0) and plain image tuples, so a defect in ``wreathbench`` cannot leak
into the values the benchmark checks it against.  Closed forms from the paper
are used where one exists; the rest come from ``data/expected.json``, which
``record.py`` fills from these independent routes after checking that the
program agrees.
"""

from __future__ import annotations

import itertools
from math import comb, factorial


# ---------------------------------------------------------------------------
# closed forms

def sing_size(n: int) -> int:
    """|Sing_n| = n^n - n!."""
    return n**n - factorial(n)


def wreath_sing_size(m: int, n: int) -> int:
    """|M wr Sing_n| = m^n (n^n - n!)."""
    return m**n * sing_size(n)


def group_idempotent_count(g: int, n: int) -> int:
    """Idempotents of G wr T_n for a group G of order g."""
    return sum(comb(n, k) * k ** (n - k) * g ** (n - k) for k in range(1, n + 1))


def chain_rank(m: int, g: int, n: int) -> int:
    """Rank of M wr Sing_n when the L-classes of M form a chain."""
    return 2 if (n == 2 and m == 1) else (2 * m - g) * comb(n, 2)


def chain_idrank(m: int, g: int, n: int) -> int:
    """Idempotent rank of M wr Sing_n when the L-classes of M form a chain."""
    return 2 * m if (n == 2 and g == 1) else (2 * m - g) * comb(n, 2)


# ---------------------------------------------------------------------------
# monoid properties, straight from the table

def units(table) -> list[int]:
    m = len(table)
    return [a for a in range(m) if any(table[a][b] == 0 == table[b][a] for b in range(m))]


def is_group(table) -> bool:
    return len(units(table)) == len(table)


def idempotents(table) -> list[int]:
    return [e for e in range(len(table)) if table[e][e] == e]


def left_ideal(table, a) -> frozenset[int]:
    return frozenset(row[a] for row in table)


def is_L_chain(table) -> bool:
    """Principal left ideals totally ordered by inclusion."""
    ideals = {left_ideal(table, a) for a in range(len(table))}
    return all(x <= y or y <= x for x in ideals for y in ideals)


def _closure(gens, mul):
    seen = set(gens)
    frontier = list(seen)
    gens = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def e_condition(table) -> bool:
    """<E(M)> = {1} u (M \\ G), the hypothesis of the Emonoid presentation."""
    generated = _closure(idempotents(table), lambda a, b: table[a][b])
    return generated == {0} | (set(range(len(table))) - set(units(table)))


# ---------------------------------------------------------------------------
# independent routes used when recording data/expected.json

def idempotent_count_poly(table, n: int) -> int:
    """|E(M wr T_n)| through P(x) = sum_e x^|Me|: the inner sum over k-tuples
    of idempotents is sum_t [x^t] P(x)^k * t^(n-k), exact and polynomial."""
    sizes = [len(left_ideal(table, e)) for e in idempotents(table)]
    base = [0] * (max(sizes) + 1)
    for s in sizes:
        base[s] += 1
    total = 0
    power = [1]
    for k in range(1, n + 1):
        nxt = [0] * (len(power) + len(base) - 1)
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(base):
                    nxt[i + j] += a * b
        power = nxt
        total += comb(n, k) * sum(c * t ** (n - k) for t, c in enumerate(power) if c)
    return total


def _wreath_mul(table, n):
    def mul(x, y):
        (a, s), (b, t) = x, y
        return tuple(table[a[k]][b[s[k]]] for k in range(n)), tuple(t[v] for v in s)

    return mul


def wreath_elements(table, n: int, singular: bool):
    """Elements of M wr T_n (or M wr Sing_n) as (tuple, 0-based images)."""
    maps = [
        s for s in itertools.product(range(n), repeat=n)
        if not (singular and len(set(s)) == n)
    ]
    tuples = list(itertools.product(range(len(table)), repeat=n))
    return [(a, s) for s in maps for a in tuples]


def emonoid_size(table, n: int) -> int:
    """|<E(M wr T_n)>| by closing the idempotents under the wreath product."""
    mul = _wreath_mul(table, n)
    idem = [x for x in wreath_elements(table, n, singular=False) if mul(x, x) == x]
    return len(_closure(idem, mul))


def brute_ranks(table, n: int) -> tuple[int | None, int | None]:
    """(rank, idempotent rank) of M wr Sing_n by increasing-size subset search
    over bitmask closures; None where no subset generates."""
    mul = _wreath_mul(table, n)
    elems = wreath_elements(table, n, singular=True)
    pos = {x: i for i, x in enumerate(elems)}
    prod = [[pos[mul(x, y)] for y in elems] for x in elems]
    full = (1 << len(elems)) - 1

    def generated(subset):
        mask = 0
        for g in subset:
            mask |= 1 << g
        frontier = list(subset)
        while frontier:
            nxt = []
            for x in frontier:
                row = prod[x]
                for g in subset:
                    y = row[g]
                    if not mask >> y & 1:
                        mask |= 1 << y
                        nxt.append(y)
            frontier = nxt
        return mask == full

    def smallest(pool):
        for k in range(1, len(pool) + 1):
            if any(generated(c) for c in itertools.combinations(pool, k)):
                return k
        return None

    everything = list(range(len(elems)))
    return smallest(everything), smallest([x for x in everything if prod[x][x] == x])


# ---------------------------------------------------------------------------
# generating sets of Sing_n

def tournament_generates(n: int, edges) -> bool:
    """The graph criterion: the rank n-1 idempotents e(i,j) for the given
    edges generate Sing_n iff the digraph is strongly connected and its
    underlying graph is complete."""
    def reach(adj):
        seen, stack = {1}, [1]
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    fwd, back = {}, {}
    for i, j in edges:
        fwd.setdefault(i, set()).add(j)
        back.setdefault(j, set()).add(i)
    every = set(range(1, n + 1))
    complete = len({frozenset(e) for e in edges}) == comb(n, 2)
    return complete and reach(fwd) == every and reach(back) == every


def generates_sing(n: int, maps) -> bool:
    """Whether the 1-based image lists ``maps`` generate all of Sing_n."""
    gens = [tuple(v - 1 for v in images) for images in maps]
    closed = _closure(gens, lambda s, t: tuple(t[v] for v in s))
    return len(closed) == sing_size(n) and all(len(set(s)) < n for s in closed)
