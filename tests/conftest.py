import itertools

import pytest

from wreathbench import epsilon, fixture
from wreathbench.transformations import index_pairs


@pytest.fixture(scope="session")
def Z2():
    return fixture("@Z2")


@pytest.fixture(scope="session")
def Z3():
    return fixture("@Z3")


@pytest.fixture(scope="session")
def B01():
    return fixture("@B01")


@pytest.fixture(scope="session")
def RZ1():
    return fixture("@RZ1")


@pytest.fixture(scope="session")
def T1():
    return fixture("@T1")


@pytest.fixture(scope="session")
def T2():
    return fixture("@T2")


@pytest.fixture(scope="session")
def N3():
    return fixture("@N3")


def rank_one_less_idempotents(n):
    """The rank n-1 idempotents of T_n, one per ordered pair (i, j)."""
    return [epsilon(n, i, j) for i, j in index_pairs(n)]


def monoid_tables(m):
    """All Cayley tables on {0..m-1} with identity 0, by brute filtering."""
    if m == 1:
        yield ((0,),)
        return
    free = [(i, j) for i in range(1, m) for j in range(1, m)]
    rng = range(m)
    for assign in itertools.product(rng, repeat=len(free)):
        table = [list(rng) for _ in range(m)]
        for (i, j), v in zip(free, assign):
            table[i][j] = v
        for r in range(1, m):
            table[r][0] = r
        ok = True
        for a in rng:
            ta = table[a]
            for b in rng:
                row_ab = table[ta[b]]
                tb = table[b]
                for c in rng:
                    if row_ab[c] != ta[tb[c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield tuple(tuple(r) for r in table)


def canonical_table(table, m):
    """Least relabeling fixing the identity; used to dedupe up to isomorphism."""
    best = None
    for perm in itertools.permutations(range(1, m)):
        p = (0,) + perm
        nt = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                nt[p[i]][p[j]] = p[table[i][j]]
        flat = tuple(tuple(r) for r in nt)
        if best is None or flat < best:
            best = flat
    return best


def monoid_census(max_order):
    """One representative table per isomorphism class, orders 1..max_order."""
    reps = []
    for m in range(1, max_order + 1):
        seen = set()
        for t in monoid_tables(m):
            c = canonical_table(t, m)
            if c not in seen:
                seen.add(c)
                reps.append(c)
    return reps
