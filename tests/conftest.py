import itertools
from functools import lru_cache

import pytest

from wreathbench import eps_a, eps_ab, eps_elem, epsilon, fixture, is_L_chain
from wreathbench.errors import PreconditionError
from wreathbench.green import green_cached
from wreathbench.presentations import _alphabet
from wreathbench.transformations import is_permutation


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


def is_idempotent(t):
    """Whether the transformation ``t`` is idempotent: every point of its
    image is fixed."""
    return all(t[v - 1] == v for v in set(t))


def sized(S):
    """An enumerated target as ``verify`` and ``generates`` take one: its size
    and its membership test."""
    return len(S), S.index.__contains__


def rank_one_less_idempotents(n):
    """The rank n-1 idempotents of T_n, one per ordered pair (i, j)."""
    return [epsilon(n, i, j) for i, j in itertools.permutations(range(1, n + 1), 2)]


# ---------------------------------------------------------------------------
# references: the paper's generator families, membership predicate, chain
# witnesses and substitution words, which the tests check the program against


def gen_family(ctx, family):
    """The nested generator families over the singular part, ordered by (i, j)
    pair and then by tuple odometer over monoid indices:

    - "X": one idempotent per ordered pair;
    - "X1": identity at i, arbitrary entry at j (all idempotent);
    - "X2": arbitrary entries at i and j;
    - "Xn": arbitrary full tuples.
    """
    n = ctx.degree
    ms = range(ctx.base.order)
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    if family == "X":
        return [eps_a(ctx, i, j, ctx.base.identity) for i, j in pairs]
    if family == "X1":
        return [eps_a(ctx, i, j, a) for i, j in pairs for a in ms]
    if family == "X2":
        return [eps_ab(ctx, i, j, a, b) for i, j in pairs for a in ms for b in ms]
    if family == "Xn":
        return [eps_elem(ctx, i, j, tup) for i, j in pairs for tup in itertools.product(ms, repeat=n)]
    raise ValueError(f"unknown family {family!r}")


def pair_multiply(M, x, y):
    """The paper's product on separate (tuple, images) pairs:
    (a, s)(b, t) = ((a_1 b_{1s}, ..., a_n b_{ns}), st)."""
    (a, s), (b, t) = x, y
    return tuple(M.table[a[k]][b[s[k] - 1]] for k in range(len(a))), tuple(t[v - 1] for v in s)


def sigma_membership(ctx, x):
    """Membership in the idempotent-generated part of M wr Sing_n: some
    non-diagonal kernel pair (i, j) of the transformation has a_i <=_L a_j
    in the base monoid."""
    n = ctx.degree
    tup, im = x[:n], x[n:]
    if is_permutation(im):
        raise PreconditionError("element's transformation is invertible")
    left = green_cached(ctx.base).left
    return any(
        i != j and im[i] == im[j] and left[tup[j]] >> tup[i] & 1 for i in range(n) for j in range(n)
    )


def l_chain_element_order(M):
    """All element indices sorted bottom-up along the L-chain, ties within an
    L-class broken by index; a linear order only when M/L is a chain."""
    g = green_cached(M)
    below = lambda rep: bin(g.left[rep]).count("1")  # noqa: E731
    return [a for cls in sorted(g.classes_L, key=lambda cls: below(cls[0])) for a in sorted(cls)]


def omega_witnesses(M):
    """A canonical choice of the pair set Omega and factor witnesses for an
    L-chain monoid: order elements bottom-up along the chain (ties by index),
    put (a, b) in Omega when a comes no later than b, and pick the least x
    with a = x*b."""
    if not is_L_chain(M):
        raise PreconditionError("M/L is not a chain")
    pos = {a: p for p, a in enumerate(l_chain_element_order(M))}
    ms = range(M.order)
    omega = {(a, b) for a in ms for b in ms if pos[a] <= pos[b]}
    xwit = {(a, b): next(x for x in ms if M.table[x][b] == a) for a, b in sorted(omega)}
    return omega, xwit


def word_E_X2(M, n, i, j, tup):
    """A word over the two-entry alphabet evaluating to the element with full
    tuple ``tup`` over transformation (i, j): the head letter carries the
    (i, j) entries and one trailing letter per remaining position.  When all
    off-pair entries are the identity the word degenerates to one letter."""
    tup = tuple(tup)
    _, L = _alphabet(n, M, 2)
    one = M.identity
    head = L[(i, j, tup[i - 1], tup[j - 1])]
    rest = [k for k in range(1, n + 1) if k not in (i, j)]
    if all(tup[k - 1] == one for k in rest):
        return (head,)
    return (head,) + tuple(L[(k, j, tup[k - 1], one)] for k in rest)


def word_E_X1(M, n, i, j, a, b, omega, xwit):
    """A word over the idempotent alphabet evaluating to the two-entry
    element (a at i, b at j), using the chain witnesses."""
    _, L = _alphabet(n, M, 1)
    if (a, b) in omega:
        return (L[(j, i, xwit[(a, b)])], L[(i, j, b)])
    return (L[(i, j, xwit[(b, a)])], L[(j, i, a)], L[(i, j, M.identity)])


def evaluate(word, emap):
    """Left-to-right fold of the letter images; the empty word is only legal
    when the map carries an identity (monoid targets)."""
    if not word:
        if emap.identity is None:
            raise ValueError("empty word evaluated against a semigroup target")
        return emap.identity
    val = emap.images[word[0]]
    for l in word[1:]:
        val = emap.multiply(val, emap.images[l])
    return val


def reference_soundness(p, emap):
    """The failures ``soundness`` reports, found by folding both sides of
    every relation from its first letter, with no shared prefixes."""
    failures = []
    for idx, rel in enumerate(p.relations):
        lv, rv = evaluate(rel.lhs, emap), evaluate(rel.rhs, emap)
        if lv != rv:
            failures.append({
                "index": idx, "tag": rel.tag,
                "lhs": p.word_str(rel.lhs), "rhs": p.word_str(rel.rhs),
                "lhs_value": repr(lv), "rhs_value": repr(rv),
            })
    return failures


def shortlex_closure(generators, multiply):
    """Reference closure that records words: the elements generated, in
    shortlex order of their shortest generator words (length first, then
    generator index), and each element's word, ties lexicographic."""
    elements, words, index = [], [], {}
    for g, val in enumerate(generators):
        if val not in index:
            index[val] = len(elements)
            elements.append(val)
            words.append((g,))
    i = 0
    while i < len(elements):
        for g, gval in enumerate(generators):
            y = multiply(elements[i], gval)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                words.append(words[i] + (g,))
        i += 1
    return elements, words


def semidirect_multiply(M, S, action, x, y):
    """Product in the semidirect product M x| S: (a,s)(b,t) = (a(s.b), st),
    for pairs (monoid index, S index) and a left action of S on M."""
    a, s = x
    b, t = y
    return (M.table[a][action(s, b)], S.table[s][t])


# ---------------------------------------------------------------------------
# the census of small monoids


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


@lru_cache(maxsize=None)
def monoid_census(max_order):
    """One representative table per isomorphism class, orders 1..max_order;
    computed once per order, as a tuple."""
    reps = []
    for m in range(1, max_order + 1):
        seen = set()
        for t in monoid_tables(m):
            c = canonical_table(t, m)
            if c not in seen:
                seen.add(c)
                reps.append(c)
    return tuple(reps)
