"""Presentation families for singular wreath products, with evaluation maps.

Letters carry their semantic parameters (positions, monoid-element indices),
so an emitted presentation is self-describing: the canonical evaluation map
is reconstructed from the letter parameters alone.  Chained equations
u = v = w from a family are normalized into the pairs (u, v), (v, w), which
generate the same congruence.

``Rn`` is the general semidirect-product presentation over ``R``, with M^n
acted on by coordinate shuffles, relabelled onto the full-tuple alphabet.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .enumeration import close
from .errors import CapacityError, PreconditionError
from .green import has_unit_complement_E, incomparable_L_witness, is_L_chain, l_chain_element_order
from .monoids import EnumeratedSemigroup, inverse_of, is_group, submonoid, units, units_submonoid
from .todd_coxeter import todd_coxeter
from .transformations import compose, epsilon, identity, index_pairs
from .wreath import WreathContext, eps_a, eps_ab, eps_elem
from .wreath import power_with_shuffle, validate_letter_action

ALPHABET_LIMIT = 4096
# node budget for certifying the base presentation of <E(M)>
BASE_NODE_LIMIT = 200_000


@dataclass(frozen=True)
class Letter:
    name: str
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key):
        return dict(self.params)[key]


class Relation(NamedTuple):
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    tag: str


@dataclass
class Presentation:
    kind: str  # "semigroup" | "monoid"
    letters: tuple[Letter, ...]
    relations: tuple[Relation, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("semigroup", "monoid"):
            raise ValueError(f"unknown kind {self.kind!r}")
        na = len(self.letters)
        for rel in self.relations:
            for side in (rel.lhs, rel.rhs):
                if self.kind == "semigroup" and not side:
                    raise ValueError(f"empty word in semigroup relation {rel.tag}")
                for l in side:
                    if not 0 <= l < na:
                        raise ValueError(f"relation {rel.tag} references missing letter {l}")

    def family_counts(self) -> dict[str, int]:
        return dict(Counter(r.tag for r in self.relations))

    def word_str(self, word) -> str:
        return "*".join(self.letters[l].name for l in word) or "1"


@dataclass
class EvaluationMap:
    images: tuple
    multiply: object
    identity: object = None


def evaluate(word, emap: EvaluationMap):
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


@dataclass
class SoundnessReport:
    checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def soundness(p: Presentation, emap: EvaluationMap) -> SoundnessReport:
    """Check that every relation is preserved by the evaluation map."""
    failures = []
    for idx, rel in enumerate(p.relations):
        lv = evaluate(rel.lhs, emap)
        rv = evaluate(rel.rhs, emap)
        if lv != rv:
            failures.append(
                {
                    "index": idx,
                    "tag": rel.tag,
                    "lhs": p.word_str(rel.lhs),
                    "rhs": p.word_str(rel.rhs),
                    "lhs_value": repr(lv),
                    "rhs_value": repr(rv),
                }
            )
    return SoundnessReport(checked=len(p.relations), failures=failures)


# ---------------------------------------------------------------------------
# alphabets and the relation families shared between emitters

def _ordered_tuples(n, k):
    return [t for t in itertools.permutations(range(1, n + 1), k)]


def _alphabet(n, M=None, entries=0):
    """The letters e(i,j) over the ordered pairs, each carrying ``entries``
    monoid elements (none, a, or a and b; odometer order), with the index of
    each key (i, j, *entries)."""
    decorations = [
        (ent, ";" + ",".join(M.labels[a] for a in ent) if ent else "", tuple(zip("ab", ent)))
        for ent in itertools.product(range(M.order) if entries else (), repeat=entries)
    ]
    letters = []
    index = {}
    for i, j in index_pairs(n):
        for ent, labels, params in decorations:
            index[(i, j) + ent] = len(letters)
            letters.append(Letter(f"e({i},{j}{labels})", (("i", i), ("j", j)) + params))
    return letters, index


def _chain(tag, u, v, w):
    return Relation(u, v, tag), Relation(v, w, tag)


def _commuting(n, L, decorations, tag):
    """Letters on disjoint pairs (i, j), (k, l) commute, for all decorations."""
    rels = []
    for i, j, k, l in _ordered_tuples(n, 4):
        for d, t in itertools.product(decorations, repeat=2):
            x, y = L[(i, j) + d], L[(k, l) + t]
            rels.append(Relation((x, y), (y, x), tag))
    return rels


def _absorbing(n, L, heads, tails, tag):
    """e(i,k) absorbs a following e(j,k): heads decorate the first letter,
    tails the second."""
    rels = []
    for i, j, k in _ordered_tuples(n, 3):
        for d, t in itertools.product(heads, tails):
            x = L[(i, k) + d]
            rels.append(Relation((x, L[(j, k) + t]), (x,), tag))
    return rels


def _braids(n, e, suffix=""):
    """The three- and four-index braid-like families R5 and R6 over the
    letters e[i, j]."""
    rels = []
    for i, j, k in _ordered_tuples(n, 3):
        rels.append(
            Relation(
                (e[k, i], e[i, j], e[j, k]), (e[i, k], e[k, j], e[j, i], e[i, k]), "R5" + suffix
            )
        )
    for i, j, k, l in _ordered_tuples(n, 4):
        rels.append(
            Relation(
                (e[k, i], e[i, j], e[j, k], e[k, l]),
                (e[i, k], e[k, l], e[l, i], e[i, j], e[j, l]),
                "R6" + suffix,
            )
        )
    return rels


# ---------------------------------------------------------------------------
# the presentation of the singular part itself

def emit_R(n: int) -> Presentation:
    """Defining relations of the singular part over its rank n-1 idempotents:
    idempotency/absorption, disjoint commutation, and the three- and
    four-index braid-like identities."""
    if n < 2:
        raise ValueError("n must be at least 2")
    letters, L = _alphabet(n)
    rels = []
    for i, j in index_pairs(n):
        e, f = L[(i, j)], L[(j, i)]
        rels += _chain("R1", (e, e), (e,), (f, e))
    rels += _commuting(n, L, [()], "R2")
    rels += _absorbing(n, L, [()], [()], "R3")
    for i, j, k in _ordered_tuples(n, 3):
        rels += _chain("R4", (L[(i, j)], L[(i, k)]), (L[(i, k)], L[(i, j)]), (L[(j, k)], L[(i, j)]))
    rels += _braids(n, L)
    return Presentation("semigroup", tuple(letters), tuple(rels), {"family": "R", "n": n})


# ---------------------------------------------------------------------------
# full-tuple generators

def emit_Rn(M: EnumeratedSemigroup, n: int) -> Presentation:
    """The semidirect-product presentation over ``R``, with M^n acted on by
    coordinate shuffles: each base relation decorated with an arbitrary tuple
    on its first letter (``Rk_n``), plus the tuple-collapse family that
    rewrites a product of two decorated letters into a single decorated
    letter (``R7_n``)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    size = len(index_pairs(n)) * M.order**n
    if size > ALPHABET_LIMIT:
        raise CapacityError("tuple alphabet too large", count=size)
    base = emit_R(n)
    Mn, action = power_with_shuffle(M, n, standard_map(base).images)
    p = emit_semidirect(base, Mn, action)
    # each letter is named from its own parameters: base letter e(i,j) and
    # M^n index a, whose tuple is the a-th in M^n's odometer order
    tuples = list(itertools.product(range(M.order), repeat=n))
    letters = []
    for lt in p.letters:
        i, j, tup = lt.param("i"), lt.param("j"), tuples[lt.param("a")]
        name = ",".join(M.labels[a] for a in tup)
        letters.append(Letter(f"e({i},{j};[{name}])", (("i", i), ("j", j), ("tup", tup))))
    tags = {f"RM1:{t}": f"{t}_n" for t in base.family_counts()}
    tags["RM2"] = "R7_n"
    # relabelled in place: the letter count and every relation word stay as
    # emit_semidirect checked them
    p.letters = tuple(letters)
    p.relations = tuple(Relation(r.lhs, r.rhs, tags[r.tag]) for r in p.relations)
    p.provenance = {"family": "Rn", "monoid": M.name, "n": n}
    return p


# ---------------------------------------------------------------------------
# two-entry generators

def emit_R2(M: EnumeratedSemigroup, n: int) -> Presentation:
    """Presentation over the generators carrying two monoid entries.  Sound
    for every monoid; certifies the wreath product at desk scale."""
    if n < 2:
        raise ValueError("n must be at least 2")
    letters, L = _alphabet(n, M, 2)
    mul = M.multiply
    one = M.identity
    ms = range(M.order)
    entries = list(itertools.product(ms, repeat=2))
    rels = []
    add = rels.append
    for i, j in index_pairs(n):
        for a, b, c, d in itertools.product(ms, repeat=4):
            rels += _chain(
                "R1_2",
                (L[(i, j, a, b)], L[(i, j, c, d)]),
                (L[(i, j, mul(a, c), mul(b, c))],),
                (L[(j, i, b, a)], L[(i, j, d, c)]),
            )
    rels += _commuting(n, L, entries, "R2_2")
    rels += _absorbing(n, L, entries, [(one, c) for c in ms], "R3a_2")
    for i, j, k in _ordered_tuples(n, 3):
        for a, b, c in itertools.product(ms, repeat=3):
            add(
                Relation(
                    (L[(i, k, a, b)], L[(j, k, c, one)]),
                    (L[(k, i, b, a)], L[(j, i, c, one)], L[(i, k, one, one)]),
                    "R3b_2",
                )
            )
    for i, j, k in _ordered_tuples(n, 3):
        for a, b in itertools.product(ms, repeat=2):
            add(
                Relation(
                    (L[(i, k, a, a)], L[(j, k, b, one)]),
                    (L[(i, k, one, one)], L[(j, k, b, one)], L[(i, k, a, one)]),
                    "R3c_2",
                )
            )
    for i, j, k in _ordered_tuples(n, 3):
        for a, b, c, d in itertools.product(ms, repeat=4):
            rels += _chain(
                "R4a_2",
                (L[(i, j, a, b)], L[(i, k, c, d)]),
                (L[(i, k, mul(a, c), d)], L[(i, j, one, mul(b, c))]),
                (L[(j, k, mul(b, c), d)], L[(i, j, mul(a, c), one)]),
            )
    for i, j, k in _ordered_tuples(n, 3):
        for a, b, c, d in itertools.product(ms, repeat=4):
            rels += _chain(
                "R4b_2",
                (L[(i, j, c, mul(a, d))], L[(i, k, one, mul(b, d))]),
                (L[(i, k, c, mul(b, d))], L[(i, j, one, mul(a, d))]),
                (L[(j, k, a, b)], L[(i, j, c, d)]),
            )
    rels += _braids(n, {(i, j): L[(i, j, one, one)] for i, j in index_pairs(n)}, "_2")
    return Presentation(
        "semigroup", tuple(letters), tuple(rels), {"family": "R2", "monoid": M.name, "n": n}
    )


# ---------------------------------------------------------------------------
# idempotent generators (L-chain case)

def omega_witnesses(M: EnumeratedSemigroup):
    """A canonical choice of the pair set Omega and factor witnesses for an
    L-chain monoid: order elements bottom-up along the chain (ties by index),
    put (a, b) in Omega when a comes no later than b, and pick the least x
    with a = x*b."""
    if not is_L_chain(M):
        raise PreconditionError("M/L is not a chain")
    order = l_chain_element_order(M)
    pos = {a: p for p, a in enumerate(order)}
    omega = set()
    for a in range(M.order):
        for b in range(M.order):
            if pos[a] <= pos[b]:
                omega.add((a, b))
    xwit = {}
    for a, b in sorted(omega):
        for x in range(M.order):
            if M.table[x][b] == a:
                xwit[(a, b)] = x
                break
    return omega, xwit


def _chain_precondition(M: EnumeratedSemigroup):
    wit = incomparable_L_witness(M)
    raise PreconditionError(
        "M/L is not a chain: L-classes of "
        f"{M.labels[wit[0]]!r} and {M.labels[wit[1]]!r} are incomparable",
        witness=wit,
    )


def emit_R1(M: EnumeratedSemigroup, n: int, force: bool = False) -> Presentation:
    """Presentation over the idempotent generators, valid when M/L is a
    chain.  ``force`` skips the hypothesis check (the emitted relations are
    still sound, but certification is expected to fail off-hypothesis)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not force and not is_L_chain(M):
        _chain_precondition(M)
    letters, L = _alphabet(n, M, 1)
    mul = M.multiply
    one = M.identity
    ms = range(M.order)
    rels = []
    add = rels.append
    for i, j in index_pairs(n):
        for a, b in itertools.product(ms, repeat=2):
            add(Relation((L[(i, j, a)], L[(i, j, b)]), (L[(i, j, a)],), "R1a_1"))
    rels += _r1b(M, n, L)
    for i, j in index_pairs(n):
        for a, b, c in itertools.product(ms, repeat=3):
            if mul(a, c) == mul(b, c):
                add(
                    Relation(
                        (L[(j, i, a)], L[(i, j, c)]), (L[(j, i, b)], L[(i, j, c)]), "R1c_1"
                    )
                )
    for i, j in index_pairs(n):
        for a, b, c in itertools.product(ms, repeat=3):
            if mul(mul(a, b), c) == c:
                add(
                    Relation(
                        (L[(i, j, b)], L[(j, i, c)], L[(i, j, one)]),
                        (L[(j, i, a)], L[(i, j, mul(b, c))]),
                        "R1d_1",
                    )
                )
    for i, j in index_pairs(n):
        add(Relation((L[(j, i, one)], L[(i, j, one)]), (L[(i, j, one)],), "R1e_1"))
    rels += _r1_common(M, n, L)
    return Presentation(
        "semigroup", tuple(letters), tuple(rels), {"family": "R1", "monoid": M.name, "n": n}
    )


def _r1b(M: EnumeratedSemigroup, n: int, L) -> list[Relation]:
    """The product-merging family R1b_1 of both idempotent-generator
    presentations."""
    one = M.identity
    return [
        Relation(
            (L[(i, j, one)], L[(j, i, a)], L[(i, j, b)]),
            (L[(j, i, one)], L[(i, j, M.multiply(a, b))]),
            "R1b_1",
        )
        for i, j in index_pairs(n)
        for a, b in itertools.product(range(M.order), repeat=2)
    ]


def _r1_common(M: EnumeratedSemigroup, n: int, L) -> list[Relation]:
    """Families shared by the chain and group presentations over the
    idempotent generators."""
    mul = M.multiply
    one = M.identity
    ms = range(M.order)
    entries = [(a,) for a in ms]
    rels = _commuting(n, L, entries, "R2_1")
    rels += _absorbing(n, L, entries, entries, "R3a_1")
    add = rels.append
    for i, j, k in _ordered_tuples(n, 3):
        for a in ms:
            add(
                Relation(
                    (L[(i, j, one)], L[(j, k, a)], L[(k, j, one)]),
                    (L[(j, i, one)], L[(i, k, a)], L[(k, i, one)], L[(i, j, one)]),
                    "R3b_1",
                )
            )
    for i, j, k in _ordered_tuples(n, 3):
        for a, b in itertools.product(ms, repeat=2):
            add(
                Relation(
                    (L[(i, j, one)], L[(j, i, a)], L[(i, k, b)]),
                    (L[(j, i, one)], L[(i, k, b)], L[(k, j, a)], L[(j, k, one)]),
                    "R3c_1",
                )
            )
    for i, j, k in _ordered_tuples(n, 3):
        for a, b in itertools.product(ms, repeat=2):
            ab = mul(a, b)
            rels += _chain(
                "R4_1",
                (L[(i, j, b)], L[(i, k, ab)]),
                (L[(i, k, ab)], L[(i, j, b)]),
                (L[(j, k, a)], L[(i, j, b)]),
            )
    rels += _braids(n, {(i, j): L[(i, j, one)] for i, j in index_pairs(n)}, "_1")
    return rels


def emit_R1p(M: EnumeratedSemigroup, n: int) -> Presentation:
    """Group-base variant: the five chain-specific families are replaced by
    the inverse form of the idempotency relation plus the product-merging
    relation."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not is_group(M):
        raise PreconditionError(f"base monoid {M.name or M.labels} is not a group")
    letters, L = _alphabet(n, M, 1)
    ms = range(M.order)
    rels = []
    add = rels.append
    for i, j in index_pairs(n):
        for a, b in itertools.product(ms, repeat=2):
            add(Relation((L[(i, j, a)], L[(i, j, b)]), (L[(i, j, a)],), "R1a'_1"))
        for a in ms:
            add(
                Relation(
                    (L[(i, j, a)],), (L[(j, i, inverse_of(M, a))], L[(i, j, a)]), "R1a'_1"
                )
            )
    rels += _r1b(M, n, L)
    rels += _r1_common(M, n, L)
    return Presentation(
        "semigroup", tuple(letters), tuple(rels), {"family": "R1p", "monoid": M.name, "n": n}
    )


# ---------------------------------------------------------------------------
# substitution words

def word_E_X2(M: EnumeratedSemigroup, n: int, i: int, j: int, tup) -> tuple[int, ...]:
    """A word over the two-entry alphabet evaluating to the element with full
    tuple ``tup`` over transformation (i, j): the head letter carries the
    (i, j) entries and one trailing letter per remaining position.  When all
    off-pair entries are the identity the word degenerates to one letter."""
    tup = tuple(tup)
    _, L = _alphabet(n, M, 2)
    one = M.identity
    rest = [k for k in range(1, n + 1) if k not in (i, j)]
    if all(tup[k - 1] == one for k in rest):
        return (L[(i, j, tup[i - 1], tup[j - 1])],)
    word = [L[(i, j, tup[i - 1], tup[j - 1])]]
    for k in rest:
        word.append(L[(k, j, tup[k - 1], one)])
    return tuple(word)


def word_E_X1(
    M: EnumeratedSemigroup, n: int, i: int, j: int, a: int, b: int, omega, xwit
) -> tuple[int, ...]:
    """A word over the idempotent alphabet evaluating to the two-entry
    element (a at i, b at j), using the chain witnesses."""
    _, L = _alphabet(n, M, 1)
    one = M.identity
    if (a, b) in omega:
        return (L[(j, i, xwit[(a, b)])], L[(i, j, b)])
    return (L[(i, j, xwit[(b, a)])], L[(j, i, a)], L[(i, j, one)])


# ---------------------------------------------------------------------------
# general semidirect products

def emit_semidirect(base: Presentation, M: EnumeratedSemigroup, action) -> Presentation:
    """Presentation of M x| S from a presentation ``base`` of S, where
    ``action(x, a)`` is the action of base letter x on M: every letter gets
    one decorated copy per monoid element; base relations are decorated on
    their first letter, and a product of two decorated letters folds the
    action into the first one."""
    if base.kind != "semigroup":
        raise ValueError("semidirect construction starts from a semigroup presentation")
    validate_letter_action(M, base, action)
    one = M.identity
    letters = []
    index = {}
    for x, lt in enumerate(base.letters):
        for a in range(M.order):
            index[(x, a)] = len(letters)
            letters.append(
                Letter(f"{lt.name}[{M.labels[a]}]", (("x", x), ("a", a)) + lt.params)
            )
    rels = []

    def decorate(word, a):
        return (index[(word[0], a)],) + tuple(index[(x, one)] for x in word[1:])

    for rel in base.relations:
        for a in range(M.order):
            rels.append(Relation(decorate(rel.lhs, a), decorate(rel.rhs, a), f"RM1:{rel.tag}"))
    for x in range(len(base.letters)):
        for y in range(len(base.letters)):
            for a in range(M.order):
                for b in range(M.order):
                    c = M.multiply(a, action(x, b))
                    rels.append(
                        Relation(
                            (index[(x, a)], index[(y, b)]),
                            (index[(x, c)], index[(y, one)]),
                            "RM2",
                        )
                    )
    return Presentation(
        "semigroup",
        tuple(letters),
        tuple(rels),
        {"family": "semidirect", "monoid": M.name, "base": base.provenance},
    )


# ---------------------------------------------------------------------------
# multiplication-table presentations (used as base input for the monoid build)

def table_presentation(N: EnumeratedSemigroup) -> tuple[Presentation, list[int]]:
    """Monoid presentation of N on its non-identity elements with all
    two-letter products rewritten; returns the presentation and the letter
    images as element indices of N."""
    gens = [i for i in range(N.order) if i != N.identity]
    pos = {m: k for k, m in enumerate(gens)}
    letters = tuple(Letter(N.labels[m], (("m", m),)) for m in gens)
    rels = []
    for x in gens:
        for y in gens:
            p = N.multiply(x, y)
            rhs = () if p == N.identity else (pos[p],)
            rels.append(Relation((pos[x], pos[y]), rhs, "table"))
    pres = Presentation(
        "monoid", letters, tuple(rels), {"family": "table", "monoid": N.name}
    )
    return pres, gens


# ---------------------------------------------------------------------------
# the idempotent-generated monoid presentation

def emit_E_wreath_monoid(
    M: EnumeratedSemigroup, n: int, base: Presentation, base_images
) -> Presentation:
    """Monoid presentation for the idempotent-generated part of the full
    wreath product, stitched from a per-coordinate copy of the base
    presentation (for the idempotent-generated part of M), the group-base
    presentation over the units, and the mixing relations between the two.

    ``base_images`` gives, per base letter, the M-index of its value; the
    base must be a certified monoid presentation of <E(M)> with no letter
    mapping to the identity.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    ok, wit = has_unit_complement_E(M)
    if not ok:
        raise PreconditionError(
            f"<E(M)> != {{1}} u (M \\ G); witness element {M.labels[wit]!r}", witness=wit
        )
    if base.kind != "monoid":
        raise PreconditionError("base presentation must be a monoid presentation")
    base_images = list(base_images)
    if len(base_images) != len(base.letters):
        raise ValueError("one image per base letter required")
    if any(m == M.identity for m in base_images):
        raise PreconditionError("a base letter maps to the identity")

    unit_set = set(units(M))
    e_indices = sorted({M.identity} | (set(range(M.order)) - unit_set))
    E_mon, carrier = submonoid(M, e_indices, name="E")
    pos_in_E = {m: k for k, m in enumerate(carrier)}
    for m in base_images:
        if m not in pos_in_E:
            raise PreconditionError(f"base letter image {M.labels[m]!r} is a unit")

    base_map = EvaluationMap(
        tuple(pos_in_E[m] for m in base_images), E_mon.multiply, identity=E_mon.identity
    )
    rep = soundness(base, base_map)
    if not rep.ok:
        raise PreconditionError(f"base presentation unsound: {rep.failures[0]}")
    tc = todd_coxeter(base, node_limit=BASE_NODE_LIMIT)
    if tc.status != "certified" or tc.class_count != E_mon.order:
        raise PreconditionError(
            f"base presentation not certified for <E(M)> "
            f"(got {tc.status}/{tc.class_count}, want {E_mon.order})"
        )

    # shortest factorizations h_a over the base letters, ties lexicographic:
    # the closure's own words, since no product of non-units is the identity
    h_word = {E_mon.identity: ()}
    if base_images:
        S = close([pos_in_E[m] for m in base_images], E_mon.multiply)
        h_word.update(zip(S.elements, S.factorizations))
    if len(h_word) != E_mon.order:
        raise PreconditionError("base letter images do not generate <E(M)>")

    G_mon, g_carrier = units_submonoid(M)
    unit_list = list(g_carrier)

    letters = []
    index = {}
    for coord in range(1, n + 1):
        for y, lt in enumerate(base.letters):
            index[("y", y, coord)] = len(letters)
            letters.append(
                Letter(
                    f"{lt.name}({coord})",
                    (("y", lt.name), ("m", base_images[y]), ("coord", coord)),
                )
            )
    for i, j in index_pairs(n):
        for a in unit_list:
            index[("e", i, j, a)] = len(letters)
            letters.append(
                Letter(f"e({i},{j};{M.labels[a]})", (("i", i), ("j", j), ("a", a)))
            )

    def h_at(m_idx, coord):
        return tuple(index[("y", y, coord)] for y in h_word[pos_in_E[m_idx]])

    rels = []
    add = rels.append
    for coord in range(1, n + 1):
        for rel in base.relations:
            add(
                Relation(
                    tuple(index[("y", y, coord)] for y in rel.lhs),
                    tuple(index[("y", y, coord)] for y in rel.rhs),
                    "Qbar",
                )
            )
    nb = len(base.letters)
    for x in range(nb):
        for y in range(nb):
            for i, j in index_pairs(n):
                add(
                    Relation(
                        (index[("y", x, i)], index[("y", y, j)]),
                        (index[("y", y, j)], index[("y", x, i)]),
                        "RC",
                    )
                )
    if len(unit_list) > 0:
        group_pres = emit_R1p(G_mon, n)
        remap = {}
        for k, lt in enumerate(group_pres.letters):
            d = dict(lt.params)
            remap[k] = index[("e", d["i"], d["j"], g_carrier[d["a"]])]
        for rel in group_pres.relations:
            add(
                Relation(
                    tuple(remap[l] for l in rel.lhs),
                    tuple(remap[l] for l in rel.rhs),
                    rel.tag,
                )
            )
    one = M.identity
    mul = M.multiply
    for y in range(nb):
        ybar = base_images[y]
        for i, j in index_pairs(n):
            for a in unit_list:
                e_ija = index[("e", i, j, a)]
                e_ij1 = index[("e", i, j, one)]
                add(
                    Relation(
                        (e_ija, index[("y", y, i)]),
                        (index[("y", y, i)],) + h_at(mul(a, ybar), j) + (e_ij1,),
                        "nabla1a",
                    )
                )
                add(Relation((e_ija, index[("y", y, j)]), (e_ija,), "nabla1b"))
                for k in range(1, n + 1):
                    if k != i and k != j:
                        add(
                            Relation(
                                (e_ija, index[("y", y, k)]),
                                (index[("y", y, k)], e_ija),
                                "nabla1c",
                            )
                        )
                add(
                    Relation(
                        (index[("y", y, j)], e_ija),
                        h_at(mul(ybar, a), j) + (e_ij1,),
                        "nabla2",
                    )
                )
                for b in unit_list:
                    add(
                        Relation(
                            (index[("y", y, i)], index[("e", j, i, a)], index[("e", i, j, b)]),
                            h_at(mul(mul(ybar, a), b), i) + (index[("e", i, j, b)],),
                            "nabla3",
                        )
                    )
    return Presentation(
        "monoid",
        tuple(letters),
        tuple(rels),
        {"family": "Emonoid", "monoid": M.name, "n": n, "base": base.provenance},
    )


# ---------------------------------------------------------------------------
# canonical evaluation maps

def _letter_wreath_image(lt: Letter, ctx: WreathContext):
    d = dict(lt.params)
    if "coord" in d:
        tup = [ctx.base.identity] * ctx.degree
        tup[d["coord"] - 1] = d["m"]
        return ctx.element(tup, identity(ctx.degree))
    i, j = d["i"], d["j"]
    if "tup" in d:
        return eps_elem(ctx, i, j, d["tup"])
    if "b" in d:
        return eps_ab(ctx, i, j, d["a"], d["b"])
    if "a" in d:
        return eps_a(ctx, i, j, d["a"])
    return eps_a(ctx, i, j, ctx.base.identity)


def standard_map(p: Presentation, M: EnumeratedSemigroup | None = None) -> EvaluationMap:
    """The canonical evaluation map of an emitted presentation, reconstructed
    from letter parameters."""
    family = p.provenance.get("family")
    n = p.provenance.get("n")
    if family == "R":
        images = tuple(epsilon(n, lt.param("i"), lt.param("j")) for lt in p.letters)
        return EvaluationMap(images, compose)
    if family in ("Rn", "R2", "R1", "R1p"):
        if M is None:
            raise ValueError("monoid required to build the evaluation map")
        ctx = WreathContext(M, n, "singular")
        images = tuple(_letter_wreath_image(lt, ctx) for lt in p.letters)
        return EvaluationMap(images, ctx.multiply)
    if family == "Emonoid":
        if M is None:
            raise ValueError("monoid required to build the evaluation map")
        ctx = WreathContext(M, n, "full")
        images = tuple(_letter_wreath_image(lt, ctx) for lt in p.letters)
        return EvaluationMap(images, ctx.multiply, identity=ctx.identity_element())
    if family == "table":
        if M is None:
            raise ValueError("monoid required to build the evaluation map")
        images = tuple(lt.param("m") for lt in p.letters)
        return EvaluationMap(images, M.multiply, identity=M.identity)
    raise ValueError(f"no canonical map for family {family!r}")
