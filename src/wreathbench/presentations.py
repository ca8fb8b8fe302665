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

from .errors import ActionError, CapacityError, PreconditionError
from .green import has_unit_complement_E, incomparable_L_witness, is_L_chain
from .monoids import EnumeratedSemigroup, inverse_of, is_group, submonoid, units
from .transformations import compose, epsilon, identity, index_pairs
from .wreath import WreathContext, eps_a, eps_ab, eps_elem, power_with_shuffle

ALPHABET_LIMIT = 4096


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


def soundness(p: Presentation, emap: EvaluationMap) -> list[dict]:
    """The relations that the evaluation map does not preserve, in order;
    the presentation is sound when the list is empty."""
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
    return failures


# ---------------------------------------------------------------------------
# alphabets and the relation families shared between emitters

def _ordered_tuples(n, k):
    return [t for t in itertools.permutations(range(1, n + 1), k)]


def _alphabet(n, M=None, entries=0):
    """The letters e(i,j) over the ordered pairs, each carrying ``entries``
    monoid elements (none, a, or a and b; odometer order), with the index of
    each key (i, j, *entries).  Every emitter builds its alphabet here before
    it checks anything else, so a degree n below 2 is refused here first, and
    then an alphabet of more than ALPHABET_LIMIT letters, before any letter."""
    if n < 2:
        raise ValueError("n must be at least 2")
    size = n * (n - 1) * (M.order**entries if entries else 1)
    if size > ALPHABET_LIMIT:
        raise CapacityError("alphabet too large", count=size)
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

def emit_R1(M: EnumeratedSemigroup, n: int, force: bool = False) -> Presentation:
    """Presentation over the idempotent generators, valid when M/L is a
    chain.  ``force`` skips the hypothesis check (the emitted relations are
    still sound, but certification is expected to fail off-hypothesis)."""
    letters, L = _alphabet(n, M, 1)
    if not force and not is_L_chain(M):
        wit = incomparable_L_witness(M)
        raise PreconditionError(
            "M/L is not a chain: L-classes of "
            f"{M.labels[wit[0]]!r} and {M.labels[wit[1]]!r} are incomparable",
            witness=wit,
        )
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
    letters, L = _alphabet(n, M, 1)
    if not is_group(M):
        raise PreconditionError(f"base monoid {M.name or M.labels} is not a group")
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
# general semidirect products

def validate_letter_action(M: EnumeratedSemigroup, base: Presentation, action) -> None:
    """Check that ``action(x, a)``, given on the letters x of the semigroup
    presentation ``base``, extends to a left action by monoid endomorphisms
    of the semigroup it presents: every letter acts by an endomorphism (s.1 =
    1 and s.(ab) = (s.a)(s.b)) and both sides of every relation act alike.
    The semigroup is not enumerated."""
    one = M.identity
    for x in range(len(base.letters)):
        if action(x, one) != one:
            raise ActionError("s.1 = 1", (x, one))
        for a in range(M.order):
            for b in range(M.order):
                if action(x, M.table[a][b]) != M.table[action(x, a)][action(x, b)]:
                    raise ActionError("s.(ab) = (s.a)(s.b)", (x, a, b))
    for rel in base.relations:
        for a in range(M.order):
            u = v = a
            for x in reversed(rel.lhs):
                u = action(x, u)
            for x in reversed(rel.rhs):
                v = action(x, v)
            if u != v:
                raise ActionError("u.a = v.a", (rel.lhs, rel.rhs, a))


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
# multiplication-table presentations (the base of the Emonoid presentation)

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

def emit_E_wreath_monoid(M: EnumeratedSemigroup, n: int) -> Presentation:
    """Monoid presentation for the idempotent-generated part of the full
    wreath product, stitched from a per-coordinate copy of the table
    presentation of <E(M)>, the group-base presentation over the units, and
    the mixing relations between the two.

    The unit letters and their relations are emit_R1p's over the group of
    units G, in its order, with each letter's ``a`` moved from its position in
    G to its index in M.
    Requires <E(M)> = {1} u (M \\ G).  The table presentation has one letter
    per non-identity element of <E(M)>, so the word h_a of an element a is
    its letter, and the empty word for the identity.
    """
    G, unit_list = submonoid(M, units(M))
    unit_part = emit_R1p(G, n)
    ok, wit = has_unit_complement_E(M)
    if not ok:
        raise PreconditionError(
            f"<E(M)> != {{1}} u (M \\ G); witness element {M.labels[wit]!r}", witness=wit
        )
    E_mon, carrier = submonoid(M, {M.identity} | (set(range(M.order)) - set(unit_list)), name="E")
    base, gens = table_presentation(E_mon)
    base_images = [carrier[m] for m in gens]  # the M-index of each base letter
    letter_of = {m: y for y, m in enumerate(base_images)}
    nb = len(base.letters)
    shift = n * nb  # the per-coordinate letters come first

    def at(y, coord):  # the position of base letter y's copy at coordinate coord
        return (coord - 1) * nb + y

    letters = [
        Letter(f"{lt.name}({coord})", (("y", lt.name), ("m", base_images[y]), ("coord", coord)))
        for coord in range(1, n + 1)
        for y, lt in enumerate(base.letters)
    ]
    e = {}  # (i, j, M-index of the unit) -> position of e(i,j;a)
    for x, lt in enumerate(unit_part.letters):
        i, j, a = lt.param("i"), lt.param("j"), unit_list[lt.param("a")]
        e[i, j, a] = shift + x
        letters.append(Letter(lt.name, (("i", i), ("j", j), ("a", a))))

    def h_at(m_idx, coord):
        return () if m_idx == M.identity else (at(letter_of[m_idx], coord),)

    rels = [
        Relation(tuple(at(y, coord) for y in rel.lhs), tuple(at(y, coord) for y in rel.rhs), "Qbar")
        for coord in range(1, n + 1)
        for rel in base.relations
    ]
    rels += [
        Relation((at(x, i), at(y, j)), (at(y, j), at(x, i)), "RC")
        for x in range(nb)
        for y in range(nb)
        for i, j in index_pairs(n)
    ]
    add = rels.append
    for lhs, rhs, tag in unit_part.relations:
        add(Relation(tuple(l + shift for l in lhs), tuple(l + shift for l in rhs), tag))
    mul = M.multiply
    for y in range(nb):
        ybar = base_images[y]
        for (i, j, a), e_ija in e.items():
            y_i, y_j, e_ij1 = at(y, i), at(y, j), e[i, j, M.identity]
            add(Relation((e_ija, y_i), (y_i,) + h_at(mul(a, ybar), j) + (e_ij1,), "nabla1a"))
            add(Relation((e_ija, y_j), (e_ija,), "nabla1b"))
            for k in range(1, n + 1):
                if k != i and k != j:
                    add(Relation((e_ija, at(y, k)), (at(y, k), e_ija), "nabla1c"))
            add(Relation((y_j, e_ija), h_at(mul(ybar, a), j) + (e_ij1,), "nabla2"))
            for b in unit_list:
                e_ijb = e[i, j, b]
                add(
                    Relation(
                        (y_i, e[j, i, a], e_ijb), h_at(mul(mul(ybar, a), b), i) + (e_ijb,), "nabla3"
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
    return eps_a(ctx, i, j, d["a"])


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
    raise ValueError(f"no canonical map for family {family!r}")
