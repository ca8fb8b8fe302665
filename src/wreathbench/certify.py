"""Machine certification of a presentation against a finite target, given
by its size and a membership test for the letter images.

The checks run in order: the relations hold under the evaluation map
(soundness); each letter image is in the target; Todd-Coxeter enumerates
the presented monoid; and a breadth-first walk maps its word graph onto the
target.  The walk maps the root to the identity (a semigroup's root to
nothing) and node.c to the node's value times the image of c, a node's
products made by one left multiplier of its value (``EvaluationMap.left``)
mapped over the images.  An edge that disagrees with the value at its end is
a program fault, since Todd-Coxeter only identifies words that a sound map
identifies.  The values are the products of the letter images, so they lie
in the target, and when their number and the class count both equal its size
the presentation is certified.  Only at Todd-Coxeter's node limit are the
letter images closed, so that a presentation that is not surjective is
reported before it is reported inconclusive.  Sing_n and M wr Sing_n come in
closed form, and every target is sized and refused by ``target_size`` alone,
before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .enumeration import CLOSURE_LIMIT, close
from .errors import CapacityError, InternalError, format_count
from .monoids import EnumeratedSemigroup
from .presentations import EvaluationMap, Presentation, soundness
from .todd_coxeter import NODE_LIMIT, TCResult, todd_coxeter
from .transformations import MAX_ENUM_DEGREE, compose, enumerate_Tn, part_size
from .wreath import WreathContext, check_brute_size, idempotent_elements


@dataclass
class Verdict:
    status: str  # certified | unsound | not_surjective | size_mismatch | inconclusive
    target_size: int
    class_count: int | None = None
    generated_size: int | None = None
    failures: list = field(default_factory=list)
    tc: TCResult | None = None

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "target_size": self.target_size,
            "class_count": self.class_count,
            "generated_size": self.generated_size,
            "soundness_failures": self.failures,
        }
        if self.tc is not None:
            out["nodes_allocated"] = self.tc.nodes_allocated
            out["coincidences_processed"] = self.tc.coincidences_processed
        return out


def verify(p: Presentation, emap: EvaluationMap, size: int, contains,
           node_limit: int = NODE_LIMIT) -> Verdict:
    if p.kind == "monoid" and emap.identity is None:
        raise ValueError("monoid presentation needs an evaluation map with an identity")
    failures = soundness(p, emap)
    if failures:
        return Verdict("unsound", size, failures=failures)

    for img in emap.images:
        if not contains(img):
            return Verdict("not_surjective", size, generated_size=0)

    tc = todd_coxeter(p, node_limit=node_limit)
    if tc.status != "certified":
        gens = list(emap.images) + ([emap.identity] if p.kind == "monoid" else [])
        generated = len(close(gens, emap.multiply, limit=size)) if gens else 0
        if generated != size:
            return Verdict("not_surjective", size, generated_size=generated)
        return Verdict("inconclusive", size, tc=tc)
    generated = _walk(p, emap, tc.graph)
    if generated != size:
        return Verdict("not_surjective", size, generated_size=generated)
    if tc.class_count != size:
        return Verdict("size_mismatch", size, class_count=tc.class_count, tc=tc)
    return Verdict("certified", size, class_count=tc.class_count, generated_size=generated, tc=tc)


def _walk(p: Presentation, emap: EvaluationMap, graph: list) -> int:
    """The number of distinct values on the nodes of the word graph, one
    column per letter with ``graph[c][node]`` the edge node.c, a semigroup's
    root not counted; raises InternalError at an edge that disagrees.  The
    products by ``emap.left`` check no degree: the membership test did."""
    value = [None] * (len(graph[0]) if graph else 1)  # no letters: the root alone
    seen = [False] * len(value)
    value[0], seen[0] = (emap.identity if p.kind == "monoid" else None), True
    queue = [0]
    for node in queue:  # the queue grows as it is walked: breadth-first
        here = value[node]
        products = emap.images if here is None else map(emap.left(here), emap.images)
        for c, (there, col) in enumerate(zip(products, graph)):
            end = col[node]
            if not seen[end]:
                seen[end] = True
                value[end] = there
                queue.append(end)
            elif value[end] != there:
                raise InternalError(f"word graph edge {node}.{c} -> {end} disagrees with the map")
    return len(set(map(value.__getitem__, queue[p.kind != "monoid":])))


# ---------------------------------------------------------------------------
# standard verification targets

def target_size(M, n: int, part: str, limit: int) -> int:
    """The closed-form size of a standard target: |Sing_n| when M is None, else
    |M wr Sing_n|, or |M wr T_n| for the Emonoid target's part "full".  Every
    refusal of a target is made here, before anything is emitted or built, in
    order: Sing_n below degree 2; a size over ``limit`` (the error's ``count``);
    a singular part above degree 7, where Todd-Coxeter would not finish; a full
    part over brute force's bound, whose idempotents the Emonoid target closes."""
    if M is None and n < 2:
        raise ValueError("the singular part is empty below degree 2")
    size = part_size(n, "singular") if M is None else WreathContext(M, n, part).size()
    if size > limit:
        error = CapacityError(f"the target's size, {format_count(size)}, is over the "
                              f"element limit {limit}")
        error.count = size
        raise error
    if part == "singular" and n > MAX_ENUM_DEGREE:  # enumerate_Tn's refusal
        raise CapacityError(f"degree {n} outside supported range 1..{MAX_ENUM_DEGREE}")
    if part == "full":
        check_brute_size(size)
    return size


def singular_part(M, n: int, limit: int):
    """(size, membership test) of Sing_n when M is None, else of M wr Sing_n,
    with no element built: an element holds n indices of M (none for Sing_n),
    then a map whose image set is a proper subset of 1..n."""
    size = target_size(M, n, "singular", limit)
    k, order = (0, 0) if M is None else (n, M.order)  # the monoid indices ahead of the map
    points = set(range(1, n + 1))
    return size, lambda x: (len(x) == k + n and all(0 <= a < order for a in x[:k])
                            and set(x[k:]) < points)


def sing_target(n: int, limit: int = CLOSURE_LIMIT) -> EnumeratedSemigroup:
    """The singular part of T_n, enumerated directly; refused as
    ``target_size`` refuses it, before any element is built."""
    target_size(None, n, "singular", limit)
    return EnumeratedSemigroup(enumerate_Tn(n, "singular"), compose)


def wreath_sing_target(M, n: int, limit: int = CLOSURE_LIMIT) -> EnumeratedSemigroup:
    """All of M wr Sing_n, enumerated directly (not via any generating set);
    refused as ``target_size`` refuses it, before any element is built."""
    target_size(M, n, "singular", limit)
    ctx = WreathContext(M, n, "singular")
    return EnumeratedSemigroup(ctx.elements(), ctx.multiply)


def e_wreath_target(M, n: int, limit: int = CLOSURE_LIMIT) -> EnumeratedSemigroup:
    """The idempotent-generated part of M wr T_n, identity included: the
    closure of brute force's idempotents; refused as ``target_size`` refuses
    all of M wr T_n, before any idempotent is decided."""
    size = target_size(M, n, "full", limit)
    ctx = WreathContext(M, n, "full")
    return close(idempotent_elements(ctx), ctx.multiply, limit=size)
