"""Machine certification of a presentation against a concrete finite target.

Certification is the three-step check: the relations hold under the
evaluation map (soundness), the letter images generate the target
(surjectivity), and the enumerated congruence has exactly as many classes
as the target; equal finite cardinalities then force the induced
epimorphism to be an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .enumeration import CLOSURE_LIMIT, close
from .errors import CapacityError
from .monoids import EnumeratedSemigroup
from .presentations import EvaluationMap, Presentation, soundness
from .todd_coxeter import NODE_LIMIT, TCResult, todd_coxeter
from .transformations import compose, enumerate_Tn, part_size
from .wreath import WreathContext, is_wr_idempotent


@dataclass
class Verdict:
    status: str  # certified | unsound | not_surjective | size_mismatch | inconclusive
    target_size: int
    class_count: int | None = None
    generated_size: int | None = None
    failures: list = field(default_factory=list)
    tc: TCResult | None = None

    @property
    def ok(self) -> bool:
        return self.status == "certified"

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


def verify(p: Presentation, emap: EvaluationMap, target, node_limit: int = NODE_LIMIT) -> Verdict:
    if p.kind == "monoid" and emap.identity is None:
        raise ValueError("monoid presentation needs an evaluation map with an identity")
    want = len(target.elements)
    rep = soundness(p, emap)
    if not rep.ok:
        return Verdict("unsound", want, failures=rep.failures)

    for img in emap.images:
        if img not in target.index:
            return Verdict("not_surjective", want, generated_size=0)
    if p.letters:
        sub = close(list(emap.images), target.multiply, limit=want)
        generated = len(sub)
        if p.kind == "monoid" and emap.identity not in sub.index:
            generated += 1
    else:
        generated = 1 if p.kind == "monoid" else 0
    if generated != want:
        return Verdict("not_surjective", want, generated_size=generated)

    tc = todd_coxeter(p, node_limit=node_limit)
    if tc.status != "certified":
        return Verdict("inconclusive", want, tc=tc)
    if tc.class_count != want:
        return Verdict("size_mismatch", want, class_count=tc.class_count, tc=tc)
    return Verdict("certified", want, class_count=tc.class_count, generated_size=generated, tc=tc)


# ---------------------------------------------------------------------------
# standard verification targets

def sing_target(n: int, limit: int = CLOSURE_LIMIT) -> EnumeratedSemigroup:
    """The singular part of T_n, enumerated directly; refused with a
    CapacityError when its closed-form size exceeds ``limit``."""
    if n < 2:
        raise ValueError("the singular part is empty below degree 2")
    _check_size(part_size(n, "singular"), limit)
    return EnumeratedSemigroup(enumerate_Tn(n, "singular"), compose)


def wreath_sing_target(M, n: int, limit: int = CLOSURE_LIMIT) -> EnumeratedSemigroup:
    """All of M wr Sing_n, enumerated directly (not via any generating set);
    refused with a CapacityError when its closed-form size exceeds ``limit``."""
    ctx = WreathContext(M, n, "singular")
    _check_size(M.order**n * part_size(n, "singular"), limit)
    return EnumeratedSemigroup(ctx.elements(), ctx.multiply)


def _check_size(size: int, limit: int) -> None:
    # the same refusal close() gives when handed the whole element list
    if size > limit:
        raise CapacityError("closure limit exceeded", count=size)


def e_wreath_target(M, n: int, limit: int = CLOSURE_LIMIT) -> EnumeratedSemigroup:
    """The idempotent-generated part of M wr T_n: the closure of the full
    idempotent set, which contains the identity.  Refused with a
    CapacityError when all of M wr T_n, which is enumerated to find the
    idempotents, exceeds ``limit``."""
    ctx = WreathContext(M, n, "full")
    _check_size(M.order**n * part_size(n, "full"), limit)
    idem = [x for x in ctx.elements() if is_wr_idempotent(ctx, x)]
    return close(idem, ctx.multiply, limit=limit)
