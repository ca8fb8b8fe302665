"""Workbench for singular wreath products of finite monoids: idempotent
counting, generating-set tests, rank search, and machine-certified
presentations."""

from .certify import Verdict, e_wreath_target, sing_target, verify, wreath_sing_target
from .enumeration import (
    brute_rank,
    close,
    generates,
    rank_formulas,
    tournament_check,
)
from .green import GreenData, green, idempotent_generated_part, is_L_chain
from .monoids import (
    EnumeratedSemigroup,
    fixture,
    full_transformation_monoid,
    load_monoid,
    power_monoid,
    submonoid,
    units,
    validate_monoid,
)
from .presentations import (
    EvaluationMap,
    Letter,
    Presentation,
    Relation,
    emit_E_wreath_monoid,
    emit_R,
    emit_R1,
    emit_R1p,
    emit_R2,
    emit_Rn,
    emit_semidirect,
    soundness,
    standard_map,
    table_presentation,
)
from .todd_coxeter import TCResult, todd_coxeter
from .transformations import (
    compose,
    enumerate_Tn,
    epsilon,
    identity,
    is_permutation,
    rank,
    transformation,
)
from .wreath import (
    WreathContext,
    count_idempotents,
    eps_a,
    eps_ab,
    eps_elem,
    wr_multiply,
)

__version__ = "0.1.0"
