"""Workbench for singular wreath products of finite monoids: idempotent
counting, generating-set tests, rank search, and machine-certified
presentations."""

from .certify import Verdict, e_wreath_target, sing_target, verify, wreath_sing_target
from .enumeration import (
    RankReport,
    brute_rank,
    close,
    diagonal_action_generated,
    generates,
    rank_formulas,
    tournament_check,
)
from .green import GreenData, green, idempotent_generated_part, is_L_chain
from .monoids import (
    EnumeratedSemigroup,
    cayley_monoid,
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
    evaluate,
    omega_witnesses,
    soundness,
    standard_map,
    table_presentation,
    word_E_X1,
    word_E_X2,
)
from .todd_coxeter import TCResult, todd_coxeter
from .transformations import (
    Transformation,
    compose,
    enumerate_Tn,
    epsilon,
    identity,
    transformation,
    transformation_props,
)
from .wreath import (
    WreathContext,
    WreathElement,
    count_idempotents,
    decompose_E,
    eps_a,
    eps_ab,
    eps_elem,
    gen_family,
    is_wr_idempotent,
    semidirect_multiply,
    sigma_membership,
    validate_action,
    wr_multiply,
)

__version__ = "0.1.0"
