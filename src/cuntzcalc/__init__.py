"""Exact symbolic computation in the word algebra of the Cuntz algebra
O_n: canonical forms, the endomorphism calculus of unitaries, and
decision procedures for preservation of the core UHF subalgebra."""

from .algebra import (
    ContextMismatch,
    Element,
    membership,
    phi_preimage,
    word_degree,
)
from .decide import (
    NOT_PRESERVES,
    PRESERVES,
    UNDECIDED,
    DecisionReport,
    DegreeOutOfRange,
    IncompleteEdgeRule,
    OverlapGraph,
    Psi1NotConstant,
    RouteDisagreement,
    build_overlap_graph,
    cocycle_run,
    decide_preserves,
    direct_check,
    export_dot,
    matrix_unit_witness,
    monomial_defect,
    overlap_classes,
    path_condition,
)
from .endo import (
    NotSumOfWords,
    gauge,
    is_unitary,
    lambda_apply,
    left_inverse,
    minimal_presentation,
    shift,
    sum_of_words_profile,
    u_tower,
)
from .exprio import (
    CONSTANT_NAMES,
    ParseError,
    W_CP_OVERLAP,
    constant,
    from_json,
    parse,
    render,
    resolve,
    to_json,
)
from .intertwine import (
    ConstructionNotSupported,
    PreconditionFailed,
    SpanBasisReport,
    agree_on_F,
    coboundary_witness,
    intertwiner_space,
    is_self_intertwiner,
    perturb,
)

__all__ = [name for name in dir() if not name.startswith("_")]
