"""Workbench for n-valued Lukasiewicz implication logics with the crisp
delta operator: finite-algebra law checking, delta admissibility, filters
and quotients, free-algebra construction with cardinality formulas, and
decidable tautology / consequence / Hilbert-proof checking."""

from .algebra import (
    AlgebraError,
    ConfigurationError,
    DegenerateInputError,
    DeltaSearch,
    FiniteAlgebra,
    InternalConsistencyError,
    SignatureError,
    SizeGuardError,
    delta_admissible,
    epimorphisms,
    generating_set,
    homomorphisms,
    imp_k,
    is_isomorphic,
    make_chain,
    min_n,
    product,
    restrict_to,
    subalgebra_closure,
    t_below,
    tarskian_elements,
    trivial_algebra,
    with_delta,
)
from .catalog import chain_with_broken_delta, five_element_non_admissible
from .filters import (
    Congruence,
    Filter,
    all_filters,
    check_tied_iff_maximal,
    congruence_of,
    describe_filter,
    filter_generated,
    is_delta_filter,
    is_implicative_filter,
    maximal_filters,
    moisil_check,
    moisil_search,
    quotient,
    subdirect_embedding,
    tied_filters,
    classify_simple,
)
from .formulas import (
    BOT,
    TOP,
    Bot,
    Delta,
    Formula,
    FormulaError,
    Imp,
    Top,
    Var,
    eval_formula,
    parse,
    rational_eval,
    to_text,
)
from .freealg import (
    FormulaReadingError,
    FreeAlgebra,
    SizeBreakdown,
    beta_oracle,
    build_free,
    minimal_elements,
    size_formula,
    upset_Nk,
    v_formula,
)
from .laws import (
    CheckReport,
    Law,
    check_LR,
    check_LRdelta_quasi,
    check_LRn,
    check_delta,
    check_identity,
    check_property_suite,
)
from .logic import (
    Verdict,
    axiom_schemas_bot,
    axiom_schemas_n,
    consequence,
    equivalent,
    hierarchy_check,
    is_tautology,
    refute_search,
    theorem_suite,
)
from .proofs import (
    ByAxiom,
    ByHyp,
    ByMP,
    ByQGen,
    Proof,
    ProofLine,
    ProofReport,
    check_proof,
    parse_proof,
    serialize_proof,
)
from .fo import FOStructure, fo_eval, fo_parse

__version__ = "0.1.0"
