"""Workbench for n-valued Lukasiewicz implication logics with the crisp
delta operator: finite-algebra law checking, delta admissibility, filters
and quotients, free-algebra construction with cardinality formulas, and
decidable tautology / consequence / Hilbert-proof checking."""

__version__ = "0.1.0"

# Every public name loads its module on first use (PEP 562), so a CLI verb
# imports only the modules it runs.  Each module's own name is public too.
_LAZY = {name: module for module, names in {
    "algebra": ("algebra", "AlgebraError", "CheckReport", "ConfigurationError",
                "DegenerateInputError", "DeltaSearch", "FiniteAlgebra",
                "InternalConsistencyError", "SignatureError", "SizeGuardError",
                "delta_admissible", "epimorphisms", "generating_set", "homomorphisms",
                "imp_k", "is_isomorphic", "make_chain", "min_n", "product", "restrict_to",
                "subalgebra_closure", "t_below", "tarskian_elements", "trivial_algebra",
                "with_delta"),
    "filters": ("filters", "Congruence", "Filter", "all_filters", "check_tied_iff_maximal",
                "classify_simple", "congruence_of", "describe_filter", "filter_generated",
                "is_delta_filter", "is_implicative_filter", "maximal_filters", "moisil_check",
                "moisil_search", "quotient", "subdirect_embedding", "tied_filters"),
    "formulas": ("formulas", "BOT", "TOP", "Bot", "Delta", "Formula", "FormulaError", "Imp",
                 "Top", "Var", "eval_formula", "parse", "rational_eval", "to_text"),
    "freealg": ("freealg", "FormulaReadingError", "FreeAlgebra", "SizeBreakdown",
                "beta_oracle", "build_free", "minimal_elements", "size_formula", "upset_Nk",
                "v_formula"),
    "laws": ("laws", "Law", "check_LR", "check_LRdelta_quasi", "check_LRn", "check_delta",
             "check_identity", "check_property_suite"),
    "logic": ("logic", "Verdict", "axiom_schemas_bot", "axiom_schemas_n", "consequence",
              "equivalent", "hierarchy_check", "is_tautology", "refute_search",
              "theorem_suite"),
    "fo": ("fo", "FOStructure", "fo_eval", "fo_parse"),
    "proofs": ("proofs", "ByAxiom", "ByHyp", "ByMP", "ByQGen", "Proof", "ProofLine",
               "ProofReport", "check_proof", "parse_proof", "serialize_proof"),
}.items() for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [name for name in __dir__() if not name.startswith("_")]
