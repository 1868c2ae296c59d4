"""Batch command-line front end.

One process per command; human-readable summary on stderr, a single JSON
report on stdout (or --out).  Exit codes: 0 when the checked property
holds (or the query succeeded), 1 when a checked property is false, 2 for
usage errors, 3 for internal inconsistencies and any unexpected error.  The
environment variable LUKRA_GUARD overrides enumeration size guards.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import algebra as alg
from . import filters as flt
from . import freealg as fre
from . import laws
from . import logic as lg
from .algebra import AlgebraError, FiniteAlgebra, InternalConsistencyError, SizeGuardError
from .fo import FOError, FOStructure, fo_eval, fo_parse
from .formulas import TABLE_GUARD, TOO_DEEP, parse as parse_formula, to_text
from .proofs import check_proof, parse_proof

OK, PROPERTY_FALSE, USAGE, INTERNAL = 0, 1, 2, 3


def _guard(default: int) -> int:
    env = os.environ.get("LUKRA_GUARD")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise AlgebraError(f"LUKRA_GUARD must be an integer, got {env!r}")


def _load_algebra(path: str) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return FiniteAlgebra.from_dict(json.load(fh))


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- algebra ------------------------------------------------------------------

def cmd_algebra_chain(args) -> int:
    alg.check_table_size(args.n, _guard(fre.SIZE_GUARD))
    A = alg.make_chain(args.n, with_delta=args.delta, with_bottom=args.bottom)
    _emit(A.to_dict(), args)
    _say(f"chain of size {args.n}" + (" with delta" if args.delta else ""))
    return OK


def cmd_algebra_check(args) -> int:
    A = _load_algebra(args.infile)
    checks = {"LR": laws.check_LR(A)}
    n = args.n
    if n is None:
        n = alg.min_n(A)
    if n is not None:
        checks[f"LRn[n={n}]"] = laws.check_LRn(A, n)
        if A.delta is not None:
            checks[f"delta[n={n}]"] = laws.check_delta(A, n)
        if args.suite:
            checks[f"suite[n={n}]"] = laws.check_property_suite(A, n)
    if args.quasi and A.delta is not None:
        checks["quasi"] = laws.check_LRdelta_quasi(A)
    passed = all(r.passed for r in checks.values())
    _emit({"passed": passed, "level": n,
           "checks": {k: r.to_dict() for k, r in checks.items()}}, args)
    _say(("all checks passed" if passed else "violations found") + f" (level {n})")
    return OK if passed else PROPERTY_FALSE


def cmd_algebra_delta(args) -> int:
    A = _load_algebra(args.infile)
    res = alg.delta_admissible(A)
    report = {"admissible": res.admissible, "witness": res.witness,
              "algebra": alg.with_delta(A, res.table).to_dict() if res.admissible else None}
    _emit(report, args)
    _say("admissible" if res.admissible else f"not admissible, witness {res.witness}")
    return OK if res.admissible else PROPERTY_FALSE


def cmd_algebra_product(args) -> int:
    factors = [_load_algebra(p) for p in args.infile]
    alg.check_table_size(math.prod(A.size for A in factors), _guard(fre.SIZE_GUARD))
    P = alg.product(factors)
    _emit(P.to_dict(), args)
    _say(f"product of {len(factors)} factors, size {P.size}")
    return OK


def cmd_algebra_homs(args) -> int:
    A = _load_algebra(args.src)
    B = _load_algebra(args.dst)
    maps = alg.epimorphisms(A, B) if args.epi else alg.homomorphisms(A, B)
    _emit({"count": len(maps), "maps": [list(h) for h in maps]}, args)
    _say(f"{len(maps)} {'epimorphisms' if args.epi else 'homomorphisms'}")
    return OK


# -- filters ------------------------------------------------------------------

def _filter_guard(args) -> int | None:
    """The carrier-size guard of a filters verb; --force lifts it."""
    return None if args.force else _guard(flt.FILTER_GUARD)


def cmd_filters_list(args) -> int:
    A = _load_algebra(args.infile)
    fs = flt.all_filters(A, guard=_filter_guard(args))
    _emit({"filters": [list(f) for f in fs]}, args)
    _say(f"{len(fs)} implicative filters")
    return OK


def cmd_filters_maximal(args) -> int:
    A = _load_algebra(args.infile)
    fs = flt.maximal_filters(A, guard=_filter_guard(args))
    _emit({"filters": [list(f) for f in fs]}, args)
    _say(f"{len(fs)} maximal filters")
    return OK


def _parse_filter(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise AlgebraError(f"bad filter spec {text!r}; want comma-separated indices")


def cmd_filters_quotient(args) -> int:
    A = _load_algebra(args.infile)
    Q, proj = flt.quotient(A, _parse_filter(args.filter))
    report = Q.to_dict()
    report["projection"] = list(proj)
    _emit(report, args)
    _say(f"quotient of size {Q.size}")
    return OK


def cmd_filters_subdirect(args) -> int:
    A = _load_algebra(args.infile)
    P, emb = flt.subdirect_embedding(A, guard=_filter_guard(args))
    _emit({"product": P.to_dict(), "embedding": list(emb)}, args)
    _say(f"embedded into a product of size {P.size}")
    return OK


def cmd_filters_classify(args) -> int:
    A = _load_algebra(args.infile)
    got = flt.classify_simple(A, guard=_filter_guard(args))
    if got is None:
        _emit({"simple": False, "k": None, "isomorphism": None}, args)
        _say("not simple")
        return PROPERTY_FALSE
    k, iso = got
    _emit({"simple": True, "k": k, "isomorphism": list(iso)}, args)
    _say(f"simple: isomorphic to the {k}-chain with delta")
    return OK


# -- free ---------------------------------------------------------------------

def cmd_free_build(args) -> int:
    F = fre.build_free(args.n, args.m, guard=_guard(fre.SIZE_GUARD))
    report = F.algebra.to_dict()
    report["generators"] = list(F.generators)
    _emit(report, args)
    _say(f"free algebra on {args.m} generators at level {args.n}: size {F.algebra.size}")
    return OK


def cmd_free_size(args) -> int:
    sb = fre.size_formula(args.n, args.m, mode=args.mode)
    _emit(sb.to_dict(), args)
    _say(f"size formula ({args.mode}): {sb.total}")
    return OK


def cmd_free_verify(args) -> int:
    sb = fre.size_formula(args.n, args.m, mode=args.mode)
    F = fre.build_free(args.n, args.m, guard=_guard(fre.SIZE_GUARD))
    fre.minimal_elements(F)
    match = sb.total == F.algebra.size
    _emit({"formula": sb.total, "constructed": F.algebra.size, "match": match}, args)
    _say(f"formula={sb.total} constructed={F.algebra.size} match={match}")
    return OK if match else PROPERTY_FALSE


# -- logic ----------------------------------------------------------------------

def cmd_logic_taut(args) -> int:
    f = parse_formula(args.formula)
    verdict = lg.is_tautology(f, args.n, guard=_guard(TABLE_GUARD))
    _emit({"valid": verdict.holds, **verdict.to_dict()}, args)
    _say("valid" if verdict.holds else f"counterexample {verdict.counterexample}")
    return OK if verdict.holds else PROPERTY_FALSE


def cmd_logic_conseq(args) -> int:
    hyps = [parse_formula(h) for h in args.hyp or []]
    f = parse_formula(args.formula)
    verdict = lg.consequence(hyps, f, args.n, guard=_guard(TABLE_GUARD))
    _emit({"entails": verdict.holds, **verdict.to_dict()}, args)
    _say("entailed" if verdict.holds else f"counterexample {verdict.counterexample}")
    return OK if verdict.holds else PROPERTY_FALSE


def cmd_logic_prove_check(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        text = fh.read()
    P = parse_proof(text, system=args.system, n=args.n)
    report = check_proof(P, qgen_reading=args.qgen)
    out = report.to_dict()
    out["conclusion"] = to_text(P.conclusion())
    out["hypotheses"] = [to_text(h) for h in P.hypotheses()]
    _emit(out, args)
    _say("proof checks" if report.passed
         else f"first failure at line {report.first_bad_line}")
    return OK if report.passed else PROPERTY_FALSE


def cmd_logic_refute(args) -> int:
    f = parse_formula(args.formula)
    hit = lg.refute_search(f, args.max_n, guard=_guard(TABLE_GUARD))
    if hit is None:
        _emit({"refuted": False, "counterexample": None}, args)
        _say(f"no refutation up to chain size {args.max_n}")
        return OK
    k, v = hit
    _emit({"refuted": True, "counterexample": {"chain": k, "valuation": v}}, args)
    _say(f"refuted on the {k}-chain at {v}")
    return PROPERTY_FALSE


def cmd_logic_fo_eval(args) -> int:
    with open(args.structure, "r", encoding="utf-8") as fh:
        S = FOStructure.from_dict(json.load(fh))
    f = fo_parse(args.formula)
    assignment = {}
    for item in args.assign or []:
        name, _, value = item.partition("=")
        if not name or not value:
            raise FOError(f"bad assignment {item!r}; want name=index")
        assignment[name] = int(value)
    value = fo_eval(f, S, assignment)
    _emit({"value": value, "designated": value == S.algebra.top}, args)
    _say(f"value {value} (top={S.algebra.top})")
    return OK if value == S.algebra.top else PROPERTY_FALSE


def cmd_logic_theorem_suite(args) -> int:
    rep = lg.theorem_suite(args.n)
    _emit(rep.to_dict(), args)
    _say("theorem suite passed" if rep.passed else f"{len(rep.violations)} violations")
    return OK if rep.passed else PROPERTY_FALSE


def cmd_logic_hierarchy(args) -> int:
    rep = lg.hierarchy_check(args.n)
    _emit(rep.to_dict(), args)
    _say("hierarchy strict at this level" if rep.passed else "hierarchy check failed")
    return OK if rep.passed else PROPERTY_FALSE


# -- wiring --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="lukra", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)

    def sub(group, name, fn, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON report to this file")
        return p

    g = groups.add_parser("algebra").add_subparsers(dest="verb", required=True)
    p = sub(g, "chain", cmd_algebra_chain, help="emit a chain algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", action="store_true")
    p.add_argument("--bottom", action="store_true")
    p = sub(g, "check", cmd_algebra_check, help="run the law checkers")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--quasi", action="store_true")
    p.add_argument("--suite", action="store_true")
    p = sub(g, "delta", cmd_algebra_delta, help="decide delta admissibility")
    p.add_argument("--in", dest="infile", required=True)
    p = sub(g, "product", cmd_algebra_product, help="componentwise product")
    p.add_argument("--in", dest="infile", action="append", required=True)
    p = sub(g, "homs", cmd_algebra_homs, help="enumerate homomorphisms")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--epi", action="store_true")

    g = groups.add_parser("filters").add_subparsers(dest="verb", required=True)
    p = sub(g, "list", cmd_filters_list, help="all implicative filters")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--force", action="store_true")
    p = sub(g, "maximal", cmd_filters_maximal, help="maximal filters")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--force", action="store_true")
    p = sub(g, "quotient", cmd_filters_quotient, help="quotient by a filter")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--filter", required=True, help="comma-separated element indices")
    p = sub(g, "subdirect", cmd_filters_subdirect, help="subdirect embedding")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--force", action="store_true")
    p = sub(g, "classify", cmd_filters_classify, help="simple-algebra classification")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--force", action="store_true")

    g = groups.add_parser("free").add_subparsers(dest="verb", required=True)
    p = sub(g, "build", cmd_free_build, help="construct the free algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p = sub(g, "size", cmd_free_size, help="evaluate the size formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=["repaired", "literal"], default="repaired")
    p = sub(g, "verify", cmd_free_verify, help="formula vs construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=["repaired", "literal"], default="repaired")

    g = groups.add_parser("logic").add_subparsers(dest="verb", required=True)
    p = sub(g, "taut", cmd_logic_taut, help="tautology decision")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula", required=True)
    p = sub(g, "conseq", cmd_logic_conseq, help="matrix consequence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--hyp", action="append")
    p = sub(g, "prove-check", cmd_logic_prove_check, help="check a proof file")
    p.add_argument("--system", choices=["n", "bot"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--qgen", choices=["paired", "literal"], default="paired")
    p = sub(g, "refute", cmd_logic_refute, help="search chains for a refutation")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-n", type=int, default=8)
    p = sub(g, "fo-eval", cmd_logic_fo_eval, help="evaluate a first-order formula")
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", action="append", help="var=domain-index")
    p = sub(g, "theorem-suite", cmd_logic_theorem_suite, help="derived-theorem suite")
    p.add_argument("--n", type=int, required=True)
    p = sub(g, "hierarchy", cmd_logic_hierarchy, help="hierarchy strictness")
    p.add_argument("--n", type=int, required=True)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InternalConsistencyError as exc:
        _say(f"internal inconsistency: {exc}")
        return INTERNAL
    except (AlgebraError, OSError, KeyError, ValueError) as exc:
        _say(f"error: {exc}")
        return USAGE
    except RecursionError:
        # sugar such as `a | b` or `a ->[k] b` builds terms deeper than the
        # parser recursed, and every walker over terms is recursive
        _say(f"error: {TOO_DEEP}")
        return USAGE
    except Exception as exc:
        # exit 1 means "property false", so an unforeseen error may not end there
        message = " ".join(str(exc).splitlines())
        _say(f"internal error: {type(exc).__name__}: {message}")
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
