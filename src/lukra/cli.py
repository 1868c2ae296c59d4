"""Batch command-line front end.

One process per command; human-readable summary on stderr, a single JSON
report on stdout (or --out).  Exit codes: 0 when the checked property
holds (or the query succeeded), 1 when a checked property is false, 2 for
usage errors, 3 for internal inconsistencies and any unexpected error.  The
environment variable LUKRA_GUARD overrides enumeration size guards.

A usage error is a bad argument, an OSError or an AlgebraError, the root of
every refusal of outside input; an input file that is not UTF-8 or not JSON
is refused naming its path.  Every other exception, ValueError included, is
internal.  --help prints every paragraph above this one.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import types

from . import algebra as alg
from .algebra import AlgebraError, FiniteAlgebra, InternalConsistencyError

# Most verbs read an algebra; each handler imports the rest of what it runs,
# and json loads only to read a JSON file or to write a report leaf that
# _chunks does not write itself, so a job loads only its own modules.

OK, PROPERTY_FALSE, USAGE, INTERNAL = 0, 1, 2, 3


def _guard(default: int) -> int:
    env = os.environ.get("LUKRA_GUARD")
    if env is None:
        return default
    try:
        guard = int(env)
    except ValueError:
        raise AlgebraError(f"LUKRA_GUARD must be an integer, got {env!r}")
    if guard < 0:
        raise AlgebraError(f"LUKRA_GUARD must not be negative, got {env!r}")
    return guard


# json's decoder recurses per level, so an input file nesting deeper than
# this (algebra and structure files nest 5 deep) is refused before decoding
JSON_DEPTH = 100


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at `path`, closed before this returns."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise AlgebraError(f"{path}: {exc}") from exc


def _load_json(path: str):
    import json
    import re

    text = _read_text(path)
    depth = 0
    for bracket in re.findall(r"[\[\]{}]", re.sub(r'"(?:[^"\\]|\\.)*"', "", text)):
        depth += 1 if bracket in "[{" else -1
        if depth > JSON_DEPTH:
            raise AlgebraError(f"{path}: JSON nested deeper than {JSON_DEPTH} levels")
    try:
        return json.loads(text)
    except ValueError as exc:   # malformed JSON, or an int past Python's digit limit
        raise AlgebraError(f"{path}: {exc}") from exc


def _load_algebra(path: str) -> FiniteAlgebra:
    return FiniteAlgebra.from_dict(_load_json(path))


def _string(s) -> str:
    """json.dumps(s) for a report key or string leaf: a str of printable
    ASCII free of '"' and '\\' is quoted here, anything else is json's."""
    if type(s) is str and s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.dumps(s)


def _chunks(value, pad: str = "\n"):
    """The text of json.dumps(value, indent=2, sort_keys=True), in pieces.

    `pad` is the newline and indent of value's own level.  Non-empty lists,
    tuples and str-keyed dicts are written here, a list of ints in one piece,
    and so are the leaves a report is made of: None, bools, exact ints, empty
    lists, tuples and dicts, and strings (and keys) of printable ASCII free of
    '"' and '\\'.  Any other leaf is json.dumps'ed and re-indented, and only
    then is json imported.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{"
        for key in sorted(value):
            yield sep + inner + _string(key) + ": "
            yield from _chunks(value[key], inner)
            sep = ","
        yield pad + "}"
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:     # not bools, which print as true/false
            yield "[" + inner + ("," + inner).join(map(str, value)) + pad + "]"
            return
        sep = "["
        for item in value:
            yield sep + inner
            yield from _chunks(item, inner)
            sep = ","
        yield pad + "]"
    elif value is None or type(value) is bool:
        yield "null" if value is None else "true" if value else "false"
    elif type(value) is int:
        yield str(value)
    elif isinstance(value, str):
        yield _string(value)
    elif isinstance(value, (list, tuple, dict)) and not value:
        yield "{}" if isinstance(value, dict) else "[]"
    else:
        import json

        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _emit(report: dict, args) -> None:
    """Write the report as json.dumps(report, indent=2, sort_keys=True) would,
    chunk by chunk, so the whole text is never held.  The chunks come from
    _chunks, so a report of plain leaves is written without importing json.
    A report that fails to serialize, or a failed write, removes the partly
    written --out file."""
    if args.out is None:
        sys.stdout.writelines(_chunks(report))
        sys.stdout.write("\n")
        return
    fh = open(args.out, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(_chunks(report))
            fh.write("\n")
    except BaseException:
        if os.path.isfile(args.out):     # never a device such as /dev/null
            os.remove(args.out)
        raise
    print(f"wrote {args.out}", file=sys.stderr)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- algebra ------------------------------------------------------------------

def cmd_algebra_chain(args) -> tuple[dict, str, bool]:
    alg.check_table_size(args.n, _guard(alg.SIZE_GUARD))
    A = alg.make_chain(args.n, with_delta=args.delta, with_bottom=args.bottom)
    return A.to_dict(), f"chain of size {args.n}" + (" with delta" if args.delta else ""), True


def cmd_algebra_check(args) -> tuple[dict, str, bool]:
    from . import laws

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
    return ({"passed": passed, "level": n, "checks": {k: r.to_dict() for k, r in checks.items()}},
            ("all checks passed" if passed else "violations found") + f" (level {n})", passed)


def cmd_algebra_delta(args) -> tuple[dict, str, bool]:
    A = _load_algebra(args.infile)
    res = alg.delta_admissible(A)
    return ({"admissible": res.admissible, "witness": res.witness,
             "algebra": alg.with_delta(A, res.table).to_dict() if res.admissible else None},
            "admissible" if res.admissible else f"not admissible, witness {res.witness}",
            res.admissible)


def cmd_algebra_product(args) -> tuple[dict, str, bool]:
    factors = [_load_algebra(p) for p in args.infile]
    alg.check_table_size(math.prod(A.size for A in factors), _guard(alg.SIZE_GUARD))
    P = alg.product(factors)
    return P.to_dict(), f"product of {len(factors)} factors, size {P.size}", True


def cmd_algebra_homs(args) -> tuple[dict, str, bool]:
    A, B = _load_algebra(args.src), _load_algebra(args.dst)
    maps = alg.epimorphisms(A, B) if args.epi else alg.homomorphisms(A, B)
    return ({"count": len(maps), "maps": [list(h) for h in maps]},
            f"{len(maps)} {'epimorphisms' if args.epi else 'homomorphisms'}", True)


# -- filters ------------------------------------------------------------------

def _filter_guard(args) -> int | None:
    """The carrier-size guard of a filters verb; --force lifts it."""
    from .filters import FILTER_GUARD

    return None if args.force else _guard(FILTER_GUARD)


def cmd_filters_list(args) -> tuple[dict, str, bool]:
    from . import filters as flt

    fs = flt.all_filters(_load_algebra(args.infile), guard=_filter_guard(args))
    return {"filters": [list(f) for f in fs]}, f"{len(fs)} implicative filters", True


def cmd_filters_maximal(args) -> tuple[dict, str, bool]:
    from . import filters as flt

    fs = flt.maximal_filters(_load_algebra(args.infile), guard=_filter_guard(args))
    return {"filters": [list(f) for f in fs]}, f"{len(fs)} maximal filters", True


def _parse_filter(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise AlgebraError(f"bad filter spec {text!r}; want comma-separated indices")


def cmd_filters_quotient(args) -> tuple[dict, str, bool]:
    from . import filters as flt

    Q, proj = flt.quotient(_load_algebra(args.infile), _parse_filter(args.filter))
    return {**Q.to_dict(), "projection": list(proj)}, f"quotient of size {Q.size}", True


def cmd_filters_subdirect(args) -> tuple[dict, str, bool]:
    from . import filters as flt

    P, emb = flt.subdirect_embedding(_load_algebra(args.infile), guard=_filter_guard(args))
    return ({"product": P.to_dict(), "embedding": list(emb)},
            f"embedded into a product of size {P.size}", True)


def cmd_filters_classify(args) -> tuple[dict, str, bool]:
    from . import filters as flt

    got = flt.classify_simple(_load_algebra(args.infile), guard=_filter_guard(args))
    if got is None:
        return {"simple": False, "k": None, "isomorphism": None}, "not simple", False
    k, iso = got
    return ({"simple": True, "k": k, "isomorphism": list(iso)},
            f"simple: isomorphic to the {k}-chain with delta", True)


# -- free ---------------------------------------------------------------------

def cmd_free_build(args) -> tuple[dict, str, bool]:
    from . import freealg as fre

    F = fre.build_free(args.n, args.m, guard=_guard(alg.SIZE_GUARD))
    return ({**F.algebra.to_dict(), "generators": list(F.generators)},
            f"free algebra on {args.m} generators at level {args.n}: size {F.algebra.size}", True)


def cmd_free_size(args) -> tuple[dict, str, bool]:
    from . import freealg as fre

    sb = fre.size_formula(args.n, args.m, mode=args.mode)
    return sb.to_dict(), f"size formula ({args.mode}): {sb.total}", True


def cmd_free_verify(args) -> tuple[dict, str, bool]:
    from . import freealg as fre

    sb = fre.size_formula(args.n, args.m, mode=args.mode)
    F = fre.build_free(args.n, args.m, guard=_guard(alg.SIZE_GUARD))
    fre.minimal_elements(F)
    match = sb.total == F.algebra.size
    return ({"formula": sb.total, "constructed": F.algebra.size, "match": match},
            f"formula={sb.total} constructed={F.algebra.size} match={match}", match)


# -- logic ----------------------------------------------------------------------

def cmd_logic_taut(args) -> tuple[dict, str, bool]:
    from . import logic as lg
    from .formulas import parse as parse_formula

    verdict = lg.is_tautology(parse_formula(args.formula), args.n, guard=_guard(lg.WORK_GUARD))
    return ({"valid": verdict.holds, **verdict.to_dict()},
            "valid" if verdict.holds else f"counterexample {verdict.counterexample}", verdict.holds)


def cmd_logic_conseq(args) -> tuple[dict, str, bool]:
    from . import logic as lg
    from .formulas import parse as parse_formula

    hyps = [parse_formula(h) for h in args.hyp or []]
    f = parse_formula(args.formula)
    verdict = lg.consequence(hyps, f, args.n, guard=_guard(lg.WORK_GUARD))
    return ({"entails": verdict.holds, **verdict.to_dict()},
            "entailed" if verdict.holds else f"counterexample {verdict.counterexample}",
            verdict.holds)


def cmd_logic_prove_check(args) -> tuple[dict, str, bool]:
    from .formulas import _named
    from .proofs import check_proof, parse_proof

    P = parse_proof(_read_text(args.infile), system=args.system, n=args.n)
    report = check_proof(P, qgen_reading=args.qgen)
    return ({**report.to_dict(), "conclusion": _named(P.conclusion()),
             "hypotheses": [_named(h) for h in P.hypotheses()]},
            "proof checks" if report.passed else f"first failure at line {report.first_bad_line}",
            report.passed)


def cmd_logic_refute(args) -> tuple[dict, str, bool]:
    from . import logic as lg
    from .formulas import parse as parse_formula

    hit = lg.refute_search(parse_formula(args.formula), args.max_n, guard=_guard(lg.WORK_GUARD))
    if hit is None:
        return ({"refuted": False, "counterexample": None},
                f"no refutation up to chain size {args.max_n}", True)
    k, v = hit
    return ({"refuted": True, "counterexample": {"chain": k, "valuation": v}},
            f"refuted on the {k}-chain at {v}", False)


def cmd_logic_fo_eval(args) -> tuple[dict, str, bool]:
    from .fo import FOError, FOStructure, fo_eval, fo_parse
    from .formulas import TABLE_GUARD

    S = FOStructure.from_dict(_load_json(args.structure))
    f = fo_parse(args.formula)
    assignment = {}
    for item in args.assign or []:
        name, _, value = item.partition("=")
        try:
            assignment[name] = int(value)
        except ValueError:
            name = ""
        if not name:
            raise FOError(f"bad assignment {item!r}; want name=index")
    value = fo_eval(f, S, assignment, guard=_guard(TABLE_GUARD))
    top = S.algebra.top
    return {"value": value, "designated": value == top}, f"value {value} (top={top})", value == top


def cmd_logic_theorem_suite(args) -> tuple[dict, str, bool]:
    from . import logic as lg

    rep = lg.theorem_suite(args.n, guard=_guard(lg.WORK_GUARD))
    return (rep.to_dict(),
            "theorem suite passed" if rep.passed else f"{len(rep.violations)} violations",
            rep.passed)


def cmd_logic_hierarchy(args) -> tuple[dict, str, bool]:
    from . import logic as lg

    rep = lg.hierarchy_check(args.n, guard=_guard(lg.WORK_GUARD))
    return (rep.to_dict(),
            "hierarchy strict at this level" if rep.passed else "hierarchy check failed",
            rep.passed)


# -- wiring --------------------------------------------------------------------

# Every verb as {group: {verb: (help, options)}}, each option a (flag,
# add_argument keywords) pair after the --out that every verb takes.  The
# handler of (group, verb) is cmd_<group>_<verb> with "-" read as "_".
# _read_argv reads a job's argv from this table without argparse; it
# interprets the keywords dest, action (store_true or append), type (int),
# choices, required, default and help, and leaves an option with any other
# keyword to argparse.
_FLAG = {"action": "store_true"}
_INT = {"type": int, "required": True}
_TEXT = {"required": True}
_OUT = ("--out", {"help": "write the JSON report to this file"})
_IN = ("--in", {"dest": "infile", "required": True})
_FORCE = ("--force", _FLAG)
_MODE = ("--mode", {"choices": ["repaired", "literal"], "default": "repaired"})

_VERBS = {
    "algebra": {
        "chain": ("emit a chain algebra",
                  [("--n", _INT), ("--delta", _FLAG), ("--bottom", _FLAG)]),
        "check": ("run the law checkers",
                  [_IN, ("--n", {"type": int}), ("--quasi", _FLAG), ("--suite", _FLAG)]),
        "delta": ("decide delta admissibility", [_IN]),
        "product": ("componentwise product",
                    [("--in", {"dest": "infile", "action": "append", "required": True})]),
        "homs": ("enumerate homomorphisms",
                 [("--from", {"dest": "src", "required": True}),
                  ("--to", {"dest": "dst", "required": True}), ("--epi", _FLAG)]),
    },
    "filters": {
        "list": ("all implicative filters", [_IN, _FORCE]),
        "maximal": ("maximal filters", [_IN, _FORCE]),
        "quotient": ("quotient by a filter",
                     [_IN, ("--filter", {"required": True,
                                         "help": "comma-separated element indices"})]),
        "subdirect": ("subdirect embedding", [_IN, _FORCE]),
        "classify": ("simple-algebra classification", [_IN, _FORCE]),
    },
    "free": {
        "build": ("construct the free algebra", [("--n", _INT), ("--m", _INT)]),
        "size": ("evaluate the size formula", [("--n", _INT), ("--m", _INT), _MODE]),
        "verify": ("formula vs construction", [("--n", _INT), ("--m", _INT), _MODE]),
    },
    "logic": {
        "taut": ("tautology decision", [("--n", _INT), ("--formula", _TEXT)]),
        "conseq": ("matrix consequence",
                   [("--n", _INT), ("--formula", _TEXT), ("--hyp", {"action": "append"})]),
        "prove-check": ("check a proof file",
                        [("--system", {"choices": ["n", "bot"], "required": True}),
                         ("--n", {"type": int}), _IN,
                         ("--qgen", {"choices": ["paired", "literal"], "default": "paired"})]),
        "refute": ("search chains for a refutation",
                   [("--formula", _TEXT), ("--max-n", {"type": int, "default": 8})]),
        "fo-eval": ("evaluate a first-order formula",
                    [("--structure", _TEXT), ("--formula", _TEXT),
                     ("--assign", {"action": "append", "help": "var=domain-index"})]),
        "theorem-suite": ("derived-theorem suite", [("--n", _INT)]),
        "hierarchy": ("hierarchy strictness", [("--n", _INT)]),
    },
}

_READ_KEYWORDS = {"dest", "action", "type", "choices", "required", "default", "help"}


def _handler(group: str, verb: str):
    """cmd_<group>_<verb>, looked up in the module when called."""
    return globals()[f"cmd_{group}_{verb.replace('-', '_')}"]


def _read_argv(argv: list[str]):
    """The namespace build_parser().parse_args(argv) gives, read straight from
    _VERBS, or None to leave argv to argparse.

    It reads exactly `group verb` followed by declared flags spelled in full,
    each with its value.  It returns None for help, abbreviations,
    --flag=value, --, a value starting with "-" (argparse takes --n -1), a
    missing value, a value int() or the choices refuse, a missing required
    flag, and an option with a keyword it does not interpret.
    """
    if len(argv) < 2 or argv[1] not in _VERBS.get(argv[0], {}):
        return None
    group, verb = argv[0], argv[1]
    ns = {"group": group, "verb": verb, "fn": _handler(group, verb)}
    options, required = {}, set()
    for flag, kwargs in (_OUT, *_VERBS[group][verb][1]):
        action = kwargs.get("action", "store")
        if (kwargs.keys() - _READ_KEYWORDS or action not in ("store", "store_true", "append")
                or kwargs.get("type", int) is not int):
            return None
        dest = kwargs.get("dest", flag[2:].replace("-", "_"))
        ns[dest] = kwargs.get("default", False if action == "store_true" else None)
        options[flag] = dest, action, kwargs
        if kwargs.get("required"):
            required.add(flag)
    tokens = iter(argv[2:])
    for flag in tokens:
        if flag not in options:
            return None
        dest, action, kwargs = options[flag]
        required.discard(flag)
        if action == "store_true":
            ns[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in kwargs:
            try:
                value = int(value)
            except ValueError:
                return None
        if value not in kwargs.get("choices", (value,)):
            return None
        ns[dest] = [*(ns[dest] or ()), value] if action == "append" else value
    return None if required else types.SimpleNamespace(**ns)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every verb, read from _VERBS.  main builds it
    only for an argv _read_argv leaves: help, usage errors and the forms that
    reader declines; argparse is imported here, off a job's path."""
    import argparse

    top = argparse.ArgumentParser(prog="lukra", description=__doc__.rpartition("\n\n")[0])
    groups = top.add_subparsers(dest="group", required=True)
    for group, verbs in _VERBS.items():
        subs = groups.add_parser(group).add_subparsers(dest="verb", required=True)
        for verb, (help_text, options) in verbs.items():
            p = subs.add_parser(verb, help=help_text)
            p.set_defaults(fn=_handler(group, verb))
            for flag, kwargs in (_OUT, *options):
                p.add_argument(flag, **kwargs)
    return top


def main(argv=None) -> int:
    """Run one verb: the one place that emits a result and picks the exit code.
    Each handler returns (report, summary, holds): the JSON report, the stderr
    line, and whether the checked property holds (True for a plain query)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return USAGE if exc.code not in (0, None) else 0
    try:
        report, summary, holds = args.fn(args)
        try:
            _emit(report, args)
        except BrokenPipeError:
            if args.out is not None:
                raise
            # the reader of stdout left: the verdict stands, and there is no one to tell
            return OK if holds else PROPERTY_FALSE
    except (AlgebraError, OSError) as exc:
        _say(f"error: {exc}")
        return USAGE
    except InternalConsistencyError as exc:
        _say(f"internal inconsistency: {exc}")
        return INTERNAL
    except Exception as exc:
        # exit 1 means "property false", so an unforeseen error may not end there
        message = " ".join(str(exc).splitlines())
        _say(f"internal error: {type(exc).__name__}: {message}")
        return INTERNAL
    _say(summary)
    return OK if holds else PROPERTY_FALSE


def run() -> None:
    """The process entry of `python -m lukra.cli` and the `lukra` script:
    main() on sys.argv, then exit with its code.

    Everything alive when main() starts or returns is moved to the collector's
    permanent generation, so the collections at interpreter shutdown skip the
    loaded modules, classes and functions instead of tearing down memory that
    the exit frees anyway.  Atexit handlers, flushing and reference counting
    are unchanged; only cyclic garbage left at exit is not collected.  That is
    safe because src/lukra has no __del__, weakref.finalize or atexit, and
    every file a job opens (_read_text, behind every input file, and _emit's
    --out handle) is closed in a `with` block before main() returns;
    keep it so.  In-process callers call main(), which never freezes: each
    freeze pins every cycle made so far.

    A reader of stdout that left early (`| head`) does not change the exit
    code: fd 1 then points at os.devnull, where the final flush succeeds.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
