"""Traced job entry: run one lukra CLI command with spans around the public
functions of each module.

    python shim.py DUMP JOB SPAWN_NS ARGS...

SPAWN_NS is time.monotonic_ns() in the parent just before the spawn. Every
wrapped function is patched in each lukra.* namespace that binds it, so calls
between modules pass through the wrappers and become child spans. Spans stay
in memory and are written to DUMP as JSON when the command ends. The report
on stdout (or --out) and the exit code are those of the untraced command.
"""

import time

ENTRY_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Recorder  # noqa: E402


def _nodes(f) -> int:
    count, stack = 0, [f]
    while stack:
        g = stack.pop()
        count += 1
        stack.extend(getattr(g, a) for a in ("left", "right", "child") if hasattr(g, a))
    return count


def _patch_everywhere(orig, new) -> None:
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "lukra" or name.startswith("lukra.")):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Wrap the traced functions of every lukra module."""
    import lukra.algebra as alg
    import lukra.fo as fo
    import lukra.filters as flt
    import lukra.formulas as fml
    import lukra.freealg as fre
    import lukra.laws as laws
    import lukra.logic as lg
    import lukra.proofs as prf

    counts = rec.counts
    last_gens = [0]

    def add(name, value):
        counts[name] += value

    def free_post(args, F):
        add("freealg.elements", F.algebra.size)
        add("freealg.table_entries", F.algebra.size ** 2)
        add("freealg.coords", len(F.coord_sizes))

    def homs_post(args, out):
        add("algebra.homomorphisms.candidates", args[1].size ** last_gens[0])
        add("algebra.homomorphisms.found", len(out))

    def gens_post(args, out):
        last_gens[0] = len(out)

    def laws_pre(args):
        A, laws_ = args[0], list(args[1])
        add("laws.assignments", sum(A.size ** len(law.vars) for law in laws_))
        return (A, laws_, *args[2:])

    spans = [
        (fre, "build_free", "freealg.build_free", free_post),
        (fre, "size_formula", "freealg.size_formula", None),
        (fre, "minimal_elements", "freealg.minimal_elements", None),
        (flt, "all_filters", "filters.all_filters",
         lambda a, out: add("filters.filters_found", len(out))),
        (flt, "quotient", "filters.quotient", None),
        (flt, "subdirect_embedding", "filters.subdirect_embedding", None),
        (flt, "classify_simple", "filters.classify_simple", None),
        (alg, "homomorphisms", "algebra.homomorphisms", homs_post),
        (alg, "product", "algebra.product", None),
        (alg, "subalgebra_closure", "algebra.subalgebra_closure", None),
        (alg, "delta_admissible", "algebra.delta_admissible", None),
        (laws, "check_property_suite", "laws.check_property_suite", None),
        (laws, "check_LRdelta_quasi", "laws.check_LRdelta_quasi", None),
        (fml, "parse", "formulas.parse", lambda a, out: add("formulas.parse.nodes", _nodes(out))),
        (lg, "theorem_suite", "logic.theorem_suite", None),
        (lg, "is_tautology", "logic.is_tautology", None),
        (lg, "consequence", "logic.consequence", None),
        (prf, "check_proof", "proofs.check_proof", lambda a, out: add("proofs.lines", len(a[0].lines))),
        (fo, "fo_eval", "fo.fo_eval", None),
    ]
    for mod, attr, name, post in spans:
        orig = getattr(mod, attr)
        _patch_everywhere(orig, rec.span(name, orig, post))
    for mod, attr, name in [(fml, "eval_formula", "formulas.eval_formula"),
                            (fo, "eval_term", "fo.eval_term")]:
        orig = getattr(mod, attr)
        _patch_everywhere(orig, rec.hot_span(name, orig))
    for mod, attr, pre, post in [
        (flt, "_upsets", None, lambda a, out: add("filters.upsets_tried", len(out))),
        (alg, "generating_set", None, gens_post),
        (laws, "check_laws", laws_pre, None),
    ]:
        orig = getattr(mod, attr)
        _patch_everywhere(orig, rec.counted(orig, pre, post))
    _patch_everywhere(lg._sweep, rec.counted_iter("logic.sweep_evals", lg._sweep))

    post_init = alg.FiniteAlgebra.__post_init__

    def counted_post_init(self):
        post_init(self)
        add("algebra.FiniteAlgebra.table_entries", self.size ** 2)

    alg.FiniteAlgebra.__post_init__ = counted_post_init
    from_dict = fo.FOStructure.from_dict
    fo.FOStructure.from_dict = staticmethod(rec.span("cli.load", from_dict))


def main() -> int:
    dump_path, job, spawn_ns, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
    rec = Recorder(job)
    start = time.perf_counter()
    import lukra.cli as cli
    import_s = time.perf_counter() - start
    install(rec)
    cli._load_algebra = rec.span("cli.load", cli._load_algebra)
    cli._emit = rec.span("cli.emit", cli._emit)
    try:
        return rec.span("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(spawn_s=(ENTRY_NS - spawn_ns) / 1e9, import_s=import_s), fh)


if __name__ == "__main__":
    sys.exit(main())
