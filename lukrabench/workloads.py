"""Seeded job lists for the three workloads: free, algebra and logic.

A workload is a list of slots. A slot fixes the kind of job and how much work
it does (chain sizes, carrier-size band, variable count, level, whether the
formula is valid). Each slot has CANDIDATES interchangeable candidates; the
generator of a candidate is seeded by its workload, slot and candidate index,
never by the run's seed. The run's --seed picks one candidate per slot and the
order of the jobs. Hence:

* the same seed gives byte-identical inputs;
* the cost of a batch hardly depends on the seed, because every seed gets
  the same slots;
* the set of all candidates is finite, so goldens.json can hold the digest
  of every job any seed can produce.

Input files are produced here, by the benchmark's own code: the program under
test receives only the files and its argv.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracles import FREE_SIZES, least_counterexample, variables

CANDIDATES = 8
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# -- jobs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    In `argv`, an item "@name" stands for the path of input file `name` and
    "%name" for the path of output file `name`, both in the run directory.
    `check` names the independent oracle that re-checks the report.
    """
    argv: tuple[str, ...]
    check: tuple = ()

    @property
    def out(self) -> str | None:
        return next((a[1:] for a in self.argv if a.startswith("%")), None)

    def inputs(self) -> list[str]:
        return [a[1:] for a in self.argv if a.startswith("@")]

    def key(self, files: dict[str, bytes]) -> str:
        """Content key: the argv with each input replaced by its digest."""
        parts = [
            "@" + hashlib.sha256(files[a[1:]]).hexdigest() if a.startswith("@") else a
            for a in self.argv
        ]
        return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:32]


@dataclass
class Batch:
    """The jobs of one workload for one seed, with their input files."""
    workload: str
    jobs: list[Job]
    files: dict[str, bytes] = field(default_factory=dict)
    props: dict = field(default_factory=dict)

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in sorted(self.files.items()):
            (directory / name).write_bytes(data)


def _job(*argv, check=()) -> Job:
    return Job(tuple(str(a) for a in argv), check)


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


# -- free ---------------------------------------------------------------------

# Sizes whose predicted carrier exceeds build_free's guard: the formula alone.
# Their totals stay below Python's 4300-digit limit for printing an int.
BEYOND_GUARD = [(3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4), (4, 5), (5, 2), (5, 3), (5, 4),
                (5, 5), (6, 1), (6, 2), (6, 3), (6, 4), (7, 1), (7, 2), (7, 3), (7, 4), (8, 2)]


def _free_jobs() -> list[Job]:
    jobs = []
    for n, m in FREE_SIZES:
        jobs.append(_job("free", "verify", "--n", n, "--m", m, check=("free_verify", n, m)))
        jobs.append(_job("free", "build", "--n", n, "--m", m, "--out", f"%free_{n}_{m}.json",
                         check=("free_build", n, m)))
    for n, m in BEYOND_GUARD:
        jobs.append(_job("free", "size", "--n", n, "--m", m))
    return jobs


def free_batch(seed: int) -> Batch:
    jobs = _free_jobs()
    random.Random(f"free/{seed}").shuffle(jobs)
    props = {"sizes": [{"n": n, "m": m, "elements": s} for (n, m), s in FREE_SIZES.items()],
             "beyond_guard": [list(nm) for nm in BEYOND_GUARD]}
    return Batch("free", jobs, {}, props)


# -- algebra ------------------------------------------------------------------

# Carrier-size bands, one algebra per band. The law suite grows as N^3 and
# filter enumeration steeply with size and width (about 1 s at 48 elements),
# so the top band stops at 45 to keep every job near a second.
ALGEBRA_SLOTS = [(4, 7), (8, 11), (12, 15), (16, 19), (20, 24), (25, 29), (30, 34), (35, 40), (41, 45)]


def chain_table(k: int) -> tuple[list[list[int]], list[int]]:
    """Implication and delta tables of the k-element chain, index i = i/(k-1)."""
    m = k - 1
    return [[min(m, m - i + j) for j in range(k)] for i in range(k)], [0] * m + [m]


def chain_algebra(k: int, bottom: bool) -> dict:
    imp, delta = chain_table(k)
    return {"size": k, "top": k - 1, "bottom": 0 if bottom else None, "imp": imp,
            "delta": delta, "label": f"L{k}+d" + ("+b" if bottom else "")}


def _product(ks: tuple[int, ...]):
    coords = list(itertools.product(*[range(k) for k in ks]))
    index = {c: i for i, c in enumerate(coords)}
    tables = [chain_table(k) for k in ks]
    imp = [[index[tuple(t[0][a][b] for t, a, b in zip(tables, u, v))] for v in coords]
           for u in coords]
    delta = [index[tuple(t[1][a] for t, a in zip(tables, u))] for u in coords]
    return imp, delta, index[tuple(k - 1 for k in ks)], index[(0,) * len(ks)]


def _closure(imp, delta, members: set[int]) -> list[int]:
    queue = list(members)
    while queue:
        x = queue.pop()
        for y in tuple(members):
            for z in (imp[x][y], imp[y][x]):
                if z not in members:
                    members.add(z)
                    queue.append(z)
        z = delta[x]
        if z not in members:
            members.add(z)
            queue.append(z)
    return sorted(members)


def algebra_candidate(slot: int, cand: int, products: dict | None = None) -> dict:
    """A subalgebra of a product of 2-3 delta chains of sizes 2-5 whose
    carrier falls in the slot's band, as an algebra interchange dict."""
    lo, hi = ALGEBRA_SLOTS[slot]
    rng = random.Random(f"algebra/{slot}/{cand}")
    products = {} if products is None else products
    while True:
        ks = tuple(sorted(rng.randint(2, 5) for _ in range(rng.choice((2, 3)))))
        bottom = rng.random() < 0.5
        if ks not in products:
            products[ks] = _product(ks)
        imp, delta, top, bot = products[ks]
        gens = rng.sample(range(len(imp)), rng.randint(1, 3))
        seed = {top, *gens} | ({bot} if bottom else set())
        carrier = _closure(imp, delta, seed)
        if lo <= len(carrier) <= hi:
            break
    new = {e: i for i, e in enumerate(carrier)}
    return {
        "size": len(carrier),
        "top": new[top],
        "bottom": new[bot] if bottom else None,
        "imp": [[new[imp[x][y]] for y in carrier] for x in carrier],
        "delta": [new[delta[x]] for x in carrier],
        "label": "sub(" + " x ".join(f"L{k}" for k in ks) + ")",
        "generators": [new[g] for g in gens],
    }


def width(alg: dict) -> int:
    """Largest antichain of the derived order (Dilworth via bipartite matching)."""
    n, top, imp = alg["size"], alg["top"], alg["imp"]
    succ = [[y for y in range(n) if y != x and imp[x][y] == top] for x in range(n)]
    match_of: dict[int, int] = {}

    def augment(x: int, seen: set[int]) -> bool:
        for y in succ[x]:
            if y not in seen:
                seen.add(y)
                if y not in match_of or augment(match_of[y], seen):
                    match_of[y] = x
                    return True
        return False

    return n - sum(augment(x, set()) for x in range(n))


def _algebra_jobs(name: str, bottom: bool) -> list[Job]:
    b = "b" if bottom else ""
    jobs = [
        _job("algebra", "check", "--in", f"@{name}", "--suite", "--quasi"),
        _job("algebra", "delta", "--in", f"@{name}"),
    ]
    for k in (2, 3, 4):
        jobs.append(_job("algebra", "homs", "--from", f"@{name}", "--to", f"@L{k}{b}.json", "--epi"))
    for verb in ("list", "maximal", "subdirect", "classify"):
        check = ("filters", f"@{name}") if verb in ("list", "maximal") else ()
        jobs.append(_job("filters", verb, "--in", f"@{name}", "--force", check=check))
    return jobs


def _algebra_batch(choice: list[int], order_seed) -> Batch:
    files: dict[str, bytes] = {}
    for k in (2, 3, 4):
        files[f"L{k}.json"] = _dump(chain_algebra(k, False))
        files[f"L{k}b.json"] = _dump(chain_algebra(k, True))
    jobs, props, products = [], [], {}
    for slot, cand in enumerate(choice):
        alg = algebra_candidate(slot, cand, products)
        gens = alg.pop("generators")
        name = f"a{slot}.json"
        files[name] = _dump(alg)
        jobs += _algebra_jobs(name, alg["bottom"] is not None)
        props.append({"slot": slot, "candidate": cand, "label": alg["label"], "size": alg["size"],
                      "width": width(alg), "generators": len(gens)})
    random.Random(order_seed).shuffle(jobs)
    return Batch("algebra", jobs, files, {"algebras": props})


def algebra_batch(seed: int) -> Batch:
    rng = random.Random(f"algebra/{seed}")
    return _algebra_batch([rng.randrange(CANDIDATES) for _ in ALGEBRA_SLOTS], f"algebra/order/{seed}")


# -- logic: formulas ----------------------------------------------------------
#
# Formulas are nested tuples: ("var", name), ("T",), ("F",), ("imp", a, b),
# ("D", a), ("not", a), ("or", a, b), ("and", a, b), ("impk", k, a, b).
# The sugar (not, or, and, ->[k]) is kept so the program's parser sees it.

NAMES = ("p", "q", "r", "s")


def text(f) -> str:
    """Formula text in the program's syntax; every compound operand is
    parenthesised."""
    op = f[0]
    if op == "var":
        return f[1]
    if op in ("T", "F"):
        return op

    def arg(g):
        return text(g) if g[0] in ("var", "T", "F") else f"({text(g)})"

    if op == "imp":
        return f"{arg(f[1])} -> {arg(f[2])}"
    if op == "impk":
        return f"{arg(f[2])} ->[{f[1]}] {arg(f[3])}"
    if op == "D":
        return f"D {arg(f[1])}"
    if op == "not":
        return f"~{arg(f[1])}"
    if op == "or":
        return f"{arg(f[1])} | {arg(f[2])}"
    if op == "and":
        return f"{arg(f[1])} & {arg(f[2])}"
    raise ValueError(f"not a formula: {f!r}")


def core_nodes(f) -> int:
    """Node count after the program's sugar elimination (or and and repeat
    an operand, ->[k] repeats its left operand k times)."""
    op = f[0]
    if op in ("var", "T", "F"):
        return 1
    if op == "imp":
        return 1 + core_nodes(f[1]) + core_nodes(f[2])
    if op == "D":
        return 1 + core_nodes(f[1])
    if op == "not":
        return 2 + core_nodes(f[1])
    if op == "or":
        return 2 + core_nodes(f[1]) + 2 * core_nodes(f[2])
    if op == "and":
        return 10 + core_nodes(f[1]) + 2 * core_nodes(f[2])
    if op == "impk":
        return core_nodes(f[3]) + f[1] * (1 + core_nodes(f[2]))
    raise ValueError(f"not a formula: {f!r}")


def depth(f) -> int:
    subs = [g for g in f[1:] if isinstance(g, tuple)]
    return 1 + max(map(depth, subs)) if subs else 0


def random_formula(rng: random.Random, names, d: int):
    if d <= 0:
        return ("var", rng.choice(names)) if rng.random() < 0.92 else (rng.choice(("T", "F")),)
    op = rng.choices(("imp", "D", "not", "or", "and", "impk"), (6, 2, 1, 1, 1, 1))[0]
    if op in ("D", "not"):
        return (op, random_formula(rng, names, d - 1))
    a, b = random_formula(rng, names, d - 1), random_formula(rng, names, rng.randint(0, d - 1))
    if rng.random() < 0.5:
        a, b = b, a
    return ("impk", rng.randint(1, 3), a, b) if op == "impk" else (op, a, b)


def _imp(a, b):
    return ("imp", a, b)


def _D(a):
    return ("D", a)


# Theorems of every level-n calculus with bottom; A, B, C are substituted.
THEOREMS = [
    lambda A, B, C, n: _imp(A, _imp(B, A)),
    lambda A, B, C, n: _imp(_imp(A, B), _imp(_imp(B, C), _imp(A, C))),
    lambda A, B, C, n: _imp(_imp(_imp(A, B), B), _imp(_imp(B, A), A)),
    lambda A, B, C, n: _imp(_imp(_imp(A, B), _imp(B, A)), _imp(B, A)),
    lambda A, B, C, n: _imp(_imp(("impk", n - 1, A, B), A), A),
    lambda A, B, C, n: _imp(_D(A), A),
    lambda A, B, C, n: _imp(_D(_imp(A, B)), _imp(_D(A), _D(B))),
    lambda A, B, C, n: _imp(("and", A, B), A),
    lambda A, B, C, n: _imp(A, ("or", A, B)),
    lambda A, B, C, n: ("or", _D(A), ("not", _D(A))),
    lambda A, B, C, n: ("impk", n, A, _D(A)),
]

# Derived rules: (hypotheses, conclusion).
RULES = [
    lambda A, B, C, n: ([A, _imp(A, B)], B),
    lambda A, B, C, n: ([_imp(A, B), _imp(B, C)], _imp(A, C)),
    lambda A, B, C, n: ([A], _D(A)),
    lambda A, B, C, n: ([_imp(A, B)], _imp(_D(A), _D(B))),
    lambda A, B, C, n: ([("impk", n - 1, A, B)], ("impk", n - 1, _D(A), _D(B))),
]

# (verb, valid, variables, level). Valid jobs sweep every valuation of every
# chain up to the level; refutable ones stop at the first counterexample.
LOGIC_SLOTS = (
    [("taut", True, v, n) for v, n in [(1, 12), (2, 12), (2, 9), (3, 8), (3, 10), (4, 6), (4, 7), (3, 6)]]
    + [("taut", False, v, n) for v, n in [(1, 12), (2, 10), (2, 7), (3, 9), (3, 11), (4, 6), (4, 8), (3, 12)]]
    + [("conseq", True, v, n) for v, n in [(2, 12), (3, 8), (3, 10), (4, 6), (2, 7)]]
    + [("conseq", False, v, n) for v, n in [(2, 11), (3, 9), (4, 7), (3, 6), (2, 8)]]
    + [("refute", True, v, n) for v, n in [(2, 11), (3, 9), (4, 6), (1, 12)]]
    + [("refute", False, v, n) for v, n in [(2, 12), (3, 10), (4, 7), (3, 6)]]
)
# Core-node bands. A valid job's sweep costs about nodes x valuations, so its
# band is narrow; a refutable job stops early, so its band is wide.
NODE_BAND = {True: (32, 38), False: (20, 48)}


def _fits(fs, v: int, valid: bool) -> bool:
    names = set().union(*map(variables, fs))
    lo, hi = NODE_BAND[valid]
    return (names == set(NAMES[:v]) and lo <= sum(map(core_nodes, fs)) <= hi
            and all(depth(f) <= 6 for f in fs) and max(map(depth, fs)) >= 3)


def logic_candidate(slot: int, cand: int) -> tuple[list, object]:
    """(hypotheses, formula) for a slot; refutable candidates are checked
    refutable by the oracle, valid ones are instances of THEOREMS/RULES."""
    verb, valid, v, n = LOGIC_SLOTS[slot]
    rng = random.Random(f"logic/{slot}/{cand}")
    names = NAMES[:v]
    while True:
        if valid:
            subs = [random_formula(rng, names, rng.randint(0, 3)) for _ in range(3)]
            if verb == "conseq":
                hyps, f = rng.choice(RULES)(*subs, n)
            else:
                hyps, f = [], rng.choice(THEOREMS)(*subs, n)
        else:
            hyps = [random_formula(rng, names, rng.randint(1, 3))] if verb == "conseq" else []
            f = random_formula(rng, names, rng.randint(3, 6))
        if not _fits(hyps + [f], v, valid):
            continue
        if valid or least_counterexample(hyps, f, n) is not None:
            return hyps, f


def _logic_formula_job(slot: int, cand: int) -> Job:
    verb, valid, v, n = LOGIC_SLOTS[slot]
    hyps, f = logic_candidate(slot, cand)
    check = (verb, tuple(hyps), f, n)
    if verb == "refute":
        return _job("logic", "refute", "--formula", text(f), "--max-n", n, check=check)
    argv = ["logic", verb, "--n", n, "--formula", text(f)]
    for h in hyps:
        argv += ["--hyp", text(h)]
    return _job(*argv, check=check)


# -- logic: first-order structures --------------------------------------------

FO_SLOTS = [(3, 3), (3, 4), (4, 3), (4, 5), (5, 3), (5, 4), (4, 6), (3, 5)]  # (domain, chain size)
FO_VARS = ("x", "y", "z")


def _fo_atom(rng: random.Random, bound: list[str]) -> str:
    def term():
        t = rng.choice(bound + ["c"])
        return f"f({t})" if rng.random() < 0.3 else t

    kind = rng.choices(("P", "Q", "R", "eq"), (3, 2, 3, 1))[0]
    if kind == "R":
        return f"R({term()}, {term()})"
    if kind == "eq":
        return f"{term()} = {term()}"
    return f"{kind}({term()})"


def _fo_body(rng: random.Random, bound: list[str], d: int) -> str:
    if d == 0:
        return _fo_atom(rng, bound)
    op = rng.choices(("->", "|", "&", "D", "~"), (4, 2, 2, 1, 1))[0]
    if op in ("D", "~"):
        return f"{op}({_fo_body(rng, bound, d - 1)})"
    return f"({_fo_body(rng, bound, d - 1)}) {op} ({_fo_body(rng, bound, rng.randint(0, d - 1))})"


def fo_candidate(slot: int, cand: int) -> tuple[dict, str]:
    """A chain-valued structure and a closed formula with 2-3 nested quantifiers."""
    dom, k = FO_SLOTS[slot]
    rng = random.Random(f"fo/{slot}/{cand}")
    alg = chain_algebra(k, False)
    alg.pop("label")
    cells = list(range(dom))
    structure = {
        "domain_size": dom,
        "algebra": alg,
        "predicates": {
            "P": {"arity": 1, "table": {str(i): rng.randrange(k) for i in cells}},
            "Q": {"arity": 1, "table": {str(i): rng.randrange(k) for i in cells}},
            "R": {"arity": 2, "table": {f"{i},{j}": rng.randrange(k) for i in cells for j in cells}},
        },
        "functions": {"f": {"arity": 1, "table": {str(i): rng.randrange(dom) for i in cells}}},
        "constants": {"c": rng.randrange(dom)},
    }
    quantifiers = FO_VARS[: rng.choice((2, 3))]
    formula = _fo_body(rng, list(quantifiers), rng.randint(2, 3))
    for x in reversed(quantifiers):
        formula = f"{rng.choice(('forall', 'exists'))} {x} ({formula})"
    return structure, formula


# -- logic: batch -------------------------------------------------------------

THEOREM_SUITE_LEVELS = (9, 10, 11, 12)
HIERARCHY_LEVELS = (3, 4, 5, 6, 7, 8)
# Copies of the program's proof fixtures, so the workload keeps its inputs
# (and goldens) when the test fixtures change.
PROOFS = {  # fixture -> (system, level)
    "lh20_n3.proof": ("n", 3), "lh21_n3.proof": ("n", 3), "lh24_n3.proof": ("n", 3),
    "lh25_n3.proof": ("n", 3), "lh26_n3.proof": ("n", 3), "lh27_n3.proof": ("n", 3),
    "crisp_delta_p.proof": ("bot", None),
}


def _logic_batch(choice: list[int], fo_choice: list[int], order_seed) -> Batch:
    files: dict[str, bytes] = {}
    jobs = [_logic_formula_job(s, c) for s, c in enumerate(choice)]
    for n in THEOREM_SUITE_LEVELS:
        jobs.append(_job("logic", "theorem-suite", "--n", n))
    for n in HIERARCHY_LEVELS:
        jobs.append(_job("logic", "hierarchy", "--n", n))
    for name, (system, n) in PROOFS.items():
        files[name] = (FIXTURES / name).read_bytes()
        jobs.append(_job("logic", "prove-check", "--system", system, *(("--n", n) if n else ()),
                         "--in", f"@{name}"))
    fo_props = []
    for slot, cand in enumerate(fo_choice):
        structure, formula = fo_candidate(slot, cand)
        files[f"s{slot}.json"] = _dump(structure)
        jobs.append(_job("logic", "fo-eval", "--structure", f"@s{slot}.json", "--formula", formula))
        fo_props.append({"domain": FO_SLOTS[slot][0], "chain": FO_SLOTS[slot][1],
                         "quantifiers": formula.count("forall") + formula.count("exists")})
    formulas = [j.check for j in jobs if j.check]
    props = {
        "formulas": [{"verb": verb, "variables": len(set().union(*map(variables, [*h, f]))),
                      "depth": max(map(depth, [*h, f])), "level": n, "valid": valid}
                     for (verb, h, f, n), (_, valid, _, _) in zip(formulas, LOGIC_SLOTS)],
        "valid_share": sum(s[1] for s in LOGIC_SLOTS) / len(LOGIC_SLOTS),
        "structures": fo_props,
    }
    random.Random(order_seed).shuffle(jobs)
    return Batch("logic", jobs, files, props)


def logic_batch(seed: int) -> Batch:
    rng = random.Random(f"logic/{seed}")
    choice = [rng.randrange(CANDIDATES) for _ in LOGIC_SLOTS]
    fo_choice = [rng.randrange(CANDIDATES) for _ in FO_SLOTS]
    return _logic_batch(choice, fo_choice, f"logic/order/{seed}")


# -- registry -----------------------------------------------------------------

BATCHES = {"free": free_batch, "algebra": algebra_batch, "logic": logic_batch}


def universe(workload: str) -> list[Batch]:
    """Batches that together hold every job any seed can produce (candidate c
    in every slot, for each c), for recording the goldens."""
    if workload == "free":
        return [free_batch(0)]
    if workload == "algebra":
        return [_algebra_batch([c] * len(ALGEBRA_SLOTS), 0) for c in range(CANDIDATES)]
    return [_logic_batch([c] * len(LOGIC_SLOTS), [c] * len(FO_SLOTS), 0) for c in range(CANDIDATES)]
