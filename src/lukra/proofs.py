"""Hilbert-style proof objects, file format, and the line-by-line checker.

A proof is a numbered list of formulas with justifications: axiom-schema
instances (checked by one-way matching of the schema's metavariables,
after iterated implications have been expanded), modus ponens (matched by
formula, not premise position), hypotheses, and -- in the bottom-enriched
system -- the crispness rule over three premise lines.

Proof files carry one step per line:

    <idx>. <formula> ; AX<k>[n=<n>] | MP <i> <j> | HYP <i> | QGEN <i> <j> <k>

Lines starting with '#' are comments.
"""

from __future__ import annotations

import re

from .algebra import AlgebraError
from .formulas import (Formula, Imp, _quoted, match, mismatch, parse, substitute, to_text,
                       uses_bot)
from .logic import axiom_schemas_bot, axiom_schemas_n
from .records import Record, field

SYSTEM_N = "n"
SYSTEM_BOT = "bot"


class ProofSyntaxError(AlgebraError):
    """Malformed proof text or ill-formed proof object."""


class ByAxiom(Record):
    name: str
    level: int | None = None
    substitution: dict | None = field(default=None, compare=False)


class ByMP(Record):
    i: int
    j: int


class ByHyp(Record):
    k: int


class ByQGen(Record):
    i: int
    j: int
    k: int


class ProofLine(Record):
    idx: int
    formula: Formula
    just: object


class Proof(Record):
    system: str
    n: int | None
    lines: tuple[ProofLine, ...]

    def hypotheses(self) -> list[Formula]:
        return [ln.formula for ln in self.lines if isinstance(ln.just, ByHyp)]

    def conclusion(self) -> Formula:
        return self.lines[-1].formula


class ProofReport(Record):
    passed: bool
    failures: tuple[tuple[int, str], ...]

    def __bool__(self) -> bool:
        return self.passed

    @property
    def first_bad_line(self) -> int | None:
        return self.failures[0][0] if self.failures else None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": [{"line": i, "reason": r} for i, r in self.failures],
        }


def check_proof(P: Proof, qgen_reading: str = "paired") -> ProofReport:
    """Verify every line; reports (line, reason) for each failure.

    `qgen_reading` selects how the crispness rule's first two premises are
    read: "paired" wants both inclusion directions (the two lines assert
    gamma->beta and its double-implication form imply each other); the
    "literal" reading takes the rule exactly as printed, with the same
    premise shape twice.
    """
    if P.system not in (SYSTEM_N, SYSTEM_BOT):
        raise ProofSyntaxError(f"unknown system {P.system!r}")
    if P.system == SYSTEM_N:
        if P.n is None or P.n < 2:
            raise ProofSyntaxError("the n-valued system needs n >= 2")
        schemas = axiom_schemas_n(P.n)
    else:
        schemas = axiom_schemas_bot()
    if qgen_reading not in ("paired", "literal"):
        raise ProofSyntaxError(f"unknown qgen reading {qgen_reading!r}")

    failures: list[tuple[int, str]] = []
    by_idx: dict[int, Formula] = {}
    hyp_count = 0
    prev_idx = 0
    for line in P.lines:
        idx, f, just = line.idx, line.formula, line.just
        reason = None
        if idx <= prev_idx:
            reason = f"line index {idx} does not increase"
        prev_idx = idx
        if reason is None and P.system == SYSTEM_N and uses_bot(f):
            reason = "bottom is not part of the n-valued system's language"
        if reason is None:
            if isinstance(just, ByAxiom):
                reason = _check_axiom(f, just, schemas, P)
            elif isinstance(just, ByMP):
                reason = _check_mp(f, just, by_idx, idx)
            elif isinstance(just, ByHyp):
                hyp_count += 1
                if just.k != hyp_count:
                    reason = f"hypothesis number {just.k}, expected {hyp_count}"
            elif isinstance(just, ByQGen):
                reason = (_check_qgen(f, just, by_idx, idx, qgen_reading) if P.system == SYSTEM_BOT
                          else "the crispness rule belongs to the bottom system")
            else:
                reason = f"unknown justification {just!r}"
        if reason:
            failures.append((idx, reason))
        by_idx[idx] = f
    return ProofReport(passed=not failures, failures=tuple(failures))


def _check_axiom(f: Formula, just: ByAxiom, schemas, P: Proof) -> str | None:
    schema = schemas.get(just.name)
    if schema is None:
        return f"no axiom named {just.name} in this system"
    if just.level is not None and P.system == SYSTEM_N and just.level != P.n:
        return f"axiom cited at level {just.level} inside the level-{P.n} system"
    reason = mismatch(schema, f, {})
    if reason:
        return f"not an instance of {just.name}: " + reason
    if just.substitution is not None:
        expected = substitute(schema, just.substitution)
        if expected != f:
            return f"recorded substitution does not produce this line"
    return None


def _ref(by_idx, idx, current) -> Formula | None:
    if idx >= current or idx not in by_idx:
        return None
    return by_idx[idx]


def _check_mp(f: Formula, just: ByMP, by_idx, current) -> str | None:
    fi = _ref(by_idx, just.i, current)
    fj = _ref(by_idx, just.j, current)
    if fi is None or fj is None:
        return f"MP references lines {just.i}, {just.j} not strictly earlier"
    if fj == Imp(fi, f) or fi == Imp(fj, f):
        return None
    return f"MP mismatch: neither cited line is {_quoted(Imp(fi, f))} or {_quoted(Imp(fj, f))}"


# The crispness rule as patterns over the metavariables g, a and b: from an
# up and a down premise and g -> a, infer g -> D a.
_QGEN_CONCLUSION, _QGEN_UP, _QGEN_DOWN = map(parse, (
    "g -> D a", "(g -> b) -> (g -> (g -> b))", "(g -> (g -> b)) -> (g -> b)"))


def _check_qgen(f: Formula, just: ByQGen, by_idx, current, reading: str) -> str | None:
    at = match(_QGEN_CONCLUSION, f)
    if at is None:
        return "conclusion of the crispness rule must be g -> D a"
    fi, fj, fk = (_ref(by_idx, i, current) for i in (just.i, just.j, just.k))
    if fi is None or fj is None or fk is None:
        return "rule references lines not strictly earlier"
    third = Imp(at["g"], at["a"])
    if fk is not third:
        return f"third premise must be {_quoted(third)}"
    if reading == "literal":    # each an up premise, with its own b
        return (None if all(match(_QGEN_UP, x, dict(at)) is not None for x in (fi, fj))
                else "first two premises must be (g->b)->(g->(g->b)) at this g")
    # paired: an up and a down premise at one b, in either order
    for up, down in ((fi, fj), (fj, fi)):
        b = match(_QGEN_UP, up, dict(at))
        if b is not None and match(_QGEN_DOWN, down, b) is not None:
            return None
    return ("first two premises must assert both directions between "
            "g->b and g->(g->b) for some b")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_LINE_RE = re.compile(r"^\s*(\d+)\.\s*(.*?)\s*;\s*(.*?)\s*$")
_AX_RE = re.compile(r"^AX(\w+?)(?:\[n=(\d+)\])?$")


def parse_proof(text: str, system: str, n: int | None = None) -> Proof:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _LINE_RE.match(stripped)
        if m is None:
            raise ProofSyntaxError(f"bad proof line: {raw!r}")
        idx = _number(m.group(1), "line index", lineno)
        formula = parse(m.group(2))
        just = _parse_just(m.group(3), lineno)
        lines.append(ProofLine(idx=idx, formula=formula, just=just))
    if not lines:
        raise ProofSyntaxError("empty proof")
    return Proof(system=system, n=n, lines=tuple(lines))


def _number(digits: str, what: str, lineno: int) -> int:
    """int(digits) for a run of digits, which int() refuses only past its limit
    on the length of the text it reads."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ProofSyntaxError(
            f"{what} on text line {lineno} has {len(digits)} digits, too many to read") from exc


def _parse_just(text: str, lineno: int):
    parts = text.split()
    if not parts:
        raise ProofSyntaxError("missing justification")
    head = parts[0].upper()
    if head.startswith("AX"):
        m = _AX_RE.match(parts[0])
        if m is None or len(parts) != 1:
            raise ProofSyntaxError(f"bad axiom citation {text!r}")
        return ByAxiom(name=f"AX{m.group(1)}",
                       level=_number(m.group(2), "axiom level", lineno) if m.group(2) else None)
    try:
        if head == "MP" and len(parts) == 3:
            return ByMP(i=int(parts[1]), j=int(parts[2]))
        if head == "HYP" and len(parts) == 2:
            return ByHyp(k=int(parts[1]))
        if head == "QGEN" and len(parts) == 4:
            return ByQGen(i=int(parts[1]), j=int(parts[2]), k=int(parts[3]))
    except ValueError:  # a cited line that is not a number
        pass
    raise ProofSyntaxError(f"bad justification {text!r}")


def serialize_proof(P: Proof) -> str:
    header = f"# system: {P.system}" + (f" n={P.n}" if P.n is not None else "")
    out = [header]
    for ln in P.lines:
        if isinstance(ln.just, ByAxiom):
            just = ln.just.name + (f"[n={ln.just.level}]" if ln.just.level else "")
        elif isinstance(ln.just, ByMP):
            just = f"MP {ln.just.i} {ln.just.j}"
        elif isinstance(ln.just, ByHyp):
            just = f"HYP {ln.just.k}"
        else:
            just = f"QGEN {ln.just.i} {ln.just.j} {ln.just.k}"
        out.append(f"{ln.idx}. {to_text(ln.formula)} ; {just}")
    return "\n".join(out) + "\n"
