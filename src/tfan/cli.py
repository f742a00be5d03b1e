"""Problem-file parsing, deterministic serialisation, and the tfan CLI.

Input format (line oriented, ``#`` starts a comment)::

    ring t; x, y, z
    prime 2
    order weights (-1,1,1,1); tiebreak x > y > z
    ideal
      2 - t
      x*y^2 - t^2*y^3
    end

Polynomials use integer coefficients, ``*`` for products and ``^`` for
powers.  The ``prime`` and ``order`` lines are optional; a declared prime p
requires ``p - t`` among the generators.

Output is plain text organised in blocks (``SB``, ``INITIAL``, ``CONE``,
``FAN``, ``V-POLYHEDRON``, ``CHECK``) with counted sections, primitive
integer rows sorted lexicographically, and canonical polynomial order, so
two runs with the same arguments are byte-identical.  Exit codes: 0 success,
1 computation error, 2 parse error.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import fan as fan_mod
from .cone import HCone, affine_slice, dd_rays, make_cone
from .division import minimize, standard_basis
from .errors import InvalidInput, ParseError, TfanError
from .inred import ensure_initially_reduced
from .poly import Ideal, MonomialOrdering, Polynomial, is_x_homogeneous

# ---------------------------------------------------------------------------
# Polynomial text form
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([*^+\-]))")


def parse_poly(text: str, names, line_no=None) -> Polynomial:
    """Parse a polynomial over t and the given x-variable names."""
    idx = {"t": 0}
    for i, nm in enumerate(names):
        idx[nm] = 1 + i
    n = len(names)
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}",
                                 line_no, pos + 1)
            break
        tokens.append((m.group(1), m.group(2), m.group(3), m.start()))
        pos = m.end()
    terms = []
    i = 0

    def error(msg, at):
        raise ParseError(msg, line_no, at + 1)

    sign = 1
    if i < len(tokens) and tokens[i][2] in ("+", "-"):
        sign = -1 if tokens[i][2] == "-" else 1
        i += 1
    while i < len(tokens):
        coeff = sign
        exp = [0] * (1 + n)
        saw_factor = False
        while True:
            if i >= len(tokens):
                error("unexpected end of polynomial", len(text) - 1)
            num, name, op, at = tokens[i]
            if num is not None:
                coeff *= int(num)
                i += 1
            elif name is not None:
                if name not in idx:
                    error(f"unknown variable {name!r}", at)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][2] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] is None:
                        error("expected integer exponent after '^'", at)
                    power = int(tokens[i][0])
                    i += 1
                exp[idx[name]] += power
            else:
                error(f"unexpected {op!r}", at)
            saw_factor = True
            if i < len(tokens) and tokens[i][2] == "*":
                i += 1
                continue
            break
        if not saw_factor:
            error("empty term", 0)
        terms.append((coeff, tuple(exp)))
        if i >= len(tokens):
            break
        num, name, op, at = tokens[i]
        if op not in ("+", "-"):
            error(f"expected '+' or '-', found {op or num or name!r}", at)
        sign = -1 if op == "-" else 1
        i += 1
        if i >= len(tokens):
            error("dangling sign at end of polynomial", at)
    if not terms:
        raise ParseError("empty polynomial", line_no, 1)
    return Polynomial.from_terms(terms)


def format_frac(x) -> str:
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_poly(f: Polynomial, names) -> str:
    if f.is_zero:
        return "0"
    out = []
    for k, (coeff, exp) in enumerate(f.terms):
        mags = []
        if exp[0] > 0:
            mags.append("t" if exp[0] == 1 else f"t^{exp[0]}")
        for i, e in enumerate(exp[1:]):
            if e > 0:
                mags.append(names[i] if e == 1 else f"{names[i]}^{e}")
        mag = "*".join(mags)
        c = abs(coeff)
        body = mag if c == 1 and mag else (f"{c}*{mag}" if mag else str(c))
        if k == 0:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(out)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemFile:
    names: tuple[str, ...]
    gens: tuple[Polynomial, ...]
    prime: int | None
    weights: tuple[tuple, ...]  # may be empty
    tiebreak: tuple[int, ...]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def ideal(self) -> Ideal:
        return Ideal(self.gens, self.nvars, self.prime)

    def ordering(self, weight_override=None) -> MonomialOrdering:
        if weight_override is not None:
            return MonomialOrdering((tuple(weight_override),), self.tiebreak)
        return MonomialOrdering(self.weights or (fan_mod.default_weight(self.nvars),),
                                self.tiebreak)


def parse_weight_vector(text: str, expected_len=None):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",") if p.strip()]
    try:
        vec = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad weight vector {text!r}: {exc}")
    if expected_len is not None and len(vec) != expected_len:
        raise ParseError(f"weight vector has length {len(vec)}, expected {expected_len}")
    return vec


def _parse_fix(part: str, name_to_coord):
    """One ``name=value`` item of ``--fix`` as (coordinate, rational value)."""
    nm, eq, val = (s.strip() for s in part.partition("="))
    if nm not in name_to_coord:
        raise ParseError(f"unknown coordinate {nm!r} in --fix")
    if not eq or not val:
        raise ParseError(f"--fix item {part!r} must look like 'name=value'")
    try:
        return name_to_coord[nm], Fraction(val)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad value {val!r} in --fix: {exc}")


def _parse_tiebreak(text: str, names, line_no):
    parts = [p.strip() for p in text.split(">")]
    parts = [p for p in parts if p not in ("", "1", "t")]
    if sorted(parts) != sorted(names):
        raise ParseError(
            f"tiebreak must list every x-variable once, got {parts}", line_no)
    return tuple(names.index(p) for p in parts)


def parse_problem(text: str) -> ProblemFile:
    names = None
    prime = None
    weights: tuple = ()
    tiebreak = None
    gens: list[Polynomial] = []
    in_ideal = False
    saw_end = False
    gen_lines: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_ideal:
            if line == "end":
                in_ideal = False
                saw_end = True
            else:
                gen_lines.append((line_no, line))
            continue
        key = line.split(None, 1)[0]
        rest = line[len(key):].strip()
        if key == "ring":
            segs = [s.strip() for s in rest.split(";")]
            if len(segs) != 2 or segs[0] != "t":
                raise ParseError("ring line must look like 'ring t; x, y'", line_no)
            names = tuple(s.strip() for s in segs[1].split(",") if s.strip())
            if not names or len(set(names)) != len(names) or "t" in names:
                raise ParseError("x-variables must be distinct and differ from t", line_no)
        elif key == "prime":
            try:
                prime = int(rest)
            except ValueError:
                raise ParseError(f"bad prime {rest!r}", line_no)
        elif key == "order":
            if names is None:
                raise ParseError("order line before ring line", line_no)
            for seg in (s.strip() for s in rest.split(";")):
                if seg.startswith("weights"):
                    found = re.findall(r"\(([^()]*)\)", seg)
                    if not found:
                        raise ParseError("weights need at least one (..) vector", line_no)
                    weights = tuple(
                        parse_weight_vector(f"({body})", 1 + len(names)) for body in found
                    )
                elif seg.startswith("tiebreak"):
                    tiebreak = _parse_tiebreak(seg[len("tiebreak"):], list(names), line_no)
                elif seg:
                    raise ParseError(f"unknown order clause {seg!r}", line_no)
        elif key == "ideal":
            if names is None:
                raise ParseError("ideal block before ring line", line_no)
            in_ideal = True
        else:
            raise ParseError(f"unknown directive {key!r}", line_no)
    if names is None:
        raise ParseError("missing ring line")
    if in_ideal or not saw_end:
        raise ParseError("ideal block not closed with 'end'")
    for line_no, src in gen_lines:
        g = parse_poly(src, names, line_no)
        if not is_x_homogeneous(g):
            raise ParseError(f"generator is not x-homogeneous: {src}", line_no)
        gens.append(g)
    if not gens:
        raise ParseError("empty ideal section")
    if tiebreak is None:
        tiebreak = tuple(range(len(names)))
    pf = ProblemFile(names, tuple(gens), prime, weights, tiebreak)
    try:
        pf.ideal()  # validates the prime invariant
        pf.ordering()
    except InvalidInput as exc:
        raise ParseError(str(exc))
    return pf


# ---------------------------------------------------------------------------
# Output blocks
# ---------------------------------------------------------------------------


def _rows(label, rows, indent="  "):
    out = [f"{indent}{label} {len(rows)}"]
    for r in rows:
        out.append(f"{indent}  " + " ".join(format_frac(x) for x in r))
    return out


def render_polys(label, polys, names) -> str:
    lines = [f"{label} {len(polys)}"]
    lines += ["  " + format_poly(g, names) for g in polys]
    lines.append(f"END {label}")
    return "\n".join(lines)


def render_cone(hc: HCone) -> str:
    data = dd_rays(hc)
    lines = [f"CONE {hc.dim_ambient}", f"  DIM {data.dim}"]
    lines += _rows("LINEALITY", data.lineality)
    lines += _rows("RAYS", data.rays)
    lines += _rows("INEQ", hc.ineqs)
    lines += _rows("EQ", hc.eqs)
    lines.append("END CONE")
    return "\n".join(lines)


def render_fan(result: fan_mod.Fan, names) -> str:
    lines = [f"FAN {len(result.maximal_cones)}"]
    for i, cone in enumerate(result.maximal_cones):
        lines.append(f"MAXCONE {i}")
        lines.append(render_polys("INITIAL", cone.initial_forms, names))
        lines.append(render_polys("SB", cone.basis.elements, names))
        lines.append(render_cone(cone.hcone))
        lines.append("END MAXCONE")
    for i, j, _ in result.adjacency:
        lines.append(f"ADJ {i} {j}")
    lines.append("END FAN")
    return "\n".join(lines)


def render_slice(sl) -> str:
    rays = sorted(set(sl.rays) | {r for l in sl.lines for r in (l, tuple(-x for x in l))})
    lines = ["V-POLYHEDRON"]
    lines += _rows("VERTICES", sl.vertices)
    lines += _rows("RAYS", rays)
    lines.append("END V-POLYHEDRON")
    return "\n".join(lines)


def _count(no: int, line: str, least: int = 0) -> int:
    """The count on a head line ``LABEL count``: an integer of at least
    ``least``."""
    head = line.split()
    label = head[0]
    if len(head) != 2:
        raise ParseError(f"{label} line must look like '{label} <count>', got {line!r}", no)
    try:
        count = int(head[1])
    except ValueError:
        raise ParseError(f"{label} count {head[1]!r} is not an integer", no)
    if count < least:
        raise ParseError(f"{label} count {count} is below {least}", no)
    return count


def _block(text: str, label: str, least: int = 0) -> tuple[int, list[tuple[int, str]]]:
    """The count on the head line of a ``label`` block and the nonblank
    lines between it and the closing ``END label`` line, which must be the
    last, as (line number, stripped text)."""
    lines = [(no, l.strip()) for no, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if not lines or lines[0][1].split()[0] != label:
        raise ParseError(f"expected a block starting with {label!r}")
    count = _count(*lines[0], least)
    if len(lines) < 2 or lines[-1][1] != f"END {label}":
        raise ParseError(f"{label} block not closed with 'END {label}'", lines[-1][0])
    return count, lines[1:-1]


def parse_sb_block(text: str, names):
    """The polynomials of an ``SB`` block as ``render_polys`` writes it."""
    count, body = _block(text, "SB")
    if len(body) != count:
        raise ParseError(f"SB block declares {count} polynomials, found {len(body)}")
    return tuple(parse_poly(l, names, no) for no, l in body)


_CONE_SECTIONS = ("DIM", "LINEALITY", "RAYS", "INEQ", "EQ")


def parse_cone_block(text: str) -> HCone:
    """The HCone of a ``CONE`` block as ``render_cone`` writes it: its
    ``INEQ`` and ``EQ`` rows.  The ``DIM`` line and the V-data sections are
    checked for form but not used."""
    ambient, body = _block(text, "CONE", 1)
    sections: dict[str, list[tuple]] = {}
    i = 0
    while i < len(body):
        no, line = body[i]
        label = line.split()[0]
        if label not in _CONE_SECTIONS:
            raise ParseError(f"unknown CONE section {label!r}", no)
        count = _count(no, line)
        i += 1
        if label == "DIM":
            continue
        rows = []
        while i < len(body) and len(rows) < count and body[i][1].split()[0] not in _CONE_SECTIONS:
            rno, row = body[i]
            try:
                vec = tuple(Fraction(x) for x in row.split())
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad {label} row {row!r}", rno)
            if len(vec) != ambient:
                raise ParseError(f"{label} row has {len(vec)} entries, expected {ambient}", rno)
            rows.append(vec)
            i += 1
        if len(rows) != count:
            raise ParseError(f"{label} section declares {count} rows, found {len(rows)}", no)
        sections[label] = rows
    return make_cone(ambient, sections.get("INEQ", ()), sections.get("EQ", ()))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def run_check(problem: ProblemFile, seed: int, samples: int, out,
              start_weight=None) -> int:
    """Invariant suite for one ideal; one PASS/FAIL line per check."""
    result = fan_mod.groebner_fan(problem.ideal(), tiebreak=problem.tiebreak,
                                  start_weight=start_weight)
    print("PASS fan-computed", file=out)
    print(f"  maximal cones: {len(result.maximal_cones)}", file=out)
    hcones = [c.hcone for c in result.maximal_cones]
    weights = fan_mod.sampled_weights(random.Random(seed), problem.nvars, samples)

    def report(name, bad, what):
        print(f"FAIL {name}: {len(bad)} {what}" if bad else f"PASS {name}", file=out)
        return bool(bad)

    return sum((
        report("coverage", fan_mod.uncovered_weights(hcones, weights),
               f"of {samples} weights uncovered"),
        report("face-to-face", fan_mod.bad_meets(hcones), "bad intersections"),
        report("lineality-ones", fan_mod.lineality_misses(hcones), "cones miss (0,1,..,1)"),
        report("facet-pairs", fan_mod.unpaired_facets(result), "unpaired facets"),
    ))


def _weight_arg(problem: ProblemFile, args):
    if args.weight is not None:
        return parse_weight_vector(args.weight, 1 + problem.nvars)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfan",
        description="Groebner fans of x-homogeneous ideals in Z[[t]][x], exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file")
        p.add_argument("--weight", help="weight vector, e.g. \"-1,2,-1,1\"")
        return p

    add("stdbasis", "minimal standard basis for the file's ordering")
    add("inred", "initially reduced standard basis")
    add("initial", "initial forms of the reduced basis at a weight")
    add("cone", "Groebner cone at a weight (H-rows and V-data)")
    add("fan", "full Groebner fan with adjacency")
    p_slice = add("slice", "affine slice of the cone at a weight")
    p_slice.add_argument("--fix", required=True,
                         help="fixed coordinates, e.g. \"t=-1\" or \"t=-1,z=1\"")
    p_check = add("check", "run the invariant suite for this ideal")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=int, default=1000)

    args = parser.parse_args(argv)
    if args.command == "check" and args.samples < 1:
        p_check.error(f"argument --samples: must be at least 1, got {args.samples}")
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        problem = parse_problem(text)
        if args.command == "stdbasis":
            ord_ = problem.ordering(_weight_arg(problem, args))
            sb = minimize(standard_basis(ord_, problem.gens))
            print(render_polys("SB", sb.elements, problem.names))
        elif args.command == "inred":
            ord_ = problem.ordering(_weight_arg(problem, args))
            basis = ensure_initially_reduced(ord_, problem.gens, problem.prime)
            print(render_polys("SB", basis.elements, problem.names))
        elif args.command == "fan":
            result = fan_mod.groebner_fan(problem.ideal(), tiebreak=problem.tiebreak,
                                          start_weight=_weight_arg(problem, args))
            print(render_fan(result, problem.names))
        elif args.command == "check":
            failures = run_check(problem, args.seed, args.samples, sys.stdout,
                                 start_weight=_weight_arg(problem, args))
            return 1 if failures else 0
        else:
            weight = problem.ordering(_weight_arg(problem, args)).weights[0]
            cone = fan_mod.groebner_cone_at(MonomialOrdering((weight,), problem.tiebreak),
                                            problem.gens, problem.prime)
            if args.command == "initial":
                print(render_polys("INITIAL", cone.initial_forms, problem.names))
            elif args.command == "cone":
                print(render_cone(cone.hcone))
            else:
                name_to_coord = {"t": 0, **{nm: 1 + i for i, nm in enumerate(problem.names)}}
                fixed = [_parse_fix(part, name_to_coord) for part in args.fix.split(",")]
                print(render_slice(affine_slice(cone.hcone, fixed)))
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except TfanError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
