"""Command-line front end and text formats.

Input grammar (line-oriented; '#' starts a comment):

    ring <p> <v1,v2,...> <dp|lp>
    <polynomial>
    <polynomial>
    ...

Variable names match ``[A-Za-z_][A-Za-z0-9_]*`` (``x``, ``x0``, ``w_1``), so
that no name reads as a coefficient or an operator.  Polynomials are sums of
signed terms; integer coefficients, '*' optional between factors, '^' for
powers: ``w*x+w*z+x^2+2*x*z-z^2`` and ``2xz`` both parse.  The first is
the canonical spelling, the one ``serialize_input`` and ``gen`` write; any
other spelling of a polynomial parses to the same vector.  Exit codes: 0
success, 1 usage error, 2 parse/math-domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
import time
from typing import Iterator, Optional, Sequence

from .algebra import (
    DomainError,
    Ring,
    Vec,
    interned_key,
    is_homogeneous,
    mono_exponents,
    vec_component,
)
from .orderings import BaseOrdering
from .lift import LIFT_ALGORITHMS
from .resolution import (
    Resolution,
    betti_minimal_from_nonminimal,
    betti_nonminimal,
    minimize,
    resolve,
)
from .examples_gen import AgrSpec, gen_agr


class ParseError(ValueError):
    """Input text error with position information."""

    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, column {col}: {msg}" if line else msg)
        self.line = line
        self.col = col


class InputDocument:
    __slots__ = ("ring", "ordering", "generators")

    def __init__(self, ring: Ring, ordering: BaseOrdering, generators: list):
        self.ring = ring
        self.ordering = ordering
        self.generators = generators  # vectors with component 0


def _tokenizer(names: Sequence[str]):
    """One regex for the polynomial lines of a ring with these variables.
    A monomial token is a product ``name^k*name*...`` with no space: a
    factor ``name^k`` is one piece of it, and a spelling such as
    ``x0^2*x1`` is one token however many factors it has."""
    alts = "|".join(re.escape(n) for n in sorted(names, key=len, reverse=True))
    factor = f"(?:{alts})(?:\\^\\d+)?"
    pattern = "|".join(
        ["(?P<int>\\d+)",
         f"(?P<mono>{factor}(?:\\*{factor})*)",
         "(?P<op>[\\^*+-])",
         "(?P<ws>\\s+)",
         "(?P<bad>.)"])
    return re.compile(pattern)


def _int(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's int() digit limit
        raise ParseError(f"number too long ({len(digits)} digits)",
                         line, col) from None


def _spelling_of(spelled: str, ring: Ring, line: int, col: int,
                 table: dict) -> tuple:
    """What a monomial token ``spelled`` at column ``col`` stands for:
    (exponents, the index of its last variable or None when a '^k' follows
    that variable, the offset of its last factor's name or exponent, and
    the document's module monomial, or None when an exponent is out of
    range)."""
    exps = [0] * ring.nvars
    start = 0
    for piece in spelled.split("*"):
        name, caret, k = piece.partition("^")
        last = ring.names.index(name)
        offset = start + len(name) + 1 if caret else start
        exps[last] += _int(k, line, col + offset) if caret else 1
        start += len(piece) + 1
    try:
        mm = interned_key((ring.mono(exps), 0), table)
    except DomainError:  # reported where the term ends, as for any term
        mm = None
    return tuple(exps), None if caret else last, offset, mm


def _add_term(out: Vec, mm, c: int, p: int, table: dict) -> None:
    """out += c * mm (c nonzero mod p, mm the table's module monomial)."""
    v = (out.get(mm, 0) + c) % p
    if v:
        out[mm] = table.setdefault(v, v)
    else:
        del out[mm]


def parse_polynomial(text: str, ring: Ring, line: int = 0) -> Vec:
    """Parse one polynomial into a component-0 vector, coefficients mod p.
    Equal monomials, module monomials and coefficients are one object
    each."""
    return _read_polynomial(text, ring, line, _tokenizer(ring.names), {})


def _read_polynomial(text: str, ring: Ring, line: int, tok,
                     table: dict) -> Vec:
    """:func:`parse_polynomial` with the variable list's tokenizer and the
    canonical table of the document the polynomial belongs to, which also
    holds what each monomial spelling of the document stands for."""
    # (signed coefficient, exponents, end column, module monomial or None)
    terms: list = []
    sign = 1
    coeff = None
    exps = None  # the table's tuple while one token spells the monomial
    mm = None  # that token's module monomial
    last_var = None
    expect_exponent = False

    def flush(col):
        nonlocal sign, coeff, exps, mm, last_var
        terms.append((sign * (1 if coeff is None else coeff), exps, col, mm))
        sign, coeff, exps, mm, last_var = 1, None, None, None, None

    col = 0
    for m in tok.finditer(text):
        col = m.start() + 1
        kind = m.lastgroup
        if kind == "mono":
            if expect_exponent:
                raise ParseError("expected an exponent after '^'", line, col)
            spelled = m.group()
            hit = table.get(spelled)
            if hit is None:
                hit = table[spelled] = _spelling_of(spelled, ring, line, col,
                                                    table)
            e, last_var, offset, one = hit
            col += offset
            if exps is None:
                exps, mm = e, one
            else:
                exps, mm = [x + y for x, y in zip(exps, e)], None
        elif kind == "int":
            val = _int(m.group(), line, col)
            if expect_exponent:
                exps = list(exps)
                exps[last_var] += val - 1  # the variable itself contributed 1
                mm = None
                expect_exponent = False
                last_var = None
            else:
                coeff = val if coeff is None else coeff * val
        elif kind == "ws":
            continue
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        else:  # operator
            op = m.group()
            if expect_exponent:
                raise ParseError("expected an exponent after '^'", line, col)
            if op == "^":
                if last_var is None:
                    raise ParseError("'^' without a variable", line, col)
                expect_exponent = True
            elif op == "*":
                if coeff is None and exps is None:
                    raise ParseError("'*' without a left factor", line, col)
            else:  # + or -
                if coeff is not None or exps is not None:
                    flush(col)
                if op == "-":
                    sign = -sign
    if expect_exponent:
        raise ParseError("dangling '^'", line, col)
    if coeff is not None or exps is not None:
        flush(col)
    if not terms:
        raise ParseError("empty polynomial", line, col)
    out: Vec = {}
    for c, e, end, key in terms:
        c %= ring.p
        if not c:
            continue
        if key is None:
            try:
                mono = ring.mono(e or [0] * ring.nvars)
            except DomainError as err:  # an exponent above MAX_EXPONENT
                raise ParseError(str(err), line, end)
            key = interned_key((mono, 0), table)
        _add_term(out, key, c, ring.p, table)
    return out


def parse_input(text: str) -> InputDocument:
    """Parse a ring declaration plus one polynomial per line."""
    ring = None
    ordering = None
    gens = []
    table: dict = {}  # the document's canonical objects, see algebra
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "ring":
                raise ParseError("expected 'ring <p> <vars> <dp|lp>'", ln, 1)
            try:
                p = int(parts[1])
            except ValueError:
                raise ParseError(f"invalid characteristic {parts[1]!r}", ln, 1)
            names = tuple(parts[2].split(","))
            try:
                ring = Ring(p, names)
                ordering = BaseOrdering(parts[3], len(names))
            except DomainError as e:
                raise ParseError(str(e), ln, 1)
            tok = _tokenizer(names)
            continue
        vec = _read_polynomial(line, ring, ln, tok, table)
        if vec:
            gens.append(vec)
    if ring is None:
        raise ParseError("missing ring declaration")
    return InputDocument(ring, ordering, gens)


# ---------------------------------------------------------------------------
# formatting


def mono_to_string(m, ring: Ring) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(ring.names, mono_exponents(m)) if e) or "1"


def _polynomials(terms: list, spelled: list, p: int) -> list:
    """The polynomial of each component of ``terms``, sorted (component,
    rank, coefficient) triples with monomial ``spelled[rank]``: (component,
    string) pairs, terms in rank order, coefficients by their symmetric
    representative in (-p/2, p/2]."""
    half = p // 2
    out = []
    prev = None
    for comp, r, c in terms:
        sign, mag = ("-", p - c) if c > half else ("+", c)
        mono = spelled[r]
        if mono == "1":
            term = f"{sign}{mag}"
        elif mag == 1:
            term = sign + mono
        else:
            term = f"{sign}{mag}*{mono}"
        if comp != prev:
            parts = [term[1:] if sign == "+" else term]
            out.append((comp, parts))
            prev = comp
        else:
            parts.append(term)
    return [(comp, "".join(parts)) for comp, parts in out]


def _spelling(monos, ring: Ring, base: BaseOrdering):
    """The rank of each of the distinct monomials ``monos`` under the base
    ordering, largest first, and the spelling of each rank: every monomial
    is ranked and spelled once."""
    ranked = sorted(monos, key=base.key_func(), reverse=True)
    return ({m: r for r, m in enumerate(ranked)},
            [mono_to_string(m, ring) for m in ranked])


def serialize_input(doc: InputDocument) -> str:
    """The document in the canonical spelling, one generator per line (0
    for an empty one): terms descending under the base ordering, symmetric
    coefficients; each distinct monomial of the document is spelled once."""
    ring = doc.ring
    polys = [vec_component(g, 0) for g in doc.generators]
    rank, spelled = _spelling({m for f in polys for m in f}, ring, doc.ordering)
    lines = [f"ring {ring.p} {','.join(ring.names)} {doc.ordering.kind}"]
    lines += [_polynomials(sorted([(0, rank[m], c) for m, c in f.items()]),
                           spelled, ring.p)[0][1] if f else "0" for f in polys]
    return "\n".join(lines) + "\n"


def resolution_pieces(res: Resolution) -> Iterator[str]:
    """The serialized form of ``res`` in order, piece by piece: the header
    (ring, flags and one 'module k rank r twists ...' line per module), then
    per differential its 'differential k' heading and one string per column
    holding that column's 'row col polynomial' lines, then 'end'.  The only
    formatter of a resolution: every sink consumes these pieces."""
    ring, base = res.ring, res.base
    lines = [f"resolution ring {ring.p} {','.join(ring.names)} {base.kind}",
             f"graded {'true' if res.graded else 'false'}",
             f"minimal {'true' if res.minimal else 'false'}"]
    for k, mod in enumerate(res.modules):
        tw = ",".join(str(t) for t in mod.twists) if mod.twists is not None else "-"
        lines.append(f"module {k} rank {mod.rank} twists {tw}")
    yield "\n".join(lines) + "\n"
    rank, spelled = _spelling(
        {m for cols in res.diffs for col in cols for m, _ in col}, ring, base)
    for k in range(1, res.length + 1):
        yield f"differential {k}\n"
        for j, col in enumerate(res.diffs[k - 1], start=1):
            terms = sorted([(comp, rank[m], c) for (m, comp), c in col.items()])
            yield "".join([f"{comp + 1} {j} {poly}\n"
                           for comp, poly in _polynomials(terms, spelled, ring.p)])
    yield "end\n"


def serialize_resolution(res: Resolution) -> str:
    """Stable plain-text form of ``res``: ring header, module ranks/twists,
    one 'row col polynomial' line per nonzero entry of each differential.

    The text is grown from ``resolution_pieces`` with ``+=`` on a string no
    one else holds, which CPython resizes in place, so the call holds the
    text once rather than its pieces beside their join (an interpreter
    without that optimization copies the text at each piece)."""
    text = ""
    for piece in resolution_pieces(res):
        text += piece
    return text


def stats_report(res: Resolution) -> str:
    """The statistics of a run, read from ``res``: its operation counts,
    Q_sparse and, when it has a second differential, one line per
    differential phi_k (k >= 2) with its generators, terms, Q_sparse and
    lifting time."""
    counters = res.stats
    q = res.q_sparse()
    lines = [
        f"#Terms:   {counters.n_terms}",
        f"#Mult:    {counters.n_mult}",
        f"#Add:     {counters.n_add}",
        f"#Canc:    {counters.n_canc}",
        f"#MonCmp:  {counters.n_monomial_cmp}",
        f"Q_sparse: {q:.3f}" if q is not None else "Q_sparse: -",
    ]
    if res.length >= 2:
        lines.append("")
        lines.append(f"{'i':>4} {'#Generators':>12} {'#Terms':>10} "
                     f"{'Q_sparse':>10} {'time[s]':>9}")
        for k in range(2, res.length + 1):
            terms = res.term_count(k)
            qk = terms / res.entry_count(k)
            tk = res.level_times[k - 2] if k - 2 < len(res.level_times) else 0.0
            lines.append(f"{k:>4} {res.modules[k].rank:>12} {terms:>10} "
                         f"{qk:>10.3f} {tk:>9.3f}")
    return "\n".join(lines) + "\n"


def emit_image(res: Resolution, k: int, path: str) -> None:
    """Binary PGM of phi_k: one pixel per entry; 255 = zero entry, 128 = one
    term, 0 = two or more terms."""
    rows = res.modules[k - 1].rank
    cols = res.modules[k].rank
    data = bytearray(b"\xff") * (rows * cols)
    for j, col in enumerate(res.diffs[k - 1]):
        for _, comp in col:
            i = comp * cols + j
            data[i] = 128 if data[i] == 255 else 0
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(data)


# ---------------------------------------------------------------------------
# commands


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="syzkit",
                 description="Free resolutions over prime fields via "
                             "Schreyer-frame syzygy lifting.")
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("resolve", help="resolve an ideal from an input file")
    rp.add_argument("input", nargs="?", default="-",
                    help="input file ('-' for stdin)")
    rp.add_argument("--alg", default="tree", choices=LIFT_ALGORITHMS)
    rp.add_argument("--max-length", type=int, default=None)
    rp.add_argument("--minimize", action="store_true",
                    help="minimize the resolution before output")
    rp.add_argument("--betti", choices=("min", "nonmin", "both"), default=None)
    rp.add_argument("--stats", action="store_true",
                    help="print the operation counts, Q_sparse and a "
                         "per-differential breakdown")
    rp.add_argument("--image", metavar="PREFIX", default=None,
                    help="write one PGM per differential: PREFIX_phi<k>.pgm")
    rp.add_argument("--output", metavar="PATH", default=None,
                    help="write the serialized resolution to PATH")
    rp.add_argument("--print-resolution", action="store_true",
                    help="print the serialized resolution to stdout")

    gp = sub.add_parser("gen", help="generate benchmark ideals")
    gsub = gp.add_subparsers(dest="family", required=True)
    agr = gsub.add_parser("agr", help="apolar Artinian Gorenstein ideal")
    agr.add_argument("--n", type=int, required=True)
    agr.add_argument("--d", type=int, required=True)
    agr.add_argument("--s", type=int, required=True)
    agr.add_argument("--p", type=int, default=10007)
    agr.add_argument("--seed", type=int, default=0)
    agr.add_argument("-o", "--output", default=None)
    return ap


def cmd_resolve(args) -> int:
    """``syzkit resolve``: parse, resolve, then print the requested reports.
    ``--output`` and ``--print-resolution`` write the pieces of
    ``resolution_pieces`` to the file and to stdout as they are formatted,
    so the serialized text is never held whole; both get the same bytes as
    ``serialize_resolution``.  The file is opened before anything is
    written, so a path that cannot be opened prints no resolution."""
    if args.max_length is not None and args.max_length < 1:
        raise _UsageError(f"--max-length must be at least 1, got {args.max_length}")
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
    # UTF-8 whatever the locale, a leading byte-order mark dropped
    doc = parse_input(data.decode("utf-8-sig"))
    # resolve's own test of gradedness, before it runs
    if ((args.betti or args.minimize)
            and not all(is_homogeneous(g) for g in doc.generators)):
        what = "Betti tables require" if args.betti else "--minimize requires"
        raise DomainError(f"{what} homogeneous input")
    t0 = time.perf_counter()
    res = resolve(doc.generators, doc.ring, doc.ordering, alg=args.alg,
                  max_length=args.max_length)
    elapsed = time.perf_counter() - t0
    shape = " <- ".join(f"F{k}(rank {m.rank})" for k, m in enumerate(res.modules))
    print(f"resolution length {res.length}: {shape}")
    print(f"minimal: {'yes' if res.minimal else 'no'}   "
          f"graded: {'yes' if res.graded else 'no'}   time: {elapsed:.3f}s")
    # the library refuses a cut run too; this names the option that cut it
    if (args.betti in ("min", "both") or args.minimize) and res.cut:
        raise DomainError(f"--max-length {args.max_length} cuts the resolution;"
                          " minimal Betti numbers and --minimize need all of it")
    # the minimal table is the minimized shape: one elimination of the strands
    out_res = minimize(res) if args.minimize else res
    if args.betti in ("nonmin", "both"):
        print("Non-minimal Betti table:")
        print(betti_nonminimal(res).format())
    if args.betti in ("min", "both"):
        print("Minimal Betti table:")
        print((betti_nonminimal(out_res) if args.minimize
               else betti_minimal_from_nonminimal(res)).format())
    if args.minimize:
        shape = " <- ".join(f"F{k}(rank {m.rank})"
                            for k, m in enumerate(out_res.modules))
        print(f"minimized: {shape}")
    if args.stats:
        print(stats_report(res), end="")
    if args.image:
        for k in range(1, out_res.length + 1):
            emit_image(out_res, k, f"{args.image}_phi{k}.pgm")
    if args.output or args.print_resolution:
        with contextlib.ExitStack() as stack:
            sinks = [sys.stdout.write] if args.print_resolution else []
            if args.output:
                sinks.append(stack.enter_context(
                    open(args.output, "w", encoding="utf-8")).write)
            for piece in resolution_pieces(out_res):
                for write in sinks:
                    write(piece)
    return 0


def cmd_gen(args) -> int:
    spec = AgrSpec(n=args.n, d=args.d, s=args.s, p=args.p, seed=args.seed)
    ideal = gen_agr(spec)
    base = BaseOrdering("dp", ideal.ring.nvars)
    doc = InputDocument(ideal.ring, base, ideal.generators)
    text = serialize_input(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "resolve":
            return cmd_resolve(args)
        return cmd_gen(args)  # argparse requires one of the two
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ParseError, DomainError, UnicodeDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"error: internal: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
