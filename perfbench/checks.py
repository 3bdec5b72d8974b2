"""Output checks for the benchmark workloads.

Every check here is computed apart from syzkit: monomial orderings, the
Schreyer ordering, the frame, column images, normal forms, Hilbert series
and the text format are re-derived from their definitions with plain
tuples and dicts.  The only inputs taken from syzkit are the objects under
test (vectors, Groebner basis generators, resolutions, Betti tables).

A check returns a list of ``(stage, message)`` failures; an empty list means
the output is correct.
"""

from __future__ import annotations

import operator
import re

# The paper's Tables 4 and 6: minimal and non-minimal graded Betti numbers of
# the generic apolar Gorenstein ideal with n=6, d=5, s=42, as {(k, j): b}.
PAPER_TABLE4 = {(0, 0): 1, (1, 3): 56, (2, 4): 189, (3, 5): 216,
                (4, 7): 216, (5, 8): 189, (6, 9): 56, (7, 12): 1}
PAPER_TABLE6 = {(0, 0): 1,
                (1, 3): 56, (2, 4): 210, (3, 5): 336, (4, 6): 280,
                (5, 7): 120, (6, 8): 21,
                (1, 4): 21, (2, 5): 126, (3, 6): 315, (4, 7): 420,
                (5, 8): 315, (6, 9): 126, (7, 10): 21,
                (1, 5): 6, (2, 6): 36, (3, 7): 90, (4, 8): 120,
                (5, 9): 90, (6, 10): 36, (7, 11): 6,
                (1, 6): 1, (2, 7): 6, (3, 8): 15, (4, 9): 20,
                (5, 10): 15, (6, 11): 6, (7, 12): 1}


# ---------------------------------------------------------------------------
# monomials and orderings (monomial = (deg, e1, ..., en))


def _mul(a, b):
    return tuple(map(operator.add, a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a[1:], b[1:]))


def _lcm_over(a, b):
    """lcm(a, b) / b."""
    exps = tuple(max(x, y) - y for x, y in zip(a[1:], b[1:]))
    return (sum(exps),) + exps


def base_key(kind):
    """Sort key of a base monomial ordering: 'lp' is lexicographic, 'dp'
    compares degrees, then prefers the smaller exponent of the last
    variable where the two differ."""
    if kind == "lp":
        return lambda m: m[1:]
    return lambda m: (m[0],) + tuple(-e for e in reversed(m[1:]))


class SchreyerKey:
    """Key of the induced (Schreyer) module ordering of a resolution.

    Level 0 is term over position with the smaller component first.  At
    level k >= 1, m*e_i compares as the level-(k-1) key of m*LM(phi_k(e_i)),
    then the larger index i wins; LM(phi_k(e_i)) is the stored leading term
    of column i of the k-th differential.
    """

    def __init__(self, kind, diffs):
        self.bk = base_key(kind)
        self.lms = [[next(iter(col)) for col in cols] for cols in diffs]

    def __call__(self, level, mm):
        m, i = mm
        tail = ()
        while level > 0:
            lm_mono, comp = self.lms[level - 1][i]
            tail = (i,) + tail
            m, i = _mul(m, lm_mono), comp
            level -= 1
        return self.bk(m) + (-i,) + tail


# ---------------------------------------------------------------------------
# vectors, frames and complexes


def column_image(col, prev_cols, p):
    """phi_{k-1}(col) for a column of phi_k, as a vector dict."""
    acc = {}
    add = operator.add
    for (m, i), c in col.items():
        for (pm, pc), pv in prev_cols[i].items():
            key = (tuple(map(add, m, pm)), pc)
            acc[key] = (acc.get(key, 0) + c * pv) % p
    return {k: v for k, v in acc.items() if v}


def brute_frame(lms):
    """Minimal generators of the leading syzygy module of the module
    monomials lms, from all pairs: {(lcm(m_i, m_j) / m_i, i) : j < i}."""
    out = set()
    for i, (mi, ci) in enumerate(lms):
        cands = {_lcm_over(mj, mi) for mj, cj in lms[:i] if cj == ci}
        for t in cands:
            if not any(s != t and _divides(s, t) for s in cands):
                out.add((t, i))
    return out


def check_complex(diffs, p, levels, stage):
    """phi_{k-1}(column) = 0 on the given columns; ``levels`` maps k >= 2 to
    column indices of phi_k = diffs[k-1]."""
    return [(stage, f"phi_{k - 1}(column {j} of phi_{k}) != 0")
            for k, idxs in levels.items() for j in idxs
            if column_image(diffs[k - 1][j], diffs[k - 2], p)]


def check_leads(diffs, kind, levels, stage):
    """On the given columns, the stored first term is the column's leading
    term under the Schreyer ordering, with coefficient 1."""
    key = SchreyerKey(kind, diffs)
    bad = []
    for k, idxs in levels.items():
        for j in idxs:
            col = diffs[k - 1][j]
            head = next(iter(col))
            if col[head] != 1 or max(col, key=lambda mm: key(k - 1, mm)) != head:
                bad.append((stage, f"column {j} of phi_{k}: first term is not "
                                   "the monic leading term"))
    return bad


def all_columns(diffs):
    return {k: range(len(diffs[k - 1])) for k in range(2, len(diffs) + 1)}


def sample_columns(diffs, rng, per_level):
    """A seeded sample of at most per_level columns of each phi_k, k >= 2."""
    return {k: sorted(rng.sample(range(len(diffs[k - 1])),
                                 min(len(diffs[k - 1]), per_level)))
            for k in range(2, len(diffs) + 1)}


def lead_terms(diffs):
    return [[next(iter(col)) for col in cols] for cols in diffs]


def check_frame(diffs, stage):
    """The leading terms of every phi_{k+1} are exactly the minimal leading
    syzygies of the leading terms of phi_k."""
    leads = lead_terms(diffs) + [[]]
    bad = []
    for k in range(1, len(diffs) + 1):
        got = leads[k]
        if len(set(got)) != len(got) or set(got) != brute_frame(leads[k - 1]):
            bad.append((stage, f"leading terms of phi_{k + 1} are not the "
                               f"frame of phi_{k}"))
    return bad


def has_unit_entry(diffs):
    return any(mm[0][0] == 0 for cols in diffs for col in cols for mm in col)


def normal_form(f, gb_gens, kind, p):
    """Remainder of the polynomial vector f (component 0) on division by
    the monic vectors gb_gens, whose first terms are their leading terms."""
    bk = base_key(kind)
    leads = [(next(iter(g))[0], g) for g in gb_gens]
    work = {mm[0]: c for mm, c in f.items()}
    rem = {}
    while work:
        m = max(work, key=bk)
        c = work.pop(m)
        for lm, g in leads:
            if _divides(lm, m):
                q = tuple(x - y for x, y in zip(m, lm))
                for (gm, _), gv in g.items():
                    t = _mul(q, gm)
                    if t == m:
                        continue
                    v = (work.get(t, 0) - c * gv) % p
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            rem[m] = c
    return rem


def check_gb(gens, gb_gens, diffs, kind, p, stage):
    """Every input generator reduces to 0 modulo the basis, each basis
    element is monic with its leading term first, and the basis is the
    first differential of the resolution."""
    bk = base_key(kind)
    bad = []
    for g in gb_gens:
        head = next(iter(g))
        if g[head] != 1 or max(g, key=lambda mm: bk(mm[0])) != head:
            bad.append((stage, "basis element not monic in its leading term"))
            break
    for g in gens:
        if normal_form(g, gb_gens, kind, p):
            bad.append((stage, "an input generator does not reduce to 0"))
            break
    if not diffs or list(gb_gens) != list(diffs[0]):
        bad.append((stage, "the first differential is not the Groebner basis"))
    return bad


# ---------------------------------------------------------------------------
# Betti tables and Hilbert series


def table_from_twists(twists):
    """Graded Betti numbers {(k, j): count} read off the twists of the free
    modules F_0, F_1, ..."""
    out = {}
    for k, tw in enumerate(twists):
        for t in tw:
            out[(k, t)] = out.get((k, t), 0) + 1
    return out


def euler(table):
    out = {}
    for (k, j), v in table.items():
        out[j] = out.get(j, 0) + (-v if k % 2 else v)
    return {j: c for j, c in out.items() if c}


def hilbert_function(lead_monos, nvars, top):
    """h_e = number of standard monomials of degree e, for e = 0..top, by
    growing the order ideal of monomials no leading monomial divides."""
    h = [1] + [0] * top
    layer = [(0,) + (0,) * nvars]
    if any(_divides(lm, layer[0]) for lm in lead_monos):
        return [0] * (top + 1)
    for e in range(1, top + 1):
        nxt = set()
        for m in layer:
            for v in range(nvars):
                t = (e,) + tuple(x + (i == v) for i, x in enumerate(m[1:]))
                if t not in nxt and not any(_divides(lm, t) for lm in lead_monos):
                    nxt.add(t)
        h[e] = len(nxt)
        layer = list(nxt)
        if not layer:
            break
    return h


def hilbert_numerator(lead_monos, nvars, top):
    """Numerator of the Hilbert series over (1-t)^nvars, exact in degrees
    <= top: (sum h_e t^e) * (1-t)^nvars truncated after t^top."""
    coeffs = hilbert_function(lead_monos, nvars, top)
    for _ in range(nvars):
        coeffs = [c - (coeffs[e - 1] if e else 0) for e, c in enumerate(coeffs)]
    return {e: c for e, c in enumerate(coeffs) if c}


def check_tables(twists, nvars, gb_gens, nonmin, minimal,
                 stages=("betti_nonminimal", "betti_minimal")):
    """Both tables have the Euler characteristic of the Hilbert numerator of
    the basis' leading monomials, and the non-minimal table matches the
    ranks and twists of the resolution's free modules."""
    top = max(j for _, j in nonmin) if nonmin else 0
    num = hilbert_numerator([next(iter(g))[0] for g in gb_gens], nvars, top)
    bad = []
    if nonmin != table_from_twists(twists):
        bad.append((stages[0], "non-minimal table differs from the twists"))
    if euler(nonmin) != num:
        bad.append((stages[0], "non-minimal table: Euler characteristic != "
                               "Hilbert numerator"))
    if euler(minimal) != num:
        bad.append((stages[1], "minimal table: Euler characteristic != "
                               "Hilbert numerator"))
    return bad


def centrally_symmetric(table, codim, socle_shift):
    return table == {(codim - k, socle_shift - j): v for (k, j), v in table.items()}


# ---------------------------------------------------------------------------
# the serialized resolution format, read back independently

_TERM = re.compile(r"[+-]?[^+-]+")


def _parse_poly(text, index, nvars, p):
    out = {}
    for term in _TERM.findall(text):
        sign = -1 if term[0] == "-" else 1
        coeff = 1
        exps = [0] * nvars
        for factor in term.lstrip("+-").split("*"):
            if factor[0].isdigit():
                coeff = int(factor)
            else:
                name, _, e = factor.partition("^")
                exps[index[name]] += int(e) if e else 1
        out[(sum(exps),) + tuple(exps)] = (sign * coeff) % p
    return out


def parse_serialized(text):
    """(p, names, kind, modules [(rank, twists)], diffs) of a serialized
    resolution."""
    lines = text.split("\n")
    _, _, p, names, kind = lines[0].split()
    p = int(p)
    names = names.split(",")
    index = {n: i for i, n in enumerate(names)}
    modules, diffs = [], []
    for line in lines[1:]:
        head, _, rest = line.partition(" ")
        if head == "module":
            parts = rest.split()
            twists = tuple(int(t) for t in parts[4].split(",")) if len(parts) > 4 else ()
            modules.append((int(parts[2]), twists))
        elif head == "differential":
            diffs.append([{} for _ in range(modules[int(rest)][0])])
        elif head[:1].isdigit():
            col, _, poly = rest.partition(" ")
            row = int(head) - 1
            target = diffs[-1][int(col) - 1]
            for m, c in _parse_poly(poly, index, len(names), p).items():
                target[(m, row)] = c
    return p, names, kind, modules, diffs


def check_serialized(text, res, stage):
    p, names, kind, modules, diffs = parse_serialized(text)
    bad = []
    if (p, tuple(names), kind) != (res.ring.p, res.ring.names, res.base.kind):
        bad.append((stage, "serialized ring header differs"))
    if modules != [(m.rank, tuple(m.twists)) for m in res.modules]:
        bad.append((stage, "serialized modules differ"))
    if diffs != res.diffs:
        bad.append((stage, "serialized differentials do not parse back "
                           "to the resolution"))
    return bad
