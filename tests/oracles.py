"""Reference oracles that only the tests call: slow, independent versions
of what the pipeline computes, closed forms it must agree with, and the
small helpers the test files share.  Not a test module (pytest collects
``test_*.py`` only); the test files import from it.
"""

import itertools
from math import comb
from typing import Optional

from syzkit.algebra import (OpCounters, Ring, Vec, mono_deg, mono_div,
                            mono_divides, mono_exponents, mono_from_exponents,
                            mono_lcm, mono_mul, term_times_vector,
                            vec_iadd_scaled, vec_sub_term)
from syzkit.cli import InputDocument, serialize_input
from syzkit.groebner import GroebnerBasis, monomials_of_degree
from syzkit.orderings import BaseOrdering, reorder_permutation
from syzkit.resolution import BettiTable


# ---------------------------------------------------------------------------
# maps and linear algebra


def psi(v: Vec, G: GroebnerBasis, counters: Optional[OpCounters] = None) -> Vec:
    """Image of v under the homomorphism sending basis element i to the i-th
    generator of G."""
    p = G.ring.p
    out: Vec = {}
    for (m, i), c in v.items():
        vec_iadd_scaled(out, c, term_times_vector(m, G.gens[i]), p, counters)
    return out


def ref_span_rows(mat, p):
    """Rows that enlarge the span of the rows before them, by inserting
    each row into an echelon basis keyed by leading column."""
    basis, out = {}, []
    for i, row in enumerate(mat):
        row = [x % p for x in row]
        for c in range(len(row)):
            if row[c] and c in basis:
                f = row[c]
                row = [(x - f * y) % p for x, y in zip(row, basis[c])]
            elif row[c]:
                inv = pow(row[c], p - 2, p)
                basis[c] = [x * inv % p for x in row]
                out.append(i)
                break
    return out


def contract(g: Vec, u: dict, p: int, nvars: int, d: int,
             base: BaseOrdering) -> dict:
    """Contraction g o f of a homogeneous g of degree e against the form
    with divided-power coordinates u; maps degree-(d-e) monomials to
    coefficients.  Empty iff g annihilates f."""
    e = mono_deg(next(iter(g))[0])
    if e > d:
        return {}
    out: dict = {}
    for gamma in monomials_of_degree(nvars, d - e, base):
        total = 0
        for (alpha, _), c in g.items():
            total += c * u[mono_mul(alpha, gamma)]
        if total % p:
            out[gamma] = total % p
    return out


def linear_change(gens, ring, rng):
    """``gens`` after the substitution x_i -> sum_j a_ij x_j, for A = LU a
    random invertible matrix over F_p: L unit lower triangular, U upper
    triangular with a nonzero diagonal."""
    n, p = ring.nvars, ring.p
    lower = [[rng.randrange(p) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randrange(p) if j > i else rng.randrange(1, p) if i == j
              else 0 for j in range(n)] for i in range(n)]
    a = [[sum(lower[i][k] * upper[k][j] for k in range(n)) % p
          for j in range(n)] for i in range(n)]
    xs = [ring.mono([int(i == j) for j in range(n)]) for i in range(n)]
    out = []
    for g in gens:
        acc: dict = {}
        for (m, comp), c in g.items():
            f = {(ring.one, comp): c}
            for i, e in enumerate(mono_exponents(m)):
                for _ in range(e):
                    image: dict = {}  # x_i * f
                    for j in range(n):
                        if a[i][j]:
                            vec_iadd_scaled(image, a[i][j],
                                            term_times_vector(xs[j], f), p)
                    f = image
            vec_iadd_scaled(acc, 1, f, p)
        out.append(acc)
    return out


def poly_to_string(poly: dict, ring: Ring, base: BaseOrdering) -> str:
    """The canonical string of the polynomial ``poly``, {monomial: c}: its
    line in the document ``serialize_input`` writes, "0" when it is empty."""
    doc = InputDocument(ring, base, [{(m, 0): c for m, c in poly.items()}])
    return serialize_input(doc).split("\n")[1]


# ---------------------------------------------------------------------------
# lifting


def lift_reduce_without_lots(s, G, counters=None):
    """lift_reduce's division with every lower order term dropped from the
    image and from each reducer's tail: the rest is still reduced largest
    term first, one leading-term scan per step."""
    p, divisor = G.ring.p, G.divisor
    key = G.chain.key_fn(G.level)
    keys = {}

    def kept(m, terms):
        for (fm, fc), v in terms:
            t = (mono_mul(m, fm), fc)
            if divisor(t) >= 0:
                yield t, v

    work = dict(kept(s[0], G.gens[s[1]].items()))
    sbar = {s: 1}
    while work:
        for t in work:
            if t not in keys:
                keys[t] = key(t)
        best = max(work, key=keys.__getitem__)
        if counters is not None:
            counters.n_monomial_cmp += len(work) - 1
        c = work.pop(best)
        i = divisor(best)
        m = mono_div(best[0], G.lms[i][0])
        tail = dict(kept(m, itertools.islice(G.gens[i].items(), 1, None)))
        vec_iadd_scaled(work, p - c, tail, p, counters)
        vec_sub_term(sbar, (m, i), c, p, counters)
    return sbar


# ---------------------------------------------------------------------------
# Betti tables


def betti_add(table: BettiTable, other: BettiTable) -> BettiTable:
    """The entrywise sum of two Betti tables."""
    data = dict(table.data)
    for kj, v in other.data.items():
        data[kj] = data.get(kj, 0) + v
    return BettiTable(data)


def betti_of(levels):
    """The Betti table with the degrees ``levels[k]`` at level k."""
    table: dict = {}
    for k, degrees in enumerate(levels):
        for d in degrees:
            table[(k, d)] = table.get((k, d), 0) + 1
    return BettiTable(table)


def all_pairs_level(lms):
    """The leading terms of the all-pairs Schreyer syzygies of ``lms``,
    (lcm(m_i, m_j)/m_i) e_i for every j < i in the same component,
    independently minimalized."""
    pairs = []
    for i in range(len(lms)):
        for j in range(i):
            if lms[i][1] != lms[j][1]:
                continue
            lcm = mono_lcm(lms[i][0], lms[j][0])
            pairs.append((mono_div(lcm, lms[i][0]), i))
    minimal = []
    for t in sorted(set(pairs), key=lambda t: (mono_deg(t[0]), t)):
        if not any(s[1] == t[1] and mono_divides(s[0], t[0]) for s in minimal):
            minimal.append(t)
    return minimal


def all_pairs_betti(G):
    """The non-minimal Betti table of the tower of all-pairs levels over G,
    built with neither ``lead_syz`` nor ``build_frame``: each level's
    candidates are formed over the previous level's terms in frame order
    (the chain's induced order, ``reorder_permutation``), and each term
    m*e_i has degree deg(m) + the degree of e_i."""
    levels = [G.twists, G.degrees]
    chain = G.chain.extend(G.lms)
    lms, degrees = G.lms, G.degrees
    while True:
        terms = all_pairs_level(lms)
        if not terms:
            break
        terms = [terms[t] for t in reorder_permutation(terms, chain, len(chain))]
        degrees = [mono_deg(m) + degrees[i] for m, i in terms]
        levels.append(degrees)
        chain = chain.extend(terms)
        lms = terms
    return betti_of(levels)


def _top(u):
    """max(u): the largest 1-based index of a variable dividing u."""
    e = mono_exponents(u)
    return max(i for i in range(len(e)) if e[i]) + 1


def is_stable(lms):
    """The monomial ideal generated by ``lms`` is stable for x0 > x1 > ...:
    x_i * u / x_max(u) lies in it for every generator u and i < max(u)."""
    for u in lms:
        top = _top(u)
        for i in range(top - 1):
            v = list(mono_exponents(u))
            v[i] += 1
            v[top - 1] -= 1
            if not any(mono_divides(w, mono_from_exponents(v)) for w in lms):
                return False
    return True


def eliahou_kervaire(lms):
    """The Betti table of R/<lms> for a stable monomial ideal with minimal
    generators ``lms``: beta_{i+1,i+j} = sum over the generators u of
    degree j of C(max(u) - 1, i)."""
    table = {(0, 0): 1}
    for u in lms:
        top = _top(u)
        for i in range(top):
            kj = (i + 1, i + mono_deg(u))
            table[kj] = table.get(kj, 0) + comb(top - 1, i)
    return BettiTable(table)
