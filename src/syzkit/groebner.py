"""Division with remainder, S-vectors and reduced Groebner bases.

Two engines back :func:`buchberger`.  Homogeneous ideals (rank 1) go to an
F4-style engine (Faugere 1999): degree by degree, it takes the S-pairs of
that degree that survive the product and chain criteria, adds reducer rows
by symbolic preprocessing, and brings them to reduced echelon form with
:func:`syzkit.linalg.echelon`; the pivots that no earlier leading monomial
divides are the new reduced basis elements.  Everything else (inhomogeneous
input, modules of rank > 1) goes through the classic pair loop.  Both
produce the same canonical object: the reduced Groebner basis, monic,
sorted by ascending leading-monomial degree with descending base-ordering
tiebreak.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

from . import linalg
from .algebra import (
    DomainError,
    ModMono,
    OpCounters,
    Ring,
    Vec,
    is_homogeneous,
    leading_term,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    term_times_vector,
    vec_iadd_scaled,
    vec_interned,
    vec_scale,
)
from .orderings import BaseOrdering, OrderingChain, reorder_permutation


class GroebnerBasis:
    """An ordered list of monic module vectors with cached leading data.

    `level` is the module level of the elements (0 for vectors of F_0 = R^s);
    `chain` carries exactly `level` induced-ordering levels.  Each generator
    is copied once: sorted, made monic and built from the objects of
    ``table`` (a fresh one when None; see :mod:`syzkit.algebra`).  The
    divisor lookup (smallest generator index whose leading monomial divides
    a given module monomial) is memoized.
    """

    def __init__(self, ring: Ring, chain: OrderingChain, gens: Iterable[Vec],
                 level: int = 0, rank: Optional[int] = None,
                 twists: Optional[Sequence[int]] = None,
                 table: Optional[dict] = None):
        if len(chain) != level:
            raise DomainError(f"chain has {len(chain)} levels; expected {level}")
        self.ring = ring
        self.chain = chain
        self.level = level
        key = chain.key_fn(level)
        p = ring.p
        if table is None:
            table = {}
        norm = []
        lms = []
        for g in gens:
            if not g:
                raise DomainError("Groebner basis generators must be nonzero")
            order = sorted(g, key=key, reverse=True)
            s = ring.inv(g[order[0]])
            g = vec_interned(((mm, g[mm] * s % p) for mm in order), table)
            norm.append(g)
            lms.append(next(iter(g)))
        self.gens = tuple(norm)
        self.lms = tuple(lms)
        if rank is None:
            rank = 1 + max((mm[1] for mm in lms), default=0)
        self.rank = rank
        if twists is None:
            twists = (0,) * rank
        self.twists = tuple(twists)
        if all(is_homogeneous(g, self.twists) for g in self.gens):
            self.degrees = tuple(mm[0][0] + self.twists[mm[1]] for mm in lms)
        else:
            self.degrees = None
        by_comp: dict = {}
        for i, mm in enumerate(lms):
            by_comp.setdefault(mm[1], []).append((mm[0], i))
        self._by_comp = by_comp
        self._div_memo: dict = {}

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def divisor(self, mm: ModMono) -> int:
        """Smallest generator index whose leading monomial divides mm, or -1."""
        memo = self._div_memo
        idx = memo.get(mm)
        if idx is None:
            idx = -1
            mono = mm[0]
            for lm_mono, i in self._by_comp.get(mm[1], ()):
                if mono_divides(lm_mono, mono):
                    idx = i
                    break
            memo[mm] = idx
        return idx

    def divisors_after(self, mm: ModMono, start: int):
        """Generator indices > start whose leading monomial divides mm."""
        mono = mm[0]
        for lm_mono, i in self._by_comp.get(mm[1], ()):
            if i > start and mono_divides(lm_mono, mono):
                yield i


def m_coeff(G: GroebnerBasis, i: int, j: int):
    """The scalar term m_{ji} = lcm(LM(f_j), LM(f_i)) / LT(f_i).

    Returns a (coefficient, monomial) pair of R, or None when the two leading
    monomials live in different components ("no pair").  For a monic basis
    the coefficient is always 1.
    """
    a, b = G.lms[i], G.lms[j]
    if a[1] != b[1]:
        return None
    lcm = mono_lcm(a[0], b[0])
    return (1, mono_div(lcm, a[0]))


def s_vector(G: GroebnerBasis, i: int, j: int,
             counters: Optional[OpCounters] = None) -> Vec:
    """S-vector m_{ji} f_i - m_{ij} f_j; the leading terms cancel by
    construction."""
    mi = m_coeff(G, i, j)
    mj = m_coeff(G, j, i)
    if mi is None or mj is None:
        raise DomainError("S-vector of generators with mismatched components")
    p = G.ring.p
    out = term_times_vector(mi[0], mi[1], G.gens[i], p, counters)
    vec_iadd_scaled(out, p - mj[0], term_times_vector(1, mj[1], G.gens[j], p, None),
                    p, counters)
    head = (mono_lcm(G.lms[i][0], G.lms[j][0]), G.lms[i][1])
    assert head not in out, "S-vector leading terms failed to cancel"
    return out


def divide_with_remainder(g: Vec, G: GroebnerBasis,
                          counters: Optional[OpCounters] = None,
                          check: bool = False):
    """Full normal-form division of g by G.

    Returns (quotients, remainder) with g = sum(q_i f_i) + h, no term of h
    divisible by any leading monomial of G, and LM(g) >= LM(q_i f_i) whenever
    both sides are nonzero.  The divisor with the smallest index is chosen at
    every step.  With check=True the degree bound is asserted per step.
    """
    p = G.ring.p
    key = G.chain.key_fn(G.level)
    keymemo: dict = {}

    def mkey(mm):
        k = keymemo.get(mm)
        if k is None:
            k = keymemo[mm] = key(mm)
        return k

    quots = [dict() for _ in G.gens]
    rem: Vec = {}
    work = dict(g)
    bound = None
    if check and g:
        bound = max(map(mkey, g))
    while work:
        best = None
        best_key = None
        for mm in work:
            k = mkey(mm)
            if best_key is None or k > best_key:
                best, best_key = mm, k
        if counters is not None:
            counters.n_monomial_cmp += len(work) - 1
        c = work[best]
        if check and best_key > bound:
            raise AssertionError("division increased the leading term")
        i = G.divisor(best)
        if i < 0:
            rem[best] = c
            del work[best]
            continue
        m = mono_div(best[0], G.lms[i][0])
        q = quots[i]
        q[m] = (q.get(m, 0) + c) % p
        if not q[m]:
            del q[m]
        vec_iadd_scaled(work, p - c, term_times_vector(1, m, G.gens[i], p, None),
                        p, counters)
        assert best not in work
    return quots, rem


def is_groebner(G: GroebnerBasis, counters: Optional[OpCounters] = None) -> bool:
    """Buchberger criterion: every same-component S-vector reduces to zero."""
    for i in range(len(G.gens)):
        for j in range(i):
            if G.lms[i][1] != G.lms[j][1]:
                continue
            s = s_vector(G, i, j, counters)
            _, rem = divide_with_remainder(s, G, counters)
            if rem:
                return False
    return True


# ---------------------------------------------------------------------------
# Buchberger / reduced Groebner basis construction


def buchberger(gens: Sequence[Vec], ring: Ring, base: BaseOrdering,
               rank: int = 1, twists: Optional[Sequence[int]] = None,
               keep_input_order: bool = False) -> GroebnerBasis:
    """Reduced monic Groebner basis of the span of `gens` in R^rank.

    Homogeneous rank-1 input is handled by the graded F4-style engine;
    everything else goes through the classic pair loop.  The output generator
    order is canonical (the default order of
    :func:`~syzkit.orderings.reorder_permutation` at level 0) unless
    keep_input_order is set, in which case the engine's natural production
    order is kept.
    """
    p = ring.p
    cleaned = []
    for g in gens:
        g = {mm: c % p for mm, c in g.items() if c % p}
        if g:
            cleaned.append(g)
    chain = OrderingChain(base)
    if not cleaned:
        return GroebnerBasis(ring, chain, [], level=0, rank=rank, twists=twists)
    if rank == 1 and (twists is None or set(twists) == {0}) and \
            all(is_homogeneous(g) for g in cleaned):
        out = _gb_homogeneous_f4(cleaned, ring, base)
    else:
        out = _gb_classic(cleaned, ring, base, rank)
    if not keep_input_order:
        key = chain.key_fn(0)
        lms = [max(g, key=key) for g in out]
        out = [out[i] for i in reorder_permutation(lms, chain, 0)]
    return GroebnerBasis(ring, chain, out, level=0, rank=rank, twists=twists)


def _gb_classic(gens, ring: Ring, base: BaseOrdering, rank: int):
    """Plain Buchberger with product (rank 1) and chain criteria, top
    reduction in the loop and a final interreduction.  Serves inhomogeneous
    and rank > 1 input; the divisor lookup is rebuilt only when the basis
    grows."""
    chain = OrderingChain(base)
    scratch = OpCounters()

    def make_basis(vecs):
        return GroebnerBasis(ring, chain, vecs, level=0, rank=rank)

    G = make_basis(gens)
    basis = list(G.gens)
    lms = list(G.lms)
    pairs = set()
    done = set()
    for i in range(len(basis)):
        for j in range(i):
            if lms[i][1] == lms[j][1]:
                pairs.add((j, i))

    def lcm_deg(pair):
        j, i = pair
        return mono_deg(mono_lcm(lms[i][0], lms[j][0]))

    while pairs:
        pair = min(pairs, key=lambda pr: (lcm_deg(pr), pr))
        pairs.discard(pair)
        done.add(pair)
        j, i = pair
        a, b = lms[i], lms[j]
        lcm = mono_lcm(a[0], b[0])
        if rank == 1 and lcm == (a[0][0] + b[0][0],) + tuple(
                x + y for x, y in zip(a[0][1:], b[0][1:])):
            continue  # product criterion: coprime leading monomials
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or lms[k][1] != a[1]:
                continue
            if mono_divides(lms[k][0], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        s = s_vector(G, i, j, scratch)
        _, rem = divide_with_remainder(s, G, scratch)
        if rem:
            key = chain.key_fn(0)
            mm, c = leading_term(rem, key)
            rem = vec_scale(rem, ring.inv(c), ring.p)
            basis.append(rem)
            lms.append(mm)
            G = make_basis(basis)
            new = len(basis) - 1
            for k in range(new):
                if lms[k][1] == mm[1]:
                    pairs.add((k, new))
    # interreduce: keep a minimal set of leading monomials, then fully reduce
    # each survivor against the others until nothing changes.
    key0 = chain.key_fn(0)
    while True:
        order = sorted(range(len(basis)), key=lambda i: (mono_deg(lms[i][0]), i))
        kept: list = []
        for i in order:
            if not any(lms[k][1] == lms[i][1] and mono_divides(lms[k][0], lms[i][0])
                       for k in kept):
                kept.append(i)
        kept.sort()
        basis = [basis[i] for i in kept]
        lms = [lms[i] for i in kept]
        changed = False
        for i in range(len(basis)):
            others = [basis[k] for k in range(len(basis)) if k != i and basis[k]]
            _, rem = divide_with_remainder(basis[i], make_basis(others), scratch)
            if not rem:
                basis[i] = None
                changed = True
            elif rem != basis[i]:
                changed = True
                mm, c = leading_term(rem, key0)
                basis[i] = vec_scale(rem, ring.inv(c), ring.p)
                lms[i] = mm
        survivors = [(g, m) for g, m in zip(basis, lms) if g]
        basis = [g for g, _ in survivors]
        lms = [m for _, m in survivors]
        if not changed:
            break
    return basis


# ---------------------------------------------------------------------------
# graded pieces and the homogeneous F4-style engine (rank 1)


def monomials_of_degree(nvars: int, deg: int, base: BaseOrdering):
    """All packed monomials of the given total degree, sorted descending."""
    out = []
    for bars in itertools.combinations(range(deg + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(deg + nvars - 2 - prev)
        out.append((deg,) + tuple(exps))
    out.sort(key=base.key_func(), reverse=True)
    return out


def _gb_homogeneous_f4(gens, ring: Ring, base: BaseOrdering):
    """Reduced Groebner basis of a homogeneous ideal, one degree at a time.

    Degree e takes the S-pairs whose lcm has degree e and the input
    generators of degree e.  A pair is dropped when its leads are coprime
    (product criterion), or when some lead lm_k divides L = lcm(i, j) and
    lcm(i, k), lcm(j, k) both divide L strictly, so that both pairs had
    lower degree and are done (chain criterion).  Each remaining pair gives
    the rows (L/lm_i) g_i and (L/lm_j) g_j; symbolic preprocessing then
    adds one reducer (t/lm_k) g_k for every column monomial t that a lead
    lm_k divides, until the columns close.  One reduced echelon form of
    these rows over their columns, in descending monomial order, finishes
    the degree: a pivot that no earlier lead divides is a new reduced basis
    element, since every column an earlier lead divides is a pivot column,
    and homogeneity keeps the earlier elements reduced.  Stops when no pair
    and no input degree is left.
    """
    p = ring.p
    key = base.key_func()
    inputs: dict = {}
    for g in gens:
        inputs.setdefault(next(iter(g))[0][0], []).append(
            {mm[0]: c for mm, c in g.items()})
    basis: list = []  # monic polys {mono: coeff}, leading term first
    lms: list = []
    pairs: dict = {}  # lcm degree -> [(i, j)]

    def times(k, t):
        return {mono_mul(t, m): c for m, c in basis[k].items()}

    while pairs or inputs:
        e = min(itertools.chain(pairs, inputs))
        mults: dict = {}  # (k, t) for the rows t * g_k, deduplicated
        for i, j in pairs.pop(e, ()):
            lcm = mono_lcm(lms[i], lms[j])
            if any(mono_divides(lm, lcm)
                   and mono_deg(mono_lcm(lms[i], lm)) < e
                   and mono_deg(mono_lcm(lms[j], lm)) < e for lm in lms):
                continue  # chain criterion
            mults[(i, mono_div(lcm, lms[i]))] = None
            mults[(j, mono_div(lcm, lms[j]))] = None
        rows = [times(k, t) for k, t in mults]
        # columns that an earlier lead divides, each the lead of some row
        known = {mono_mul(t, lms[k]) for k, t in mults}
        rows.extend(inputs.pop(e, ()))
        # symbolic preprocessing: one reducer per such column, to closure
        cols: set = set()
        todo = [m for row in rows for m in row]
        while todo:
            m = todo.pop()
            if m in cols:
                continue
            cols.add(m)
            if m in known:
                continue
            for k, lm in enumerate(lms):
                if mono_divides(lm, m):
                    known.add(m)
                    rows.append(times(k, mono_div(m, lm)))
                    todo.extend(rows[-1])
                    break
        order = sorted(cols, key=key, reverse=True)
        index = {m: c for c, m in enumerate(order)}
        a = np.zeros((len(rows), len(order)), dtype=np.int64)
        for r, row in enumerate(rows):
            for m, c in row.items():
                a[r, index[m]] = c
        for r, c in linalg.echelon(a, p, reduced=True):
            if order[c] in known:
                continue  # an earlier lead divides the pivot
            new = len(basis)
            basis.append({order[ci]: int(a[r, ci])
                          for ci in np.flatnonzero(a[r])})
            lms.append(order[c])
            for k in range(new):
                lcm = mono_lcm(lms[k], lms[new])
                if mono_deg(lcm) < mono_deg(lms[k]) + mono_deg(lms[new]):
                    pairs.setdefault(mono_deg(lcm), []).append((k, new))
    return [{(m, 0): c for m, c in g.items()} for g in basis]
