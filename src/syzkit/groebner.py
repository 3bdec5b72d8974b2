"""Division with remainder and reduced Groebner bases.

One engine backs :func:`buchberger`: F4 (Faugere 1999) on module
monomials, degree by degree, with the reduced echelon forms of
:func:`syzkit.linalg.rref`.  Degrees include the twists of the
components.  Inhomogeneous input is homogenized by one extra variable, so
that the degree of a homogenized element is its sugar degree
(Giovini-Mora-Niesi-Robbiano-Traverso 1991); the result is dehomogenized
and reduced.  The output is the reduced Groebner basis, monic, sorted by
ascending leading-monomial degree with descending base-ordering tiebreak.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from . import linalg
from .algebra import (
    DomainError,
    ModMono,
    OpCounters,
    Ring,
    Vec,
    is_homogeneous,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomial_divides,
    term_times_vector,
    vec_iadd_scaled,
    vec_interned,
    vec_sub_term,
)
from .orderings import BaseOrdering, OrderingChain, reorder_permutation


class GroebnerBasis:
    """An ordered list of monic module vectors with cached leading data.

    `level` is the module level of the elements (0 for vectors of F_0 = R^s);
    `chain` carries exactly `level` induced-ordering levels.  Each generator
    is copied once into a :class:`~syzkit.algebra.Column`: sorted, made
    monic and built from the objects of ``table`` (a fresh one when None;
    see :mod:`syzkit.algebra`), so ``gens`` holds columns only.  The
    divisor lookup (smallest generator index whose leading monomial divides
    a given module monomial) is memoized on the basis, one dict lookup per
    hit; the memo's keys share their base monomials, one object each in a
    table of the memo.  :func:`~syzkit.lift.lift_frame_iter` lifts against
    :meth:`with_own_memo`, so the memo of a level's lifting dies with it
    and a basis given to ``resolve`` keeps only what it held before.
    ``degrees`` are the lead degrees, twists included, graded or not:
    :func:`~syzkit.resolution.resolve` decides gradedness from its input.
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
            if not isinstance(g, dict):  # a Column scans its keys per lookup
                g = dict(g.items())
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
        self.degrees = tuple(mm[0][0] + self.twists[mm[1]] for mm in lms)
        by_comp: dict = {}
        for i, mm in enumerate(lms):
            by_comp.setdefault(mm[1], []).append((mm[0], i))
        self._by_comp = by_comp
        self._div_memo: dict = {}
        self._div_monos: dict = {}  # the one object of each memo monomial

    def divisor(self, mm: ModMono) -> int:
        """Smallest generator index whose leading monomial divides mm, or -1.

        A miss stores mm with its base monomial replaced by the memo's own
        object for it: many keys share few monomials, and a caller's mm
        is often built for the lookup alone."""
        memo = self._div_memo
        idx = memo.get(mm)
        if idx is None:
            idx = -1
            mono, comp = mm
            for lm_mono, i in self._by_comp.get(comp, ()):
                if mono_divides(lm_mono, mono):
                    idx = i
                    break
            memo[(self._div_monos.setdefault(mono, mono), comp)] = idx
        return idx

    def with_own_memo(self) -> "GroebnerBasis":
        """This basis, every attribute shared but the divisor memo and its
        monomial table, which start empty."""
        view = object.__new__(GroebnerBasis)
        view.__dict__ = {**self.__dict__, "_div_memo": {}, "_div_monos": {}}
        return view


def divide_with_remainder(g: Vec, G: GroebnerBasis,
                          counters: Optional[OpCounters] = None):
    """Full normal-form division of g by G: (q, h) with g the sum of
    c*m*f_i over the terms c*(m, i) of q, plus h, no term of h divisible by
    a leading monomial of G, and q a vector of the next module, in step order.

    Each step scans for the largest term t left, then subtracts c*m*f_i for
    the smallest i with LM(f_i) | t (t goes to h if there is none) less its
    head, whose cancellation is known and not counted.  Every subtracted
    term is below t, so key(m*LM(f_i)) <= key(LM(g)) for every term of q.
    """
    p = G.ring.p
    key = G.chain.key_fn(G.level)
    keymemo: dict = {}
    q: Vec = {}
    h: Vec = {}
    work = dict(g.items())
    while work:
        best = None
        best_key = None
        for mm in work:
            k = keymemo.get(mm)
            if k is None:
                k = keymemo[mm] = key(mm)
            if best_key is None or k > best_key:
                best, best_key = mm, k
        if counters is not None:
            counters.n_monomial_cmp += len(work) - 1
        c = work.pop(best)
        i = G.divisor(best)
        if i < 0:
            h[best] = c
            continue
        m = mono_div(best[0], G.lms[i][0])
        # m*f_i less its head, which is best at coefficient 1
        tail = {(mono_mul(m, mm[0]), mm[1]): v
                for mm, v in itertools.islice(G.gens[i].items(), 1, None)}
        vec_iadd_scaled(work, p - c, tail, p, counters)
        vec_sub_term(q, (m, i), p - c, p, counters)
    return q, h


# ---------------------------------------------------------------------------
# reduced Groebner basis construction


def buchberger(gens: Sequence[Vec], ring: Ring, base: BaseOrdering,
               rank: int = 1,
               twists: Optional[Sequence[int]] = None) -> GroebnerBasis:
    """Reduced monic Groebner basis of the span of `gens` in R^rank.

    Every input goes through the F4 engine (:func:`_gb_f4`), and the output
    takes the order of :func:`~syzkit.orderings.reorder_permutation` at
    level 0.  Raises DomainError unless there are `rank` twists and every
    component lies in [0, rank).
    """
    twists = (0,) * rank if twists is None else tuple(twists)
    if len(twists) != rank:
        raise DomainError(f"{len(twists)} twists for a module of rank {rank}")
    p = ring.p
    cleaned = []
    for g in gens:
        g = {mm: c % p for mm, c in g.items() if c % p}
        if any(not 0 <= mm[1] < rank for mm in g):
            raise DomainError(f"generator component out of range [0, {rank})")
        if g:
            cleaned.append(g)
    chain = OrderingChain(base)
    if not cleaned:
        return GroebnerBasis(ring, chain, [], level=0, rank=rank, twists=twists)
    out = _gb_f4(cleaned, ring, base, twists)
    lms = [next(iter(g)) for g in out]  # F4's rows are head first
    out = [out[i] for i in reorder_permutation(lms, chain, 0)]
    return GroebnerBasis(ring, chain, out, level=0, rank=rank, twists=twists)


# ---------------------------------------------------------------------------
# graded pieces and the F4 engine


def monomials_of_degree(nvars: int, deg: int, base: BaseOrdering):
    """All packed monomials of the given total degree, sorted descending
    (:meth:`~syzkit.orderings.BaseOrdering.degree_piece`)."""
    return base.degree_piece(nvars, deg)


def _gb_f4(gens, ring: Ring, base: BaseOrdering, twists: tuple):
    """Reduced Groebner basis of the module spanned by `gens`, by F4.

    Input that is not homogeneous for the twists is homogenized: one more,
    last exponent lifts each term to the top degree of its generator.  A
    column is a module monomial, of degree deg + twists[comp]; within one
    degree, columns are ordered by the level-0 key of the dehomogenized
    monomial, a valid ordering of the homogenized module as the degree is
    fixed there.  Degree e takes the input of degree e and the S-pairs (of
    one component, and at rank 1 not of coprime leads) whose lcm L has
    degree e.  A pair is dropped when a lead lm_k of its component divides
    L and lcm(i, k), lcm(j, k) divide L strictly, so that both pairs had
    lower degree (chain criterion).  Each pair gives the rows (L/lm_i) g_i
    and (L/lm_j) g_j; symbolic preprocessing adds one reducer (t/lm_k) g_k
    per column t that a lead lm_k divides, until the columns close.  In the
    reduced echelon form of these rows, a pivot that no earlier lead
    divides is a new reduced basis element: every column an earlier lead
    divides is a pivot column, and homogeneity keeps the earlier elements
    reduced.  Only these rows are reduced; the other pivot rows stay in
    echelon form.  Dehomogenized, the basis is a Groebner basis of the input;
    only the elements whose lead no other lead divides are kept, and the
    tail of each is reduced once against them, which suffices since no
    term below LM(g) is divisible by LM(g).
    """
    key0 = OrderingChain(base).key_fn(0)
    homogeneous = all(is_homogeneous(g, twists) for g in gens)
    if homogeneous:
        key = key0
    else:
        gens = [_homogenized(g, twists) for g in gens]

        def key(mm):
            return key0((_dehomogenized(mm[0]), mm[1]))
    inputs: dict = {}
    for g in gens:
        mm = next(iter(g))
        inputs.setdefault(mm[0][0] + twists[mm[1]], []).append(g)
    basis: list = []  # monic vectors, leading term first
    lms: list = []
    by_comp: dict = {}  # component -> [(lead monomial, basis index)]
    pairs: dict = {}  # degree of the lcm -> [(i, j)]

    while pairs or inputs:
        e = min(itertools.chain(pairs, inputs))
        mults: dict = {}  # (k, t) for the rows t * g_k, deduplicated
        for i, j in pairs.pop(e, ()):
            (a, comp), b = lms[i], lms[j][0]
            lcm = mono_lcm(a, b)
            d = lcm[0]
            if any(mono_divides(lm, lcm) and mono_lcm(a, lm)[0] < d
                   and mono_lcm(b, lm)[0] < d for lm, _ in by_comp[comp]):
                continue  # chain criterion
            mults[(i, mono_div(lcm, a))] = None
            mults[(j, mono_div(lcm, b))] = None
        rows = [term_times_vector(t, basis[k]) for k, t in mults]
        # columns that an earlier lead divides, each the lead of some row
        known = {(mono_mul(t, lms[k][0]), lms[k][1]) for k, t in mults}
        rows.extend(inputs.pop(e, ()))
        # symbolic preprocessing: one reducer per such column, to closure
        cols: set = set()
        todo = [mm for row in rows for mm in row]
        while todo:
            mm = todo.pop()
            if mm in cols:
                continue
            cols.add(mm)
            if mm in known:
                continue
            m = mm[0]
            for lm, k in by_comp.get(mm[1], ()):
                if mono_divides(lm, m):
                    known.add(mm)
                    rows.append(term_times_vector(mono_div(m, lm), basis[k]))
                    todo.extend(rows[-1])
                    break
        order = sorted(cols, key=key, reverse=True)
        index = {mm: c for c, mm in enumerate(order)}
        reduced, pivcols = linalg.rref(
            [{index[mm]: v for mm, v in row.items()} for row in rows], ring.p,
            keep=lambda c: order[c] not in known)
        for row, c in zip(reduced, pivcols):
            new = len(basis)
            basis.append({order[ci]: v for ci, v in row.items()})
            lm, comp = order[c]
            lms.append(order[c])
            same = by_comp.setdefault(comp, [])
            for m, k in same:
                lcm = mono_lcm(m, lm)
                # the product criterion holds at rank 1 only
                if len(twists) > 1 or lcm[0] < m[0] + lm[0]:
                    pairs.setdefault(lcm[0] + twists[comp], []).append((k, new))
            same.append((lm, new))
    if homogeneous:
        return basis
    basis = [{(_dehomogenized(m), c): v for (m, c), v in g.items()}
             for g in basis]
    lms = [next(iter(g)) for g in basis]
    minimal = GroebnerBasis(ring, OrderingChain(base), [
        g for g, mm in zip(basis, lms)
        if not any(lm != mm and monomial_divides(lm, mm) for lm in lms)],
        rank=len(twists))
    out = []
    for g in minimal.gens:
        lead = next(iter(g))
        _, tail = divide_with_remainder(
            dict(itertools.islice(g.items(), 1, None)), minimal)
        out.append({lead: 1, **tail})
    return out


def _homogenized(g: Vec, twists: tuple) -> Vec:
    """g with one more, last exponent lifting each term to g's top degree."""
    top = max(m[0] + twists[c] for m, c in g)
    return {((top - twists[c],) + m[1:] + (top - twists[c] - m[0],), c): v
            for (m, c), v in g.items()}


def _dehomogenized(m):
    """The monomial m with its last exponent dropped."""
    return (m[0] - m[-1],) + m[1:-1]
