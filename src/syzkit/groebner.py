"""Division with remainder and reduced Groebner bases.

One engine backs :func:`buchberger`: F4 (Faugere 1999) on module
monomials, degree by degree, with the reduced echelon forms of
:func:`syzkit.linalg.rref`.  Degrees include the twists of the
components.  Every input, homogeneous or not, takes the one loop; on
inhomogeneous input the loop's matrix step runs once more, on the minimal
basis, to reduce it.  The output is the reduced Groebner basis, monic,
sorted by ascending leading-monomial degree with descending base-ordering
tiebreak.
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
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
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
    see :mod:`syzkit.algebra`), so ``gens`` holds columns only.  A basis
    is a value: nothing changes it after construction, and
    :meth:`divisor` scans the leading monomials (the lifting memoizes its
    lookups in its own :class:`~syzkit.lift.SubtreeCache`).
    ``degrees`` are the lead degrees, twists included, graded or not:
    :func:`~syzkit.resolution.resolve` decides gradedness from its input.
    :meth:`syzygy_basis` forms the basis of the next level.
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
        self.degrees = tuple(mono_deg(m) + self.twists[c] for m, c in lms)
        by_comp: dict = {}
        for i, mm in enumerate(lms):
            by_comp.setdefault(mm[1], []).append((mm[0], i))
        self._by_comp = by_comp

    def divisor(self, mm: ModMono) -> int:
        """Smallest generator index whose leading monomial divides mm, or -1."""
        return _smallest_divisor(self._by_comp, mm)

    def syzygy_basis(self, liftings: Iterable[Vec],
                     table: Optional[dict] = None) -> "GroebnerBasis":
        """The basis of the next level whose generators are ``liftings``,
        the liftings of the frame terms of this basis (Schreyer): it lives
        in the free module of rank ``len(gens)`` with twists ``degrees``,
        under the ordering this basis' leading monomials induce."""
        return GroebnerBasis(self.ring, self.chain.extend(self.lms), liftings,
                             level=self.level + 1, rank=len(self.gens),
                             twists=self.degrees, table=table)


def _smallest_divisor(by_comp: dict, mm: ModMono) -> int:
    """The first i of the pairs (leading monomial, i) that ``by_comp``
    lists under mm's component whose monomial divides mm's, or -1."""
    mono = mm[0]
    for lm, i in by_comp.get(mm[1], ()):
        if mono_divides(lm, mono):
            return i
    return -1


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

    A column is a module monomial, of degree deg + twists[comp], and
    columns are ordered by the level-0 key.  Degree e takes the inputs
    whose top degree is e and the S-pairs (of one component, and at rank 1
    not of coprime leads) whose lcm L has degree e, lowest e first.  A
    pair is dropped when a lead lm_k of its component divides L and
    lcm(i, k), lcm(j, k) have a strictly lower degree than L (chain
    criterion): pairs are queued only after a step, so those two were
    queued before this one, and as the lowest degree goes first, they were
    handled; the strict drop in degree rules out a cycle of drops.  Each
    pair gives the rows (L/lm_i) g_i and (L/lm_j) g_j, and
    :func:`_matrix_step` reduces them with the inputs: a pivot that no
    earlier lead divides is a new basis element.  On homogeneous input the
    elements are the reduced basis, since every column an earlier lead
    divides is a pivot column and a new lead divides no term of lower
    degree.  Otherwise a later element, of lower lead, may divide an
    earlier lead or tail term: the elements whose lead no other lead
    divides form a minimal basis, and one more step, which keeps the
    pivots at their leads only, reduces it.
    """
    key = OrderingChain(base).key_fn(0)
    inputs: dict = {}  # top degree -> inputs
    homogeneous = True
    for g in gens:
        degrees = {mono_deg(m) + twists[c] for m, c in g}
        homogeneous = homogeneous and len(degrees) == 1
        inputs.setdefault(max(degrees), []).append(g)
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
            d = mono_deg(lcm)
            if any(mono_divides(lm, lcm) and mono_deg(mono_lcm(a, lm)) < d
                   and mono_deg(mono_lcm(b, lm)) < d for lm, _ in by_comp[comp]):
                continue  # chain criterion
            mults[(i, mono_div(lcm, a))] = None
            mults[(j, mono_div(lcm, b))] = None
        rows = [term_times_vector(t, basis[k]) for k, t in mults]
        rows.extend(inputs.pop(e, ()))
        known = {(mono_mul(t, lms[k][0]), lms[k][1]) for k, t in mults}
        for row in _matrix_step(rows, known, basis, lms, by_comp, key, ring.p):
            new = len(basis)
            basis.append(row)
            lm, comp = mm = next(iter(row))
            lms.append(mm)
            same = by_comp.setdefault(comp, [])
            for m, k in same:
                d = mono_deg(mono_lcm(m, lm))
                # the product criterion holds at rank 1 only
                if len(twists) > 1 or d < mono_deg(m) + mono_deg(lm):
                    pairs.setdefault(d + twists[comp], []).append((k, new))
            same.append((lm, new))
    if homogeneous:
        return basis
    heads = {mm for mm in lms if not any(
        lm != mm[0] and mono_divides(lm, mm[0]) for lm, _ in by_comp[mm[1]])}
    return _matrix_step([g for g, mm in zip(basis, lms) if mm in heads],
                        set(heads), basis, lms, by_comp, key, ring.p, heads)


def _matrix_step(rows: list, known: set, basis: list, lms: list,
                 by_comp: dict, key, p: int, heads=None) -> list:
    """F4's matrix step: the rows of the reduced echelon form of ``rows``
    and their reducers whose pivots no lead divides, or with ``heads``, whose
    pivots are in ``heads``; as vectors, head first.

    ``known`` holds columns that head a row.  Symbolic preprocessing adds
    one reducer (t/lm_k) basis[k] for every other column t that a lead lm_k
    (``lms``, ``by_comp``) divides, until the columns close, and adds t to
    ``known``; so every column a lead divides is a pivot column in
    ``known``, and a kept row has no other term that a lead divides.  The
    reducers are appended to ``rows``.  Columns are ordered by ``key``,
    descending.
    """
    cols: set = set()
    todo = [mm for row in rows for mm in row]
    while todo:
        mm = todo.pop()
        if mm in cols:
            continue
        cols.add(mm)
        if mm in known:
            continue
        k = _smallest_divisor(by_comp, mm)
        if k >= 0:
            known.add(mm)
            rows.append(term_times_vector(mono_div(mm[0], lms[k][0]),
                                          basis[k]))
            todo.extend(rows[-1])
    order = sorted(cols, key=key, reverse=True)
    index = {mm: c for c, mm in enumerate(order)}
    reduced, _ = linalg.rref(
        [{index[mm]: v for mm, v in row.items()} for row in rows], p,
        keep=(lambda c: order[c] not in known) if heads is None
        else (lambda c: order[c] in heads))
    return [{order[c]: v for c, v in row.items()} for row in reduced]
