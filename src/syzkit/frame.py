"""Minimal generators of leading syzygy modules and the Schreyer frame.

Everything here works on leading terms only: frame level k+1 is computed
from the leading monomials of level k, so the whole tower of leading syzygy
modules (and hence the shape of the resolution, its twists and non-minimal
Betti numbers) is available before any actual lifting happens.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import (
    ModMono,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
)
from .orderings import BaseOrdering, reorder_permutation
from .groebner import GroebnerBasis


class FrameLevel:
    """Minimal generating set of one leading syzygy module.

    ``terms[t] == m * e_i`` with m = lcm(m_i, m_j) / m_i for some j < i;
    ``degrees[t]`` is deg(m) + degree of generator i one level down.
    """

    __slots__ = ("terms", "degrees")

    def __init__(self, terms: list, degrees: list):
        self.terms = terms
        self.degrees = degrees

    def permuted(self, perm: Sequence[int]) -> "FrameLevel":
        return FrameLevel([self.terms[i] for i in perm],
                          [self.degrees[i] for i in perm])


def lead_syz(leading_monomials: Sequence[ModMono], base: BaseOrdering,
             degrees: Sequence[int]) -> FrameLevel:
    """Minimal generators of the leading syzygy module of the given leading
    monomials, by pairwise candidate generation and divisibility pruning.

    The candidates of generator i are (lcm(m_i, m_j)/m_i) e_i for j < i;
    pairs with mismatched components are skipped (their lcm is zero).  A
    candidate can divide only candidates of the same i, so each i's are
    pruned among themselves.  The result is order-normalized: ascending
    component, then descending base ordering on the cofactor monomial.
    ``degrees`` are the degrees of the given generators.
    """
    lms = list(leading_monomials)
    bk = base.key_func()
    terms: list = []
    for i in range(1, len(lms)):
        mi, ci = lms[i]
        kept: list = []  # the minimal candidate cofactors of i so far
        for j in range(i):
            mj, cj = lms[j]
            if ci != cj:
                continue
            t = mono_div(mono_lcm(mi, mj), mi)
            if any(mono_divides(s, t) for s in kept):
                continue
            kept = [s for s in kept if not mono_divides(t, s)]
            kept.append(t)
        kept.sort(key=bk, reverse=True)
        terms += [(t, i) for t in kept]
    return FrameLevel(terms, [mono_deg(t) + degrees[i] for t, i in terms])


def build_frame(G: GroebnerBasis,
                max_length: Optional[int] = None) -> list:
    """The Schreyer frame of G, built inductively from leading terms alone,
    as its list of levels (:class:`FrameLevel`).

    Each level is sorted by :func:`~syzkit.orderings.reorder_permutation`
    before the next one is computed; :func:`~syzkit.resolution.resolve`
    lifts these levels as they stand, so frame level k is column for column
    the generator order of F_{k+2}.  Every level carries its degrees, from
    G's lead degrees.  Raises RuntimeError if the frame outgrows the
    Hilbert syzygy bound.
    """
    levels: list = []
    base = G.chain.base
    chain = G.chain.extend(G.lms)
    lms, degrees = list(G.lms), list(G.degrees)
    while max_length is None or len(levels) < max_length:
        level = lead_syz(lms, base, degrees)
        if not level.terms:
            break
        if len(levels) > G.ring.nvars + G.rank:
            raise RuntimeError("resolution exceeds the Hilbert syzygy bound; "
                               "internal inconsistency")
        perm = reorder_permutation(level.terms, chain, len(chain))
        level = level.permuted(perm)
        levels.append(level)
        chain = chain.extend(level.terms)
        lms = level.terms
        degrees = level.degrees
    return levels
