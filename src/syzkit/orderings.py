"""Base monomial orderings and chains of Schreyer-induced module orderings.

The comparison of module monomials at level k of a chain descends through the
stored leading monomials of the generators one level down.  Instead of
recursing per comparison, each chain level caches the full descent of its
generators to level 0: an accumulated base-ring monomial (``path_monos``) and
the visited component chain (``tails``, with the level-0 component negated so
that plain tuple comparison realizes the order).  A comparison then costs one
monomial product, one base-ordering comparison and an integer-tuple tiebreak.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Sequence

from .algebra import DomainError, ModMono, Mono, mono_deg, mono_mul

ORDER_KINDS = ("dp", "lp")  # degree reverse lexicographic / lexicographic


class BaseOrdering:
    """A global monomial ordering on the base ring: 'dp' or 'lp'."""

    __slots__ = ("kind", "nvars")

    def __init__(self, kind: str, nvars: int):
        if kind not in ORDER_KINDS:
            raise DomainError(f"unknown ordering {kind!r}; expected one of {ORDER_KINDS}")
        self.kind = kind
        self.nvars = nvars

    def key_func(self) -> Callable[[Mono], tuple]:
        """A key whose plain tuple comparison is the ordering: the exponents
        for lp; for dp the total degree, then the exponents reversed and
        negated (``map(operator.neg, ...)``, about half the time of a
        generator expression per key)."""
        if self.kind == "lp":
            return lambda m: m[1:]
        return lambda m: (m[0],) + tuple(map(operator.neg, m[:0:-1]))

    def degree_piece(self, nvars: int, deg: int) -> list:
        """All packed monomials of total degree deg in nvars variables,
        descending, generated in that order with no sort.  Stars and bars
        yield the exponent vectors (e_1, ..., e_n) in ascending lex order:
        reversed, that list is lp's order; with each vector read backwards,
        it is dp's, whose degree piece descends as (e_n, ..., e_1) ascends
        in lex order."""
        lp = self.kind == "lp"
        out = []
        for bars in itertools.combinations(range(deg + nvars - 1), nvars - 1):
            exps = []
            prev = -1
            for b in bars:
                exps.append(b - prev - 1)
                prev = b
            exps.append(deg + nvars - 2 - prev)
            if not lp:
                exps.reverse()
            out.append((deg,) + tuple(exps))
        if lp:
            out.reverse()
        return out

    def __repr__(self):
        return f"BaseOrdering({self.kind!r}, nvars={self.nvars})"


class _Level:
    __slots__ = ("path_monos", "tails")

    def __init__(self, path_monos, tails):
        self.path_monos = path_monos  # descent image monomials at level 0
        self.tails = tails        # component chains (-c0, c1, ..., c_{k-1})


class OrderingChain:
    """A base ordering plus induced-ordering data for each resolution level.

    Level 0 compares monomials of F_0 term-over-position (base ordering on the
    monomial, smaller component wins ties).  Level k >= 1 compares via the
    leading terms of the generators recorded one level down, breaking exact
    ties by the larger component; the lifting's choice of reducer relies on
    this tie-break (``lift._root_divisor``).  Immutable: :meth:`extend`
    returns a new chain.
    """

    __slots__ = ("base", "levels")

    def __init__(self, base: BaseOrdering, levels: tuple = ()):
        self.base = base
        self.levels = tuple(levels)

    def __len__(self):
        return len(self.levels)

    def key_fn(self, level: int) -> Callable[[ModMono], tuple]:
        """A key function realizing the level-`level` ordering: plain tuple
        comparison of keys agrees with the induced ordering."""
        base_key = self.base.key_func()
        if level == 0:
            return lambda mm: base_key(mm[0]) + (-mm[1],)
        if level > len(self.levels):
            raise DomainError(f"chain has {len(self.levels)} levels, no level {level}")
        lev = self.levels[level - 1]
        pms = lev.path_monos
        tails = lev.tails

        def key(mm, _bk=base_key, _pms=pms, _tails=tails):
            m, i = mm
            return _bk(mono_mul(m, _pms[i])) + _tails[i] + (i,)

        return key

    def extend(self, lms: Sequence[ModMono]) -> "OrderingChain":
        """One more level, induced by generators with the given leading
        monomials (which live at the current top level)."""
        top = len(self.levels)
        lms = tuple(lms)
        for mm in lms:
            if not (isinstance(mm, tuple) and isinstance(mm[0], tuple)):
                raise DomainError("extend expects module monomials")
        if top == 0:
            pms = tuple(m for m, _ in lms)
            tails = tuple((-c,) for _, c in lms)
        else:
            prev = self.levels[-1]
            for _, c in lms:
                if not 0 <= c < len(prev.path_monos):
                    raise DomainError("leading monomial component out of range")
            pms = tuple(mono_mul(m, prev.path_monos[c]) for m, c in lms)
            tails = tuple(prev.tails[c] + (c,) for _, c in lms)
        return OrderingChain(self.base, self.levels + (_Level(pms, tails),))

    def image_monomial(self, level: int, mm: ModMono) -> Mono:
        """Descent image of a level-`level` module monomial in the base ring."""
        if level == 0:
            return mm[0]
        lev = self.levels[level - 1]
        return mono_mul(mm[0], lev.path_monos[mm[1]])


def reorder_permutation(terms: Sequence[ModMono], chain: OrderingChain,
                        level: int, mode: str = "negdegrevlex") -> list:
    """Permutation of indices sorting generators with the given leading
    monomials for use at the next resolution step.

    Generators are listed by ascending total degree of the leading-monomial
    image, breaking ties by descending base ordering on the image and then
    by ascending component; this realizes sorting w.r.t. the negative degree
    reverse lexicographic ordering when the base is 'dp'.  It is the one
    order between levels; ``mode`` accepts only its name,
    ``"negdegrevlex"``.  ``mode`` stays for perfbench's ``replay_resolve``,
    which passes it; ROADMAP item 1 drops it with the replay's argument.
    """
    if mode != "negdegrevlex":
        raise DomainError(f"unknown reorder mode {mode!r}")
    images = [chain.image_monomial(level, mm) for mm in terms]
    base_key = chain.base.key_func()
    idxs = list(range(len(terms)))
    idxs.sort(key=lambda i: terms[i][1])                    # component asc
    idxs.sort(key=lambda i: base_key(images[i]), reverse=True)  # image desc
    idxs.sort(key=lambda i: mono_deg(images[i]))            # degree asc
    return idxs
