"""Lifting leading syzygy terms to syzygies.

Three interchangeable lifting strategies plus the driver:

* ``lift_reduce`` - classical reduction: repeatedly cancel the leading term
  of the image, keeping the whole image polynomial and paying one
  leading-term scan (monomial comparisons) per step.
* ``lift_hybrid`` - drops lower order terms from the image and from every
  reducer, and keeps the remaining terms as an unordered bucket popped in
  insertion order, so no monomial comparisons are needed.
* ``lift_tree`` / ``lift_subtree`` - treats each non-lower-order term of the
  image independently, recursing into subtree liftings whose results are
  cached under coefficient-normalized keys and reused.

Unit heads are known, not multiplied: a cached subtree lifting starts with
its key at coefficient 1, so a reuse adds the coefficient to that head with
no product and scales only the tail; a reducer m*f_i starts with the target
term at coefficient 1, so reduce and hybrid drop the target (a known
cancellation, not counted) and subtract the scaled tail.

``lift_reduce`` is the classical step of Schreyer's algorithm and serves as
the baseline the other two are measured against.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import (
    DomainError,
    ModMono,
    OpCounters,
    Vec,
    mono_div,
    mono_mul,
    term_times_vector,
    vec_iadd_scaled,
)
from .orderings import OrderingChain
from .frame import build_frame
from .groebner import GroebnerBasis

LIFT_ALGORITHMS = ("reduce", "hybrid", "tree")


def _sub_term(dst: Vec, mm: ModMono, c: int, p: int,
              counters: Optional[OpCounters] = None) -> None:
    """dst -= c*mm (single syzygy bookkeeping term; negation, no product)."""
    old = dst.get(mm)
    if old is None:
        dst[mm] = p - c
        return
    if counters is not None:
        counters.n_add += 1
    v = (old - c) % p
    if v:
        dst[mm] = v
    else:
        if counters is not None:
            counters.n_canc += 1
        del dst[mm]


def _iadd_monic(dst: Vec, c: int, src: Vec, p: int,
                counters: Optional[OpCounters] = None) -> None:
    """dst += c*src for a src whose first term is its head at coefficient 1.

    The head enters as c with no product, under src's own key object (so
    every output shares the cache's key tuples), and only the tail is
    scaled.  Counts as ``vec_iadd_scaled`` less the head's product.
    """
    items = iter(src.items())
    head, _ = next(items)
    _sub_term(dst, head, p - c, p, counters)
    n_add = n_canc = 0
    for mm, v in items:
        w = (c * v) % p
        old = dst.get(mm)
        if old is None:
            dst[mm] = w
        else:
            n_add += 1
            nv = (old + w) % p
            if nv:
                dst[mm] = nv
            else:
                n_canc += 1
                del dst[mm]
    if counters is not None:
        if c != 1 and c != p - 1:
            counters.n_mult += len(src) - 1
        counters.n_add += n_add
        counters.n_canc += n_canc


class SubtreeCache:
    """Cache of subtree liftings keyed by coefficient-normalized module
    monomials.

    Values are complete subtree liftings whose first term is their key at
    coefficient 1 (children are strictly smaller, so nothing removes or
    reorders that head); a reuse adds the requested coefficient to the head
    with no product and scales only the tail.  ``store`` keeps the first value
    stored under a key.  ``expansions`` counts computed subtrees (cache
    misses that led to work).
    """

    __slots__ = ("data", "hits", "expansions")

    def __init__(self):
        self.data: dict = {}
        self.hits = 0
        self.expansions = 0

    def get(self, key: ModMono):
        return self.data.get(key)

    def store(self, key: ModMono, value: Vec) -> Vec:
        return self.data.setdefault(key, value)

    def __len__(self):
        return len(self.data)


def psi(v: Vec, G: GroebnerBasis, counters: Optional[OpCounters] = None) -> Vec:
    """Image of v under the homomorphism sending basis element i to the i-th
    generator of G."""
    p = G.ring.p
    out: Vec = {}
    for (m, i), c in v.items():
        vec_iadd_scaled(out, c, term_times_vector(1, m, G.gens[i], p, None),
                        p, counters)
    return out


def lot_split(g: Vec, G: GroebnerBasis):
    """Split g into (lower order part, rest): a term is of lower order when
    no leading monomial of G divides it."""
    low: Vec = {}
    rest: Vec = {}
    divisor = G.divisor
    for mm, c in g.items():
        if divisor(mm) < 0:
            low[mm] = c
        else:
            rest[mm] = c
    return low, rest


def lot(g: Vec, G: GroebnerBasis) -> Vec:
    return lot_split(g, G)[0]


def _root_divisor(t_mm: ModMono, G: GroebnerBasis, s_key, key_up):
    """Smallest generator index i with LM(f_i) | t and s > (t/LT(f_i)) e_i
    under the induced ordering, advancing past indices that fail the
    ordering condition."""
    i = G.divisor(t_mm)
    if i < 0:
        raise DomainError(f"no divisor for {t_mm}; input is not a leading syzygy term")
    mono = t_mm[0]
    cand = (mono_div(mono, G.lms[i][0]), i)
    if key_up(cand) < s_key:
        return i, cand[0]
    for i in G.divisors_after(t_mm, i):
        cand = (mono_div(mono, G.lms[i][0]), i)
        if key_up(cand) < s_key:
            return i, cand[0]
    raise DomainError(f"no admissible divisor below {t_mm}; inconsistent input")


def _check_chain(G: GroebnerBasis, chain: OrderingChain) -> OrderingChain:
    if chain is None:
        return G.chain.extend(G.lms)
    if len(chain) != G.level + 1:
        raise DomainError("lifting expects the chain extended by G's leading terms")
    return chain


def lift_reduce(s: ModMono, G: GroebnerBasis, chain: OrderingChain,
                counters: Optional[OpCounters] = None) -> Vec:
    """Lifting of the leading syzygy term s by leading-term reduction of its
    image (the classical step of Schreyer's algorithm)."""
    chain = _check_chain(G, chain)
    p = G.ring.p
    key_up = chain.key_fn(G.level + 1)
    key_dn = chain.key_fn(G.level)
    s_key = key_up(s)
    g = psi({s: 1}, G, counters)
    sbar: Vec = {s: 1}
    keymemo: dict = {}
    while g:
        best = None
        best_key = None
        for mm in g:
            k = keymemo.get(mm)
            if k is None:
                k = keymemo[mm] = key_dn(mm)
            if best_key is None or k > best_key:
                best, best_key = mm, k
        if counters is not None:
            counters.n_monomial_cmp += len(g) - 1
        c = g.pop(best)
        i, m = _root_divisor(best, G, s_key, key_up)
        tail = term_times_vector(1, m, G.gens[i], p, None)
        del tail[best]  # the head of m*f_i, at coefficient 1
        vec_iadd_scaled(g, p - c, tail, p, counters)
        _sub_term(sbar, (m, i), c, p, counters)
    return sbar


def lift_hybrid(s: ModMono, G: GroebnerBasis, chain: OrderingChain,
                counters: Optional[OpCounters] = None) -> Vec:
    """Lifting of s with lower order terms dropped throughout and the
    remaining terms kept unordered (popped in insertion order)."""
    chain = _check_chain(G, chain)
    p = G.ring.p
    key_up = chain.key_fn(G.level + 1)
    s_key = key_up(s)
    _, g = lot_split(psi({s: 1}, G, counters), G)
    sbar: Vec = {s: 1}
    while g:
        t_mm = next(iter(g))
        c = g.pop(t_mm)
        i, m = _root_divisor(t_mm, G, s_key, key_up)
        # coefficient products are only performed (and counted) for the
        # kept terms of the reducer
        vec_iadd_scaled(g, p - c, _reducer_tail(m, i, G), p, counters)
        _sub_term(sbar, (m, i), c, p, counters)
    return sbar


def _reducer_tail(m, i: int, G: GroebnerBasis) -> Vec:
    """The non-lower-order tail of m*f_i: its terms after the head (which is
    at coefficient 1) that some leading monomial of G divides, in order.
    Only monomials are multiplied, so no field products are performed."""
    items = iter(G.gens[i].items())
    _, head_c = next(items)
    assert head_c == 1, "generators must be monic"
    divisor = G.divisor
    tail: Vec = {}
    for (fm, fc), fv in items:
        prod = (mono_mul(m, fm), fc)
        if divisor(prod) >= 0:
            tail[prod] = fv
    return tail


def _expand_subtree(key_mm: ModMono, G: GroebnerBasis):
    """Open one subtree node: its children are the terms of the reducer
    tail of its key."""
    return {"key": key_mm, "shat": {key_mm: 1},
            "children": list(_reducer_tail(*key_mm, G).items()), "next": 0}


def _subtree(t: ModMono, G: GroebnerBasis, cache: SubtreeCache,
             counters: Optional[OpCounters] = None) -> Vec:
    """The cached subtree lifting of t (computed and stored on a miss).
    Realized with an explicit work stack; no ordering condition is checked
    below the root (it always holds there)."""
    value = cache.get(t)
    if value is not None:
        cache.hits += 1
        return value
    p = G.ring.p
    cache.expansions += 1
    stack = [_expand_subtree(t, G)]
    parents = [None]  # (frame index, coefficient into parent)
    while stack:
        fr = stack[-1]
        if fr["next"] < len(fr["children"]):
            child_mm, child_c = fr["children"][fr["next"]]
            fr["next"] += 1
            i = G.divisor(child_mm)
            assert i >= 0
            ck = (mono_div(child_mm[0], G.lms[i][0]), i)
            v = cache.get(ck)
            if v is None:
                cache.expansions += 1
                stack.append(_expand_subtree(ck, G))
                parents.append((len(stack) - 2, child_c))
            else:
                cache.hits += 1
                _iadd_monic(fr["shat"], p - child_c, v, p, counters)
        else:
            stack.pop()
            link = parents.pop()
            v = cache.store(fr["key"], fr["shat"])
            if link is None:
                value = v
            else:
                idx, c_in = link
                _iadd_monic(stack[idx]["shat"], p - c_in, v, p, counters)
    return value


def lift_subtree(t: ModMono, coeff: int, G: GroebnerBasis,
                 cache: SubtreeCache, counters: Optional[OpCounters] = None) -> Vec:
    """Subtree lifting of the term coeff*t: leading term coeff*t, and every
    term of the tail of its image is of lower order w.r.t. G.

    Results are cached under the coefficient-normalized key; the returned
    copy carries coeff on the head with no product and the tail scaled.
    """
    p = G.ring.p
    out: Vec = {}
    _iadd_monic(out, coeff % p, _subtree(t, G, cache, counters), p, counters)
    return out


def lift_tree(s: ModMono, G: GroebnerBasis, chain: OrderingChain,
              cache: Optional[SubtreeCache] = None,
              counters: Optional[OpCounters] = None) -> Vec:
    """Lifting of s by independent subtree liftings of the non-lower-order
    terms of its image, with subtree results served from the cache."""
    chain = _check_chain(G, chain)
    if cache is None:
        cache = SubtreeCache()
    p = G.ring.p
    key_up = chain.key_fn(G.level + 1)
    s_key = key_up(s)
    _, T = lot_split(psi({s: 1}, G, counters), G)
    sbar: Vec = {s: 1}
    for t_mm, c in T.items():
        i, m = _root_divisor(t_mm, G, s_key, key_up)
        _iadd_monic(sbar, p - c, _subtree((m, i), G, cache, counters), p,
                    counters)
    return sbar


def lift_frame_terms(terms: Sequence[ModMono], G: GroebnerBasis,
                     chain: OrderingChain, alg: str = "tree",
                     counters: Optional[OpCounters] = None,
                     cache: Optional[SubtreeCache] = None) -> list:
    """Lift the given frame terms in order with strategy ``alg``; tree
    liftings share ``cache`` (a fresh one when None)."""
    chain = _check_chain(G, chain)
    if alg == "reduce":
        return [lift_reduce(s, G, chain, counters) for s in terms]
    if alg == "hybrid":
        return [lift_hybrid(s, G, chain, counters) for s in terms]
    if alg == "tree":
        if cache is None:
            cache = SubtreeCache()
        return [lift_tree(s, G, chain, cache, counters) for s in terms]
    raise DomainError(f"unknown lifting algorithm {alg!r}")


def syz_lift(G: GroebnerBasis, chain: Optional[OrderingChain] = None,
             alg: str = "tree", counters: Optional[OpCounters] = None,
             cache: Optional[SubtreeCache] = None) -> list:
    """Groebner basis of the syzygy module of G w.r.t. the induced ordering:
    one lifting per minimal leading syzygy term, in canonical frame order."""
    frame = build_frame(G, 1, reorder="none")
    terms = frame.levels[0].terms if frame.levels else []
    return lift_frame_terms(terms, G, chain, alg, counters, cache)
