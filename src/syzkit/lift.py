"""Lifting leading syzygy terms to syzygies.

Three interchangeable lifting strategies plus the driver:

* ``lift_reduce`` - classical reduction, the baseline: s minus the quotient
  of the division of its image by G (``groebner.divide_with_remainder``),
  which keeps the whole image polynomial and pays one leading-term scan
  (monomial comparisons) per step.
* ``lift_hybrid`` - drops lower order terms from the image and from every
  reducer, and keeps the remaining terms as an unordered bucket popped in
  insertion order, so no monomial comparisons are needed.
* ``lift_tree`` - treats each non-lower-order term of the image as the
  root of a subtree lifting.  ``lift_frame_iter`` first plans the level:
  it walks the DAG of subtree keys below the roots of all its liftings
  (monomial operations only), counts how many liftings reach each key, and
  prices what storing the subtree liftings of the keys that two liftings
  reach saves in products.  If it saves, it stores them before the level's
  first lifting, once each, as tails under coefficient-normalized keys in
  a ``SubtreeCache``.  Weights are pushed from the roots down the keys not
  stored in Kahn order, so each enters its lifting once with its summed
  weight.  A cache that was never planned (direct ``lift_tree`` calls, the
  unplanned reference the tests check the planned tree against) stores
  every subtree.  Field products: 31,733 on the 200-ideal test corpus
  (315,687 with every subtree stored, 51,349 with the shared keys stored
  on every level; hybrid 43,790, reduce 168,765), and 151,392 on the AGR
  ideal (6, 5, 42) (157,284 with every subtree stored, 174,852 with
  nothing stored).

Hybrid and tree expand one thing, a key's child list.  A non-lower-order
term t = q*LM(f_i), i its smallest divisor, is held as its subtree key
(q, i), one key per term.  The children of a key (m, i) are the keys of the
non-lower-order tail of m*f_i, formed once per level (``_children``); the
roots of s are the key of its image's head, then s's own tail keys.
Hybrid subtracts each popped key's child list; tree pushes weights down.

Every strategy reduces a term t by the generator of smallest index whose
leading monomial divides t.  That reducer always lies below the lifted term
in the next level's induced ordering (``_root_divisor``), so, as in the
paper, no strategy evaluates that ordering: hybrid and tree compare nothing,
and reduce scans its image in G's own ordering.

Unit heads are known, not multiplied: a subtree lifting is its key at
coefficient 1 plus a tail, and the cache stores only the tail, so a reuse
(``_propagate``'s merge of a stored key) enters the key at its weight with
no product and scales only the tail; a reducer m*f_i starts with the
target term at coefficient 1, so
reduce and hybrid drop the target (a known cancellation, not counted) and
subtract the scaled tail.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterator, Optional, Sequence

from .algebra import (
    Column,
    DomainError,
    ModMono,
    OpCounters,
    Vec,
    mono_div,
    mono_mul,
    term_times_vector,
    vec_iadd_scaled,
    vec_interned,
    vec_sub_term,
)
from .orderings import OrderingChain
from .groebner import GroebnerBasis, divide_with_remainder

LIFT_ALGORITHMS = ("reduce", "hybrid", "tree")


class SubtreeCache:
    """A level's child lists, divisor memo and stored subtree liftings,
    keyed by coefficient-normalized module monomials; hybrid and tree
    liftings share it.

    ``children`` maps each key expanded so far to its child list: the keys
    of the non-lower-order tail of its reducer, with their coefficients,
    frozen into a :class:`~syzkit.algebra.Column` (two tuples, not a dict,
    since nothing writes to a child list once it is formed).
    The tree lifting drops a list once its key is stored.
    ``divisors`` memoizes the smallest divisor of each tail term the
    expansions meet (:meth:`~syzkit.groebner.GroebnerBasis.divisor`); a
    missed key is stored with its base monomial replaced by the one object
    for it in ``monos``, since many keys share few monomials.  Every other
    child list, the memo and its monomials stay until
    :func:`lift_frame_iter` is exhausted or closed, which clears them.
    ``data`` holds the tails of the tree's stored subtree liftings: the
    lifting of k less its head, k at coefficient 1 (every other term is
    strictly smaller); a reuse enters k at the requested coefficient with
    no product and scales only the tail.
    ``canon`` is the canonical table the keys and the coefficients of the
    child lists and roots are interned in (see :mod:`syzkit.algebra`):
    ``resolve`` passes its own, so that its liftings are built from the
    objects its columns keep; a fresh one when None.
    ``hits`` counts reads of stored liftings, ``expansions`` computed child
    lists.
    """

    __slots__ = ("data", "children", "divisors", "monos", "canon", "hits",
                 "expansions")

    def __init__(self, canon: Optional[dict] = None):
        self.data: dict = {}
        self.children: dict = {}
        self.divisors: dict = {}
        self.monos: dict = {}
        self.canon: dict = {} if canon is None else canon
        self.hits = 0
        self.expansions = 0


def _root_divisor(s: ModMono, G: GroebnerBasis):
    """(i, L/LM(f_i)) for the smallest i with LM(f_i) | L, the head
    L = m LM(f_j) of the image of s = m e_j.

    It is admissible, (L/LM(f_i)) e_i < s in the induced ordering, unless it
    is s itself, and then no divisor is: the smallest divisor k <= j since
    LM(f_j) | L; if k < j the images are equal and the tie goes to the larger
    component, so the candidate is below s; if k = j it is s, and every later
    divisor has an equal image and a larger component.  Any other term t of
    the image, or of what reduction leaves of it, lies below L (G's columns
    are sorted), and so does the image t of any candidate for t."""
    lm, comp = G.lms[s[1]]
    L = (mono_mul(s[0], lm), comp)
    i = G.divisor(L)
    q = mono_div(L[0], G.lms[i][0])
    if (q, i) == s:
        raise DomainError(f"no admissible divisor below {L}; inconsistent input")
    return i, q


def lift_reduce(s: ModMono, G: GroebnerBasis,
                counters: Optional[OpCounters] = None) -> Vec:
    """Lifting of the leading syzygy term s = (m, j): s minus the quotient
    of the division of its image m*f_j by G, whose remainder must be empty
    (the classical step of Schreyer's algorithm).

    Only the image's head L = m*LM(f_j) is tested for admissibility: every
    step subtracts terms below the one it removes, so every later term lies
    strictly below L, the only monomial whose reducer could be s."""
    _root_divisor(s, G)
    p = G.ring.p
    q, h = divide_with_remainder(term_times_vector(s[0], G.gens[s[1]]), G, counters)
    if h:
        raise DomainError(f"no divisor for {next(iter(h))}: not a leading syzygy term")
    sbar: Vec = {s: 1}
    sbar.update((k, p - c) for k, c in q.items())
    return sbar


def lift_hybrid(s: ModMono, G: GroebnerBasis,
                counters: Optional[OpCounters] = None,
                cache: Optional[SubtreeCache] = None) -> Vec:
    """Lifting of s with lower order terms dropped throughout and the
    remaining terms kept unordered (popped in insertion order), each as its
    subtree key, reduced by the key's child list with no divisor search.
    ``cache`` (a fresh one when None) memoizes the child lists, which hold
    no field products, so the memo leaves the counters unchanged."""
    if cache is None:
        cache = SubtreeCache()
    p = G.ring.p
    g = dict(_roots(s, G, cache).items())
    sbar: Vec = {s: 1}
    while g:
        k = next(iter(g))
        c = g.pop(k)
        vec_iadd_scaled(g, p - c, _children(k, G, cache), p, counters)
        vec_sub_term(sbar, k, c, p, counters)
    return sbar


def _tail_terms(key: ModMono, G: GroebnerBasis,
                cache: SubtreeCache) -> Iterator[tuple]:
    """The non-lower-order tail of m*f_i, key = (m, i), as subtree keys, in
    order: each term t after the head (at coefficient 1) yields the key of
    its smallest divisor with t's coefficient, looked up in the cache's
    divisor memo.  Components that hold no leading monomial are skipped
    before any product; only monomials are multiplied, so no field product
    is performed."""
    m, i = key
    items = iter(G.gens[i].items())
    _, head_c = next(items)
    assert head_c == 1, "generators must be monic"
    memo, monos, lms, comps = cache.divisors, cache.monos, G.lms, G._by_comp
    for (fm, fc), fv in items:
        if fc not in comps:
            continue
        t = mono_mul(m, fm)
        j = memo.get((t, fc))
        if j is None:
            j = memo[(monos.setdefault(t, t), fc)] = G.divisor((t, fc))
        if j >= 0:
            yield (mono_div(t, lms[j][0]), j), fv


def _children(key: ModMono, G: GroebnerBasis, cache: SubtreeCache) -> Column:
    """The child list of a subtree key: the keys of the non-lower-order tail
    of its reducer, with their coefficients (``_tail_terms``), frozen into
    a :class:`~syzkit.algebra.Column` of the cache's canonical table's
    objects, computed once per cache."""
    kids = cache.children.get(key)
    if kids is None:
        cache.expansions += 1
        kids = cache.children[key] = vec_interned(_tail_terms(key, G, cache),
                                                  cache.canon)
    return kids


def _roots(s: ModMono, G: GroebnerBasis, cache: SubtreeCache) -> Column:
    """The subtree keys of the non-lower-order terms of the image m*f_j of
    s = (m, j), with their coefficients, frozen into a
    :class:`~syzkit.algebra.Column` of the cache's canonical table's
    objects: the head's admissible divisor at coefficient 1, then the keys
    of the tail.  The keys are distinct, since their images are the
    distinct terms of m*f_j.  A single-term image has no cancellation, so
    no field operation is done."""
    i, q = _root_divisor(s, G)
    return vec_interned(chain((((q, i), 1),), _tail_terms(s, G, cache)),
                        cache.canon)


def _below(roots, G: GroebnerBasis, cache: SubtreeCache) -> Iterator[ModMono]:
    """Every key below ``roots`` (roots included) that is not stored in the
    cache, once, after every key below it; a key's child list is expanded
    when the walk first reaches it.  The stored keys may grow while the walk
    runs (``_store`` stores each key as it is yielded)."""
    data, seen = cache.data, set()
    for r in roots:
        if r in seen or r in data:
            continue
        seen.add(r)
        stack = [(r, iter(_children(r, G, cache)))]
        while stack:
            k, it = stack[-1]
            for ck in it:
                if ck not in seen and ck not in data:
                    seen.add(ck)
                    stack.append((ck, iter(_children(ck, G, cache))))
                    break
            else:
                stack.pop()
                yield k


def _plan(roots: Sequence[Column], G: GroebnerBasis, cache: SubtreeCache) -> list:
    """The keys to store for a level whose liftings have the given roots:
    the keys that two liftings reach (shared, a downward-closed set),
    children first, if storing them saves products, else nothing.

    Storing nothing costs r(k)*|kids(k)| at each key k, r(k) the number of
    liftings that reach k; storing the shared keys costs |kids(k)| at an
    unshared key (where r(k) = 1, so both cost the same), and at a shared
    key n(c) per child c to build it and n(k) per lifting that merges it
    (meets it as a root or as a child of a key only it reaches), n(k) the
    number of shared keys below k, k's tail length.  The saving is thus
    the sum over shared k of r(k)*|kids(k)| - n(k)*|merge(k)| - sum n(c):
    a level whose shared keys are all leaves saves 0 and stores nothing.
    Such a level is told apart before any bitset is built.  A shared key
    has two in-edges in the level's DAG (a root occurrence counts as one)
    or a shared parent, which has children; so, in a finite DAG, a shared
    key with children has an ancestor with children and two in-edges, or
    two in-edges itself.  If no key with children has two in-edges, every
    shared key is a leaf.  No field operation is done.
    """
    children = cache.children
    # the keys below the roots, children before parents
    post = list(_below((r for rs in roots for r in rs), G, cache))
    entered = set()  # the keys with children entered by one edge so far
    edges = chain(chain.from_iterable(roots),
                  chain.from_iterable(children[k] for k in post))
    for k in edges:
        if children.get(k):
            if k in entered:
                break
            entered.add(k)
    else:
        return []
    # bitsets of liftings: those that reach a key, and those that merge it
    reach: dict = {}
    for i, rs in enumerate(roots):
        for k in rs:
            reach[k] = reach.get(k, 0) | 1 << i
    merge = dict(reach)
    shared = set()
    saving = 0
    for k in reversed(post):
        rk = reach[k]
        kids = children[k]
        if rk & (rk - 1):
            shared.add(k)
            saving += rk.bit_count() * len(kids)
        else:
            for ck in kids:
                merge[ck] = merge.get(ck, 0) | rk
        for ck in kids:
            reach[ck] = reach.get(ck, 0) | rk
    # bitsets of the shared keys below each shared key, children first, so
    # its keys are the shared keys in the order they can be stored in
    below: dict = {}
    n: dict = {}
    for k in post:
        if k in shared:
            b = 0
            for ck in children[k]:
                if ck in shared:
                    b |= below[ck]
                    saving -= n[ck]
            n[k] = b.bit_count()
            below[k] = b | 1 << len(below)
            saving -= n[k] * merge.get(k, 0).bit_count()
    return list(below) if saving > 0 else []


def _store(keys, G: GroebnerBasis, cache: SubtreeCache,
           counters: Optional[OpCounters] = None) -> None:
    """Store the tail of the subtree lifting of every key of ``keys``, in
    the order given: minus its children's subtree liftings, each scaled by
    its coefficient, and its child list is dropped.  Every set stored is
    downward closed and comes children first (``_plan``'s shared keys,
    ``_below``'s post-order), so each child of a key being stored is a
    boundary, and ``_propagate`` merges the children in child order, as a
    merge of the child list would."""
    for k in keys:
        tail: Vec = {}
        _propagate(tail, cache.children.pop(k), G, cache, counters)
        cache.data[k] = tail


def _propagate(out: Vec, roots: Column, G: GroebnerBasis, cache: SubtreeCache,
               counters: Optional[OpCounters] = None) -> None:
    """out -= c * (subtree lifting of k) for every root (k, c).

    The keys in the cache's data are the boundaries: each one reached is
    merged once with its summed weight w, the key entering at w with no
    product and its stored tail scaled by w.  Weights are pushed
    from the roots down every other key in Kahn order, the roots being the
    children of a source of weight 1, with in-degrees found by walking down
    from the roots to the boundaries, so each such key enters out once with
    its summed weight, at one product per edge.  Child lists are only read: other
    liftings of the level may walk the same keys.

    The Kahn order is load-bearing: when a proper prefix of a key's weights
    cancels, the order they arrive in changes its ``n_add`` and ``n_canc``
    (reverse post-order does)."""
    p = G.ring.p
    data, children = cache.data, cache.children
    left: dict = {}
    stack = []
    for k in roots:
        if k not in data:
            left[k] = 1
            stack.append(k)
    while stack:
        for ck in _children(stack.pop(), G, cache):
            if ck in data:
                continue
            n = left.get(ck)
            if n is None:
                stack.append(ck)
                n = 0
            left[ck] = n + 1
    weight: dict = {}
    bound: dict = {}
    ready = deque()
    w, kids = 1, roots
    while True:
        for ck, c in kids.items():
            n = left.get(ck)
            if n is None:
                acc = bound
            else:
                left[ck] = n - 1
                if n == 1:
                    ready.append(ck)
                acc = weight
            if w:
                vec_sub_term(acc, ck, w * c % p, p, counters)
        if not ready:
            break
        k = ready.popleft()
        w = weight.pop(k, 0)
        kids = children[k]
        if w:
            out[k] = w
            if counters is not None and w != 1 and w != p - 1:
                counters.n_mult += len(kids)
    for k, w in bound.items():
        cache.hits += 1
        vec_sub_term(out, k, p - w, p, counters)
        vec_iadd_scaled(out, w, data[k], p, counters)


def lift_tree(s: ModMono, G: GroebnerBasis, cache: SubtreeCache,
              counters: Optional[OpCounters] = None) -> Vec:
    """Lifting of s by independent subtree liftings of the non-lower-order
    terms of its image, each stored in (or served from) the cache."""
    roots = _roots(s, G, cache)
    _store(_below(roots, G, cache), G, cache, counters)
    sbar: Vec = {s: 1}
    _propagate(sbar, roots, G, cache, counters)
    return sbar


def lift_frame_iter(terms: Sequence[ModMono], G: GroebnerBasis,
                    alg: str = "tree",
                    counters: Optional[OpCounters] = None,
                    cache: Optional[SubtreeCache] = None) -> Iterator[Vec]:
    """Yield the liftings of the given frame terms in order, one at a time,
    with strategy ``alg``; each is computed when it is asked for, so a
    consumer that keeps none holds one raw lifting at a time.

    Hybrid and tree liftings share ``cache`` (a fresh one when None), whose
    child lists and divisor memo stay until the generator is exhausted or
    closed; G, a value, is only read.  Tree liftings are planned for the
    whole list first: ``_plan`` returns the subtrees that at least two of
    the liftings reach if storing them saves products, and nothing
    otherwise, and ``_store`` stores the plan as it stands before the first
    lifting; the rest are propagated by weight, and each lifting's roots
    are dropped once propagated.
    """
    if alg == "reduce":
        for s in terms:
            yield lift_reduce(s, G, counters)
        return
    if alg not in ("hybrid", "tree"):
        raise DomainError(f"unknown lifting algorithm {alg!r}")
    if cache is None:
        cache = SubtreeCache()
    try:
        if alg == "hybrid":
            for s in terms:
                yield lift_hybrid(s, G, counters, cache)
            return
        roots = [_roots(s, G, cache) for s in terms]
        _store(_plan(roots, G, cache), G, cache, counters)
        for i, s in enumerate(terms):
            sbar: Vec = {s: 1}
            _propagate(sbar, roots[i], G, cache, counters)
            roots[i] = None
            yield sbar
    finally:
        cache.children.clear()
        cache.divisors.clear()
        cache.monos.clear()


def lift_frame_terms(terms: Sequence[ModMono], G: GroebnerBasis,
                     chain: Optional[OrderingChain], alg: str = "tree",
                     counters: Optional[OpCounters] = None,
                     cache: Optional[SubtreeCache] = None) -> list:
    """The list of the liftings :func:`lift_frame_iter` yields.  ``chain``
    is not used: it must be None or G's chain extended by one level.  It
    stays for perfbench's ``replay_resolve``, which passes it; ROADMAP item
    1 drops it with the replay's argument."""
    if chain is not None and len(chain) != G.level + 1:
        raise DomainError("lifting expects the chain extended by G's leading terms")
    return list(lift_frame_iter(terms, G, alg, counters, cache))
