import os
import pickle
import subprocess
import sys

import pytest

import syzkit

from syzkit.algebra import (Column, DomainError, OpCounters, mono_div,
                            mono_divides, term_times_vector)
from syzkit.orderings import OrderingChain
from syzkit.groebner import GroebnerBasis, buchberger, divide_with_remainder
from syzkit.frame import build_frame, lead_syz
from syzkit.lift import (
    LIFT_ALGORITHMS,
    SubtreeCache,
    _below,
    _children,
    _plan,
    _propagate,
    _roots,
    _store,
    lift_frame_iter,
    lift_frame_terms,
    lift_hybrid,
    lift_reduce,
    lift_tree,
    psi,
)
from syzkit.cli import parse_input
from syzkit.resolution import resolve
from syzkit.examples_gen import AgrSpec, gen_agr
from syzkit.orderings import BaseOrdering


def lot_split(g, G):
    """The lower-order-term oracle: g split into (lower order part, rest),
    a term being of lower order when no leading monomial of G divides it."""
    low, rest = {}, {}
    for mm, c in g.items():
        (low if G.divisor(mm) < 0 else rest)[mm] = c
    return low, rest


def _syzygies(G, chain=None, alg="tree", cache=None):
    """The liftings of G's minimal leading syzygy terms, in lead_syz's
    order."""
    terms = lead_syz(G.lms, G.chain.base, G.degrees).terms
    return lift_frame_terms(terms, G, chain, alg, None, cache)


def test_psi_examples(sec5):
    G, ext = sec5.gb, sec5.ext
    assert psi({sec5.mm("x", 2): 1}, G) == sec5.vec(
        {1: "w*x*y-w*x*z-x^2*z-x*y*z-2*x*z^2"})
    assert psi({sec5.mm("w", 3): 1}, G) == sec5.vec({1: "w*x*y+w*z^2"})
    assert psi({}, G) == {}


def test_lot_examples(sec5):
    G = sec5.gb
    g = psi({sec5.mm("x", 2): 1}, G)
    low, rest = lot_split(g, G)
    assert low == sec5.vec({1: "-x^2*z-2*x*z^2"})
    assert rest == sec5.vec({1: "w*x*y-w*x*z-x*y*z"})
    assert lot_split({}, G)[0] == {}
    empty = GroebnerBasis(sec5.ring, OrderingChain(sec5.base), [])
    assert lot_split(g, empty)[0] == g  # nothing divides


def test_lift_reduce_sec5(sec5):
    c = OpCounters()
    assert lift_reduce(sec5.frame_terms[0], sec5.gb, c) == sec5.syz1
    assert lift_reduce(sec5.frame_terms[1], sec5.gb, c) == sec5.syz2
    assert c.n_monomial_cmp > 0  # reduce pays leading-term scans


def test_lift_reduce_koszul():
    doc = parse_input("ring 7 x,y lp\nx\ny\n")
    G = buchberger(doc.generators, doc.ring, doc.ordering)
    x = doc.ring.mono([1, 0])
    y = doc.ring.mono([0, 1])
    out = lift_reduce((x, 1), G, None)
    assert out == {(x, 1): 1, (y, 0): 6}  # x*e2 - y*e1


def test_lift_reduce_rejects_a_remainder():
    # e2's image x + y has the admissible divisor e1 at its head x, but the
    # division leaves y: e2 is no leading syzygy term of these generators
    doc = parse_input("ring 7 x,y dp\nx\nx+y\n")
    G = GroebnerBasis(doc.ring, OrderingChain(doc.ordering), doc.generators)
    with pytest.raises(DomainError, match="no divisor for .*not a leading syzygy term"):
        lift_reduce((doc.ring.one, 1), G)


def test_lift_hybrid_sec5(sec5):
    c = OpCounters()
    assert lift_hybrid(sec5.frame_terms[0], sec5.gb, c) == sec5.syz1
    assert lift_hybrid(sec5.frame_terms[1], sec5.gb, c) == sec5.syz2
    assert c.n_monomial_cmp == 0  # unordered bucket: no comparisons


def test_lift_hybrid_single_step():
    doc = parse_input("ring 7 x,y lp\nx\ny\n")
    G = buchberger(doc.generators, doc.ring, doc.ordering)
    x, y = doc.ring.mono([1, 0]), doc.ring.mono([0, 1])
    assert lift_hybrid((x, 1), G, None) == {(x, 1): 1, (y, 0): 6}


def test_lift_tree_sec5_with_cache(sec5):
    cache = SubtreeCache()
    c = OpCounters()
    out1 = lift_tree(sec5.frame_terms[0], sec5.gb, cache, c)
    assert out1 == sec5.syz1
    hits0, exp0 = cache.hits, cache.expansions
    out2 = lift_tree(sec5.frame_terms[1], sec5.gb, cache, c)
    assert out2 == sec5.syz2
    # the wxy node is served from the cache: one hit, no new expansions
    assert cache.hits - hits0 == 1
    assert cache.expansions - exp0 == 0


def _check_subtree_liftings(G, cache):
    """Check that every stored value is a subtree lifting of its key;
    return how many were checked."""
    key_up = G.chain.extend(G.lms).key_fn(1)
    key_dn = G.chain.key_fn(0)
    for k, tail in cache.data.items():
        v = {k: 1, **tail}
        assert max(v, key=key_up) == k and v[k] == 1
        img = psi(v, G)
        if img:
            img.pop(max(img, key=key_dn))
            assert lot_split(img, G)[0] == img
    return len(cache.data)


def test_subtree_cache_contract(sec5, corpus):
    # every cached value is a subtree lifting of its key: the unplanned
    # lift_tree stores every subtree, on the worked example and the
    # corpus; the planned level 1 of AGR (5, 4, 12) stores the subtrees
    # two of its liftings share
    checked = 0
    for G in [sec5.gb] + [entry.gb for entry in corpus[:10]]:
        cache = SubtreeCache()
        for s in lead_syz(G.lms, G.chain.base, G.degrees).terms:
            lift_tree(s, G, cache)
        checked += _check_subtree_liftings(G, cache)
        if G is sec5.gb:
            y_e1 = sec5.mm("y", 1)
            assert {y_e1: 1, **cache.data[y_e1]} == sec5.vec(
                {1: "y", 2: "-z", 3: "-x-2*z"})
    assert checked > 0
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    G = buchberger(ideal.generators, ideal.ring,
                   BaseOrdering("dp", ideal.ring.nvars))
    cache = SubtreeCache()
    _syzygies(G, alg="tree", cache=cache)
    assert _check_subtree_liftings(G, cache) > 0


def test_merged_heads_are_cache_key_objects(sec5, corpus):
    # every term of every cached value and of every tree lifting is the
    # cache's own key object, never an equal tuple built for a lookup
    cases = [(sec5.gb, sec5.base)]
    cases += [(e.gb, e.base) for e in corpus[:20] if len(e.gb.gens) >= 2]
    hits = 0
    for G, base in cases:
        cache = SubtreeCache()
        frame = lead_syz(G.lms, base, G.degrees).terms
        outs = [lift_tree(s, G, cache, None) for s in frame]
        hits += cache.hits
        canon = {k: k for k in cache.data}
        for k, v in cache.data.items():
            assert all(mm is canon[mm] for mm in v)
        for s, out in zip(frame, outs):
            assert all(mm is canon[mm] for mm in out if mm is not s)
    assert hits > 0


def test_roots_are_canonical_objects(sec5, corpus):
    # every key and every coefficient of every lifting's roots is the
    # canonical table's own object, the table resolve's columns come from;
    # the roots are, item for item and in order, the smallest-divisor keys
    # of the non-lower-order terms of the image, with their coefficients;
    # the roots and every child list hybrid and tree keep are Columns;
    # and every hybrid lifting is built from the same table's keys
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    agr = buchberger(ideal.generators, ideal.ring,
                     BaseOrdering("dp", ideal.ring.nvars))
    cases = [sec5.gb, agr] + [e.gb for e in corpus[:20] if len(e.gb.gens) >= 2]
    large = hybrid_terms = 0
    for G in cases:
        table = {}
        for fl in build_frame(G):
            cache = SubtreeCache(table)
            for s in fl.terms:
                roots = _roots(s, G, cache)
                assert type(roots) is Column
                for k, c in roots.items():
                    assert table.get(k) is k and table.get(c) is c
                    large += c > 256  # smaller ints are shared by Python
                image = lot_split(psi({s: 1}, G), G)[1]
                want = [((mono_div(t[0], G.lms[G.divisor(t)][0]),
                          G.divisor(t)), c) for t, c in image.items()]
                assert list(roots.items()) == want
            hybrid = SubtreeCache(table)
            for s, out in zip(fl.terms,
                              lift_frame_iter(fl.terms, G, "hybrid", None,
                                              hybrid)):
                assert all(table.get(mm) is mm for mm in out if mm is not s)
                assert {type(v) for v in hybrid.children.values()} == {Column}
                hybrid_terms += len(out) - 1
            assert not hybrid.children and hybrid.expansions > 0
            outs = []
            for out in lift_frame_iter(fl.terms, G, "tree", None, cache):
                assert {type(v) for v in cache.children.values()} <= {Column}
                outs.append(out)
            G = G.syzygy_basis(outs, table)
    assert large > 1000 and hybrid_terms > 1000


def test_lifting_runs_with_asserts_stripped():
    # python -O drops assert statements, so none may carry work the
    # pipeline needs (popping the unit head of a subtree expansion once
    # did, and the tree lifting then never finished): resolve, minimize and
    # both Betti tables print the same with and without -O, on an ideal
    # whose resolution is minimal and on one whose resolution is not
    code = ("from syzkit import *\n"
            "from syzkit.cli import parse_input, serialize_resolution\n"
            "d = parse_input('ring 32003 x,y,z,w dp\\nx*y-z*w\\nx^2-y*z\\ny^2-x*w\\n')\n"
            "a = gen_agr(AgrSpec(4, 3, 6, p=32003, seed=0))\n"
            "for gens, ring, base in ((d.generators, d.ring, d.ordering),\n"
            "        (a.generators, a.ring, BaseOrdering('dp', a.ring.nvars))):\n"
            "    for alg in ('reduce', 'hybrid', 'tree'):\n"
            "        res = resolve(gens, ring, base, alg=alg)\n"
            "        print(serialize_resolution(res))\n"
            "        print(serialize_resolution(minimize(res)))\n"
            "        print(betti_nonminimal(res).format())\n"
            "        print(betti_minimal_from_nonminimal(res).format())\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(syzkit.__file__)))
    stripped, plain = (
        subprocess.run([sys.executable, *flags, "-c", code], env=env,
                       check=True, timeout=60, capture_output=True,
                       text=True).stdout
        for flags in (["-O"], []))
    assert stripped == plain
    assert "minimal true" in plain and "minimal false" in plain


def test_cache_purity_cold_vs_warm(sec5):
    cold = SubtreeCache()
    out_cold = [lift_tree(s, sec5.gb, cold, None)
                for s in sec5.frame_terms]
    warm = SubtreeCache()
    warm.data.update(cold.data)
    before = warm.expansions
    out_warm = [lift_tree(s, sec5.gb, warm, None)
                for s in sec5.frame_terms]
    assert out_cold == out_warm
    assert warm.expansions == before  # fully served from cache
    assert warm.hits > 0


def test_planned_tree_matches_unplanned(sec5, corpus):
    # lift_frame_terms plans the level and stores at most the subtrees two
    # liftings reach; every lifting equals lift_tree's with a fresh unplanned
    # cache, at no more products and additions, on every level of the frame
    cases = [sec5.gb] + [e.gb for e in corpus[:20] if len(e.gb.gens) >= 2]
    for G in cases:
        for fl in build_frame(G):
            ext = G.chain.extend(G.lms)
            planned, unplanned = OpCounters(), OpCounters()
            cache = SubtreeCache()
            outs = lift_frame_terms(fl.terms, G, ext, "tree", planned, cache)
            full = SubtreeCache()
            assert outs == [lift_tree(s, G, SubtreeCache(), None)
                            for s in fl.terms]
            for s in fl.terms:
                lift_tree(s, G, full, unplanned)
            assert set(cache.data) <= set(full.data)
            assert cache.expansions == full.expansions
            assert planned.n_mult <= unplanned.n_mult
            assert planned.n_add <= unplanned.n_add
            assert planned.n_monomial_cmp == 0
            G = G.syzygy_basis(outs)


def _shared_keys(G, roots):
    # the keys that at least two liftings reach, walking each on its own
    cache = SubtreeCache()
    reach = {}
    for rs in roots:
        seen = set()
        stack = list(rs)
        while stack:
            k = stack.pop()
            if k not in seen:
                seen.add(k)
                stack.extend(_children(k, G, cache))
        for k in seen:
            reach[k] = reach.get(k, 0) + 1
    return {k for k, r in reach.items() if r >= 2}


def test_plan_picks_the_cheaper_store(sec5, corpus):
    # on every frame level, the planned tree lifting equals both fixed
    # choices, storing nothing and storing the keys two liftings reach, and
    # makes no more products than the cheaper of them; each wins somewhere
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    agr = buchberger(ideal.generators, ideal.ring,
                     BaseOrdering("dp", ideal.ring.nvars))
    cases = [sec5.gb, agr] + [e.gb for e in corpus[:20] if len(e.gb.gens) >= 2]
    wins = {"nothing": 0, "shared": 0}
    for G in cases:
        for fl in build_frame(G):
            ext = G.chain.extend(G.lms)
            planned = OpCounters()
            outs = lift_frame_terms(fl.terms, G, ext, "tree", planned)
            roots = [_roots(s, G, SubtreeCache()) for s in fl.terms]
            mults = {}
            for name, stored in (("nothing", set()),
                                 ("shared", _shared_keys(G, roots))):
                cache, fixed = SubtreeCache(), OpCounters()
                _store(_below(stored, G, cache), G, cache, fixed)
                got = []
                for s, rs in zip(fl.terms, roots):
                    sbar = {s: 1}
                    _propagate(sbar, rs, G, cache, fixed)
                    got.append(sbar)
                assert got == outs
                mults[name] = fixed.n_mult
            assert planned.n_mult <= min(mults.values())
            if mults["nothing"] != mults["shared"]:
                wins[min(mults, key=mults.get)] += 1
            G = G.syzygy_basis(outs)
    assert wins["nothing"] > 0 and wins["shared"] > 0


def test_plan_is_stored_before_the_first_lifting():
    # the planned keys come children first, and by the first lifting of
    # the level they are all stored, and nothing else is: the cache's
    # stored liftings are the propagation's one boundary
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    G = buchberger(ideal.generators, ideal.ring,
                   BaseOrdering("dp", ideal.ring.nvars))
    terms = build_frame(G)[0].terms
    plan_cache = SubtreeCache()
    planned = _plan([_roots(s, G, plan_cache) for s in terms], G, plan_cache)
    assert len(planned) == 110
    for i, k in enumerate(planned):
        assert set(plan_cache.children[k]) <= set(planned[:i])
    cache = SubtreeCache()
    lifts = lift_frame_iter(terms, G, "tree", None, cache)
    next(lifts)
    assert set(cache.data) == set(planned)
    lifts.close()
    assert not cache.children


def _plans(res, gb):
    # whether _plan stores anything on each frame level of the tree
    # resolution res of the basis gb, each level planned from its basis;
    # a level whose shared keys are all leaves saves nothing and stores
    # nothing
    G, stores, leaves = gb, [], 0
    for level, fl in enumerate(build_frame(gb), start=1):
        cache = SubtreeCache()
        roots = [_roots(s, G, cache) for s in fl.terms]
        planned = _plan(roots, G, cache)
        if all(not cache.children[k] for k in _shared_keys(G, roots)):
            assert planned == []
            leaves += 1
        stores.append(bool(planned))
        G = G.syzygy_basis(res.diffs[level])
    return stores, leaves


def test_plan_choice_on_each_level(corpus, agr_5_4_12):
    # pinned: the levels that store, and those whose shared keys are all
    # leaves, on agr-min, AGR (6, 5, 18) and the corpus
    found = {}
    for name, spec in (("agr-min", (5, 4, 12)), ("agr18", (6, 5, 18))):
        ideal = gen_agr(AgrSpec(*spec, p=10007, seed=0))
        base = BaseOrdering("dp", ideal.ring.nvars)
        gb = buchberger(ideal.generators, ideal.ring, base)
        res = (agr_5_4_12[0] if name == "agr-min" else
               resolve(ideal.generators, ideal.ring, base, gb=gb))
        found[name] = _plans(res, gb)
    assert found["agr-min"] == ([True] + [False] * 4, 2)
    assert found["agr18"] == ([True, True] + [False] * 4, 4)
    stores, n_levels, n_leaves = [], 0, 0
    for e in corpus:
        levels, leaves = _plans(e.resolutions["tree"], e.gb)
        stores += [(e.seed, level) for level, s in enumerate(levels, start=1) if s]
        n_levels += len(levels)
        n_leaves += leaves
    assert (stores, n_levels, n_leaves) == ([(169, 1)], 310, 221)


def test_ordering_bound_on_outputs(sec5):
    key = sec5.ext.key_fn(1)
    for s, out in zip(sec5.frame_terms, (sec5.syz1, sec5.syz2)):
        sk = key(s)
        for mm in out:
            if mm != s:
                assert key(mm) < sk


def test_syz_lift_variants(sec5):
    for alg in ("reduce", "hybrid", "tree"):
        out = _syzygies(sec5.gb, sec5.ext, alg=alg)
        assert out == [sec5.syz1, sec5.syz2]
    with pytest.raises(DomainError):
        _syzygies(sec5.gb, sec5.ext, alg="bogus")


def test_syz_lift_follows_lead_syz_order(sec5, corpus):
    # lift_frame_terms lifts the terms in the order given, here lead_syz's,
    # which the frame's sort between levels does not touch
    for G in [sec5.gb] + [e.gb for e in corpus]:
        ext = G.chain.extend(G.lms)
        key = ext.key_fn(G.level + 1)
        terms = lead_syz(G.lms, G.chain.base, G.degrees).terms
        assert [max(v, key=key) for v in _syzygies(G, ext)] == terms


def test_syz_lift_single_generator():
    doc = parse_input("ring 7 x,y dp\nx\n")
    G = buchberger(doc.generators, doc.ring, doc.ordering)
    assert _syzygies(G) == []


def test_lift_contract_random(corpus):
    for entry in corpus[:30]:
        G = entry.gb
        if len(G.gens) < 2:
            continue
        ext = G.chain.extend(G.lms)
        lv = lead_syz(G.lms, entry.base, G.degrees)
        key = ext.key_fn(1)
        for alg in ("reduce", "hybrid", "tree"):
            for s, out in zip(lv.terms, _syzygies(G, ext, alg=alg)):
                assert psi(out, G) == {}
                assert max(out, key=key) == s and out[s] == 1
                sk = key(s)
                assert all(key(mm) < sk for mm in out if mm != s)


def test_lead_sets_agree_with_schreyer(corpus):
    for entry in corpus[:30]:
        G = entry.gb
        if len(G.gens) < 2:
            continue
        ext = G.chain.extend(G.lms)
        key = ext.key_fn(1)
        base_leads = {max(s, key=key) for s in _syzygies(G, ext, alg="reduce")}
        for alg in ("hybrid", "tree"):
            leads = {max(s, key=key) for s in _syzygies(G, ext, alg=alg)}
            assert leads == base_leads


def _frame_cases(sec5, corpus):
    """(G, ext, terms) for every frame level of sec5, AGR (5, 4, 12) and
    the first 20 corpus ideals, each G the basis of the level below."""
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    agr = buchberger(ideal.generators, ideal.ring,
                     BaseOrdering("dp", ideal.ring.nvars))
    for G in [sec5.gb, agr] + _corpus_bases(corpus):
        yield from _levels(G)


def _corpus_bases(corpus):
    return [e.gb for e in corpus[:20] if len(e.gb.gens) >= 2]


def _levels(G):
    """(G, ext, terms) for every frame level above the basis G, each G the
    basis of the level below."""
    for fl in build_frame(G):
        ext = G.chain.extend(G.lms)
        yield G, ext, fl.terms
        G = G.syzygy_basis(lift_frame_terms(fl.terms, G, ext, "tree"))


def test_lift_reduce_is_s_minus_the_quotient(sec5, corpus):
    # reduce lifts by dividing: for every frame term s = (m, j), the division
    # of m*f_j leaves no remainder, its quotient never holds s, and the
    # lifting is s minus the quotient
    n = 0
    for G0 in [sec5.gb] + _corpus_bases(corpus):
        for G, _, terms in _levels(G0):
            p = G.ring.p
            for s in terms:
                image = term_times_vector(s[0], G.gens[s[1]])
                q, h = divide_with_remainder(image, G)
                assert h == {} and s not in q
                assert lift_reduce(s, G) == {s: 1, **{k: p - c for k, c in q.items()}}
                n += 1
    assert n > 100


def test_lifting_evaluates_no_ordering(sec5, corpus, monkeypatch):
    # hybrid and tree take the smallest divisor as every reducer, so they
    # never evaluate an ordering key, on any frame level
    calls = {"on": False, "n": 0}
    key_fn = OrderingChain.key_fn

    def counting(self, level):
        key = key_fn(self, level)

        def counted(mm):
            calls["n"] += calls["on"]
            return key(mm)
        return counted

    monkeypatch.setattr(OrderingChain, "key_fn", counting)
    levels = 0
    for G, ext, terms in _frame_cases(sec5, corpus):
        calls["on"] = True
        for alg in ("hybrid", "tree"):
            lift_frame_terms(terms, G, ext, alg)
        calls["on"] = False
        levels += 1
    assert calls["n"] == 0 and levels > 30


def test_smallest_divisor_is_admissible(sec5, corpus):
    # the oracle the reducer choice rests on: for every frame term s and
    # every non-lower-order term t of its image, the smallest divisor k of
    # t gives (t/LM(f_k)) e_k below s in the induced ordering
    n = 0
    for G, ext, terms in _frame_cases(sec5, corpus):
        key_up = ext.key_fn(G.level + 1)
        for s in terms:
            for t in lot_split(psi({s: 1}, G), G)[1]:
                k = G.divisor(t)
                assert key_up((mono_div(t[0], G.lms[k][0]), k)) < key_up(s)
                n += 1
    assert n > 1000


def test_unit_term_has_no_admissible_divisor(sec5):
    # s = e_i: the image's lead is LM(f_i), whose smallest divisor is i, so
    # the one candidate is s itself
    G, one = sec5.gb, sec5.ring.one
    for i in range(len(G.gens)):
        s = (one, i)
        for lift in (lambda: lift_reduce(s, G),
                     lambda: lift_hybrid(s, G),
                     lambda: lift_frame_terms([s], G, sec5.ext, "tree")):
            with pytest.raises(DomainError, match="no admissible divisor"):
                lift()


def test_lift_frame_terms_rejects_wrong_chain(sec5):
    G, terms = sec5.gb, sec5.frame_terms
    assert lift_frame_terms(terms, G, None) == [sec5.syz1, sec5.syz2]
    for chain in (G.chain, sec5.ext.extend(terms)):
        with pytest.raises(DomainError, match="chain extended"):
            lift_frame_terms(terms, G, chain)


def test_divisor_memo_shares_its_monomials(corpus, agr_5_4_12):
    # after a level's liftings the cache's divisor memo holds one object per
    # distinct base monomial, each the one its monomial table holds, and
    # each entry is what a scan of the leading monomials finds
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    agr_gb = buchberger(ideal.generators, ideal.ring,
                        BaseOrdering("dp", ideal.ring.nvars))
    shared = 0
    for res, gb in [(e.resolutions["tree"], e.gb) for e in corpus] + [
            (agr_5_4_12[0], agr_gb)]:
        G = gb
        for level, fl in enumerate(build_frame(gb), start=1):
            cache = SubtreeCache()
            for s in fl.terms:
                lift_hybrid(s, G, None, cache)
            objects: dict = {}
            for m, comp in cache.divisors:
                objects.setdefault(m, set()).add(id(m))
                assert cache.monos[m] is m
            assert all(len(ids) == 1 for ids in objects.values())
            assert len(cache.monos) == len(objects)
            shared += len(cache.divisors) - len(objects)
            for (m, comp), i in cache.divisors.items():
                assert i == next((j for lm, j in G._by_comp.get(comp, ())
                                  if mono_divides(lm, m)), -1)
            G = G.syzygy_basis(res.diffs[level])
    assert shared > 0


@pytest.mark.parametrize("alg", LIFT_ALGORITHMS)
def test_lift_frame_iter_leaves_the_basis_as_it_was(sec5, alg):
    # a basis is a value and a level's memos die with its lifting: after
    # each strategy's liftings the given basis holds the same objects with
    # the same contents, and the caller's cache keeps no child list, no
    # divisor memo entry and no memo monomial
    G = buchberger(sec5.gens, sec5.ring, sec5.base)
    held, contents = dict(vars(G)), pickle.dumps(vars(G))
    cache = SubtreeCache()
    assert lift_frame_terms(sec5.frame_terms, G, None, alg, None,
                            cache) == [sec5.syz1, sec5.syz2]
    assert pickle.dumps(vars(G)) == contents
    assert vars(G).keys() == held.keys()
    assert all(vars(G)[name] is v for name, v in held.items())
    assert not cache.children and not cache.divisors and not cache.monos
