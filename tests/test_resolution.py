import contextlib
import gc
import hashlib
import io
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from syzkit.algebra import (DomainError, OpCounters, Ring, mono_deg,
                            mono_exponents, mono_from_exponents, mono_mul,
                            vec_interned)
from syzkit.orderings import BaseOrdering, OrderingChain
from syzkit.groebner import GroebnerBasis, buchberger, monomials_of_degree
from syzkit.frame import build_frame
from syzkit.lift import SubtreeCache
from syzkit.resolution import (
    BettiTable,
    GradedFreeModule,
    Resolution,
    betti_minimal_from_nonminimal,
    betti_nonminimal,
    hilbert_numerator,
    minimize,
    resolve,
)
from syzkit.resolution import _plan_pivots
from syzkit.examples_gen import AgrSpec, gen_agr, gen_random_homogeneous
from syzkit.cli import InputDocument, main, parse_input, serialize_input, serialize_resolution
from syzkit import lift, resolution
from syzkit.linalg import echelon, rank

from conftest import SEC5_TEXT
from oracles import linear_change, lift_reduce_without_lots


def test_resolve_sec5(sec5):
    res = resolve(sec5.gens, sec5.ring, sec5.base, alg="tree")
    assert [m.rank for m in res.modules] == [1, 3, 2]
    assert res.minimal and res.graded
    assert res.diffs[1] == [sec5.syz1, sec5.syz2]
    assert res.check_complex()
    assert res.stats.n_terms == 11


def test_resolve_principal():
    doc = parse_input("ring 7 x,y dp\nx\n")
    res = resolve(doc.generators, doc.ring, doc.ordering)
    assert [m.rank for m in res.modules] == [1, 1]
    assert res.modules[1].twists == (1,)
    assert betti_nonminimal(res) == BettiTable({(0, 0): 1, (1, 1): 1})
    doc = parse_input("ring 7 x,y dp\nx^4\n")
    res = resolve(doc.generators, doc.ring, doc.ordering)
    assert betti_nonminimal(res) == BettiTable({(0, 0): 1, (1, 4): 1})


def test_resolve_koszul():
    doc = parse_input("ring 32003 x,y,z dp\nx\ny\nz\n")
    for alg in ("reduce", "hybrid", "tree"):
        res = resolve(doc.generators, doc.ring, doc.ordering, alg=alg)
        assert betti_nonminimal(res).totals() == [1, 3, 3, 1]
        assert res.minimal and res.check_complex()


def test_resolve_zero_and_max_length():
    doc = parse_input("ring 7 x,y dp\nx\ny\n")
    res = resolve(doc.generators, doc.ring, doc.ordering, max_length=1)
    assert res.length == 1
    empty = resolve([], doc.ring, doc.ordering)
    assert empty.length == 0 and empty.minimal


@pytest.mark.parametrize("max_length", [0, -2])
def test_resolve_rejects_max_length_below_one(max_length):
    doc = parse_input("ring 7 x,y dp\nx\ny\n")
    with pytest.raises(DomainError, match="max_length"):
        resolve(doc.generators, doc.ring, doc.ordering, max_length=max_length)


def test_cut_run_refuses_minimal_output(corpus):
    # AGR (4,3,6) has a resolution of length 5; cut at 2, the minimal
    # numbers of level 2 would need phi_3's constant strands (beta_2 would
    # read 35 where the full run's is 25)
    ideal = gen_agr(AgrSpec(4, 3, 6, p=10007, seed=0))
    base = BaseOrdering("dp", ideal.ring.nvars)
    full = resolve(ideal.generators, ideal.ring, base)
    assert not full.cut
    assert betti_minimal_from_nonminimal(full).totals() == [1, 10, 25, 25, 10, 1]
    res = resolve(ideal.generators, ideal.ring, base, max_length=2)
    assert res.cut and res.length == 2
    assert betti_nonminimal(res).totals() == [1, 15, 40]
    for minimal_output in (minimize, betti_minimal_from_nonminimal):
        with pytest.raises(DomainError, match="cut at level 2"):
            minimal_output(res)
    # a length the resolution does not reach cuts nothing
    for max_length in (5, 9):
        res = resolve(ideal.generators, ideal.ring, base, max_length=max_length)
        assert not res.cut
        assert serialize_resolution(res) == serialize_resolution(full)
        assert (serialize_resolution(minimize(res))
                == serialize_resolution(minimize(full)))
        assert (betti_minimal_from_nonminimal(res)
                == betti_minimal_from_nonminimal(full))
    # a rank-2 module, R^2 / <x, y, z> e_i, of length 3, cut at 2: an input
    # the command line cannot express
    doc = parse_input("ring 7 x,y,z dp\nx\ny\nz\n")
    gens = [{(m, i): c for (m, _), c in g.items()}
            for i in range(2) for g in doc.generators]
    module = resolve(gens, doc.ring, doc.ordering, rank0=2, twists0=(0, 1))
    assert not module.cut and betti_nonminimal(module).totals() == [2, 6, 6, 2]
    module = resolve(gens, doc.ring, doc.ordering, rank0=2, twists0=(0, 1),
                     max_length=2)
    assert module.cut and module.length == 2
    with pytest.raises(DomainError, match="cut"):
        minimize(module)
    # a run that ends at its own length is not cut, nor is a minimized one
    for entry in corpus:
        for res in entry.resolutions.values():
            assert not res.cut
        assert not minimize(entry.resolutions["tree"]).cut


@pytest.mark.parametrize("rank, twists, comp", [
    (1, None, 1),       # a component-1 generator at rank 1
    (2, (0,), 0),       # too few twists
    (2, (0, 0, 0), 0),  # too many twists
], ids=["component", "short-twists", "long-twists"])
def test_rank_and_twists_are_checked(rank, twists, comp):
    ring = Ring(7, ("x", "y"))
    base = BaseOrdering("dp", 2)
    gens = [{(ring.mono([1, 0]), comp): 1}, {(ring.mono([0, 1]), 0): 1}]
    with pytest.raises(DomainError):
        buchberger(gens, ring, base, rank=rank, twists=twists)
    with pytest.raises(DomainError):
        resolve(gens, ring, base, rank0=rank, twists0=twists)


@pytest.mark.parametrize("comp, kwargs", [
    (1, {}),                    # a component-1 generator at rank 1
    (0, {"rank0": 2}),          # F_0 of rank 2, a basis of rank 1
    (0, {"twists0": (0, 0)}),   # two twists at rank 1
], ids=["component", "rank", "twists"])
def test_given_basis_is_checked(comp, kwargs):
    ring = Ring(7, ("x", "y"))
    base = BaseOrdering("dp", 2)
    x, y = ring.mono([1, 0]), ring.mono([0, 1])
    G = buchberger([{(x, 0): 1}, {(y, 0): 1}], ring, base)
    gens = [{(x, comp): 1}, {(y, 0): 1}]
    with pytest.raises(DomainError, match=r"must lie in R\^"):
        resolve(gens, ring, base, gb=G, **kwargs)


def test_given_basis_of_another_ring_or_ordering_is_rejected(monkeypatch):
    # a given basis must be a level-0 basis over resolve's ring and under
    # its base ordering, else DomainError before the frame is built: a dp
    # basis passed with lp (lp's own resolution has ranks 1/4/4/1), a
    # basis over 32003 passed with characteristic 7 or other variable
    # names, and a level-1 basis
    doc = parse_input("ring 32003 x,y,z lp\nx^2-y*z\nx*y-z^2\n")
    ring, lp, dp = doc.ring, doc.ordering, BaseOrdering("dp", 3)
    gb_dp = buchberger(doc.generators, ring, dp)
    gb_lp = buchberger(doc.generators, ring, lp)
    res = resolve(doc.generators, ring, lp, gb=gb_lp)
    assert [m.rank for m in res.modules] == [1, 4, 4, 1]
    level1 = gb_lp.syzygy_basis(res.diffs[1])
    monkeypatch.setattr(resolution, "build_frame", None)
    for r, base, gb in [(ring, lp, gb_dp), (Ring(7, ring.names), dp, gb_dp),
                        (Ring(32003, ("x", "y", "w")), dp, gb_dp),
                        (ring, lp, level1)]:
        with pytest.raises(DomainError, match="level-0 basis"):
            resolve(doc.generators, r, base, gb=gb)


@pytest.mark.parametrize("reorder", ["bogus"])
def test_resolve_rejects_unknown_reorder(reorder):
    # there is one generator order between levels and no option to pick one
    doc = parse_input("ring 7 x,y dp\nx\ny\n")
    with pytest.raises(TypeError, match="reorder"):
        resolve(doc.generators, doc.ring, doc.ordering, reorder=reorder)


def test_resolve_ungraded_guards():
    doc = parse_input("ring 7 x,y lp\nx^2+y\n")
    res = resolve(doc.generators, doc.ring, doc.ordering)
    assert not res.graded
    with pytest.raises(DomainError):
        betti_nonminimal(res)
    with pytest.raises(DomainError):
        minimize(res)


UNGRADED_XYZ = """resolution ring 32003 x,y,z dp
graded false
minimal false
module 0 rank 1 twists -
module 1 rank 2 twists -
module 2 rank 1 twists -
differential 1
1 1 x^2+y
1 2 y*z+1
differential 2
1 1 -y*z-1
2 1 x^2+y
end
"""


def test_gradedness_is_decided_at_the_input():
    # a basis' degrees are its lead degrees, twists included, graded or
    # not; resolve alone decides gradedness, from gens and the basis
    ring = Ring(32003, ("x", "y", "z"))
    base = BaseOrdering("dp", 3)
    x2, y, yz, one = (ring.mono(e) for e in ([2, 0, 0], [0, 1, 0],
                                              [0, 1, 1], [0, 0, 0]))
    G = GroebnerBasis(ring, OrderingChain(base),
                      [{(x2, 0): 1, (y, 0): 1}, {(yz, 1): 1, (one, 1): 1}],
                      rank=2, twists=(0, 3))
    assert G.degrees == (2, 5)
    doc = parse_input("ring 32003 x,y,z dp\nx^2+y\ny*z+1\n")
    gb = buchberger(doc.generators, ring, base)
    assert gb.degrees == (2, 2)
    for alg in ("reduce", "hybrid", "tree"):
        res = resolve(doc.generators, ring, base, alg=alg)
        assert not res.graded
        assert serialize_resolution(res) == UNGRADED_XYZ
        # homogeneous gens with a basis that is not: the basis decides
        res = resolve([{(x2, 0): 1}, {(yz, 0): 1}], ring, base, alg=alg, gb=gb)
        assert not res.graded
        assert all(m.twists is None for m in res.modules)


K20_TEXT = ("ring 32003 w,x,y,z lp\nw*x+w*z+x^20*z-z^2\n"
            "w*y-w*z-x*z-y*z-2*z^2\nx*y+z^2\n")


def test_level_bases_have_the_frame_degrees(corpus, monkeypatch):
    # every basis resolve forms has the lead degrees of its frame level,
    # twists included, graded or not: on the corpus and on the ungraded
    # worked example with x^2 replaced by x^20*z
    bases = []
    syzygy_basis = GroebnerBasis.syzygy_basis

    def recording(G, liftings, table=None):
        bases.append(syzygy_basis(G, liftings, table))
        return bases[-1]

    monkeypatch.setattr(GroebnerBasis, "syzygy_basis", recording)
    doc = parse_input(K20_TEXT)
    cases = [(doc.generators, doc.ring, doc.ordering,
              buchberger(doc.generators, doc.ring, doc.ordering))]
    cases += [(e.gens, e.ring, e.base, e.gb) for e in corpus]
    n_levels = ungraded = 0
    for gens, ring, base, gb in cases:
        bases.clear()
        res = resolve(gens, ring, base, gb=gb)
        frame = build_frame(gb)
        assert len(bases) == len(frame) == len(res.modules) - 2
        for G, level in zip(bases, frame):
            assert G.degrees == tuple(level.degrees)
        n_levels += len(frame)
        ungraded += not res.graded
    assert ungraded == 1 and n_levels > 300


def _dup_generator_resolution():
    ring = Ring(32003, ("x", "y"))
    base = BaseOrdering("dp", 2)
    x = ring.mono([1, 0])
    one = ring.one
    phi1 = [{(x, 0): 1}, {(x, 0): 1}]
    phi2 = [{(one, 0): 1, (one, 1): 32002}]
    return Resolution(ring, base,
                      [GradedFreeModule(1, (0,)), GradedFreeModule(2, (1, 1)),
                       GradedFreeModule(1, (1,))],
                      [phi1, phi2], OpCounters())


def test_minimize_sec5_unchanged(sec5):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    out = minimize(res)
    assert [m.rank for m in out.modules] == [1, 3, 2]
    assert out.diffs == res.diffs


def test_minimize_duplicate_generator():
    res = _dup_generator_resolution()
    out = minimize(res)
    assert [m.rank for m in out.modules] == [1, 1]
    assert out.check_complex() and out.minimal
    assert betti_nonminimal(out) == betti_minimal_from_nonminimal(res)


def test_minimize_unit_ideal():
    # R/<1> = 0: everything cancels away
    doc = parse_input("ring 7 x,y dp\n3\n")
    res = resolve(doc.generators, doc.ring, doc.ordering)
    assert not res.minimal
    out = minimize(res)
    assert [m.rank for m in out.modules] == [0]
    assert betti_nonminimal(out) == BettiTable({})


def _strands(res, k):
    """The constant strands of phi_k as dicts, all degrees at once: degree
    j -> {column: its constant part {row: value}} for the degree-j columns
    of phi_k with a constant entry, in basis order (the form _plan_pivots
    eliminated before it built one degree at a time from frozen rows)."""
    one = res.ring.one
    out = {}
    for c, (t, col) in enumerate(zip(res.modules[k].twists, res.diffs[k - 1])):
        const = {i: v for (m, i), v in col.items() if m == one}
        if const:
            out.setdefault(t, {})[c] = const
    return out


def _dict_plan(res):
    """_plan_pivots' pivots from the dict strands of _strands, each
    eliminated with its columns last first."""
    plan = []
    for k in range(1, res.length + 1):
        pivots = {}
        for strand in _strands(res, k).values():
            cols = list(strand)[::-1]
            pivots.update((cols[r], i0) for r, i0
                          in echelon([strand[j] for j in cols], res.ring.p))
        plan.append(pivots)
    return plan


def test_strands_examples(sec5):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    assert _strands(res, 1) == _strands(res, 2) == {}
    assert _plan_pivots(res) == [{}, {}]
    dup = _dup_generator_resolution()
    assert _strands(dup, 1) == {}
    assert _strands(dup, 2) == {1: {0: {0: 1, 1: 32002}}}
    assert rank(list(_strands(dup, 2)[1].values()), 32003) == 1
    assert _plan_pivots(dup) == [{}, {0: 0}]


def test_strands_dimensions_agr():
    # a degree-j strand of phi_k holds, in basis order, each degree-j
    # column of phi_k with a constant entry, and its rows are degree-j
    # basis elements of F_{k-1}
    from syzkit.examples_gen import AgrSpec, gen_agr
    ideal = gen_agr(AgrSpec(n=2, d=3, s=3, p=10007, seed=4))
    base = BaseOrdering("dp", 3)
    res = resolve(ideal.generators, ideal.ring, base)
    one = res.ring.one
    held = 0
    for k in range(1, res.length + 1):
        twists = res.modules[k].twists
        strands = _strands(res, k)
        assert sorted(c for strand in strands.values() for c in strand) == [
            c for c, col in enumerate(res.diffs[k - 1])
            if any(m == one for m, _ in col)]
        for j, strand in strands.items():
            assert list(strand) == sorted(strand)
            assert all(twists[c] == j for c in strand)
            assert all(res.modules[k - 1].twists[i] == j
                       for col in strand.values() for i in col)
            assert all(strand[c] == {i: v for (m, i), v
                                     in res.diffs[k - 1][c].items() if m == one}
                       for c in strand)
            held += len(strand)
    assert held > 0


def test_block_rank_oracle():
    assert rank([{0: 1}, {1: 1}, {2: 1}], 7) == 3
    assert rank([{}, {}, {}, {}], 7) == 0
    rng = random.Random(5)
    p = 10007

    def det(mat):
        # exact determinant mod p by the Leibniz formula
        n = len(mat)
        total = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[a] > perm[b]
                             for a, b in itertools.combinations(range(n), 2))
            term = -1 if inversions % 2 else 1
            for i, j in enumerate(perm):
                term *= mat[i][j]
            total += term
        return total % p

    def minor_rank(mat):
        # brute force: largest k with a nonsingular k x k minor
        m, n = len(mat), len(mat[0])
        for k in range(min(m, n), 0, -1):
            for rows in itertools.combinations(range(m), k):
                for cols in itertools.combinations(range(n), k):
                    if det([[mat[i][j] for j in cols] for i in rows]):
                        return k
        return 0

    for _ in range(15):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
        assert rank([dict(enumerate(row)) for row in mat], p) == \
            minor_rank(mat)


def test_hilbert_numerator_examples(sec5):
    r1 = Ring(7, ("x",))
    assert hilbert_numerator([(r1.mono([1]), 0)], 1) == {0: 1, 1: -1}
    lead = [(sec5.mono("w*x"), 0), (sec5.mono("w*y"), 0), (sec5.mono("x*y"), 0)]
    assert hilbert_numerator(lead, 4) == {0: 1, 2: -3, 3: 2}
    r2 = Ring(7, ("x", "y"))
    lead2 = [(r2.mono([2, 0]), 0), (r2.mono([1, 1]), 0), (r2.mono([0, 2]), 0)]
    assert hilbert_numerator(lead2, 2) == {0: 1, 2: -3, 3: 2}


def test_hilbert_numerator_zero_and_unit_ideals():
    # the zero ideal leaves all of F_0, numerator t^twist; the unit ideal
    # leaves nothing of its component
    ring = Ring(7, ("x", "y"))
    assert hilbert_numerator([], 2) == {0: 1}
    assert hilbert_numerator([], 2, (3,)) == {3: 1}
    assert hilbert_numerator([(ring.one, 0)], 2) == {}
    assert hilbert_numerator([(ring.one, 0)], 2, (0, 2)) == {2: 1}


def test_free_module_and_hilbert_numerator_check_their_twists():
    ring = Ring(7, ("x",))
    with pytest.raises(DomainError, match="rank and twist count differ"):
        GradedFreeModule(2, (0,))
    with pytest.raises(DomainError, match="twist list shorter"):
        hilbert_numerator([(ring.one, 1)], 1, (0,))


def test_betti_minimal_rejects_a_negative_number():
    # phi_1 and phi_2 are both the constant 1 between rank-1, twist-0
    # modules, so two strands of rank 1 meet at F_1's one generator: not a
    # complex, and beta_{1,0} would be 1 - 1 - 1
    ring = Ring(7, ("x",))
    F = GradedFreeModule(1, (0,))
    one = [{(ring.one, 0): 1}]
    res = Resolution(ring, BaseOrdering("dp", 1), [F, F, F], [one, one],
                     OpCounters())
    with pytest.raises(RuntimeError, match="negative minimal Betti number"):
        betti_minimal_from_nonminimal(res)


def test_betti_table_repr():
    assert repr(BettiTable({(0, 0): 1, (1, 2): 3})) == \
        "BettiTable({(0, 0): 1, (1, 2): 3})"


def test_hilbert_numerator_keeps_no_module_state(sec5):
    def containers():
        return {k: len(v) for k, v in vars(resolution).items()
                if isinstance(v, (dict, list, set))}
    ring = Ring(7, ("x", "y", "z"))
    cases = [(sec5.gb.lms, 4),
             ([(ring.mono(e), 0) for e in ([2, 0, 0], [1, 1, 0], [0, 1, 2])], 3)]
    before = containers()
    first = [hilbert_numerator(lead, n) for lead, n in cases]
    assert containers() == before
    assert [hilbert_numerator(lead, n) for lead, n in cases] == first
    assert containers() == before


def test_hilbert_numerator_series_oracle(corpus):
    # expand N(t)/(1-t)^n and compare with a direct staircase count
    from syzkit.groebner import monomials_of_degree
    from syzkit.algebra import mono_divides

    for entry in corpus[:10]:
        G = entry.gb
        n = entry.ring.nvars
        num = hilbert_numerator(G.lms, n)
        maxdeg = 6
        series = [0] * (maxdeg + 1)
        for d, c in num.items():
            if d <= maxdeg:
                for k in range(maxdeg + 1 - d):
                    # 1/(1-t)^n has coefficients C(n-1+k, n-1)
                    from math import comb
                    series[d + k] += c * comb(n - 1 + k, n - 1)
        lead_monos = [mm[0] for mm in G.lms]
        for e in range(maxdeg + 1):
            count = sum(1 for m in monomials_of_degree(n, e, entry.base)
                        if not any(mono_divides(g, m) for g in lead_monos))
            assert series[e] == count, f"seed {entry.seed} degree {e}"


def test_resolution_length_bound(corpus):
    for entry in corpus:
        res = entry.resolutions["tree"]
        assert res.length <= entry.ring.nvars + 1


def test_entry_homogeneity(corpus):
    # every nonzero entry of phi_k is homogeneous of degree
    # twist_k[col] - twist_{k-1}[row]
    for entry in corpus[:25]:
        res = entry.resolutions["tree"]
        for k in range(1, res.length + 1):
            tw_src = res.modules[k].twists
            tw_dst = res.modules[k - 1].twists
            for j, col in enumerate(res.diffs[k - 1]):
                for (m, comp) in col:
                    assert mono_deg(m) == tw_src[j] - tw_dst[comp]


def test_resolve_module_input():
    # rank-2 ambient module: the Koszul relation between x*e1 and y*e1
    ring = Ring(32003, ("x", "y"))
    base = BaseOrdering("dp", 2)
    x, y = ring.mono([1, 0]), ring.mono([0, 1])
    gens = [{(x, 0): 1}, {(y, 0): 1}, {(x, 1): 1}]
    res = resolve(gens, ring, base, rank0=2)
    assert res.graded
    assert [m.rank for m in res.modules] == [2, 3, 1]
    assert res.check_complex()
    assert betti_nonminimal(res).totals() == [2, 3, 1]
    gb = buchberger(gens, ring, base, rank=2)
    num = hilbert_numerator(gb.lms, 2, twists0=(0, 0))
    assert betti_nonminimal(res).euler() == num == {0: 2, 1: -3, 2: 1}


@pytest.mark.parametrize("kind", ["dp", "lp"])
@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_resolve_over_small_and_largest_characteristics(p, kind):
    # random forms over F_2, F_3, F_5 and the largest allowed prime: the
    # three strategies agree, and each resolution is a complex with the
    # Hilbert numerator's Euler characteristic whose minimization has the
    # minimal Betti numbers
    n_nonminimal = 0
    for seed in range(12):
        rng = random.Random(seed)
        nv = rng.choice([2, 3, 3, 4])
        degs = [rng.choice([1, 2, 2, 3]) for _ in range(rng.randrange(2, 5))]
        base = BaseOrdering(kind, nv)
        if p == 2:
            # a dense form over F_2 is the sum of all its monomials, so each
            # form takes a random nonempty support instead
            ring, gens = Ring(p, tuple(f"x{i}" for i in range(nv))), []
            for d in degs:
                ms = monomials_of_degree(nv, d, base)
                support = [m for m in ms if rng.random() < 0.5] or [rng.choice(ms)]
                gens.append({(m, 0): 1 for m in support})
        else:
            ring, gens = gen_random_homogeneous(nv, degs, p, seed)
        G = buchberger(gens, ring, base)
        ress = [resolve(gens, ring, base, alg=alg, gb=G)
                for alg in ("reduce", "hybrid", "tree")]
        text = serialize_resolution(ress[0])
        assert all(serialize_resolution(res) == text for res in ress[1:]), seed
        res = ress[-1]
        assert res.check_complex(), seed
        assert betti_nonminimal(res).euler() == hilbert_numerator(G.lms, nv)
        assert (betti_nonminimal(minimize(res))
                == betti_minimal_from_nonminimal(res)), seed
        n_nonminimal += not res.minimal
    # so that minimize has something to remove
    assert n_nonminimal > 0


def _tail_above_head(vs, p):
    """Each lifting, head s first, with x*s added at coefficient 1: s keeps
    coefficient 1, but x*s outranks it (x the first variable)."""
    for v in vs:
        m, j = next(iter(v))
        x = mono_from_exponents((1,) + (0,) * (len(mono_exponents(m)) - 1))
        yield {(mono_mul(m, x), j): 1, **v}


@pytest.mark.parametrize("corrupt", [
    lambda vs, p: ({mm: 2 * c % p for mm, c in v.items()} for v in vs),
    lambda vs, p: reversed(list(vs)),
    _tail_above_head,
], ids=["head-not-monic", "heads-out-of-order", "tail-above-head"])
def test_resolve_rejects_lost_leading_term(sec5, monkeypatch, corrupt):
    # corrupt the stream of liftings that resolve hands to each level's basis
    lift = resolution.lift_frame_iter
    monkeypatch.setattr(resolution, "lift_frame_iter",
                        lambda *a: corrupt(lift(*a), sec5.ring.p))
    with pytest.raises(RuntimeError, match="lifting lost its leading term"):
        resolve(sec5.gens, sec5.ring, sec5.base)


def test_resolve_rejects_unknown_algorithm_first(sec5, monkeypatch):
    def no_basis(*a, **kw):
        raise AssertionError("buchberger ran")

    monkeypatch.setattr(resolution, "buchberger", no_basis)
    with pytest.raises(DomainError, match="unknown lifting algorithm 'bogus'"):
        resolve(sec5.gens, sec5.ring, sec5.base, alg="bogus")


def test_check_complex_detects_a_changed_coefficient(sec5):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    assert res.check_complex()
    p = sec5.ring.p
    for j, col in enumerate(res.diffs[1]):
        for t in range(len(col)):
            terms = list(col.items())
            mm, c = terms[t]
            terms[t] = (mm, c % (p - 1) + 1)  # another nonzero coefficient
            res.diffs[1][j] = vec_interned(terms, {})
            assert not res.check_complex(), (j, mm)
        res.diffs[1][j] = col
    assert res.check_complex()


@pytest.mark.parametrize("alg", ["reduce", "hybrid", "tree"])
def test_resolve_streams_each_level(sec5, corpus, monkeypatch, alg):
    # each level's basis, formed once per level by syzygy_basis, takes
    # every lifting as soon as it is yielded: when it takes lifting i, the
    # generator has yielded exactly i + 1, so no level is ever built as a
    # list; every strategy gets one cache per level, and the child lists go
    # at each level's end
    yielded, caches, taken = [], [], []
    lift = resolution.lift_frame_iter

    def counting(*a):
        yielded.append(0)
        for v in lift(*a):
            yielded[-1] += 1
            yield v

    syzygy_basis = GroebnerBasis.syzygy_basis

    def taking(G, liftings, table=None):
        def take():
            for i, g in enumerate(liftings):
                assert yielded[-1] == i + 1
                yield g
        taken.append(G.level + 1)
        return syzygy_basis(G, take(), table)

    def cache(table):
        caches.append(SubtreeCache(table))
        return caches[-1]

    monkeypatch.setattr(resolution, "lift_frame_iter", counting)
    monkeypatch.setattr(GroebnerBasis, "syzygy_basis", taking)
    monkeypatch.setattr(resolution, "SubtreeCache", cache)
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    cases = [(sec5.gens, sec5.ring, sec5.base),
             (ideal.generators, ideal.ring, BaseOrdering("dp", 5))]
    cases += [(e.gens, e.ring, e.base) for e in corpus[:10]]
    ranks, levels = [], []
    for gens, ring, base in cases:
        res = resolve(gens, ring, base, alg=alg)
        ranks += [m.rank for m in res.modules[2:]]
        levels += range(1, len(res.modules) - 1)
    assert yielded == ranks and max(ranks) == 171
    assert taken == levels
    assert len(caches) == len(ranks)
    assert all(not c.children for c in caches)


def test_q_sparse_sec5(sec5):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    assert res.q_sparse() == pytest.approx(11 / 6, abs=1e-9)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


CORPUS_RES_DIGEST = "3d6f3ee6651eb7bcb998f5bbcbe3576588298436cf8d66c72f99b427c015caee"
AGR_5_4_12_RES_DIGEST = "35c458cb256df612037a39b2fd4b714279912eb2421f2e7fa6247603cf34bd03"


@pytest.mark.parametrize("case, alg, digest, totals", [
    pytest.param("corpus", "reduce", CORPUS_RES_DIGEST,
                 (22633, 168765, 167843, 22016, 715382), id="corpus-reduce"),
    pytest.param("corpus", "hybrid", CORPUS_RES_DIGEST,
                 (22633, 43790, 41765, 290, 0), id="corpus-hybrid"),
    pytest.param("corpus", "tree", CORPUS_RES_DIGEST,
                 (22633, 31733, 29865, 133, 0), id="corpus-tree"),
    pytest.param("sec5", None,
                 "89b9c4a12cf74e4f2a82c489956acd6b9b1f7e95c8f510be611a7f13c80a8a6a",
                 None, id="sec5"),
    pytest.param((5, 4, 12), "reduce", AGR_5_4_12_RES_DIGEST,
                 (21926, 576896, 570111, 52750, 2577083), id="agr-5-4-12-reduce"),
    pytest.param((5, 4, 12), "hybrid", AGR_5_4_12_RES_DIGEST,
                 (21926, 20081, 19383, 6, 0), id="agr-5-4-12-hybrid"),
    pytest.param((5, 4, 12), "tree", AGR_5_4_12_RES_DIGEST,
                 (21926, 18538, 17920, 7, 0), id="agr-5-4-12-tree"),
])
def test_resolution_golden(request, case, alg, digest, totals):
    # digests of serialize_resolution output as produced by the
    # level-by-level driver that preceded the frame-first one, and exact
    # operation counts (n_terms, n_mult, n_add, n_canc, n_monomial_cmp) with
    # every known unit head taken without a product and the tree lifting
    # storing, per level, either nothing or the subtrees two liftings reach,
    # whichever its plan prices cheaper: the whole corpus (per-ideal digests
    # concatenated in seed order, counters summed),
    # the lex worked example under every strategy, and the
    # AGR ideal (5, 4, 12) with p=10007, seed 0
    counters = OpCounters()
    if case == "corpus":
        corpus = request.getfixturevalue("corpus")
        got = _sha256("".join(_sha256(serialize_resolution(e.resolutions[alg]))
                              for e in corpus))
        for e in corpus:
            counters.merge(e.counters[alg])
    elif case == "sec5":
        doc = parse_input(SEC5_TEXT)
        got = _sha256("".join(
            _sha256(serialize_resolution(resolve(
                doc.generators, doc.ring, doc.ordering, alg=a)))
            for a in ("reduce", "hybrid", "tree")))
    else:
        ideal = gen_agr(AgrSpec(*case, p=10007, seed=0))
        base = BaseOrdering("dp", ideal.ring.nvars)
        res = resolve(ideal.generators, ideal.ring, base, alg=alg,
                      counters=counters)
        got = _sha256(serialize_resolution(res))
    assert got == digest
    if totals is not None:
        names = ("n_terms", "n_mult", "n_add", "n_canc", "n_monomial_cmp")
        assert counters.as_dict() == dict(zip(names, totals))


def test_lot_ablation_identity(monkeypatch, corpus):
    # two rungs of the ablation ladder: reduce with every lower order term
    # dropped (an ordered division) and tree with an empty plan (weights
    # pushed in Kahn order, nothing stored, no comparison) give reduce's
    # resolution and the same products, additions and cancellations, on
    # AGR (5, 4, 12) and on all but one corpus ideal; on seed 102 (lp, 4
    # variables) the division meets a key's summands in an order in which a
    # proper prefix of them cancels: one addition less and one cancellation
    # more than in the Kahn order (see lift._propagate).  AGR (6, 5, 18) is
    # left out on purpose: there both rungs give tree's serialized
    # resolution (sha256 2de2a08b...) and the same (#Mult, #Add, #Canc) =
    # (64310, 62459, 842), but rung 2 takes 11-16 s of process time
    # against rung 3's 0.75-1.1 s, past the ~10 s a tier-1 test may take
    def rungs(gens, ring, base, gb):
        out = []
        for attr, fn, alg in (
                ("lift_reduce", lift_reduce_without_lots, "reduce"),
                ("_plan", lambda roots, G, cache: [], "tree")):
            with monkeypatch.context() as mp:
                mp.setattr(lift, attr, fn)
                c = OpCounters()
                res = resolve(gens, ring, base, alg=alg, counters=c, gb=gb)
            out.append((serialize_resolution(res),
                        (c.n_mult, c.n_add, c.n_canc), c.n_monomial_cmp))
        return out

    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    base = BaseOrdering("dp", ideal.ring.nvars)
    gb = buchberger(ideal.generators, ideal.ring, base)
    div, kahn = rungs(ideal.generators, ideal.ring, base, gb)
    assert _sha256(div[0]) == _sha256(kahn[0]) == AGR_5_4_12_RES_DIGEST
    assert div[1] == kahn[1] == (19519, 18821, 6)
    assert (div[2], kahn[2]) == (733745, 0)
    totals = [[0, 0, 0], [0, 0, 0]]
    for e in corpus:
        div, kahn = rungs(e.gens, e.ring, e.base, e.gb)
        want = serialize_resolution(e.resolutions["reduce"])
        assert div[0] == kahn[0] == want, e.seed
        if e.seed == 102:
            assert e.base.kind == "lp" and e.ring.nvars == 4
            assert (div[1], kahn[1]) == ((18925, 17011, 55), (18925, 17012, 54))
        else:
            assert div[1] == kahn[1], e.seed
        assert kahn[2] == 0
        for t, r in zip(totals, (div, kahn)):
            t[:] = [a + b for a, b in zip(t, r[1])]
    assert totals == [[31736, 29867, 134], [31736, 29868, 133]]


CORPUS_MIN_DIGEST = "009a5cf1d13d8618865af22cb9efb406659e478cef55d69cfd3035273a67682b"
AGR_5_4_12_MIN_DIGEST = "1457501c4932551ce89f4f1266e77168d11a0f5a8e29edde111453db3e49a4c2"


def test_tree_ranking(corpus, agr_5_4_12):
    # the paper's tree < hybrid in field operations on AGR (5, 4, 12) and
    # over the whole corpus, and tree < reduce in products over the corpus
    res = agr_5_4_12[0]
    hybrid = OpCounters()
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    resolve(ideal.generators, res.ring, res.base, alg="hybrid", counters=hybrid)
    assert res.stats.n_mult <= hybrid.n_mult
    assert res.stats.n_add <= hybrid.n_add

    def total(alg, field):
        return sum(getattr(e.counters[alg], field) for e in corpus)

    assert total("tree", "n_mult") < total("hybrid", "n_mult")
    assert total("tree", "n_add") < total("hybrid", "n_add")
    assert total("tree", "n_mult") < total("reduce", "n_mult")


def test_minimize_golden(corpus, agr_5_4_12):
    # digests of serialize_resolution(minimize(res)) as produced by the
    # one-sweep-per-level minimization: the tree resolutions of the whole
    # corpus (per-ideal digests concatenated in seed order) and the AGR ideal
    # (5, 4, 12) with p=10007, seed 0
    got = _sha256("".join(
        _sha256(serialize_resolution(minimize(e.resolutions["tree"])))
        for e in corpus))
    assert got == CORPUS_MIN_DIGEST
    assert _sha256(serialize_resolution(agr_5_4_12[1])) == AGR_5_4_12_MIN_DIGEST


def _distinct_objects_and_values(vectors):
    """For coefficients, module monomials and base monomials: the number of
    distinct objects and of distinct values among the terms of the vectors
    (a resolution's stored columns, an input's generators)."""
    kinds = ("coefficient", "module monomial", "monomial")
    ids = {kind: set() for kind in kinds}
    values = {kind: set() for kind in kinds}
    for vec in vectors:
        for mm, c in vec.items():
            for kind, x in zip(kinds, (c, mm, mm[0])):
                ids[kind].add(id(x))
                values[kind].add(x)
    return {kind: (len(ids[kind]), len(values[kind])) for kind in kinds}


def test_resolutions_share_equal_objects(corpus, agr_5_4_12):
    # every stored resolution, from resolve with each strategy and from
    # minimize, holds one object per distinct coefficient, module monomial
    # and base monomial
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    res, mres = agr_5_4_12
    cases = [res, mres] + [resolve(ideal.generators, res.ring, res.base,
                                   alg=alg) for alg in ("reduce", "hybrid")]
    for e in corpus:
        cases += list(e.resolutions.values())
        cases.append(minimize(e.resolutions["tree"]))
    for r in cases:
        columns = [col for cols in r.diffs for col in cols]
        for kind, (n_ids, n_values) in _distinct_objects_and_values(columns).items():
            assert n_ids == n_values, kind


def test_inputs_share_equal_objects(corpus):
    # a parsed document holds one object per distinct coefficient, module
    # monomial and base monomial; a generated ideal one per distinct module
    # monomial and base monomial (its coefficients are drawn, not shared)
    parsed = [parse_input(serialize_input(InputDocument(e.ring, e.base, e.gens)))
              for e in corpus]
    # the fixture's other ideals are monomial ones that it draws itself
    generated = [e.gens for e in corpus if e.seed % 5]
    for spec in (AgrSpec(5, 4, 12, p=10007, seed=0), AgrSpec(3, 4, 3, p=11, seed=4)):
        generated.append(gen_agr(spec).generators)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gen", "agr", "--n", str(spec.n), "--d", str(spec.d),
                         "--s", str(spec.s), "--p", str(spec.p),
                         "--seed", str(spec.seed)]) == 0
        parsed.append(parse_input(out.getvalue()))
    for doc in parsed:
        for kind, (n_ids, n_values) in _distinct_objects_and_values(
                doc.generators).items():
            assert n_ids == n_values, kind
    for gens in generated:
        counts = _distinct_objects_and_values(gens)
        for kind in ("module monomial", "monomial"):
            assert counts[kind][0] == counts[kind][1], kind


def test_repeated_calls_do_not_retain_memory():
    # resolve and minimize keep no table beyond their call, and a basis
    # given to resolve keeps no memo of its liftings: five rounds on the
    # same ideal, each result dropped, leave the traced memory where it was
    # before the first (a table kept across calls would hold every distinct
    # object of the first round, some 20 KB here; a divisor memo left on
    # the given basis, 5-6 KB)
    ideal = gen_agr(AgrSpec(3, 3, 5, p=10007, seed=0))
    base = BaseOrdering("dp", ideal.ring.nvars)
    G = buchberger(ideal.generators, ideal.ring, base)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        grown = []
        for _ in range(5):
            res = resolve(ideal.generators, ideal.ring, base)
            mres = minimize(res)
            assert res.length == mres.length == 4
            del res, mres
            for alg in ("reduce", "hybrid", "tree"):
                res = resolve(ideal.generators, ideal.ring, base, alg=alg, gb=G)
                assert res.length == 4
                del res
            gc.collect()
            grown.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert max(grown) < 4096, grown


def test_minimize_working_set(agr_5_4_12):
    # minimize holds, beyond its output, about one level's working columns
    # and a row index of that level's pivot rows alone, releasing each
    # column as it is frozen.  On AGR (5, 4, 12) its traced peak is 2.59-2.60
    # times the traced size of its output (Python 3.10-3.12); with every
    # row indexed it is 2.94-2.96, and with the pivot rows indexed but a
    # level's working columns all held until the level is frozen, 2.69
    res = agr_5_4_12[0]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mres = minimize(res)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mres.length == res.length
    ratio = (peak - before) / (held - before)
    assert ratio < 2.65, ratio


def test_minimize_agr_is_minimal_complex(agr_5_4_12):
    res, mres = agr_5_4_12
    assert betti_nonminimal(mres) == betti_minimal_from_nonminimal(res)
    one = res.ring.one
    assert not any(m == one for cols in mres.diffs for col in cols
                   for m, _ in col)
    assert mres.check_complex()


def test_minimize_pivots_match_strand_ranks(corpus, agr_5_4_12):
    # minimize pivots on as many units of each constant strand B_{k,j} as its
    # rank, the number betti_minimal_from_nonminimal subtracts
    for res in [e.resolutions["tree"] for e in corpus] + [agr_5_4_12[0]]:
        for k, pivots in enumerate(_plan_pivots(res), start=1):
            twists = res.modules[k].twists
            count = Counter(twists[j] for j in pivots)
            for j, strand in _strands(res, k).items():
                assert count[j] == rank(list(strand.values()),
                                              res.ring.p), (k, j)


def _reference_pivots(res):
    """The pivot rule of minimize as a dict elimination of the constant
    parts: from the last column of phi_k to the first, a column takes its
    lowest remaining constant row once the later pivots are cleared, with
    the rows of level k-1's pivots removed."""
    p, one = res.ring.p, res.ring.one
    plan = []
    for cols in res.diffs:
        gone = plan[-1] if plan else {}
        consts = [{i: v for (m, i), v in col.items()
                   if m == one and i not in gone} for col in cols]
        pivots = {}
        for j0 in range(len(consts) - 1, -1, -1):
            pivot = consts[j0]
            if not pivot:
                continue
            i0 = min(pivot)
            pivots[j0] = i0
            inv = pow(pivot[i0], p - 2, p)
            for col in consts[:j0]:
                q = col.get(i0, 0) * inv % p
                if not q:
                    continue
                for i, v in pivot.items():
                    w = (col.get(i, 0) - q * v) % p
                    if w:
                        col[i] = w
                    else:
                        del col[i]
        plan.append(pivots)
    return plan


def test_plan_pivots_follow_the_pivot_rule(corpus, agr_5_4_12):
    # the reference strips level k-1's pivot rows, as the sweep does, and
    # the plan does not, so this also checks that those rows never hold a
    # pivot (the argument is in _plan_pivots' docstring); and the strands
    # eliminated one degree at a time from frozen rows give the pivots of
    # the dict strands eliminated all at once
    reference = 0
    for res in [e.resolutions[alg] for e in corpus
                for alg in ("reduce", "hybrid", "tree")] + [agr_5_4_12[0]]:
        plan = _plan_pivots(res)
        assert plan == _reference_pivots(res) == _dict_plan(res)
        reference += sum(map(len, plan))
    assert reference > 0


def test_minimize_agr_6_5_18():
    ideal = gen_agr(AgrSpec(6, 5, 18, p=10007, seed=0))
    res = resolve(ideal.generators, ideal.ring,
                  BaseOrdering("dp", ideal.ring.nvars))
    assert _plan_pivots(res) == _dict_plan(res)
    mres = minimize(res)
    assert betti_nonminimal(mres) == betti_minimal_from_nonminimal(res)
    one = res.ring.one
    assert not any(m == one for cols in mres.diffs for col in cols
                   for m, _ in col)


def test_minimal_betti_numbers_are_invariant(corpus):
    # minimal Betti numbers depend neither on the coordinates nor on the
    # monomial order: each corpus ideal after one seeded random linear
    # change of variables, resolved under dp and lp with tree and hybrid,
    # has the original's minimal table, from the strand ranks and from
    # minimize, whose output is a minimal complex.  The changed ideals are
    # dense, so this runs the plan and the sweep on other inputs than the
    # corpus's own (800 resolutions)
    resolved = 0
    for entry in corpus:
        want = betti_minimal_from_nonminimal(entry.resolutions["tree"])
        gens = linear_change(entry.gens, entry.ring, random.Random(entry.seed))
        for kind in ("dp", "lp"):
            base = BaseOrdering(kind, entry.ring.nvars)
            gb = buchberger(gens, entry.ring, base)
            for alg in ("tree", "hybrid"):
                res = resolve(gens, entry.ring, base, alg=alg, gb=gb)
                mres = minimize(res)
                assert betti_minimal_from_nonminimal(res) == want, entry.seed
                assert betti_nonminimal(mres) == want, entry.seed
                assert mres.minimal and mres.check_complex(), entry.seed
                resolved += 1
    assert resolved == 800
