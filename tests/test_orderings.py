import itertools
import random

import pytest

from syzkit.algebra import DomainError, OpCounters, Ring, mono_mul
from syzkit.orderings import (
    BaseOrdering,
    OrderingChain,
    cmp_base,
    cmp_induced,
    extend_chain,
    reorder_permutation,
)


def test_cmp_base_examples(sec5):
    wx, wz = sec5.mono("w*x"), sec5.mono("w*z")
    assert cmp_base(wx, wz, sec5.base) == 1  # lex with w > x > y > z
    dp = BaseOrdering("dp", 2)
    r = Ring(7, ("x", "y"))
    assert cmp_base(r.mono([2, 0]), r.mono([1, 1]), dp) == 1
    assert cmp_base(wx, wx, sec5.base) == 0


def test_cmp_base_counts(sec5):
    c = OpCounters()
    cmp_base(sec5.mono("w"), sec5.mono("z"), sec5.base, c)
    assert c.n_monomial_cmp == 1


def test_unknown_kind():
    with pytest.raises(DomainError):
        BaseOrdering("weighted", 3)


def test_cmp_induced_sec5(sec5):
    ext = sec5.ext
    x_e2 = sec5.mm("x", 2)
    w_e3 = sec5.mm("w", 3)
    # both map to wxy in F_0; components 2 < 3 and higher component wins
    assert cmp_induced(x_e2, w_e3, ext, 1) == -1
    assert cmp_induced(sec5.mm("y", 1), sec5.mm("z", 1), ext, 1) == 1
    assert cmp_induced(x_e2, x_e2, ext, 1) == 0


def test_extend_chain_examples(sec5):
    lev = sec5.ext.levels[0]
    assert [mm for mm in lev.lms] == [
        (sec5.mono("w*x"), 0), (sec5.mono("w*y"), 0), (sec5.mono("x*y"), 0)]
    # extending by the computed syzygies records their leading terms
    ext2 = extend_chain(sec5.ext, [sec5.syz1, sec5.syz2])
    assert list(ext2.levels[1].lms) == [sec5.mm("x", 2), sec5.mm("w", 3)]
    # single generator: comparisons at that level reduce to the base ordering
    chain1 = extend_chain(OrderingChain(sec5.base), [sec5.gens[0]])
    a = (sec5.mono("x"), 0)
    b = (sec5.mono("z"), 0)
    assert chain1.cmp(a, b, 1) == cmp_base(sec5.mono("x"), sec5.mono("z"), sec5.base)
    with pytest.raises(DomainError):
        extend_chain(sec5.ext, [{}])


def _random_mm(rng, ring, max_comp):
    exps = [rng.randrange(0, 3) for _ in range(ring.nvars)]
    return (ring.mono(exps), rng.randrange(max_comp))


def test_total_order_properties(sec5):
    rng = random.Random(7)
    ext = sec5.ext
    key = ext.key_fn(1)
    sample = [_random_mm(rng, sec5.ring, 3) for _ in range(40)]
    for a, b, c in itertools.islice(itertools.combinations(sample, 3), 300):
        ca, cb, cc = cmp_induced(a, b, ext, 1), cmp_induced(b, c, ext, 1), cmp_induced(a, c, ext, 1)
        assert cmp_induced(b, a, ext, 1) == -ca  # antisymmetry
        if ca > 0 and cb > 0:
            assert cc > 0  # transitivity
        assert (ca == 0) == (a == b)


def test_multiplicativity(sec5):
    rng = random.Random(11)
    ext = sec5.ext
    for _ in range(200):
        a = _random_mm(rng, sec5.ring, 3)
        b = _random_mm(rng, sec5.ring, 3)
        m = sec5.ring.mono([rng.randrange(0, 2) for _ in range(4)])
        ca = cmp_induced(a, b, ext, 1)
        ma = (mono_mul(m, a[0]), a[1])
        mb = (mono_mul(m, b[0]), b[1])
        assert cmp_induced(ma, mb, ext, 1) == ca


def test_restriction_to_component(sec5):
    # within a fixed component the induced ordering is the base ordering
    ring = sec5.ring
    monos = [ring.mono(e) for e in itertools.product(range(2), repeat=4)]
    for comp in range(3):
        for m1, m2 in itertools.combinations(monos, 2):
            assert (cmp_induced((m1, comp), (m2, comp), sec5.ext, 1)
                    == cmp_base(m1, m2, sec5.base))


def test_level_zero_component_tiebreak(sec5):
    m = sec5.mono("x*y")
    assert sec5.ext.cmp((m, 0), (m, 1), 0) == 1  # smaller component is larger


def test_chain_immutable(sec5):
    before = len(sec5.gb.chain)
    ext = sec5.gb.chain.extend(sec5.gb.lms)
    assert len(sec5.gb.chain) == before and len(ext) == before + 1


def test_reorder_permutation_modes(sec5):
    ext = sec5.ext
    terms = [sec5.mm("x", 2), sec5.mm("w", 3)]
    assert reorder_permutation(terms, ext, 1, "negdegrevlex") == [0, 1]
    # mixed degrees at level 0 sort ascending by degree
    mixed = [(sec5.mono(e), 0) for e in ("x^2", "x", "x^3")]
    chain = OrderingChain(sec5.base)
    assert reorder_permutation(mixed, chain, 0, "negdegrevlex") == [1, 0, 2]
    for mode in ("bogus", "input", "none"):
        with pytest.raises(DomainError):
            reorder_permutation(terms, ext, 1, mode)
