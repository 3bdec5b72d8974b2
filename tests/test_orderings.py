import itertools
import random

import pytest

from syzkit.algebra import DomainError, Ring, mono_mul
from syzkit.orderings import BaseOrdering, OrderingChain, reorder_permutation


def _cmp(key, a, b):
    """Three-way comparison under the ordering that ``key`` realizes."""
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def test_cmp_base_examples(sec5):
    wx, wz = sec5.mono("w*x"), sec5.mono("w*z")
    lex = sec5.base.key_func()
    assert _cmp(lex, wx, wz) == 1  # lex with w > x > y > z
    dp = BaseOrdering("dp", 2).key_func()
    r = Ring(7, ("x", "y"))
    assert _cmp(dp, r.mono([2, 0]), r.mono([1, 1])) == 1
    assert _cmp(lex, wx, wx) == 0


def test_unknown_kind():
    with pytest.raises(DomainError):
        BaseOrdering("weighted", 3)


def test_cmp_induced_sec5(sec5):
    key = sec5.ext.key_fn(1)
    x_e2 = sec5.mm("x", 2)
    w_e3 = sec5.mm("w", 3)
    # both map to wxy in F_0; components 2 < 3 and higher component wins
    assert _cmp(key, x_e2, w_e3) == -1
    assert _cmp(key, sec5.mm("y", 1), sec5.mm("z", 1)) == 1
    assert _cmp(key, x_e2, x_e2) == 0


def _extend(chain, gens):
    """The chain extended by the leading monomials of gens, which live at
    its top level."""
    return chain.extend([max(g, key=chain.key_fn(len(chain))) for g in gens])


def test_extend_chain_examples(sec5):
    lev = sec5.ext.levels[0]
    assert lev.path_monos == (
        sec5.mono("w*x"), sec5.mono("w*y"), sec5.mono("x*y"))
    assert lev.tails == ((0,), (0,), (0,))
    # extending by the computed syzygies, whose leading terms x*e_2 and
    # w*e_3 both descend to w*x*y
    ext2 = _extend(sec5.ext, [sec5.syz1, sec5.syz2])
    assert ext2.levels[1].path_monos == (sec5.mono("w*x*y"),) * 2
    assert ext2.levels[1].tails == ((0, 1), (0, 2))
    # single generator: comparisons at that level reduce to the base ordering
    chain1 = _extend(OrderingChain(sec5.base), [sec5.gens[0]])
    a = (sec5.mono("x"), 0)
    b = (sec5.mono("z"), 0)
    assert (_cmp(chain1.key_fn(1), a, b)
            == _cmp(sec5.base.key_func(), sec5.mono("x"), sec5.mono("z")))
    with pytest.raises(DomainError):
        sec5.ext.extend([sec5.mono("x")])  # a plain monomial


def test_chain_checks_levels_and_components(sec5):
    # sec5.ext has one level, induced by three generators
    with pytest.raises(DomainError, match="no level 2"):
        sec5.ext.key_fn(2)
    with pytest.raises(DomainError, match="component out of range"):
        sec5.ext.extend([(sec5.mono("x"), 3)])


def _random_mm(rng, ring, max_comp):
    exps = [rng.randrange(0, 3) for _ in range(ring.nvars)]
    return (ring.mono(exps), rng.randrange(max_comp))


def test_total_order_properties(sec5):
    rng = random.Random(7)
    key = sec5.ext.key_fn(1)
    sample = [_random_mm(rng, sec5.ring, 3) for _ in range(40)]
    for a, b, c in itertools.islice(itertools.combinations(sample, 3), 300):
        ca, cb, cc = _cmp(key, a, b), _cmp(key, b, c), _cmp(key, a, c)
        assert _cmp(key, b, a) == -ca  # antisymmetry
        if ca > 0 and cb > 0:
            assert cc > 0  # transitivity
        assert (ca == 0) == (a == b)


def test_multiplicativity(sec5):
    rng = random.Random(11)
    key = sec5.ext.key_fn(1)
    for _ in range(200):
        a = _random_mm(rng, sec5.ring, 3)
        b = _random_mm(rng, sec5.ring, 3)
        m = sec5.ring.mono([rng.randrange(0, 2) for _ in range(4)])
        ca = _cmp(key, a, b)
        ma = (mono_mul(m, a[0]), a[1])
        mb = (mono_mul(m, b[0]), b[1])
        assert _cmp(key, ma, mb) == ca


def test_restriction_to_component(sec5):
    # within a fixed component the induced ordering is the base ordering
    ring = sec5.ring
    key, base_key = sec5.ext.key_fn(1), sec5.base.key_func()
    monos = [ring.mono(e) for e in itertools.product(range(2), repeat=4)]
    for comp in range(3):
        for m1, m2 in itertools.combinations(monos, 2):
            assert (_cmp(key, (m1, comp), (m2, comp))
                    == _cmp(base_key, m1, m2))


def test_level_zero_component_tiebreak(sec5):
    m = sec5.mono("x*y")
    assert _cmp(sec5.ext.key_fn(0), (m, 0), (m, 1)) == 1  # smaller component is larger


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
