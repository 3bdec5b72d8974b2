import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from syzkit.algebra import (Column, DomainError, OpCounters, Ring, Vec,
                            is_homogeneous,
                            mono_div, mono_divides, mono_lcm, mono_mul,
                            term_times_vector,
                            vec_component, vec_iadd_scaled)
from syzkit.orderings import BaseOrdering, OrderingChain
from syzkit.groebner import (
    GroebnerBasis,
    buchberger,
    divide_with_remainder,
    monomials_of_degree,
)
from syzkit.cli import (InputDocument, parse_input, parse_polynomial,
                        poly_to_string, serialize_input, serialize_resolution)
from syzkit.resolution import (betti_minimal_from_nonminimal, betti_nonminimal,
                               hilbert_numerator, minimize, resolve)
from syzkit.examples_gen import AgrSpec, gen_agr


# -- reference Buchberger criterion ------------------------------------------


def m_coeff(G, i, j):
    """The scalar term m_{ji} = lcm(LM(f_j), LM(f_i)) / LT(f_i).

    Returns a (coefficient, monomial) pair of R, or None when the two leading
    monomials live in different components ("no pair").  For a monic basis
    the coefficient is always 1.
    """
    a, b = G.lms[i], G.lms[j]
    if a[1] != b[1]:
        return None
    return (1, mono_div(mono_lcm(a[0], b[0]), a[0]))


def s_vector(G, i, j, counters=None):
    """S-vector m_{ji} f_i - m_{ij} f_j; the leading terms cancel by
    construction."""
    mi = m_coeff(G, i, j)
    mj = m_coeff(G, j, i)
    if mi is None or mj is None:
        raise DomainError("S-vector of generators with mismatched components")
    p = G.ring.p
    out = {}
    vec_iadd_scaled(out, mi[0], term_times_vector(mi[1], G.gens[i]), p, counters)
    vec_iadd_scaled(out, p - mj[0], term_times_vector(mj[1], G.gens[j]), p, counters)
    head = (mono_lcm(G.lms[i][0], G.lms[j][0]), G.lms[i][1])
    assert head not in out, "S-vector leading terms failed to cancel"
    return out


def is_groebner(G, counters=None):
    """Buchberger criterion: every same-component S-vector reduces to zero."""
    for i in range(len(G.gens)):
        for j in range(i):
            if G.lms[i][1] != G.lms[j][1]:
                continue
            s = s_vector(G, i, j, counters)
            _, rem = divide_with_remainder(s, G, counters)
            if rem:
                return False
    return True


def test_m_coeff_sec5(sec5):
    G = sec5.gb
    # 1-based (i=2, j=1): lcm(wx, wy)/wy = x
    assert m_coeff(G, 1, 0) == (1, sec5.mono("x"))
    assert m_coeff(G, 2, 0) == (1, sec5.mono("w"))
    # equal leading monomials give the trivial cofactor
    assert m_coeff(G, 0, 0) == (1, sec5.ring.one)


def test_m_coeff_component_mismatch(sec5):
    ring, base = sec5.ring, sec5.base
    chain = OrderingChain(base)
    gens = [{(sec5.mono("x"), 0): 1}, {(sec5.mono("y"), 1): 1}]
    G = GroebnerBasis(ring, chain, gens, rank=2)
    assert m_coeff(G, 0, 1) is None


def test_s_vector_sec5(sec5):
    c = OpCounters()
    s = s_vector(sec5.gb, 1, 0, c)
    expected = sec5.vec(
        {1: "-w*x*z-w*y*z-x^2*y-x^2*z-3*x*y*z-2*x*z^2+y*z^2"})
    assert s == expected
    # S(f, f) = 0
    assert s_vector(sec5.gb, 0, 0, None) == {}
    ring = sec5.ring
    gens = [{(sec5.mono("x"), 0): 1}, {(sec5.mono("y"), 1): 1}]
    G = GroebnerBasis(ring, OrderingChain(sec5.base), gens, rank=2)
    with pytest.raises(DomainError):
        s_vector(G, 0, 1, None)


def assert_quotient_bound(q, g, G):
    # the degree bound: key(m*LM(f_i)) <= key(LM(g)) for every quotient term
    key = G.chain.key_fn(G.level)
    top = max(map(key, g))
    for m, i in q:
        lm, comp = G.lms[i]
        assert key((mono_mul(m, lm), comp)) <= top


def test_divide_examples(sec5):
    G = sec5.gb
    c = OpCounters()
    # dividing a basis element by itself
    q, r = divide_with_remainder(sec5.gens[0], GroebnerBasis(
        sec5.ring, OrderingChain(sec5.base), [sec5.gens[0]]), c)
    assert r == {} and q == {(sec5.ring.one, 0): 1}
    # psi(x*e2) = x*f2 divides to zero with the worked-example quotients
    x = sec5.mono("x")
    g = term_times_vector(x, sec5.gens[1])
    q, r = divide_with_remainder(g, G, c)
    assert r == {}
    to_quot = lambda expr, i: {(m, i): cc for (m, _), cc
                               in parse_polynomial(expr, sec5.ring).items()}
    assert q == {**to_quot("y-z", 0), **to_quot("-z", 1), **to_quot("-x-3*z", 2)}
    assert_quotient_bound(q, g, G)
    # remainder keeps non-divisible terms
    doc = parse_input("ring 7 x,y dp\nx*y\n")
    Gm = buchberger(doc.generators, doc.ring, doc.ordering)
    q, r = divide_with_remainder(parse_polynomial("x*y+y^2", doc.ring), Gm, None)
    assert r == parse_polynomial("y^2", doc.ring)
    assert q == {(doc.ring.one, 0): 1}


def test_divide_reconstruction(corpus):
    # re-multiply quotients and add the remainder to recover the input
    for entry in corpus[:25]:
        G = entry.gb
        if not G.gens:
            continue
        p = entry.ring.p
        probe = dict(entry.gens[0])
        vec_iadd_scaled(probe, 1, entry.gens[-1], p, None)
        q, r = divide_with_remainder(probe, G, None)
        recon: Vec = dict(r)
        for (m, i), c in q.items():
            vec_iadd_scaled(recon, c, term_times_vector(m, G.gens[i]), p, None)
        assert recon == probe
        assert_quotient_bound(q, probe, G)
        # no remainder term is divisible by any leading monomial
        assert all(G.divisor(mm) < 0 for mm in r)


def test_buchberger_examples(sec5):
    doc = parse_input("ring 32003 x,y dp\nx\ny\n")
    G = buchberger(doc.generators, doc.ring, doc.ordering)
    assert [dict(g) for g in G.gens] == [{(doc.ring.mono([1, 0]), 0): 1},
                                         {(doc.ring.mono([0, 1]), 0): 1}]
    # the worked-example input is already a reduced Groebner basis
    assert list(sec5.gb.gens) == sec5.gens
    # {x^2+y, x^2} must produce y (inhomogeneous: found in the echelon
    # form of the two inputs, which enter the loop at degree 2)
    doc = parse_input("ring 7 x,y lp\nx^2+y\nx^2\n")
    G = buchberger(doc.generators, doc.ring, doc.ordering)
    assert {(doc.ring.mono([0, 1]), 0): 1} in [dict(g) for g in G.gens]


def test_is_groebner(sec5):
    assert is_groebner(sec5.gb)
    doc = parse_input("ring 7 x,y lp\nx^2+y\n")
    assert is_groebner(buchberger(doc.generators, doc.ring, doc.ordering))
    # {x^2+y, x*y} under dp: S = y*f1 - x*f2 = y^2, irreducible, so not a GB
    doc = parse_input("ring 32003 x,y dp\nx^2+y\nx*y\n")
    G = GroebnerBasis(doc.ring, OrderingChain(doc.ordering), doc.generators)
    assert not is_groebner(G)


def test_reduced_gb_unique_under_permutation(corpus):
    for entry in corpus[:20]:
        perm = list(reversed(entry.gens))
        G2 = buchberger(perm, entry.ring, entry.base)
        assert [dict(g) for g in G2.gens] == [dict(g) for g in entry.gb.gens]


def _assert_reduced_gb(G):
    assert is_groebner(G)
    for i, g in enumerate(G.gens):
        assert g[G.lms[i]] == 1  # monic
        # reduced: no term of any generator divisible by another lead
        for mm in g:
            assert all(k == i or not (G.lms[k][1] == mm[1]
                                      and mono_divides(G.lms[k][0], mm[0]))
                       for k in range(len(G.gens)))


def test_buchberger_output_is_groebner(corpus):
    for entry in corpus[:10]:
        _assert_reduced_gb(entry.gb)


def _worked_example_with_power(K):
    """The lex worked example with x^2 + 2*x*z replaced by x^K*z: ungraded,
    with a resolution of length 4."""
    return parse_input(f"ring 32003 w,x,y,z lp\nw*x+w*z+x^{K}*z-z^2\n"
                       "w*y-w*z-x*z-y*z-2*z^2\nx*y+z^2\n")


@pytest.mark.parametrize("K", [10, 20, 40])
def test_ungraded_family_basis_and_resolutions(K):
    # F4's loop finds K + 6 elements here, and the lead of one of them is
    # divided by a later, lower lead: the final step drops it and reduces
    # the tails of the rest
    doc = _worked_example_with_power(K)
    G = buchberger(doc.generators, doc.ring, doc.ordering)
    assert len(G.gens) == K + 5
    _assert_reduced_gb(G)
    ress = [resolve(doc.generators, doc.ring, doc.ordering, alg=alg, gb=G)
            for alg in ("reduce", "hybrid", "tree")]
    assert not ress[0].graded and ress[0].length == 4
    text = serialize_resolution(ress[0])
    assert all(serialize_resolution(res) == text for res in ress[1:])
    assert all(res.check_complex() for res in ress)


@st.composite
def _small_inputs(draw):
    """An ideal or a rank-2 module (twists in {0, 1}) over 2-3 variables:
    1-4 vectors of 1-4 terms of degree <= 3, not all homogeneous."""
    nv = draw(st.integers(2, 3))
    ring = Ring(draw(st.sampled_from([7, 32003])),
                tuple(f"x{i}" for i in range(nv)))
    base = BaseOrdering(draw(st.sampled_from(["dp", "lp"])), nv)
    rank = draw(st.sampled_from([1, 2]))
    twists = tuple(draw(st.lists(st.integers(0, 1), min_size=rank,
                                 max_size=rank)))
    term = st.tuples(st.lists(st.integers(0, nv - 1), max_size=3),
                     st.integers(0, rank - 1), st.integers(1, ring.p - 1))
    gens = []
    for terms in draw(st.lists(st.lists(term, min_size=1, max_size=4),
                               min_size=1, max_size=4)):
        g: Vec = {}
        for factors, comp, c in terms:
            exps = [0] * nv
            for v in factors:
                exps[v] += 1
            mm = (ring.mono(exps), comp)
            g[mm] = (g.get(mm, 0) + c) % ring.p
        gens.append({mm: c for mm, c in g.items() if c})
    assume(not all(is_homogeneous(g, twists) for g in gens))
    return ring, base, gens, rank, twists


@settings(max_examples=300, deadline=None)
@given(_small_inputs())
def test_buchberger_reduces_small_inhomogeneous_inputs(case):
    ring, base, gens, rank, twists = case
    G = buchberger(gens, ring, base, rank, twists)
    _assert_reduced_gb(G)
    for g in gens:
        assert not divide_with_remainder(g, G)[1]


def _gb_digest(ring, base, gens):
    gb = buchberger(gens, ring, base)
    text = serialize_input(InputDocument(ring, base, list(gb.gens)))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case, digest", [
    pytest.param("corpus", "3ff32a3101cf861cef20a705d8d954c0a40c9bf3a6a8d4db752f7d451ba5a30f",
                 id="corpus"),
    pytest.param(102, "076c278eb116f94687cbe95c1c72b2bb89f37ae0382f5dda33e794ebb058f450",
                 id="corpus-seed102"),
    pytest.param((5, 4, 12), "a300180e33f288606abc676a75837f8f12a19654505eae9fbb58eb2fea8f4fa5",
                 id="agr-5-4-12"),
    pytest.param((6, 5, 18), "f59704eab9d687088bf26dd007b1cc14a39f0389133d8fe645d05a39a0a064d7",
                 id="agr-6-5-18"),
    pytest.param((6, 5, 42), "0d22f385656132c630b72f46295acb4fcebf9e81d2cede52e3592231ab80a682",
                 id="agr-6-5-42"),
])
def test_reduced_gb_golden(request, case, digest):
    # digests of the serialized reduced bases as produced by the graded
    # engine that preceded the F4 one, which filled whole graded pieces:
    # the whole corpus (its per-ideal digests concatenated in seed order),
    # corpus seed 102 alone, and AGR ideals (n, d, s) with p=10007, seed 0
    if isinstance(case, tuple):
        ideal = gen_agr(AgrSpec(*case, p=10007, seed=0))
        base = BaseOrdering("dp", ideal.ring.nvars)
        got = _gb_digest(ideal.ring, base, ideal.generators)
    else:
        corpus = request.getfixturevalue("corpus")
        entries = corpus if case == "corpus" else [corpus[case]]
        got = "".join(_gb_digest(e.ring, e.base, e.gens) for e in entries)
        if case == "corpus":
            got = hashlib.sha256(got.encode()).hexdigest()
    assert got == digest


def test_module_groebner_basis():
    # rank-2 module input: columns carry the component
    ring = Ring(7, ("x", "y"))
    base = BaseOrdering("dp", 2)
    x, y = ring.mono([1, 0]), ring.mono([0, 1])
    gens = [{(x, 0): 1, (y, 1): 1}, {(y, 0): 1}]
    G = buchberger(gens, ring, base, rank=2)
    assert is_groebner(G)
    assert len(G.gens) >= 2


def test_groebner_basis_checks_its_chain_and_generators():
    ring = Ring(7, ("x", "y"))
    chain = OrderingChain(BaseOrdering("dp", 2))
    x = {(ring.mono([1, 0]), 0): 1}
    with pytest.raises(DomainError, match="chain has 0 levels; expected 1"):
        GroebnerBasis(ring, chain, [x], level=1)
    with pytest.raises(DomainError, match="must be nonzero"):
        GroebnerBasis(ring, chain, [x, {}])


def test_groebner_basis_reads_a_column_once(agr_5_4_12, monkeypatch):
    # a Column finds a term by scanning its keys, so GroebnerBasis copies a
    # column generator once instead of looking up each of its terms: the
    # bases of the differentials of AGR (5, 4, 12) look up no column term,
    # and equal, term for term and in order, the bases of dict copies; each
    # basis after the first is formed by the one before it
    res = agr_5_4_12[0]

    def bases(copy):
        mod = res.modules[0]
        G = GroebnerBasis(res.ring, OrderingChain(res.base),
                          [copy(c) for c in res.diffs[0]],
                          rank=mod.rank, twists=mod.twists)
        out = [G]
        for cols in res.diffs[1:]:
            out.append(out[-1].syzygy_basis([copy(c) for c in cols]))
        return [[list(g.items()) for g in G.gens] for G in out]

    want = bases(lambda col: dict(col.items()))
    lookups = []
    getitem = Column.__getitem__
    monkeypatch.setattr(Column, "__getitem__",
                        lambda col, mm: lookups.append(mm) or getitem(col, mm))
    assert bases(lambda col: col) == want
    assert lookups == [] and len(want) == res.length


def _sorted_monomials_of_degree(nvars, deg, base):
    """The enumeration monomials_of_degree used before it generated each
    ordering directly: stars and bars, then a sort by the ordering's key."""
    out = []
    for bars in itertools.combinations(range(deg + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(deg + nvars - 2 - prev)
        out.append((deg,) + tuple(exps))
    out.sort(key=base.key_func(), reverse=True)
    return out


def test_monomials_of_degree_sorted():
    base = BaseOrdering("dp", 3)
    ms = monomials_of_degree(3, 2, base)
    assert len(ms) == 6
    key = base.key_func()
    assert [key(m) for m in ms] == sorted((key(m) for m in ms), reverse=True)
    # the very list of the sorted enumeration: the pinned corpus draws
    # monomials from it by index
    for kind in ("dp", "lp"):
        for nvars in range(1, 8):
            base = BaseOrdering(kind, nvars)
            for deg in range(8):
                assert (monomials_of_degree(nvars, deg, base)
                        == _sorted_monomials_of_degree(nvars, deg, base)), \
                    (kind, nvars, deg)


# Reduced bases and ungraded resolutions pinned to the Buchberger pair loop
# that served inhomogeneous and module input before the F4 engine took over
# every input.  The cases are seeded; the digests concatenate the per-case
# digests in seed order, with PATHOLOGICAL last among the ideals: the pair
# loop spent over 100 times as long on it as F4 does.

PATHOLOGICAL = """ring 7 x0,x1,x2 lp
x0^2+x0-3*x2-3
-x0^3-3*x0^2*x2-3*x0*x2+x1^4+3*x2
-x0^3*x2-2*x0*x1*x2^2+x1^3*x2-3*x1
"""
N_IDEALS = 300
N_MODULES = 48


def _random_vec(rng, ring, nterms, pick):
    """Sum of nterms random terms; pick(rng) draws each (component, degree)."""
    g: Vec = {}
    for _ in range(nterms):
        comp, d = pick(rng)
        exps = [0] * ring.nvars
        for _ in range(d):
            exps[rng.randrange(ring.nvars)] += 1
        mm = (ring.mono(exps), comp)
        g[mm] = (g.get(mm, 0) + rng.randrange(1, ring.p)) % ring.p
    return {mm: c for mm, c in g.items() if c}


def _random_setting(rng):
    nv = rng.choice([2, 3, 3])
    ring = Ring(rng.choice([7, 32003]), tuple(f"x{i}" for i in range(nv)))
    return ring, BaseOrdering(rng.choice(["dp", "lp"]), nv)


def _random_ideal(seed):
    """2-3 generators of 2-5 terms of degree <= 4, not all homogeneous."""
    rng = random.Random(30_000 + seed)
    ring, base = _random_setting(rng)
    ngens = rng.randrange(2, 4)
    gens: list = []
    while len(gens) < ngens or all(is_homogeneous(g) for g in gens):
        g = _random_vec(rng, ring, rng.randrange(2, 6),
                        lambda r: (0, r.randrange(5)))
        if g:
            gens.append(g)
    return ring, base, gens, 1, (0,)


def _random_module(seed):
    """2-4 vectors of 2-4 terms in R^2 or R^3 with twists in {0, 1}; even
    seeds give vectors homogeneous for the twists, odd seeds need not."""
    rng = random.Random(40_000 + seed)
    ring, base = _random_setting(rng)
    rank = rng.choice([2, 3])
    twists = tuple(rng.randrange(2) for _ in range(rank))
    gens: list = []
    for _ in range(rng.randrange(2, 5)):
        if seed % 2 == 0:
            top = rng.randrange(1, 4) + max(twists)

            def pick(r):
                comp = r.randrange(rank)
                return comp, top - twists[comp]
        else:
            def pick(r):
                return r.randrange(rank), r.randrange(4)
        g = _random_vec(rng, ring, rng.randrange(2, 5), pick)
        if g:
            gens.append(g)
    return ring, base, gens, rank, twists


def _basis_text(ring, base, G):
    lines = [f"ring {ring.p} {','.join(ring.names)} {base.kind} rank {G.rank}"]
    for g in G.gens:
        lines.append(" ".join(
            f"{c + 1}:{poly_to_string(vec_component(g, c), ring, base)}"
            for c in sorted({mm[1] for mm in g})))
    return "\n".join(lines) + "\n"


def _digest(texts):
    return hashlib.sha256("".join(
        hashlib.sha256(t.encode()).hexdigest() for t in texts).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned_cases():
    doc = parse_input(PATHOLOGICAL)
    cases = {"ideals": [_random_ideal(s) for s in range(N_IDEALS)]
             + [(doc.ring, doc.ordering, doc.generators, 1, (0,))],
             "modules": [_random_module(s) for s in range(N_MODULES)]}
    return {kind: [(ring, base, gens, buchberger(gens, ring, base, rank, twists))
                   for ring, base, gens, rank, twists in entries]
            for kind, entries in cases.items()}


PINNED_GB_DIGESTS = {
    "ideals": "eb632c53e3e05f6c825fe78eb73f2b6c36cd784be671cb5888a3dde3cd17db2d",
    "modules": "d64af14b3613a1b2b54f4213df83cf43e263feab87fefcf2377ae83a62d79db7",
}


@pytest.mark.parametrize("kind", ["ideals", "modules"])
def test_gb_pinned_to_pair_loop(pinned_cases, kind):
    entries = pinned_cases[kind]
    for _, _, _, G in entries:
        _assert_reduced_gb(G)
    got = _digest(_basis_text(ring, base, G) for ring, base, _, G in entries)
    assert got == PINNED_GB_DIGESTS[kind]


PINNED_RES_DIGESTS = {
    "negdegrevlex": "6d3694937eb64217b0cdc1457fe9b45f1aacc93cd47bd707286efafe5e8be10e",
}


# keyed by the name of the one generator order between levels
@pytest.mark.parametrize("alg", ["reduce", "hybrid", "tree"])
@pytest.mark.parametrize("order", ["negdegrevlex"])
def test_ungraded_resolution_pinned_to_pair_loop(pinned_cases, order, alg):
    ress = [resolve(gens, ring, base, alg=alg, gb=G)
            for ring, base, gens, G in pinned_cases["ideals"]]
    assert all(res.check_complex() for res in ress)
    got = _digest(serialize_resolution(res) for res in ress)
    assert got == PINNED_RES_DIGESTS[order]


PINNED_MODULE_RES_DIGEST = "01a81bc691bc9e240fb3cbe1fb3d5361808f42d47edf963d639dcd1352e0e279"


def test_module_resolutions_pinned(pinned_cases):
    # the three strategies give one resolution of each module input, a
    # complex; on the graded inputs (the even seeds) its Betti numbers match
    # the Hilbert numerator and those of its minimization
    texts = []
    n_graded = 0
    for ring, base, gens, G in pinned_cases["modules"]:
        ress = [resolve(gens, ring, base, alg=alg, rank0=G.rank,
                        twists0=G.twists, gb=G)
                for alg in ("reduce", "hybrid", "tree")]
        text = serialize_resolution(ress[0])
        assert all(serialize_resolution(res) == text for res in ress[1:])
        assert all(res.check_complex() for res in ress)
        texts.append(text)
        res = ress[-1]
        if res.graded:
            n_graded += 1
            assert betti_nonminimal(res).euler() == hilbert_numerator(
                G.lms, ring.nvars, twists0=G.twists)
            assert (betti_nonminimal(minimize(res))
                    == betti_minimal_from_nonminimal(res))
    assert n_graded == N_MODULES // 2
    assert _digest(texts) == PINNED_MODULE_RES_DIGEST
