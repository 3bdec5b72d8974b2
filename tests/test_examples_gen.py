import hashlib
import json
import random
from math import comb, prod

import pytest

from syzkit import linalg
from syzkit.algebra import (DomainError, mono_deg, mono_exponents,
                            mono_from_exponents, mono_mul)
from syzkit.cli import InputDocument, serialize_input
from syzkit.orderings import BaseOrdering
from syzkit.examples_gen import AgrSpec, gen_agr, gen_random_homogeneous
from syzkit.groebner import monomials_of_degree

from oracles import contract, ref_span_rows


def test_spec_validation():
    AgrSpec(n=2, d=3, s=4, p=10007)
    with pytest.raises(DomainError):
        AgrSpec(n=0, d=3, s=4, p=10007)
    with pytest.raises(DomainError):
        AgrSpec(n=2, d=3, s=4, p=10008)
    with pytest.raises(DomainError):
        AgrSpec(n=2, d=5, s=4, p=5)  # p must exceed d


def test_binary_cubic_single_power():
    # one cube of a binary linear form: annihilator is a linear form plus a
    # quartic, with Hilbert function (1, 1, 1, 1)
    ideal = gen_agr(AgrSpec(n=1, d=3, s=1, p=10007, seed=5))
    degs = sorted(mono_deg(next(iter(g))[0]) for g in ideal.generators)
    assert degs == [1, 4]
    assert ideal.hilbert == [1, 1, 1, 1]


def test_ternary_quadric_single_power():
    ideal = gen_agr(AgrSpec(n=2, d=2, s=1, p=10007, seed=1))
    degs = sorted(mono_deg(next(iter(g))[0]) for g in ideal.generators)
    assert degs == [1, 1, 3]
    assert ideal.hilbert == [1, 1, 1]


def test_generic_hilbert_function():
    spec = AgrSpec(n=3, d=3, s=5, p=10007, seed=2)
    ideal = gen_agr(spec)
    expected = [min(comb(spec.n + e, spec.n), spec.s,
                    comb(spec.n + spec.d - e, spec.n))
                for e in range(spec.d + 1)]
    assert ideal.hilbert == expected


def test_hilbert_symmetry():
    for seed in range(4):
        spec = AgrSpec(n=2, d=4, s=3 + seed, p=10007, seed=seed)
        h = gen_agr(spec).hilbert
        assert h == h[::-1]


def test_apolarity_contract():
    spec = AgrSpec(n=2, d=3, s=4, p=10007, seed=9)
    ideal = gen_agr(spec)
    base = BaseOrdering("dp", spec.n + 1)
    for g in ideal.generators:
        assert contract(g, ideal.contraction, spec.p, spec.n + 1,
                        spec.d, base) == {}
    # a random non-annihilating probe does not contract to zero
    probe = {(ideal.ring.mono([1, 0, 0]), 0): 1}
    assert contract(probe, ideal.contraction, spec.p, spec.n + 1,
                    spec.d, base) != {}
    # a form of degree above d contracts every form of degree d to zero
    high = {(ideal.ring.mono([spec.d + 1, 0, 0]), 0): 1}
    assert contract(high, ideal.contraction, spec.p, spec.n + 1,
                    spec.d, base) == {}


def test_determinism():
    a = gen_agr(AgrSpec(n=2, d=3, s=3, p=10007, seed=7))
    b = gen_agr(AgrSpec(n=2, d=3, s=3, p=10007, seed=7))
    assert a.generators == b.generators and a.forms == b.forms
    c = gen_agr(AgrSpec(n=2, d=3, s=3, p=10007, seed=8))
    assert c.generators != a.generators


def test_gen_random_homogeneous():
    ring, gens = gen_random_homogeneous(4, [2, 2, 2], 32003, 3)
    assert len(gens) == 3
    for g in gens:
        assert len(g) == comb(2 + 3, 3)  # dense quadric in 4 variables
        assert all(mono_deg(m) == 2 for m, _ in g)
        assert all(1 <= c < 32003 for c in g.values())
    ring2, gens2 = gen_random_homogeneous(4, [2, 2, 2], 32003, 3)
    assert gens == gens2
    _, gens3 = gen_random_homogeneous(4, [2, 2, 2], 32003, 4)
    assert gens != gens3


@pytest.mark.parametrize("n,d,s,p,seed,digest", [
    (5, 4, 12, 10007, 0,
     "5f37aa7cdad3c8d15d4fb81efac73c0c51bac81eec611c76625f95b1db42fdcd"),
    (6, 5, 18, 10007, 0,
     "399aa3e95158bf922c1ebc3131996bb11a41780e4b1c024c206c17849b877e01"),
    (6, 5, 42, 10007, 0,
     "dbf5a3bb1a1964f3a255fbb38653b9810d15f2098223474c262ab76ebfa33298"),
    (3, 3, 5, 2147483647, 2,
     "bf4d047ac435170829a0434ab9e44513c9a3413cbdc30e42ed474b5f16cd4194"),
    (4, 4, 9, 2147483647, 1,
     "74fd32b9545e47b38bbe79ac486b111f00c7f13b7a444a722eafb3a4128116b8"),
    # generators in degrees 3 and 4
    (6, 5, 30, 10007, 0,
     "23020152f70b17756391b6ae5dad02d897366be53f169dbbe20e3ae879f45006"),
    # generators in degrees 1, 2 and 4
    (3, 4, 3, 11, 4,
     "aa4440c980d9a649f0151921feccd95c8ff787531071f0db7ca576fde97a049e"),
    # (d+1)^(n+1) > 2^63: radix codes of the monomials would wrap in int64
    (40, 2, 5, 10007, 0,
     "c44f70c0546f1f0b2710c8ce77d8aea9ba858e0d396af13cd852acc290ea0d26"),
    (63, 1, 3, 10007, 0,
     "59925a5840b7372d6b41f88d059dd3ae936a92659558e9157b6d9c6e10714724"),
])
def test_gen_agr_golden(n, d, s, p, seed, digest):
    # digests of the serialized generators: the first five as produced by
    # the row-by-row elimination that preceded syzkit.linalg, the last four
    # by one elimination of the shifts and the whole kernel basis per
    # degree; same ideals, same term order
    ideal = gen_agr(AgrSpec(n, d, s, p, seed))
    text = serialize_input(InputDocument(ideal.ring, BaseOrdering("dp", n + 1),
                                         ideal.generators))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,d,s,p,seed,digest", [
    (6, 5, 42, 10007, 0,
     "2dbe3d22439b830f76b9716c7eda88767c7792081ddb40566d1d8de8e346d29f"),
    (5, 4, 12, 10007, 0,
     "87f04a5e2c996d10c146f38ee0e17c6d3553211197f5e7b3cdddd24f97e26f7f"),
])
def test_forms_and_contraction_golden(n, d, s, p, seed, digest):
    # the linear forms and every divided-power coordinate u_beta, |beta| <= d,
    # as the per-monomial loops of pow computed them
    ideal = gen_agr(AgrSpec(n, d, s, p, seed))
    assert len(ideal.contraction) == comb(n + 1 + d, d)
    doc = json.dumps({"forms": ideal.forms,
                      "contraction": sorted([[mono_deg(m), *mono_exponents(m)], c]
                                            for m, c in ideal.contraction.items())})
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _span_specs(count):
    """Seeded small specs: n <= 3, d <= 4, s <= 8 (one in four s = 1)."""
    rng = random.Random(2024)
    specs = []
    for i in range(count):
        p = (7, 11, 10007, 2**31 - 1)[i % 4]
        d = rng.randint(1, min(4, p - 1))
        s = 1 if i % 4 == 3 else rng.randint(1, 8)
        specs.append((rng.randint(1, 3), d, s, p, rng.randrange(100)))
    return specs


def test_contraction_is_the_power_sum():
    # u_beta = sum_i prod_v a_{i,v}^{beta_v}, with Python integers
    for n, d, s, p, seed in _span_specs(64):
        ideal = gen_agr(AgrSpec(n, d, s, p, seed))
        for m, c in ideal.contraction.items():
            total = sum(prod(pow(x, b, p) for x, b in zip(a, mono_exponents(m)))
                        for a in ideal.forms)
            assert c == total % p


@pytest.mark.parametrize("n,d,s,p,seed", _span_specs(64))
def test_generators_are_the_rows_that_enlarge_the_span(n, d, s, p, seed):
    # in each degree e <= d the generators are exactly the kernel rows that
    # enlarge the span of [x_v * Ann_{e-1} for every v; Ann_e], taken in
    # order, with Ann_e the canonical kernel basis of the catalecticant
    # built from the contraction coordinates
    ideal = gen_agr(AgrSpec(n, d, s, p, seed))
    u, nv = ideal.contraction, n + 1
    base = BaseOrdering("dp", nv)
    prev, prev_monos = [], monomials_of_degree(nv, 0, base)
    for e in range(1, d + 1):
        cols = monomials_of_degree(nv, e, base)
        index = {m: c for c, m in enumerate(cols)}
        cat = [[u[mono_mul(a, g)] for a in cols]
               for g in monomials_of_degree(nv, d - e, base)]
        basis = linalg.kernel_basis(
            [dict(enumerate(row)) for row in cat], len(cols), p)[0]
        kernel = [[g.get(c, 0) for c in range(len(cols))] for g in basis]
        shifts = []
        for v in range(nv):
            x_v = mono_from_exponents(int(w == v) for w in range(nv))
            for g in prev:
                row = [0] * len(cols)
                for m, c in zip(prev_monos, g):
                    row[index[mono_mul(m, x_v)]] = c
                shifts.append(row)
        chosen = [r - len(shifts) for r in ref_span_rows(shifts + kernel, p)
                  if r >= len(shifts)]
        expected = [{(cols[c], 0): x for c, x in enumerate(kernel[j]) if x}
                    for j in chosen]
        assert [g for g in ideal.generators
                if mono_deg(next(iter(g))[0]) == e] == expected
        prev, prev_monos = kernel, cols


def _top_span_rank(ideal):
    """Rank of R_1 * Ann_d in degree d+1, built from the contraction
    coordinates alone: Ann_d is the kernel of the one-row catalecticant
    u_alpha, |alpha| = d, shifted by every variable."""
    spec, u = ideal.spec, ideal.contraction
    nv = spec.n + 1
    base = BaseOrdering("dp", nv)
    low = monomials_of_degree(nv, spec.d, base)
    top = monomials_of_degree(nv, spec.d + 1, base)
    index = {m: c for c, m in enumerate(top)}
    kernel, _ = linalg.kernel_basis([{c: u[m] for c, m in enumerate(low)}],
                                    len(low), spec.p)
    span = []
    for v in range(nv):
        shift = [index[mono_from_exponents(
                     e + (w == v) for w, e in enumerate(mono_exponents(m)))]
                 for m in low]
        span += [{shift[c]: x for c, x in g.items()} for g in kernel]
    return linalg.rank(span, spec.p), len(top)


@pytest.mark.parametrize("n,d,s,p,seed", [
    (1, 3, 2, 7, 0), (2, 2, 2, 11, 1), (2, 3, 3, 10007, 2), (3, 2, 5, 7, 3),
    (3, 4, 3, 11, 4), (2, 5, 8, 10007, 5), (4, 3, 2, 10007, 6),
])
def test_top_degree_span_is_full_when_h1_at_least_2(n, d, s, p, seed):
    # the span gen_agr skips for h_1 >= 2 is all of R_{d+1}, so skipping it
    # loses no generator
    ideal = gen_agr(AgrSpec(n, d, s, p, seed))
    assert ideal.hilbert[1] >= 2
    rank, dim = _top_span_rank(ideal)
    assert rank == dim
    assert all(mono_deg(next(iter(g))[0]) <= d for g in ideal.generators)


@pytest.mark.parametrize("n,d,p,seed", [
    (1, 3, 7, 0), (2, 2, 11, 1), (2, 4, 10007, 2), (3, 3, 10007, 3),
])
def test_single_power_keeps_top_degree_generators(n, d, p, seed):
    # s = 1 has h_1 = 1: the degree-(d+1) generators complement R_1 * Ann_d
    ideal = gen_agr(AgrSpec(n, d, 1, p, seed))
    assert ideal.hilbert[1] == 1
    rank, dim = _top_span_rank(ideal)
    top = [g for g in ideal.generators if mono_deg(next(iter(g))[0]) == d + 1]
    assert 0 < len(top) == dim - rank
