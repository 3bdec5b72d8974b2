"""Shared fixtures: the lex worked example over F_32003, the seeded
random-ideal corpus with precomputed resolutions, and the AGR ideal
(5, 4, 12) resolved and minimized."""

import random
from dataclasses import dataclass, field

import pytest

from syzkit.algebra import OpCounters, Ring
from syzkit.orderings import BaseOrdering
from syzkit.groebner import GroebnerBasis, buchberger, monomials_of_degree
from syzkit.examples_gen import AgrSpec, gen_agr, gen_random_homogeneous
from syzkit.resolution import minimize, resolve
from syzkit.cli import parse_input, parse_polynomial

SEC5_TEXT = """ring 32003 w,x,y,z lp
w*x+w*z+x^2+2*x*z-z^2
w*y-w*z-x*z-y*z-2*z^2
x*y+z^2
"""


@dataclass
class Sec5:
    ring: Ring
    base: BaseOrdering
    gens: list
    gb: GroebnerBasis
    ext: object  # chain with the induced level for F_1
    frame_terms: list
    syz1: dict
    syz2: dict

    def mono(self, expr: str):
        vec = parse_polynomial(expr, self.ring)
        ((m, _), c) = next(iter(vec.items()))
        assert c == 1 and len(vec) == 1
        return m

    def mm(self, expr: str, comp: int):
        return (self.mono(expr), comp - 1)

    def vec(self, parts):
        """Vector from {1-based component: polynomial string}."""
        out = {}
        for comp, expr in parts.items():
            for (m, _), c in parse_polynomial(expr, self.ring).items():
                out[(m, comp - 1)] = c
        return out


@pytest.fixture(scope="session")
def sec5():
    doc = parse_input(SEC5_TEXT)
    gb = buchberger(doc.generators, doc.ring, doc.ordering)
    ext = gb.chain.extend(gb.lms)
    s = Sec5(doc.ring, doc.ordering, doc.generators, gb, ext, [], {}, {})
    s.frame_terms = [s.mm("x", 2), s.mm("w", 3)]
    s.syz1 = s.vec({1: "-y+z", 2: "x+z", 3: "x+3z"})
    s.syz2 = s.vec({1: "-y", 2: "z", 3: "w+x+2z"})
    return s


@dataclass
class CorpusEntry:
    seed: int
    ring: Ring
    base: BaseOrdering
    gens: list
    gb: GroebnerBasis
    resolutions: dict = field(default_factory=dict)  # alg -> Resolution
    counters: dict = field(default_factory=dict)     # alg -> OpCounters


CORPUS_SIZE = 200


def _corpus_params(seed: int):
    rng = random.Random(10_000 + seed)
    nv = rng.choice([2, 2, 3, 3, 3, 4])
    ng = rng.randrange(2, 6)
    degs = [rng.choice([1, 2, 2, 2, 3, 3]) for _ in range(ng)]
    kind = rng.choice(["dp", "dp", "lp"])
    monomial = seed % 5 == 0
    return rng, nv, ng, degs, kind, monomial


def make_corpus_entry(seed: int, algs=("reduce", "hybrid", "tree")):
    rng, nv, ng, degs, kind, monomial = _corpus_params(seed)
    base = BaseOrdering(kind, nv)
    if monomial:
        ring = Ring(32003, tuple(f"x{i}" for i in range(nv)))
        gens = [{(rng.choice(monomials_of_degree(nv, d, base)), 0): 1}
                for d in degs]
    else:
        ring, gens = gen_random_homogeneous(nv, degs, 32003, seed)
    gb = buchberger(gens, ring, base)
    entry = CorpusEntry(seed, ring, base, gens, gb)
    for alg in algs:
        ctr = OpCounters()
        entry.resolutions[alg] = resolve(gens, ring, base, alg=alg,
                                         counters=ctr, gb=gb)
        entry.counters[alg] = ctr
    return entry


@pytest.fixture(scope="session")
def corpus():
    return [make_corpus_entry(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def agr_5_4_12():
    """The tree resolution of AGR (5, 4, 12), p=10007, seed 0, and its
    minimization."""
    ideal = gen_agr(AgrSpec(5, 4, 12, p=10007, seed=0))
    res = resolve(ideal.generators, ideal.ring,
                  BaseOrdering("dp", ideal.ring.nvars))
    return res, minimize(res)
