"""Minimal Betti tables known in closed form, on sparse binomial and
determinantal inputs and on complete intersections.

* The rational normal curve of degree n in P^n is cut out by the 2x2
  minors of the Hankel matrix [x0 .. x(n-1); x1 .. xn], C(n, 2) binomial
  quadrics.  Its Eagon-Northcott resolution has beta_{i,i+1} = i C(n, i+1)
  for 1 <= i <= n - 1 (Eisenbud, The Geometry of Syzygies, ch. 6).
* The maximal minors of a generic p x q matrix of distinct variables are
  resolved minimally by the Eagon-Northcott complex (Eagon and Northcott,
  Proc. Roy. Soc. A 269, 1962): beta_{i,p+i-1} = C(q, p+i-1) C(p+i-2, i-1)
  for 1 <= i <= q - p + 1.
* n generic forms in n variables form a regular sequence, resolved
  minimally by the Koszul complex: beta_{i,j} is the number of i-subsets
  of the degrees that sum to j (ibid., ch. 1).

Each closed form must equal both minimal tables syzkit gives: the one
read off the strand ranks and the shape of the minimized resolution.
"""

import itertools
import random
from math import comb

import pytest

from syzkit.cli import parse_input, serialize_resolution
from syzkit.examples_gen import gen_random_homogeneous
from syzkit.groebner import buchberger
from syzkit.orderings import BaseOrdering
from syzkit.resolution import (BettiTable, betti_minimal_from_nonminimal,
                               betti_nonminimal, minimize, resolve)

from oracles import linear_change

P = 32003


def rnc_text(n: int) -> str:
    """The 2x2 minors x_i x_(j+1) - x_(i+1) x_j, i < j < n, of the Hankel
    matrix of the rational normal curve of degree n."""
    names = [f"x{i}" for i in range(n + 1)]
    minors = [f"x{i}*x{j + 1}-x{i + 1}*x{j}"
              for i, j in itertools.combinations(range(n), 2)]
    return "\n".join([f"ring {P} {','.join(names)} dp", *minors]) + "\n"


def _det(m: list) -> list:
    """The terms (sign, factors) of the determinant of a square matrix of
    variable names, by the Leibniz formula."""
    out = []
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out.append(((-1) ** inversions, [m[r][c] for r, c in enumerate(perm)]))
    return out


def minors_text(p: int, q: int) -> str:
    """The maximal minors of the generic p x q matrix (x_r_c)."""
    m = [[f"x{r}_{c}" for c in range(q)] for r in range(p)]
    names = [x for row in m for x in row]
    lines = [f"ring {P} {','.join(names)} dp"]
    for cols in itertools.combinations(range(q), p):
        terms = _det([[row[c] for c in cols] for row in m])
        lines.append("".join(("+" if s > 0 else "-") + "*".join(f)
                             for s, f in terms))
    return "\n".join(lines) + "\n"


def rnc_table(n: int) -> BettiTable:
    return BettiTable({(0, 0): 1, **{(i, i + 1): i * comb(n, i + 1)
                                     for i in range(1, n)}})


def minors_table(p: int, q: int) -> BettiTable:
    return BettiTable({(0, 0): 1, **{(i, p + i - 1): comb(q, p + i - 1)
                                     * comb(p + i - 2, i - 1)
                                     for i in range(1, q - p + 2)}})


def koszul_table(degrees) -> BettiTable:
    data: dict = {}
    for i in range(len(degrees) + 1):
        for subset in itertools.combinations(degrees, i):
            data[i, sum(subset)] = data.get((i, sum(subset)), 0) + 1
    return BettiTable(data)


def minimal_tables(gens, ring, base):
    """The minimal table from the strand ranks and from minimize."""
    res = resolve(gens, ring, base)
    mres = minimize(res)
    assert mres.minimal and mres.check_complex()
    return betti_minimal_from_nonminimal(res), betti_nonminimal(mres)


def _assert_strategies_agree(doc):
    gb = buchberger(doc.generators, doc.ring, doc.ordering)
    out = {alg: serialize_resolution(resolve(doc.generators, doc.ring,
                                             doc.ordering, alg=alg, gb=gb))
           for alg in ("reduce", "hybrid", "tree")}
    assert out["reduce"] == out["hybrid"] == out["tree"]


@pytest.mark.parametrize("n", range(4, 10))
def test_rational_normal_curve(n):
    doc = parse_input(rnc_text(n))
    want = rnc_table(n)
    assert minimal_tables(doc.generators, doc.ring, doc.ordering) == (want, want)
    _assert_strategies_agree(doc)


@pytest.mark.parametrize("n", range(4, 8))
def test_rational_normal_curve_changed_coordinates(n):
    # the seeded linear change of coordinates of the invariance test turns
    # the binomials into dense quadrics with the same minimal table
    doc = parse_input(rnc_text(n))
    gens = linear_change(doc.generators, doc.ring, random.Random(n))
    want = rnc_table(n)
    assert minimal_tables(gens, doc.ring, doc.ordering) == (want, want)


@pytest.mark.parametrize("shape", [(2, q) for q in range(2, 8)] + [(3, 6)],
                         ids=lambda shape: "%dx%d" % shape)
def test_generic_maximal_minors(shape):
    doc = parse_input(minors_text(*shape))
    want = minors_table(*shape)
    assert minimal_tables(doc.generators, doc.ring, doc.ordering) == (want, want)
    if shape[0] == 2:  # binomial
        _assert_strategies_agree(doc)


@pytest.mark.parametrize("degrees", [(2, 2, 3, 3), (2, 2, 2, 2, 2),
                                     (2, 2, 2, 2, 2, 2)],
                         ids=lambda degrees: ",".join(map(str, degrees)))
def test_complete_intersection(degrees):
    ring, gens = gen_random_homogeneous(len(degrees), degrees, P, seed=len(degrees))
    base = BaseOrdering("dp", ring.nvars)
    want = koszul_table(sorted(degrees))
    assert minimal_tables(gens, ring, base) == (want, want)


def test_not_a_regular_sequence():
    # x0^2, x0 x1 share the factor x0: one linear syzygy, and no Koszul
    # syzygy in degree 4
    doc = parse_input(f"ring {P} x0,x1 dp\nx0^2\nx0*x1\n")
    strands, shape = minimal_tables(doc.generators, doc.ring, doc.ordering)
    assert strands == shape == BettiTable({(0, 0): 1, (1, 2): 2, (2, 3): 1})
    assert strands != koszul_table([2, 2])
