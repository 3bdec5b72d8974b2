"""Benchmark ideal generation: apolar (Artinian graded Gorenstein) ideals of
sums of powers of random linear forms, plus dense random homogeneous ideals
for property testing.

A form f = l_1^d + ... + l_s^d is represented by its divided-power
coordinates u_beta = sum_i a_i^beta (the coefficient of x^beta in f divided
by the multinomial coefficient).  In these coordinates the degree-e
catalecticant is Cat_e[gamma, alpha] = u_{alpha+gamma}; its kernel is the
degree-e piece of the annihilator ideal, and the ideal is generated in
degrees <= d+1.

Minimal generators come degree by degree, for e = 1..d+1.  In degree e <= d
they are the vectors g_j of the canonical kernel basis of Cat_e that do not
lie in W + <g_i : i < j>, where W = R_1 * Ann_{e-1} is spanned by the shifts
x_v * Ann_{e-1}.  Only the shifts are eliminated, never the kernel rows.
Let c_1 < c_2 < ... be the free columns of the RREF of Cat_e: g_j is 1 at c_j,
0 at every other c_i and elsewhere nonzero only at pivot columns.  An element
w of Ann_e is sum_j w[c_j] g_j, as the difference is a kernel vector that
vanishes on the free columns; W lies in Ann_e, as Ann is an ideal.  So g_j
is in W + <g_i : i < j> exactly when some w in W has w[c_j] = 1 and
w[c_i] = 0 for every i > j (then g_j = w - sum_{i<j} w[c_i] g_i, and
conversely), that is, when j is the last nonzero free coordinate of some w
in W.  These j are the pivot columns of the shifts written in the free
coordinates in reverse order, c_k, ..., c_1, and brought to echelon form;
every other g_j is a new generator.  In degree d+1 every form annihilates,
and the new generators are the monomials at the non-pivot columns of the
shifted rows.

There are none when h_1 >= 2, and that span is then skipped.  A functional
F on R_{d+1} that kills R_1 * Ann_d is a divided-power form of degree d+1
whose contractions x_v o F are killed by Ann_d, so that x_v o F = c_v f for
every v (the forms of degree d that Ann_d kills are the multiples of f).
If F != 0, some c_u != 0, since contracting by the variables loses no
nonzero divided-power form of positive degree.  Then for every w,
c_u (x_w o f) = x_w x_u o F = c_w (x_u o f): all first partials of f are
proportional, and h_1, the dimension of their span, is at most 1.  So for
h_1 >= 2 no such F exists and R_1 * Ann_d = R_{d+1}.
"""

from __future__ import annotations

import random

from .algebra import (DomainError, Ring, check_characteristic, mono_div,
                      mono_exponents, mono_from_exponents, mono_mul)
from . import linalg
from .orderings import BaseOrdering
from .groebner import monomials_of_degree


class AgrSpec:
    """Parameters for an apolar Gorenstein ideal: n+1 variables, socle degree
    d, s random linear forms over F_p, seeded RNG."""

    __slots__ = ("n", "d", "s", "p", "seed")

    def __init__(self, n: int, d: int, s: int, p: int, seed: int = 0):
        if n < 1 or d < 1 or s < 1:
            raise DomainError("AGR parameters must satisfy n, d, s >= 1")
        check_characteristic(p)
        if p <= d:
            raise DomainError("AGR characteristic must exceed d")
        self.n = n
        self.d = d
        self.s = s
        self.p = p
        self.seed = seed


class AgrIdeal:
    """Generated apolar ideal with the data needed for verification."""

    __slots__ = ("spec", "ring", "generators", "hilbert", "forms", "contraction")

    def __init__(self, spec: AgrSpec, ring: Ring, generators: list,
                 hilbert: list, forms: list, contraction: dict):
        self.spec = spec
        self.ring = ring
        self.generators = generators    # minimal homogeneous generators, as vectors
        self.hilbert = hilbert          # h_e = rank of Cat_e for e = 0..d
        self.forms = forms              # coefficient rows of the linear forms
        self.contraction = contraction  # divided-power coordinates u_beta, |beta| <= d


MAX_RETRIES = 5  # fresh draws of the linear forms before giving up


def gen_agr(spec: AgrSpec) -> AgrIdeal:
    """Apolar ideal of f = l_1^d + ... + l_s^d for seeded random linear
    forms, as a minimal homogeneous generating set.

    Deterministic per spec: the MAX_RETRIES draws allowed for a degenerate
    form come from one seeded stream.  Linear forms are uniform with a
    nonzero first coefficient.
    """
    p, d = spec.p, spec.d
    nv = spec.n + 1
    ring = Ring(p, tuple(f"x{i}" for i in range(nv)))
    base = BaseOrdering("dp", nv)
    rng = random.Random(spec.seed)
    monos = {e: monomials_of_degree(nv, e, base) for e in range(d + 1)}
    variables = [mono_from_exponents(int(w == v) for w in range(nv))
                 for v in range(nv)]
    # each monomial of positive degree as (v, m / x_v), x_v its first variable
    factor = {m: next((v, mono_div(m, variables[v]))
                      for v, x in enumerate(mono_exponents(m)) if x)
              for e in range(1, d + 1) for m in monos[e]}
    for _ in range(MAX_RETRIES):
        forms = [[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(nv - 1)]
                 for _ in range(spec.s)]
        coeffs = list(zip(*forms))  # coeffs[v][i] = a_{i,v}
        # at[m][i] = m(a_i), so u_beta = sum_i at[x^beta][i]
        at = {monos[0][0]: [1] * spec.s}
        for e in range(1, d + 1):
            for m in monos[e]:
                v, rest = factor[m]
                at[m] = [x * a % p for x, a in zip(at[rest], coeffs[v])]
        u = {m: sum(values) % p for m, values in at.items()}
        if any(u[m] for m in monos[d]):
            break
    else:
        raise DomainError("degenerate apolar form after retries")

    index = {e: {m: i for i, m in enumerate(ms)} for e, ms in monos.items()}
    generators: list = []
    hilbert = [1]
    kernel_prev: list = []  # Ann_0 = 0
    for e in range(1, d + 2):
        if e > d:
            if hilbert[1] >= 2:
                break  # R_1 * Ann_d = R_{d+1}, see the module docstring
            monos[e] = monomials_of_degree(nv, e, base)
            index[e] = {m: i for i, m in enumerate(monos[e])}
        cols = monos[e]
        keys = [(m, 0) for m in cols]  # every generator's terms share them
        # shift_pos[v][i] is the index of x_v * m_i, m_i in monos[e - 1]
        shift_pos = [[index[e][mono_mul(m, x)] for m in monos[e - 1]]
                     for x in variables]
        if e <= d:
            cat = [{i: u[mono_mul(alpha, gamma)] for i, alpha in enumerate(cols)}
                   for gamma in monos[d - e]]
            kernel, free = linalg.kernel_basis(cat, len(cols), p)
            hilbert.append(len(cols) - len(free))
            # R_1 * Ann_{e-1} in the free coordinates of Ann_e, reversed
            coord = [-1] * len(cols)
            for k, f in enumerate(reversed(free)):
                coord[f] = k
            shifts = _shifted(kernel_prev, shift_pos, coord)
            trailing = {len(free) - 1 - c for _, c in linalg.echelon(shifts, p)}
            generators += [{keys[i]: x for i, x in kernel[j].items()}
                           for j in range(len(free)) if j not in trailing]
            kernel_prev = kernel
        else:
            # everything annihilates: new generators complement R_1 * Ann_d
            span = _shifted(kernel_prev, shift_pos, list(range(len(cols))))
            pivcols = {c for _, c in linalg.echelon(span, p)}
            generators += [{mm: 1} for ci, mm in enumerate(keys)
                           if ci not in pivcols]
    return AgrIdeal(spec, ring, generators, hilbert, forms, u)


def _shifted(kernel: list, shift_pos: list, coord: list) -> list:
    """The rows x_v * g as {column: value}, one block per variable v and in
    it one row per row g of ``kernel``.  ``shift_pos[v][i]`` is the index
    of x_v * m_i, and the coefficient of monomial j goes to column
    ``coord[j]``, or is dropped where that is negative."""
    out = []
    for pos in shift_pos:
        for g in kernel:
            row = {}
            for i, x in g.items():
                t = coord[pos[i]]
                if t >= 0:
                    row[t] = x
            out.append(row)
    return out


def gen_random_homogeneous(n_vars: int, degrees, p: int, seed: int):
    """Dense random forms of the given degrees: every monomial gets a
    uniform nonzero coefficient, drawn in descending dp order.
    Deterministic per seed.  The forms of one degree share their keys: each
    degree's module monomials are formed once per call."""
    ring = Ring(p, tuple(f"x{i}" for i in range(n_vars)))
    base = BaseOrdering("dp", n_vars)
    rng = random.Random(seed)
    keys: dict = {}  # degree -> its module monomials
    out = []
    for d in degrees:
        if d not in keys:
            keys[d] = [(m, 0) for m in monomials_of_degree(n_vars, d, base)]
        out.append({mm: rng.randrange(1, p) for mm in keys[d]})
    return ring, out
