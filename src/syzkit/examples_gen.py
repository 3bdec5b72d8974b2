"""Benchmark ideal generation: apolar (Artinian graded Gorenstein) ideals of
sums of powers of random linear forms, plus dense random homogeneous ideals
for property testing.

A form f = l_1^d + ... + l_s^d is represented by its divided-power
coordinates u_beta = sum_i a_i^beta (the coefficient of x^beta in f divided
by the multinomial coefficient).  In these coordinates the degree-e
catalecticant is Cat_e[gamma, alpha] = u_{alpha+gamma}; its kernel is the
degree-e piece of the annihilator ideal, and the ideal is generated in
degrees <= d+1.

Minimal generators come degree by degree, for e = 1..d+1.  One matrix holds
the shifts x_v * Ann_{e-1} (spanning R_1 * Ann_{e-1}) followed by the
canonical kernel basis of Cat_e, and is brought to echelon form once; the
kernel vectors that enlarge the span of the rows above them are the new
generators.  In degree d+1 every form annihilates, and the new generators are
the monomials at the non-pivot columns of the shifted rows.

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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import DomainError, Ring, Vec, is_prime, mono_mul
from . import linalg
from .orderings import BaseOrdering
from .groebner import monomials_of_degree


@dataclass(frozen=True)
class AgrSpec:
    """Parameters for an apolar Gorenstein ideal: n+1 variables, socle degree
    d, s random linear forms over F_p, seeded RNG."""

    n: int
    d: int
    s: int
    p: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.s < 1:
            raise DomainError("AGR parameters must satisfy n, d, s >= 1")
        if not is_prime(self.p) or self.p <= self.d:
            raise DomainError("AGR characteristic must be a prime > d")


@dataclass
class AgrIdeal:
    """Generated apolar ideal with the data needed for verification."""

    spec: AgrSpec
    ring: Ring
    generators: list          # minimal homogeneous generators, as vectors
    hilbert: list             # h_e = rank of Cat_e for e = 0..d
    forms: list               # coefficient rows of the linear forms
    contraction: dict         # divided-power coordinates u_beta, |beta| <= d


MAX_RETRIES = 5  # fresh draws of the linear forms before giving up


def gen_agr(spec: AgrSpec) -> AgrIdeal:
    """Apolar ideal of f = l_1^d + ... + l_s^d for seeded random linear
    forms, as a minimal homogeneous generating set.

    Deterministic per spec: the MAX_RETRIES draws allowed for a degenerate
    form come from one seeded stream.  Linear forms are uniform with a
    nonzero first coefficient.
    """
    p = spec.p
    nv = spec.n + 1
    ring = Ring(p, tuple(f"x{i}" for i in range(nv)))
    base = BaseOrdering("dp", nv)
    rng = random.Random(spec.seed)
    monos = {e: monomials_of_degree(nv, e, base) for e in range(spec.d + 2)}
    for _ in range(MAX_RETRIES):
        forms = [[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(nv - 1)]
                 for _ in range(spec.s)]
        u: dict = {}
        for e in range(spec.d + 1):
            for m in monos[e]:
                total = 0
                for a in forms:
                    prod = 1
                    for v, exp in enumerate(m[1:]):
                        if exp:
                            prod = (prod * pow(a[v], exp, p)) % p
                    total += prod
                u[m] = total % p
        if any(u[m] for m in monos[spec.d]):
            break
    else:
        raise DomainError("degenerate apolar form after retries")

    generators: list = []
    hilbert = [1]
    kernel_prev = np.zeros((0, 1), dtype=np.int64)  # Ann_0 = 0
    for e in range(1, spec.d + 2):
        if e > spec.d and hilbert[1] >= 2:
            break  # R_1 * Ann_d = R_{d+1}, see the module docstring
        cols = monos[e]
        index = {m: i for i, m in enumerate(cols)}
        kernel = np.zeros((0, len(cols)), dtype=np.int64)
        if e <= spec.d:
            rows = monos[spec.d - e]
            cat = np.array([[u[mono_mul(a, g)] for a in cols] for g in rows],
                           dtype=np.int64)
            kernel, rank = linalg.kernel_basis(cat, p)
            hilbert.append(rank)
        # rows: R_1 * Ann_{e-1} shifted into degree e, then Ann_e's kernel basis
        k = len(kernel_prev)
        span = np.zeros((nv * k + len(kernel), len(cols)), dtype=np.int64)
        for v in range(nv):
            shift = [index[(m[0] + 1,) + m[1:1 + v] + (m[1 + v] + 1,) + m[2 + v:]]
                     for m in monos[e - 1]]
            span[v * k:(v + 1) * k, shift] = kernel_prev
        span[nv * k:] = kernel
        if e <= spec.d:
            generators += [_vec_from_row(kernel[r - nv * k], cols)
                           for r in linalg.span_rows(span, p) if r >= nv * k]
        else:
            # everything annihilates: new generators complement R_1 * Ann_d
            pivcols = {c for _, c in linalg.echelon(span, p)}
            generators += [{(m, 0): 1} for ci, m in enumerate(cols)
                           if ci not in pivcols]
        kernel_prev = kernel
    return AgrIdeal(spec, ring, generators, hilbert, forms, u)


def _vec_from_row(row: np.ndarray, monos: list) -> Vec:
    return {(monos[i], 0): int(row[i]) for i in np.nonzero(row)[0]}


def contract(g: Vec, u: dict, p: int, nvars: int, d: int,
             base: BaseOrdering) -> dict:
    """Contraction g o f of a homogeneous g of degree e against the form
    with divided-power coordinates u; maps degree-(d-e) monomials to
    coefficients.  Empty iff g annihilates f."""
    e = next(iter(g))[0][0]
    if e > d:
        return {}
    out: dict = {}
    for gamma in monomials_of_degree(nvars, d - e, base):
        total = 0
        for (alpha, _), c in g.items():
            total += c * u[mono_mul(alpha, gamma)]
        if total % p:
            out[gamma] = total % p
    return out


def gen_random_homogeneous(n_vars: int, degrees, p: int, seed: int,
                           names: Optional[tuple] = None):
    """Dense random forms of the given degrees: every monomial gets a
    uniform nonzero coefficient.  Deterministic per seed."""
    if not is_prime(p):
        raise DomainError("characteristic must be prime")
    ring = Ring(p, names or tuple(f"x{i}" for i in range(n_vars)))
    base = BaseOrdering("dp", n_vars)
    rng = random.Random(seed)
    out = []
    for d in degrees:
        poly: Vec = {}
        for m in monomials_of_degree(n_vars, d, base):
            poly[(m, 0)] = rng.randrange(1, p)
        out.append(poly)
    return ring, out
