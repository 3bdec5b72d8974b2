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
    p, d = spec.p, spec.d
    nv = spec.n + 1
    ring = Ring(p, tuple(f"x{i}" for i in range(nv)))
    base = BaseOrdering("dp", nv)
    rng = random.Random(spec.seed)
    monos = {e: monomials_of_degree(nv, e, base) for e in range(d + 1)}
    exps = {e: np.array([m[1:] for m in ms], dtype=np.int64)
            for e, ms in monos.items()}
    for _ in range(MAX_RETRIES):
        forms = [[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(nv - 1)]
                 for _ in range(spec.s)]
        # powers[i, v, k] = a_{i,v}^k, so u_beta = sum_i prod_v powers[i, v, beta_v];
        # each product is of two residues, below 2^62 as p < 2^31 (Ring)
        coeffs = np.array(forms, dtype=np.int64)
        powers = np.ones((spec.s, nv, d + 1), dtype=np.int64)
        for k in range(1, d + 1):
            powers[:, :, k] = powers[:, :, k - 1] * coeffs % p
        u: dict = {}
        for e in range(d + 1):
            terms = np.ones((spec.s, len(monos[e])), dtype=np.int64)
            for v in range(nv):
                terms = terms * powers[:, v, exps[e][:, v]] % p
            u.update(zip(monos[e], (terms.sum(axis=0) % p).tolist()))
        u_top = np.array([u[m] for m in monos[d]], dtype=np.int64)
        if u_top.any():
            break
    else:
        raise DomainError("degenerate apolar form after retries")

    # radix codes: code(m) + code(m') = code(m * m') while every exponent
    # stays <= d + 1, in Python integers where they could leave int64.  The
    # last variable is the most significant digit, so the codes of monos[e],
    # in descending degrevlex order, ascend and searchsorted finds a monomial.
    radix = d + 2
    place = np.array([radix ** v for v in range(nv)],
                     dtype=np.int64 if radix ** nv <= 1 << 63 else object)
    codes = {e: (x * place).sum(axis=1) for e, x in exps.items()}

    generators: list = []
    hilbert = [1]
    kernel_prev = np.zeros((0, 1), dtype=np.int64)  # Ann_0 = 0
    for e in range(1, d + 2):
        if e > d:
            if hilbert[1] >= 2:
                break  # R_1 * Ann_d = R_{d+1}, see the module docstring
            monos[e] = monomials_of_degree(nv, e, base)
            x = np.array([m[1:] for m in monos[e]], dtype=np.int64)
            codes[e] = (x * place).sum(axis=1)
        cols = monos[e]
        shift_pos = [np.searchsorted(codes[e], codes[e - 1] + place[v])
                     for v in range(nv)]
        if e <= d:
            cat = u_top[np.searchsorted(codes[d],
                                        codes[d - e][:, None] + codes[e])]
            kernel, free = linalg.kernel_basis(cat, p)
            hilbert.append(len(cols) - len(free))
            # R_1 * Ann_{e-1} in the free coordinates of Ann_e, reversed
            coord = np.full(len(cols), -1)
            coord[free[::-1]] = np.arange(len(free))
            shifts = _shifted(kernel_prev, shift_pos, coord, len(free))
            trailing = {len(free) - 1 - c for _, c in linalg.echelon(shifts, p)}
            generators += [_vec_from_row(kernel[j], cols)
                           for j in range(len(free)) if j not in trailing]
            kernel_prev = kernel
        else:
            # everything annihilates: new generators complement R_1 * Ann_d
            span = _shifted(kernel_prev, shift_pos, np.arange(len(cols)),
                            len(cols))
            pivcols = {c for _, c in linalg.echelon(span, p)}
            generators += [{(m, 0): 1} for ci, m in enumerate(cols)
                           if ci not in pivcols]
    return AgrIdeal(spec, ring, generators, hilbert, forms, u)


def _shifted(kernel: np.ndarray, shift_pos: list, coord: np.ndarray,
             width: int) -> np.ndarray:
    """The rows x_v * g, one block per variable v and in it one row per row
    g of ``kernel``.  ``shift_pos[v][i]`` is the index of x_v * m_i, and
    the coefficient of monomial j goes to column ``coord[j]``, or is
    dropped where that is negative."""
    k = len(kernel)
    out = np.zeros((len(shift_pos) * k, width), dtype=np.int64)
    for v, pos in enumerate(shift_pos):
        target = coord[pos]
        keep = target >= 0
        out[v * k:(v + 1) * k, target[keep]] = kernel[:, keep]
    return out


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
