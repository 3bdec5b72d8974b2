"""Sparse arithmetic over F_p for monomials, terms and free-module vectors.

Representation conventions shared by the whole package:

* A monomial is a tuple ``(deg, e1, ..., en)``: the exponent vector prefixed
  with its cached total degree.
* A module monomial is a pair ``(mono, comp)`` with a 0-based component index
  into the ambient free module.
* A vector (element of a free module) maps module monomials to nonzero
  coefficients in ``[1, p)``.  A raw vector, one being computed, is a dict.
  Dict insertion order is meaningful: a vector is "normalized" when its
  keys are strictly decreasing under the active ordering, in which case the
  first stored term is the leading term.
* A stored column (a generator of a Groebner basis, a column of a
  resolution) is a :class:`Column`: a vector frozen into one tuple of keys
  and one of coefficients.  ``resolve``'s columns are normalized, head
  first; ``minimize``'s keep its sweep's fill-in order, so their first term
  need not lead.  Nothing writes to a finished column, and two tuples take
  less than half the memory of a dict.  So is every term list the lifting
  keeps beyond one step: a subtree key's child list and a lifting's roots
  (:mod:`syzkit.lift`), read only by iteration.  A row of a constant
  strand (:func:`~syzkit.resolution._plan_pivots`) is a column too, keyed
  by row index instead of module monomial and held in two lists, which,
  unlike small tuples, go back to the allocator when the row dies.
* A plain polynomial (element of R) is a dict mapping monomials to nonzero
  coefficients.

All value types are immutable or treated as such after construction;
:class:`OpCounters` is the only mutable shared state.

Sharing (hash-consing, as in Filliatre-Conchon 2006): every column a
:class:`~syzkit.resolution.Resolution` stores is built from the objects of
one canonical table, a plain dict mapping each value to its one object, so
that equal base monomials, module monomials and coefficients are one object
each.  The three kinds never compare equal to one another, so one dict
holds all three.  Each ``resolve`` call owns one table: its Groebner bases
intern their columns when they normalize them (:func:`vec_interned`), and
its hybrid and tree liftings intern their subtree keys
(:func:`interned_key`) and the coefficients of their child lists and roots
in the same table.  Each ``minimize`` call owns another, filled when it
renumbers its output, and each :func:`~syzkit.cli.parse_input` call one for
the generators it reads.  A table lives only as long as its call; what
outlives it is the sharing of the stored columns.  Likewise the memos of
a level's lifting, its child lists and its divisor memo, live in the
level's :class:`~syzkit.lift.SubtreeCache` only as long as that lifting
(:func:`~syzkit.lift.lift_frame_iter`); a Groebner basis holds no memo,
so one passed to ``resolve`` is only read.  The divisor memo shares its
monomials too, through a table of its own in the cache: its keys, built
for the lookup by the lifting, hold one object per distinct base
monomial.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping
from typing import Callable, Iterable, Optional, Sequence

Mono = tuple  # (deg, e1, ..., en)
ModMono = tuple  # (Mono, component)
Vec = dict  # ModMono -> coefficient
Poly = dict  # Mono -> coefficient

MAX_EXPONENT = 1 << 15
NAME = re.compile("[A-Za-z_][A-Za-z0-9_]*")  # no name reads as a number or operator


class DomainError(ValueError):
    """A mathematically invalid request (bad field, non-graded input, ...)."""


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test.  The first thirteen primes as
    witnesses are exact below 3,317,044,064,679,887,385,961,981
    (Sorenson-Webster 2015); the first twelve only below
    318,665,857,834,031,151,167,461, a strong pseudoprime to all of them."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2:
        return False
    for a in witnesses:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_characteristic(p: int) -> None:
    """Raise DomainError unless p is a prime below 2^31, the one rule for a
    field characteristic (:mod:`syzkit.linalg` packs values into 64-bit
    slots).  The bound is tested first, so no primality test runs above it."""
    if p >= 1 << 31:
        raise DomainError(f"characteristic {p} is not below 2^31")
    if not is_prime(p):
        raise DomainError(f"characteristic {p} is not prime")


class Ring:
    """The polynomial ring F_p[names] with a characteristic p that passes
    :func:`check_characteristic` and distinct variable names matching
    :data:`NAME`."""

    __slots__ = ("p", "names")

    def __init__(self, p: int, names: Sequence[str]):
        check_characteristic(p)
        if not names or len(set(names)) != len(names):
            raise DomainError("variable names must be nonempty and distinct")
        for name in names:
            if not NAME.fullmatch(name):
                raise DomainError(f"invalid variable name {name!r}")
        self.p = p
        self.names = tuple(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def one(self) -> Mono:
        return (0,) * (len(self.names) + 1)

    def mono(self, exps: Iterable[int]) -> Mono:
        """Pack an exponent vector into the internal monomial representation."""
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise DomainError(f"expected {len(self.names)} exponents, got {len(exps)}")
        for e in exps:
            if e < 0 or e > MAX_EXPONENT:
                raise DomainError(f"exponent {e} out of range [0, {MAX_EXPONENT}]")
        return (sum(exps),) + exps

    def inv(self, c: int) -> int:
        c %= self.p
        if c == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(c, self.p - 2, self.p)


class OpCounters:
    """Counters for ground-field operations and monomial comparisons.

    ``n_canc <= n_add`` always holds: a cancellation is an addition whose
    result is zero.  The one product rule: ``n_mult`` counts the field
    products computed, one per coefficient scaled by a factor other than
    +-1.  A coefficient times +-1 or times a known unit head costs no
    product, a monomial shift (:func:`term_times_vector`) costs none, and a
    cancellation known in advance (the target term of a reduction step) is
    neither computed nor counted.  ``n_terms`` is filled in once per
    resolution (terms of all differentials except the first).
    """

    __slots__ = ("n_terms", "n_mult", "n_add", "n_canc", "n_monomial_cmp")

    def __init__(self):
        self.n_terms = 0
        self.n_mult = 0
        self.n_add = 0
        self.n_canc = 0
        self.n_monomial_cmp = 0

    def merge(self, other: "OpCounters") -> None:
        self.n_terms += other.n_terms
        self.n_mult += other.n_mult
        self.n_add += other.n_add
        self.n_canc += other.n_canc
        self.n_monomial_cmp += other.n_monomial_cmp

    def copy(self) -> "OpCounters":
        c = OpCounters()
        c.merge(self)
        return c

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"OpCounters({inner})"


# ---------------------------------------------------------------------------
# monomials


def mono_deg(m: Mono) -> int:
    return m[0]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.add, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """Exact quotient a / b; caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    if a[0] > b[0]:
        return False
    for x, y in zip(a[1:], b[1:]):
        if x > y:
            return False
    return True


def mono_lcm(a: Mono, b: Mono) -> Mono:
    exps = tuple(map(max, a[1:], b[1:]))
    return (sum(exps),) + exps


def monomial_divides(a: ModMono, b: ModMono) -> bool:
    """Does the module monomial a divide the module monomial b?  Components
    must match."""
    return a[1] == b[1] and mono_divides(a[0], b[0])


# ---------------------------------------------------------------------------
# vectors


def vec_iadd_scaled(dst: Vec, c: int, src: Vec, p: int,
                    counters: Optional[OpCounters] = None) -> None:
    """dst += c * src in place.

    Counts the collision additions/cancellations, plus len(src)
    multiplications unless c is +-1 (copy or negation, no field products).
    """
    n_add = n_canc = 0
    for mm, v in src.items():
        w = (c * v) % p
        old = dst.get(mm)
        if old is None:
            dst[mm] = w
        else:
            n_add += 1
            nv = (old + w) % p
            if nv:
                dst[mm] = nv
            else:
                n_canc += 1
                del dst[mm]
    if counters is not None:
        if c != 1 and c != p - 1:
            counters.n_mult += len(src)
        counters.n_add += n_add
        counters.n_canc += n_canc


def vec_sub_term(dst: Vec, mm: ModMono, c: int, p: int,
                 counters: Optional[OpCounters] = None) -> None:
    """dst -= c*mm, a single bookkeeping term (negation, no product)."""
    old = dst.get(mm)
    if old is None:
        dst[mm] = p - c
        return
    if counters is not None:
        counters.n_add += 1
    v = (old - c) % p
    if v:
        dst[mm] = v
    else:
        if counters is not None:
            counters.n_canc += 1
        del dst[mm]


def term_times_vector(mono: Mono, f: Vec) -> Vec:
    """The vector mono*f: a monomial shift, which forms no field product.
    Multiplication by a monomial is injective and order-preserving, so the
    result keeps f's term order."""
    return {(mono_mul(mono, mm[0]), mm[1]): v for mm, v in f.items()}


def vec_normalized(f: Vec, key: Callable[[ModMono], tuple]) -> Vec:
    """Rebuild f with terms in strictly decreasing order under `key`.
    Only perfbench's ``replay_resolve`` calls it; ROADMAP item 1 drops it
    once the replay passes the raw liftings, as ``resolve`` does."""
    return {mm: f[mm] for mm in sorted(f, key=key, reverse=True)}


def interned_key(mm: ModMono, table: dict) -> ModMono:
    """The table's object equal to the module monomial mm, entered on first
    sight with its base monomial interned too (mm itself is kept when its
    base monomial already is the table's)."""
    k = table.get(mm)
    if k is None:
        m = mm[0]
        cm = table.setdefault(m, m)
        k = mm if cm is m else (cm, mm[1])
        table[k] = k
    return k


class Column(Mapping):
    """A finished vector: a read-only mapping from module monomials to
    coefficients, held as a tuple of keys and a tuple of coefficients in
    term order, head first (in ``minimize``'s output, in fill-in order).

    Reading is iteration: ``items()`` zips the two tuples, and ``dict(col)``
    is slow, since a lookup ``col[mm]`` scans the keys; copy a column with
    ``dict(col.items())``.  The keys are fixed: assigning to an existing key
    rebuilds the coefficient tuple, and adding or deleting a key raises.
    :func:`vec_interned` builds every column.
    """

    __slots__ = ("_keys", "_coeffs")

    def __init__(self, keys: tuple, coeffs: tuple):
        self._keys = keys
        self._coeffs = coeffs

    def __len__(self):
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def __getitem__(self, mm):
        try:
            return self._coeffs[self._keys.index(mm)]
        except ValueError:
            raise KeyError(mm) from None

    def __setitem__(self, mm, c):
        """Kept for perfbench's ``test_changed_coefficient_is_rejected`` only;
        ROADMAP item 3 drops it and ``__delitem__`` with that test's write."""
        try:
            i = self._keys.index(mm)
        except ValueError:
            raise KeyError(f"a column's keys are fixed: {mm!r}") from None
        self._coeffs = self._coeffs[:i] + (c,) + self._coeffs[i + 1:]

    def __delitem__(self, mm):
        # __setitem__ fills the type's assignment slot, so without this
        # method ``del col[mm]`` would raise AttributeError('__delitem__')
        raise TypeError("a column's keys are fixed")

    def items(self):
        return zip(self._keys, self._coeffs)

    def __repr__(self):
        return f"Column({dict(self.items())!r})"


def vec_interned(terms: Iterable[tuple], table: dict) -> Column:
    """The column of the (module monomial, coefficient) pairs ``terms``, in
    their order, built from the objects of ``table``."""
    keys = []
    coeffs = []
    get = table.get
    intern = table.setdefault
    for mm, c in terms:
        k = get(mm)
        if k is None:
            k = interned_key(mm, table)
        keys.append(k)
        coeffs.append(intern(c, c))
    return Column(tuple(keys), tuple(coeffs))


def is_homogeneous(f: Vec, twists=None) -> bool:
    """Whether all terms of f have one degree, twists included."""
    if twists is None:
        return len({mm[0][0] for mm in f}) <= 1
    return len({mm[0][0] + twists[mm[1]] for mm in f}) <= 1


# ---------------------------------------------------------------------------
# plain polynomials (used by the CLI)


def vec_component(f: Vec, comp: int) -> Poly:
    """Extract the R-polynomial coefficient of basis element `comp`."""
    return {mm[0]: c for mm, c in f.items() if mm[1] == comp}
