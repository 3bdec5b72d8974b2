"""Gaussian elimination over F_p on sparse rows.

One loop, :func:`_eliminate`, serves every elimination in the package: the
catalecticant kernels and shifted annihilators of the apolar generator,
the matrices of the F4 engine and the ranks of the constant strands.  A
matrix is a list of rows, each a mapping {column: value}: a dict, or any
read-only mapping, such as the :class:`~syzkit.algebra.Column` rows of
the strands.  The loop works
column by column, in the manner of the matrix phase of F4 (Faugere 1999;
Faugere-Lachartre 2010): the pivot of a column is the topmost row not yet
used as a pivot that is nonzero there, and it clears that column from
every other row not yet used.  Rows are never swapped, so the pivot rows
are exactly the rows that, taken in order, enlarge the span of the rows
above them.  The unused rows wait in buckets keyed by their leading
column, so a column touches only the rows that lead there.  A row stays
the caller's mapping, read mod p where it is read and only through
``min``, ``max``, ``[]`` and ``items()``, until the loop first writes to
it: the first pivot that updates it packs it, reduced mod p, and it stays
packed.  A pivot row is never copied: its scaled tail, the part right of
its column, packed, is all of it that outlives its column.  The loop
yields each pivot with its tail as its column is done; :func:`echelon`
and :func:`rank` keep no tail, :func:`rref` keeps each once.  A tail is
packed only where it is read: when other rows lead in the pivot's
column, as it clears them, or for :func:`rref`, which reduces by every
tail.  A pivot alone in its bucket clears no row, so :func:`echelon` and
:func:`rank` yield it with no tail.  Their pivots do not change: the
pivot rule reads only which unused rows lead in a column, and a tail no
row is cleared by changes no row.  The reduced form is read off the
echelon rows one row at a time: a pivot row is cleared at each later
pivot column, first column first, by that pivot's echelon row
(:func:`_rref_row`), so a row nobody asks for costs nothing.

A packed row is one Python int with the value of column j in the 64-bit
slot ``top - j`` counted from the least significant end, ``top`` being
the last column, so that the leading column is read off the bit length
(Bachmann-Schoenemann, ISSAC 1998, pack monomials the same way).
Clearing column c from a packed row is one multiply-add of integers,
``v + (p - x) * tail`` with ``tail`` the pivot row right of c, and its
slots are reduced mod p only where one is read: the leading slot, or all
of them when the row is unpacked.

Slot bound: a reduced slot is at most p - 1 and an update adds at most
(p - 1)^2 to it, so after k updates it is at most (p - 1) + k (p - 1)^2.
A row is reduced once it has taken ``floor((2^64 - p) / (p - 1)^2)``
updates, before any slot can reach 2^64 and carry into the next: four at
p = 2^31 - 1, about 1.8e11 at p = 10007.  p < 2^31, as for a Ring.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress
from typing import Callable, Iterable, Iterator, Optional

SLOT_BITS = 64


def _pack(items: Iterable, top: int, n: int, p: int) -> int:
    """The int of n slots holding, for each pair (j, x) of ``items`` with
    column j right of ``top - n``, x mod p in slot top - j."""
    slots = array("Q", bytes(8 * n))
    for j, x in items:
        if top - j < n:
            slots[top - j] = x % p
    return int.from_bytes(slots, "little")


def _unpack(v: int, n: int) -> list:
    """The n lowest slots of v, lowest first."""
    return memoryview(v.to_bytes(8 * n, "little")).cast("Q").tolist()


def _repack(slots: list) -> int:
    return int.from_bytes(array("Q", slots), "little")


def _layout(rows: list, p: int) -> tuple:
    """(top, limit): the last column of the rows, and the updates a packed
    row takes before it is reduced, 0 when it never needs reducing (a row
    takes at most one update per column in either phase)."""
    top = max((max(r) for r in rows if r), default=-1)
    limit = ((1 << SLOT_BITS) - p) // max(1, (p - 1) ** 2)
    return top, 0 if limit > top else limit


def _eliminate(rows: list, p: int, tails: bool) -> Iterator[tuple]:
    """Forward elimination: yield each pivot (row, column, tail) in column
    order as soon as its column is cleared, ``tail`` the pivot row right of
    its column scaled to 1 there, packed in the slots below
    ``top - column``.  The tail is packed only where it is read: when
    another row leads in the pivot's column, or for every pivot if
    ``tails``; otherwise it is None.  Nothing here keeps a tail once it is
    yielded.  ``rows`` is not modified: a row may be any read-only mapping
    (see the module docstring)."""
    if p >= 1 << 31:
        raise ValueError("linalg needs p < 2^31")
    w = SLOT_BITS
    top, limit = _layout(rows, p)
    # a row as it stands, or None: the caller's own mapping until the
    # first update, then an int that holds only its columns from the
    # leading one on
    form: list = [None] * len(rows)
    pending = [0] * len(rows)  # updates since a packed row was reduced
    buckets: dict = {}  # leading column -> unused rows that lead there
    for i, r in enumerate(rows):
        if r:
            c = min(r)
            if not r[c] % p:
                c = min((j for j, x in r.items() if x % p), default=None)
                if c is None:
                    continue
            form[i] = r
            buckets.setdefault(c, []).append(i)
    for c in range(top + 1):
        bucket = buckets.pop(c, None)
        if not bucket:
            continue
        r = min(bucket)
        v = form[r]
        form[r] = None  # the pivot row lives on as its tail, if at all
        if not tails and len(bucket) == 1:
            yield r, c, None
            continue
        s = top - c  # columns right of c, slots below the leading one
        below = (1 << (w * s)) - 1
        if v is rows[r]:
            inv = pow(v[c], p - 2, p)
            tail = _pack(((j, x * inv) for j, x in v.items()), top, s, p)
        else:
            inv = pow((v >> (w * s)) % p, p - 2, p)
            tail = _repack([x * inv % p for x in _unpack(v & below, s)])
        for o in bucket:
            if o == r:
                continue
            v = form[o]
            if v is rows[o]:  # the first update: pack it, reduced mod p
                v = _pack(v.items(), top, s, p) + (p - v[c] % p) * tail
                pending[o] = 1
            else:
                v = (v & below) + (p - (v >> (w * s)) % p) * tail
                if limit:
                    pending[o] += 1
                    if pending[o] >= limit:
                        v = _repack([x % p for x in _unpack(v, s)])
                        pending[o] = 0
            # the new leading slot: strip the top slots that vanish mod p
            while v:
                lead = (v.bit_length() - 1) // w
                if (v >> (w * lead)) % p:
                    break
                v &= (1 << (w * lead)) - 1
            if v:
                form[o] = v
                buckets.setdefault(top - lead, []).append(o)
            else:
                form[o] = None
        yield r, c, tail


def _rref_row(c: int, pivcols: list, form: tuple, p: int) -> dict:
    """The RREF row of pivot c, from the echelon ``form`` (top, limit,
    tails) of :func:`rref` alone.  Its packed tail is cleared at the pivot
    columns ``pivcols`` (ascending) in ascending order, each by its echelon
    row, which changes only the columns after it; so the columns up to the
    next pivot column are final, and are read off in one piece."""
    w = SLOT_BITS
    top, limit, tails = form
    v = tails[c]
    row = {c: 1}
    n = 0
    while v:
        lead = (v.bit_length() - 1) // w
        c2 = top - lead
        k = bisect_left(pivcols, c2)
        if k == len(pivcols) or pivcols[k] != c2:
            # slots s..lead hold the columns c2 .. before the next pivot
            s = top - pivcols[k] + 1 if k < len(pivcols) else 0
            final = _unpack(v >> (w * s), lead + 1 - s)[::-1]  # c2 + i at i
            for i in compress(range(len(final)), final):
                if y := final[i] % p:
                    row[c2 + i] = y
            v &= (1 << (w * s)) - 1
            continue
        x = (v >> (w * lead)) % p
        v &= (1 << (w * lead)) - 1
        if not x:
            continue
        v += (p - x) * tails[c2]
        n += 1
        if n == limit:
            v = _repack([y % p for y in _unpack(v, lead)])
            n = 0
    return row


def echelon(rows: list, p: int) -> list:
    """The pivots (row, column) of the rows {column: value} over F_p, in
    column order.  The pivot rows are the rows that enlarge the span of
    the rows above them."""
    return [(r, c) for r, c, _ in _eliminate(rows, p, False)]


def rank(rows: list, p: int) -> int:
    """Rank over F_p of the rows {column: value}."""
    return sum(1 for _ in _eliminate(rows, p, False))


def rref(rows: list, p: int, keep: Optional[Callable[[int], bool]] = None):
    """Reduced row echelon form over F_p of the rows {column: value}: its
    nonzero rows, each in ascending column order, and their pivot columns.
    With ``keep``, a predicate on pivot columns, only the rows whose pivot
    column it accepts, and no other row is reduced."""
    tails = {c: tail for _, c, tail in _eliminate(rows, p, True)}
    pivcols = list(tails)
    kept = [c for c in pivcols if keep is None or keep(c)]
    form = _layout(rows, p) + (tails,)
    return [_rref_row(c, pivcols, form, p) for c in kept], kept


def kernel_basis(rows: list, ncols: int, p: int):
    """Canonical basis of the right kernel over F_p of the rows
    {column: value} with ``ncols`` columns: one row per free column, with a
    1 there and the negated RREF entries at the pivot columns, in
    free-column order; returned with the free columns, whose count is the
    number of columns less the rank.  Basis rows are {column: value} in
    ascending column order."""
    reduced, pivcols = rref(rows, p)
    is_pivot = set(pivcols)
    free = [c for c in range(ncols) if c not in is_pivot]
    basis = []
    for f in free:
        v = {c: p - r[f] for c, r in zip(pivcols, reduced) if f in r}
        v[f] = 1
        basis.append(dict(sorted(v.items())))
    return basis, free
