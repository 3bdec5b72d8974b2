"""Gaussian elimination over F_p on dense int64 matrices.

One loop, :func:`echelon`, serves every elimination in the package: the
catalecticant kernels and shifted annihilators of the apolar generator,
the matrices of the F4 engine and the ranks of the constant strands.  It
works column by column, in the manner of the matrix phase of F4 (Faugere
1999; Faugere-Lachartre 2010): the pivot of a column is the topmost row
not yet used as a pivot that is nonzero there, and one vectorized update
clears that column from every other row that needs it.  The update
touches only the columns where the pivot row is nonzero, and runs in
chunks of ``CHUNK`` rows so its temporaries stay small.  Rows are never
swapped, so the pivot rows are exactly the rows that, taken in order,
enlarge the span of the rows above them.

Invariant: p < 2^31, so that a single product of two residues, at most
(p-1)^2 < 2^62, fits in int64.  Code here may form single products such as
``a[o, c] * a[r]``, or sums of at most floor((2^63-1)/(p-1)^2) of them, and
nothing larger.
"""

from __future__ import annotations

import numpy as np

CHUNK = 256


def echelon(a: np.ndarray, p: int, reduced: bool = False) -> list:
    """Bring the rows of the int64 matrix ``a`` to echelon form over F_p,
    in place, and return the pivots as (row, column) pairs in column order.

    Pivot rows are scaled to a leading 1.  With ``reduced`` the pivot
    columns are also cleared above each pivot (the rows of ``a`` at the
    pivots then form the RREF); without it only the rows not yet used as
    pivots are updated, which is all that rank and span selection need."""
    if p >= 1 << 31:
        raise ValueError("linalg needs p < 2^31 for exact int64 products")
    np.remainder(a, p, out=a)
    rows, cols = a.shape
    used = np.zeros(rows, dtype=bool)
    pivots: list = []
    for c in range(cols):
        if len(pivots) == rows:
            break
        nz = np.flatnonzero(a[:, c])
        free = nz[~used[nz]]
        if free.size == 0:
            continue
        r = int(free[0])
        used[r] = True
        pivots.append((r, c))
        # entries left of c are zero in every row not yet used as a pivot,
        # so only the pivot row's nonzero columns change
        support = c + np.flatnonzero(a[r, c:])
        a[r, support] = a[r, support] * pow(int(a[r, c]), p - 2, p) % p
        pivot_row = a[r, support]
        others = nz[nz != r] if reduced else free[1:]
        for i in range(0, others.size, CHUNK):
            o = others[i:i + CHUNK]
            block = np.ix_(o, support)
            sub = a[block]
            a[block] = (sub - sub[:, :1] * pivot_row) % p
    return pivots


def rank(mat, p: int) -> int:
    """Rank of ``mat`` over F_p (the argument is not modified)."""
    return len(echelon(np.array(mat, dtype=np.int64), p))


def rref(mat, p: int):
    """Reduced row echelon form of ``mat`` over F_p: the nonzero rows in
    pivot order and the list of their pivot columns."""
    a = np.array(mat, dtype=np.int64)
    pivots = echelon(a, p, reduced=True)
    return a[[r for r, _ in pivots]], [c for _, c in pivots]


def kernel_basis(mat, p: int):
    """Canonical basis of the right kernel of ``mat`` over F_p, one row per
    free column with a 1 there and the negated RREF entries at the pivot
    columns, in free-column order; returned with the free columns, whose
    count is the number of columns less the rank."""
    r, pivcols = rref(mat, p)
    cols = np.shape(mat)[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivcols] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivcols] = (-r[:, free].T) % p
    return basis, free

