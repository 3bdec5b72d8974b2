"""syzkit.linalg against a slow pure-Python reference."""

import copy
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from syzkit import linalg
from syzkit.algebra import Column

from oracles import ref_span_rows

PRIMES = [2, 7, 32003, 2**31 - 1]


def ref_rref(mat, p):
    """Textbook RREF with Python integers: nonzero rows and pivot columns."""
    a = [[x % p for x in row] for row in mat]
    ncols = len(a[0]) if a else 0
    pivcols, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivcols.append(c)
        r += 1
    return a[:r], pivcols


@st.composite
def matrices(draw):
    """(p, matrix as nested lists, shape): zero, square, wide and tall
    shapes, with many zeros, and low-rank products for rank deficiency."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.just(1), st.integers(-p, 2 * p - 1))
    if draw(st.booleans()):
        k = draw(st.integers(0, max(rows, cols)))
        left = [[draw(entry) for _ in range(k)] for _ in range(rows)]
        right = [[draw(entry) for _ in range(cols)] for _ in range(k)]
        mat = [[sum(left[i][t] * right[t][j] for t in range(k)) % p
                for j in range(cols)] for i in range(rows)]
    else:
        mat = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return p, mat, (rows, cols)


def as_rows(mat):
    """Sparse rows {column: value}, zeros and all."""
    return [dict(enumerate(row)) for row in mat]


def as_dense(row, cols):
    return [row.get(c, 0) for c in range(cols)]


def _check_kept_rows(a, p, cols, ref_rows, ref_piv):
    """rref with ``keep`` returns the reference rows of the kept pivots
    alone: every pivot, the odd columns, none."""
    for keep in (lambda c: True, lambda c: c % 2 == 1, lambda c: False):
        r, pivcols = linalg.rref(a, p, keep=keep)
        assert pivcols == [c for c in ref_piv if keep(c)]
        assert ([as_dense(row, cols) for row in r]
                == [row for row, c in zip(ref_rows, ref_piv) if keep(c)])
        assert all(list(row) == sorted(row) and all(row.values()) for row in r)


def check_all(p, mat, shape):
    cols = shape[1]
    ref_rows, ref_piv = ref_rref(mat, p)
    a = as_rows(mat)
    before = copy.deepcopy(a)
    pivots = linalg.echelon(a, p)
    assert [c for _, c in pivots] == ref_piv
    assert sorted(r for r, _ in pivots) == ref_span_rows(mat, p)
    assert linalg.rank(a, p) == len(ref_piv)
    r, pivcols = linalg.rref(a, p)
    assert pivcols == ref_piv
    assert [as_dense(row, cols) for row in r] == ref_rows
    assert all(list(row) == sorted(row) and all(row.values()) for row in r)
    _check_kept_rows(a, p, cols, ref_rows, ref_piv)
    basis, kfree = linalg.kernel_basis(a, cols, p)
    assert a == before  # none of these modifies its argument
    free = [c for c in range(cols) if c not in ref_piv]
    assert kfree == free and len(basis) == len(free)
    for g, c in zip(basis, free):
        assert list(g) == sorted(g)
        v = as_dense(g, cols)
        assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in mat)
        assert [v[f] for f in free] == [int(f == c) for f in free]
        assert all(0 < x < p for x in g.values())


class ReadOnlyColumn(Column):
    """A :class:`Column` that fails the test on any write."""

    __slots__ = ()

    def __setitem__(self, mm, c):
        raise AssertionError(f"linalg wrote to a row at {mm}")


def check_column_rows(p, mat, shape):
    """The strands' row type, read only, gives what dict rows give."""
    a = as_rows(mat)
    cols = [ReadOnlyColumn(list(row), list(row.values())) for row in a]
    before = [list(col.items()) for col in cols]
    assert linalg.echelon(cols, p) == linalg.echelon(a, p)
    for keep in (None, lambda c: c % 2 == 1):
        assert linalg.rref(cols, p, keep=keep) == linalg.rref(a, p, keep=keep)
    assert (linalg.kernel_basis(cols, shape[1], p)
            == linalg.kernel_basis(a, shape[1], p))
    assert [list(col.items()) for col in cols] == before


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_matches_reference(case):
    check_all(*case)
    check_column_rows(*case)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (4, 4), (3, 7),
                                   (7, 3), (6, 6)])
def test_named_shapes(p, shape):
    rng = random.Random(f"{p}{shape}")
    rows, cols = shape
    zero = [[0] * cols for _ in range(rows)]
    dense = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    # rank deficient: each row after the second is a combination of the first two
    deficient = [list(r) for r in dense[:2]]
    for _ in range(rows - len(deficient)):
        a, b = rng.randrange(p), rng.randrange(p)
        deficient.append([(a * x + b * y) % p for x, y in zip(*dense[:2])]
                         if len(dense) >= 2 else [0] * cols)
    for mat in (zero, dense, deficient[:rows]):
        check_all(p, mat, shape)


@pytest.mark.parametrize("density", [1.0, 0.15])  # dense and sparse pivot rows
@pytest.mark.parametrize("p", PRIMES)
def test_column_longer_than_chunk(p, density):
    # one column nonzero in hundreds of rows: a single bucket of rows that
    # the pivot updates, each packed at that first update, whether dense
    # or sparse
    rng = random.Random(p)
    rows, cols = 549, 10
    mat = [[rng.randrange(p) if j == 0 or rng.random() < density else 0
            for j in range(cols)] for _ in range(rows)]
    for i in range(0, rows, 3):  # zero rows between the updated ones
        mat[i] = [0] * cols
    ref_rows, ref_piv = ref_rref(mat, p)
    assert linalg.rank(as_rows(mat), p) == len(ref_piv)
    r, pivcols = linalg.rref(as_rows(mat), p)
    assert ([as_dense(row, cols) for row in r], pivcols) == (ref_rows, ref_piv)


def _count_forms(monkeypatch):
    """Count the rows and pivot tails the kernel packs from a mapping
    (``packed``) and from slots (``repacked``)."""
    counts = {"packed": 0, "repacked": 0}
    for key, name in (("packed", "_pack"), ("repacked", "_repack")):
        real = getattr(linalg, name)

        def wrapper(*args, real=real, key=key):
            counts[key] += 1
            return real(*args)
        monkeypatch.setattr(linalg, name, wrapper)
    return counts


@pytest.mark.parametrize("p", PRIMES)
def test_tall_sparse_matrix(p):
    # two entries per row of 200: each pivot tail and each row at its
    # first update is packed, most of its slots zero
    rng = random.Random(p)
    rows, cols = 300, 200
    mat = [[0] * cols for _ in range(rows)]
    for row in mat:
        for j in rng.sample(range(cols), 2):
            row[j] = rng.randrange(1, p)
    check_all(p, mat, (rows, cols))


@pytest.mark.parametrize("p", PRIMES)
def test_dense_full_rank(p, monkeypatch):
    # a random dense 40 x 60 matrix of rank 40: the rows are packed, the
    # last row takes an update at every column, and each packed pivot row
    # is cleared at every later pivot column, which leaves it dense in the
    # 20 free columns.  At p = 2^31 - 1 a 64-bit slot holds only
    # four updates, so both phases reduce their rows
    rng = random.Random(p)
    rows, cols = 40, 60
    mat = [[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(cols - 1)]
           for _ in range(rows)]
    while len(ref_rref(mat, p)[1]) < rows:
        mat[rng.randrange(rows)] = [rng.randrange(p) for _ in range(cols)]
    counts = _count_forms(monkeypatch)
    check_all(p, mat, (rows, cols))
    assert counts["packed"] > 0
    if p == 2**31 - 1:
        assert ((1 << linalg.SLOT_BITS) - p) // (p - 1) ** 2 < rows - 1


def test_slot_overflow_on_one_row():
    # p = 2^31 - 1 and a last row that takes 60 packed updates.  Its entry
    # at column i is 2^i mod p when row i clears it, so every update adds
    # at least (p - 1) (p - 1) / 2 to a slot, and the slots would pass 2^64
    # within eight updates without reduction
    p = 2**31 - 1
    n = 61
    mat = [[0] * i + [1] + [p - 1] * (n - 1 - i) for i in range(n - 1)]
    mat.append([1] * n)
    ref_rows, ref_piv = ref_rref(mat, p)
    assert linalg.echelon(as_rows(mat), p) == [(i, i) for i in range(len(ref_piv))]
    r, pivcols = linalg.rref(as_rows(mat), p)
    assert ([as_dense(row, n) for row in r], pivcols) == (ref_rows, ref_piv)
    _check_kept_rows(as_rows(mat), p, n, ref_rows, ref_piv)


def test_pivots_are_topmost_rows():
    # row 1 is the topmost nonzero in column 0; row 2 is twice row 0
    a = [{1: 1, 2: 1}, {0: 1}, {1: 2, 2: 2}, {0: 1, 1: 1}]
    assert linalg.echelon(a, 7) == [(1, 0), (0, 1), (3, 2)]


def test_large_characteristic_rejected():
    with pytest.raises(ValueError):
        linalg.rank([{0: 1}, {1: 1}], 2**31 + 11)


def test_rank_holds_a_dense_strand_once():
    # a seeded random 280 x 315 matrix mod 10007 with 126 entries a row,
    # the shape of the dense degree-6 strand of the AGR (6, 5, 42)
    # resolution's level 4: a row stays the caller's dict until an update
    # first writes to it, and a pivot row lives on only as its scaled tail,
    # so the elimination never holds a second copy of the strand (copying
    # every row up front peaked at 2.4 MB)
    rng = random.Random(10007)
    p, cols = 10007, 315
    rows = [{j: rng.randrange(1, p) for j in sorted(rng.sample(range(cols), 126))}
            for _ in range(280)]
    before = copy.deepcopy(rows)
    tracemalloc.start()
    try:
        r = linalg.rank(rows, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == 280 and rows == before
    assert peak < 1.2e6, peak


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_echelon_packs_no_unread_tail(p, monkeypatch):
    # a permuted identity with sparse entries right of each row's 1: every
    # row leads at its own column, so every bucket holds its pivot alone,
    # no row is ever updated, and no pivot tail is read but by rref
    rng = random.Random(p)
    n = 60
    perm = rng.sample(range(n), n)
    mat = []
    for c in perm:
        row = [0] * n
        row[c] = rng.randrange(1, p)
        for j in rng.sample(range(c + 1, n), min(3, n - 1 - c)):
            row[j] = rng.randrange(1, p)
        mat.append(row)
    counts = _count_forms(monkeypatch)
    assert linalg.echelon(as_rows(mat), p) == sorted(enumerate(perm),
                                                    key=lambda rc: rc[1])
    assert linalg.rank(as_rows(mat), p) == n
    assert counts == {"packed": 0, "repacked": 0}
    ref_rows, ref_piv = ref_rref(mat, p)
    r, pivcols = linalg.rref(as_rows(mat), p)
    assert ([as_dense(row, n) for row in r], pivcols) == (ref_rows, ref_piv)
    assert counts["packed"] == n  # each tail once, as rref reads them all


@st.composite
def sparse_matrices(draw):
    """(p, matrix as nested lists) over p in {7, 2^31 - 1}, up to 12 x 12,
    each entry nonzero with a drawn probability."""
    p = draw(st.sampled_from([7, 2**31 - 1]))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))
    mat = [[draw(st.integers(1, p - 1))
            if draw(st.floats(0, 1)) < density else 0
            for _ in range(cols)] for _ in range(rows)]
    return p, mat


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_echelon_pivots_are_the_ones_rref_implies(case):
    # row r is the pivot of column c exactly when c is the one pivot column
    # that the rref of rows 0..r has and the rref of rows 0..r-1 has not
    p, mat = case
    implied, seen = [], set()
    for r in range(len(mat)):
        cols = set(linalg.rref(as_rows(mat[:r + 1]), p)[1])
        assert len(cols - seen) <= 1
        implied += [(r, c) for c in cols - seen]
        seen = cols
    assert linalg.echelon(as_rows(mat), p) == sorted(implied,
                                                    key=lambda rc: rc[1])
