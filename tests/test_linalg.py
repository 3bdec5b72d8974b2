"""syzkit.linalg against a slow pure-Python reference."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syzkit import linalg

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


def as_array(mat, shape):
    return np.array(mat, dtype=np.int64).reshape(shape)


def check_all(p, mat, shape):
    ref_rows, ref_piv = ref_rref(mat, p)
    a = as_array(mat, shape)
    before = a.copy()
    assert linalg.rank(a, p) == len(ref_piv)
    r, pivcols = linalg.rref(a, p)
    assert pivcols == ref_piv
    assert r.tolist() == ref_rows
    basis, kfree = linalg.kernel_basis(a, p)
    assert np.array_equal(a, before)  # these three copy their argument
    cols = shape[1]
    free = [c for c in range(cols) if c not in ref_piv]
    assert kfree.tolist() == free and basis.shape == (len(free), cols)
    for v, c in zip(basis.tolist(), free):
        assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in mat)
        assert [v[f] for f in free] == [int(f == c) for f in free]
        assert all(0 <= x < p for x in v)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_matches_reference(case):
    check_all(*case)


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
    rng = random.Random(p)
    rows, cols = 2 * linalg.CHUNK + 37, 10
    mat = [[rng.randrange(p) if j == 0 or rng.random() < density else 0
            for j in range(cols)] for _ in range(rows)]
    for i in range(0, rows, 3):  # zero rows between the updated ones
        mat[i] = [0] * cols
    ref_rows, ref_piv = ref_rref(mat, p)
    assert linalg.rank(as_array(mat, (rows, cols)), p) == len(ref_piv)
    r, pivcols = linalg.rref(as_array(mat, (rows, cols)), p)
    assert (r.tolist(), pivcols) == (ref_rows, ref_piv)


def test_pivots_are_topmost_rows():
    # row 1 is the topmost nonzero in column 0; row 2 is twice row 0
    a = np.array([[0, 1, 1], [1, 0, 0], [0, 2, 2], [1, 1, 0]], dtype=np.int64)
    assert linalg.echelon(a, 7) == [(1, 0), (0, 1), (3, 2)]


def test_large_characteristic_rejected():
    with pytest.raises(ValueError):
        linalg.rank(np.eye(2, dtype=np.int64), 2**31 + 11)
