import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlvariety import budget
from mlvariety.budget import BudgetExceededError
from mlvariety.errors import PreconditionError
from mlvariety.field import (
    all_vectors,
    as_coords,
    rref,
    shift_permutation,
    shift_rows,
    validate_prime,
    vector_from_index,
    vector_index,
)

from helpers import annihilator, brute_rank_mod, subspace_contains, subspace_points


def test_validate_prime_accepts_small_primes():
    for p in (2, 3, 5, 7, 11, 13, 17):
        validate_prime(p)


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 19, -3, 2.0, True])
def test_validate_prime_rejects(bad):
    with pytest.raises(PreconditionError):
        validate_prime(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: as_coords((1, 0, 1), 2, 2), "dimension mismatch: 3 vs 2"),
    (lambda: rref([[1, 0, 1]], 2, width=2), "row width mismatch: 3 vs 2"),
])
def test_coordinate_lengths_must_match(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


@pytest.mark.parametrize("n", [0, -1])
def test_point_budget_must_be_positive(n):
    before = budget.point_budget()
    with pytest.raises(ValueError, match="point budget must be positive"):
        budget.set_point_budget(n)
    assert budget.point_budget() == before


def test_all_vectors_p2_dim1():
    assert all_vectors(2, 1).tolist() == [[0], [1]]


def test_all_vectors_p2_dim2_lex_order():
    assert all_vectors(2, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_all_vectors_p3_dim2_endpoints():
    got = all_vectors(3, 2).tolist()
    assert len(got) == 9
    assert got[0] == [0, 0]
    assert got[-1] == [2, 2]


@given(st.integers(2, 3), st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_all_vectors_distinct(p, dim):
    if p == 3 and dim > 3:
        dim = 3
    seen = {tuple(row) for row in all_vectors(p, dim).tolist()}
    assert len(seen) == p**dim


def test_all_vectors_refuses_over_budget():
    # a memoized table is refused too, not only a fresh one
    all_vectors(2, 10)
    hits = all_vectors.cache_info().hits
    budget.set_point_budget(100)
    with pytest.raises(BudgetExceededError, match="vector table needs 1024 points"):
        all_vectors(2, 10)
    assert all_vectors.cache_info().hits == hits
    assert all_vectors(2, 6).shape == (64, 6)


def test_shift_permutation_refuses_over_budget():
    # a memoized table is refused too, not only a fresh one
    shift_permutation(2, 12, 5)
    hits = shift_permutation.cache_info().hits
    budget.set_point_budget(100)
    with pytest.raises(BudgetExceededError, match="translation table needs 4096 points"):
        shift_permutation(2, 12, 5)
    assert shift_permutation.cache_info().hits == hits
    assert shift_permutation(2, 6, 5).shape == (64,)


def test_vector_index_roundtrip():
    for p, dim in [(2, 3), (3, 2), (5, 1)]:
        for i, v in enumerate(itertools.product(range(p), repeat=dim)):
            assert vector_index(p, v) == i
            assert vector_from_index(p, dim, i) == v


def test_all_vectors_matches_enumeration():
    table = all_vectors(3, 2)
    listed = list(itertools.product(range(3), repeat=2))
    assert [tuple(int(c) for c in row) for row in table] == listed


def test_shift_permutation_is_translation():
    p, n = 3, 2
    shift = (1, 2)
    perm = shift_permutation(p, n, vector_index(p, shift))
    for idx, v in enumerate(itertools.product(range(p), repeat=n)):
        moved = tuple((c + s) % p for c, s in zip(v, shift))
        assert perm[idx] == vector_index(p, moved)


@pytest.mark.parametrize("n", range(9))
def test_shift_permutation_p2_matches_the_generic_formula(n):
    """The p = 2 tables against (table + table[t]) % p ranked back, every t."""
    table = all_vectors(2, n).astype(np.int64)
    powers = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for t in range(2**n):
        perm = shift_permutation(2, n, t)
        assert not perm.flags.writeable
        assert perm.tolist() == (((table + table[t]) % 2) @ powers).tolist()


@pytest.mark.parametrize("p", [2, 3, 5, 17])
@pytest.mark.parametrize("n", range(5))
def test_shift_rows_match_shift_permutation_and_vector_addition(p, n):
    size = p**n
    gen = np.random.default_rng(100 * p + n)
    shifts = gen.integers(size, size=(2, 2))
    cells = gen.integers(size, size=7)
    vectors = list(itertools.product(range(p), repeat=n))
    rank = {v: t for t, v in enumerate(vectors)}
    rows = shift_rows(p, n, shifts)
    subset = shift_rows(p, n, shifts, cells)
    first = shift_rows(p, n, shifts, 0)
    assert rows.dtype == subset.dtype == first.dtype == np.int64
    assert rows.shape == (2, 2, size) and subset.shape == (2, 2, 7) and first.shape == (2, 2)
    for t, row, part, cell0 in zip(
        shifts.reshape(-1).tolist(), rows.reshape(-1, size), subset.reshape(-1, 7),
        first.reshape(-1).tolist(),
    ):
        want = [rank[tuple((a + b) % p for a, b in zip(v, vectors[t]))] for v in vectors]
        assert row.tolist() == want
        assert np.array_equal(row, shift_permutation(p, n, t))
        assert part.tolist() == [want[c] for c in cells.tolist()]
        assert cell0 == want[0]


def test_shift_rows_refuse_over_budget():
    budget.set_point_budget(100)
    with pytest.raises(BudgetExceededError, match="translation table needs 4096 points"):
        shift_rows(2, 12, [5], 0)
    with pytest.raises(BudgetExceededError, match="translation table needs 729 points"):
        shift_rows(3, 6, [5], [0, 1])


@pytest.mark.parametrize("p, n", [(2, 9), (3, 6)])
def test_shift_rows_hold_about_their_result(p, n):
    # every shift's whole row, as the row pass asks for a chunk
    shifts = np.arange(p**n)
    all_vectors(p, n)
    tracemalloc.start()
    try:
        rows = shift_rows(p, n, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 8 * p ** (2 * n)
    assert peak < 1.5 * rows.nbytes


def test_shift_rows_of_a_few_cells_hold_about_their_result():
    # cell ranks are used as given: no table of all 2**24 ranks is built
    shifts = np.array([0, 5, 2**24 - 1])
    cells = np.array([0, 1, 7, 2**23, 2**24 - 1])
    tracemalloc.start()
    try:
        rows = shift_rows(2, 24, shifts, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.tolist() == [[c ^ t for c in cells.tolist()] for t in shifts.tolist()]
    assert peak < 4096


def _is_reduced_echelon(rows) -> bool:
    """Nonzero rows, pivots strictly increasing, each pivot 1 and alone in
    its column."""
    pivots = [next((i for i, c in enumerate(row) if c), None) for row in rows]
    if None in pivots or pivots != sorted(set(pivots)):
        return False
    return all(row[col] == (r == rr) for r, row in enumerate(rows)
               for rr, col in enumerate(pivots))


def test_echelonize_duplicate_rows():
    s = rref([(1, 1), (1, 1)], 2, width=2)
    assert s.tolist() == [[1, 1]]


def test_echelonize_empty():
    s = rref([], 2, width=3)
    assert s.shape == (0, 3) and s.dtype == np.uint8


def test_echelonize_dependent_triple():
    vecs = [(1, 0, 1), (0, 1, 1), (1, 1, 0)]
    assert len(rref(vecs, 2, width=3)) == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_echelonize_idempotent_and_rank_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    n = rng.randrange(1, 5)
    rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(5))]
    s = rref(rows, p, width=n)
    assert s.shape == (len(s), n) and s.dtype == np.uint8
    assert _is_reduced_echelon(s.tolist())
    assert np.array_equal(rref(s, p, width=n), s)
    assert len(s) == brute_rank_mod(rows, p)


def test_subspace_contains_examples():
    s = rref([(1, 1)], 2, width=2)
    assert subspace_contains(s, 2, 2, (0, 0))
    assert not subspace_contains(s, 2, 2, (1, 0))
    full = rref([(1, 0), (0, 1)], 2, width=2)
    assert subspace_contains(full, 2, 2, (1, 1))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_subspace_point_count_matches_rank(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    n = rng.randrange(1, 5)
    rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(4))]
    s = rref(rows, p, width=n)
    by_scan = sum(1 for v in itertools.product(range(p), repeat=n)
                  if subspace_contains(s, p, n, v))
    assert by_scan == p**len(s)
    listed = set(subspace_points(s, p, n))
    assert len(listed) == p**len(s)
    assert all(subspace_contains(s, p, n, v) for v in listed)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_annihilator_orthogonal_and_complementary(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    n = rng.randrange(1, 5)
    rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(4))]
    s = rref(rows, p, width=n)
    a = annihilator(s, p, n)
    assert len(a) == n - len(s)
    for w in a.tolist():
        for v in s.tolist():
            assert sum(x * y for x, y in zip(w, v)) % p == 0
