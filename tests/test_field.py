import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mlvariety import budget
from mlvariety.budget import BudgetExceededError
from mlvariety.errors import PreconditionError
from mlvariety.field import (
    Subspace,
    all_vectors,
    annihilator,
    echelonize,
    shift_permutation,
    subspace_contains,
    subspace_points,
    validate_prime,
    vector_from_index,
    vector_index,
)

from helpers import brute_rank_mod


def test_validate_prime_accepts_small_primes():
    for p in (2, 3, 5, 7, 11, 13, 17):
        validate_prime(p)


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 19, -3])
def test_validate_prime_rejects(bad):
    with pytest.raises(PreconditionError):
        validate_prime(bad)


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
    all_vectors.cache_clear()  # a memoized table would skip the guard
    budget.set_point_budget(100)
    with pytest.raises(BudgetExceededError):
        all_vectors(2, 10)


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


def test_echelonize_duplicate_rows():
    s = echelonize([(1, 1), (1, 1)], 2, 2)
    assert s.rank == 1
    assert s.basis[0] == (1, 1)


def test_echelonize_empty():
    s = echelonize([], p=2, ambient_dim=3)
    assert s.rank == 0 and s.ambient_dim == 3


def test_echelonize_dependent_triple():
    vecs = [(1, 0, 1), (0, 1, 1), (1, 1, 0)]
    assert echelonize(vecs, 2, 3).rank == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_echelonize_idempotent_and_rank_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    n = rng.randrange(1, 5)
    rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(5))]
    s = echelonize(rows, p=p, ambient_dim=n)
    again = echelonize(s.basis, p=p, ambient_dim=n)
    assert again == s
    assert s.rank == brute_rank_mod(rows, p)


def test_subspace_contains_examples():
    s = echelonize([(1, 1)], 2, 2)
    assert subspace_contains(s, (0, 0))
    assert not subspace_contains(s, (1, 0))
    full = echelonize([(1, 0), (0, 1)], 2, 2)
    assert subspace_contains(full, (1, 1))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_subspace_point_count_matches_rank(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    n = rng.randrange(1, 5)
    rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(4))]
    s = echelonize(rows, p=p, ambient_dim=n)
    by_scan = sum(1 for v in itertools.product(range(p), repeat=n) if subspace_contains(s, v))
    assert by_scan == p**s.rank
    listed = set(subspace_points(s))
    assert len(listed) == p**s.rank
    assert all(subspace_contains(s, v) for v in listed)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_annihilator_orthogonal_and_complementary(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    n = rng.randrange(1, 5)
    rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(4))]
    s = echelonize(rows, p=p, ambient_dim=n)
    a = annihilator(s)
    assert a.rank == n - s.rank
    for w in a.basis:
        for v in s.basis:
            assert sum(x * y for x, y in zip(w, v)) % p == 0


def test_subspace_rejects_non_echelon_basis():
    with pytest.raises(PreconditionError):
        Subspace(2, 2, ((0, 1), (1, 0)))
    with pytest.raises(PreconditionError):
        Subspace(3, 2, ((2, 1),))  # pivot not normalized
    with pytest.raises(PreconditionError):
        Subspace(2, 2, ((1, 1), (0, 1)))  # column not cleared
