import random
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conormal_oracle as oracle
from modmckay.conormal import (
    addable_indices,
    bk_children,
    conormal_indices,
    removable_indices,
)
from modmckay.weights import weight_to_partition


def random_partition(rng, n, cap=12):
    return tuple(sorted((rng.randrange(cap + 1) for _ in range(n)), reverse=True))


def exhaustive_injection_exists(removers, adders):
    """Brute-force oracle: try every injection g with g(k) > k."""
    if len(removers) > len(adders):
        return False
    return any(
        all(a > r for r, a in zip(removers, image))
        for image in permutations(adders, len(removers))
    )


class TestAddable:
    def test_empty(self):
        assert addable_indices((0, 0, 0)) == {1}

    def test_staircase(self):
        assert addable_indices((2, 1, 0)) == {1, 2, 3}

    def test_flat_block(self):
        assert addable_indices((2, 2, 0)) == {1, 3}


class TestRemovable:
    def test_empty(self):
        assert removable_indices((0, 0, 0, 0)) == set()

    def test_flat_block(self):
        assert removable_indices((2, 2, 0)) == {2}

    def test_two_rows(self):
        assert removable_indices((3, 1, 0)) == {1, 2}


class TestConormal:
    def test_empty_any_p(self):
        for p in (2, 3, 5):
            assert conormal_indices((0, 0, 0), p) == {1}

    def test_single_box_p2(self):
        assert conormal_indices((1, 0), 2) == {1, 2}

    def test_blocked_injection_p2(self):
        # R_2 = {1} (residues match) but A_2 is empty
        assert conormal_indices((2, 0), 2) == {1}

    def test_subset_of_addable(self):
        rng = random.Random(301)
        for _ in range(500):
            parts = random_partition(rng, rng.randrange(2, 7))
            p = rng.choice([2, 3, 5])
            assert conormal_indices(parts, p) <= addable_indices(parts)

    def test_index_one_always_conormal(self):
        rng = random.Random(302)
        for _ in range(500):
            parts = random_partition(rng, rng.randrange(2, 7))
            p = rng.choice([2, 3, 5])
            assert 1 in conormal_indices(parts, p)

    def test_greedy_matches_exhaustive_oracle(self):
        # The single-pass kernel and the oracle's greedy matching both agree
        # with a brute-force search over injections, row by row.
        rng = random.Random(303)
        for _ in range(2000):
            parts = random_partition(rng, rng.randrange(2, 7))
            p = rng.choice([2, 3, 5])
            con = conormal_indices(parts, p)
            for i in sorted(addable_indices(parts)):
                removers, adders = oracle._residue_sets(parts, i, p)
                exists = exhaustive_injection_exists(removers, adders)
                assert oracle._greedy_injection_exists(removers, adders) == exists
                assert (i in con) == exists

    def test_one_plus_a1_conormal_for_restricted_weights(self):
        # holds because the first two block values differ by an entry in
        # 1..p-1, which empties the candidate set at index 1+a_1
        for n, p in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (2, 5), (3, 5)]:
            for w in product(range(p), repeat=n - 1):
                if not any(w):
                    continue
                parts = weight_to_partition(w)
                a1 = oracle.block_form(parts)[0][1]
                assert 1 + a1 in conormal_indices(parts, p)


class TestBkChildren:
    def test_zero(self):
        assert bk_children((0, 0, 0), 3) == {(1, (1, 0))}

    def test_all_rows_conormal(self):
        assert bk_children((2, 1, 0), 2) == {
            (1, (2, 1)),
            (2, (0, 2)),
            (3, (1, 0)),
        }

    def test_n2_single_child(self):
        assert bk_children((2, 0), 2) == {(1, (3,))}


class TestBlockForm:
    """The run-length form of tests/conormal_oracle.py, which gives the
    block size a_1 to the tests of the clearing row 1 + a_1."""

    def test_examples(self):
        assert oracle.block_form((2, 2, 0)) == [(2, 2), (0, 1)]
        assert oracle.block_form((0, 0, 0)) == [(0, 3)]
        assert oracle.block_form((4, 2, 0)) == [(4, 1), (2, 1), (0, 1)]

    def test_reconstruction(self):
        rng = random.Random(304)
        for _ in range(200):
            parts = random_partition(rng, rng.randrange(2, 8))
            rebuilt = tuple(v for v, mult in oracle.block_form(parts) for _ in range(mult))
            assert rebuilt == parts


def assert_matches_oracle(parts, p):
    assert addable_indices(parts) == oracle.addable_indices(parts)
    assert removable_indices(parts) == oracle.removable_indices(parts)
    assert conormal_indices(parts, p) == oracle.conormal_indices(parts, p)
    assert bk_children(parts, p) == oracle.bk_children(parts, p)


# Weakly decreasing tuples of 2..10 parts, as suffix sums of their gaps.
# Gaps up to 12 make most of them partitions of weights that are not
# p-restricted, and the last part is nonzero whenever the last gap is.
partitions = st.lists(st.integers(0, 12), min_size=2, max_size=10).map(
    lambda gaps: tuple(sum(gaps[i:]) for i in range(len(gaps)))
)


class TestAgainstOracle:
    """The single-pass kernel against the previous implementation, kept
    in tests/conormal_oracle.py."""

    @settings(max_examples=500, deadline=None)
    @given(partitions, st.sampled_from([2, 3, 5, 7]))
    @example((9, 9, 2, 0), 3)  # weight (0, 7, 2): not 3-restricted
    @example((12, 7, 7, 5), 2)  # nonzero last part
    def test_random_partitions(self, parts, p):
        assert_matches_oracle(parts, p)

    @pytest.mark.parametrize("n, p", [(4, 5), (6, 3)])
    def test_every_vertex(self, n, p):
        for w in product(range(p), repeat=n - 1):
            assert_matches_oracle(weight_to_partition(w), p)
