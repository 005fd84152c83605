import random
import sys
from collections import deque
from itertools import product

import pytest

from modmckay.char0 import char0_distance, lr_neighbors
from modmckay.planner import plan_path
from modmckay.weights import (
    f_value,
    partition_to_weight,
    steinberg_weight,
    weight_to_partition,
)
from planner_oracle import canonical_path_char0


def box_add_oracle(w):
    """Independent route to the tensor neighbours: add one box to the
    attached partition in every addable row, convert back."""
    parts = weight_to_partition(w)
    n = len(parts)
    out = set()
    for row in range(1, n + 1):
        if row > 1 and parts[row - 2] < parts[row - 1] + 1:
            continue
        bumped = tuple(x + (1 if j == row else 0) for j, x in enumerate(parts, 1))
        kind = "a" if row == 1 else ("c" if row == n else f"b({row - 1})")
        out.add((kind, partition_to_weight(bumped)))
    return out


def random_weight(rng, n, cap=5):
    return tuple(rng.randrange(cap) for _ in range(n - 1))


class TestLrNeighbors:
    def test_zero(self):
        assert lr_neighbors((0, 0, 0, 0)) == {("a", (1, 0, 0, 0))}

    def test_standard_n5(self):
        assert lr_neighbors((1, 0, 0, 0)) == {
            ("a", (2, 0, 0, 0)),
            ("b(1)", (0, 1, 0, 0)),
        }

    def test_all_three_kinds(self):
        assert lr_neighbors((1, 1)) == {
            ("a", (2, 1)),
            ("b(1)", (0, 2)),
            ("c", (1, 0)),
        }

    def test_matches_box_adding_oracle(self):
        rng = random.Random(201)
        for _ in range(2000):
            w = random_weight(rng, rng.randrange(2, 9))
            assert lr_neighbors(w) == box_add_oracle(w)

    def test_f_delta_law(self):
        # a and b edges raise f by 1; c edges drop it by n-1
        rng = random.Random(202)
        for _ in range(500):
            n = rng.randrange(2, 9)
            w = random_weight(rng, n)
            for kind, nb in lr_neighbors(w):
                delta = f_value(nb) - f_value(w)
                assert delta == (-(n - 1) if kind == "c" else 1)


def canonical_path(n, p):
    """The waypoints of the planner's zero-to-Steinberg plan, which the
    canonical-path command renders."""
    return plan_path((0,) * (n - 1), steinberg_weight(n, p), p).waypoints


class TestCanonicalPath:
    """The planner's zero-to-Steinberg walk, and the edge-by-edge oracle
    that modmckay.char0 used to build, against the same literal paths."""

    def test_golden_path_n5_p2(self):
        expected = (
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 0, 0, 1),
            (0, 1, 0, 1),
            (0, 0, 1, 1),
            (1, 0, 1, 1),
            (0, 1, 1, 1),
            (1, 1, 1, 1),
        )
        assert canonical_path(5, 2) == canonical_path_char0(5, 2) == expected

    def test_n2_p3(self):
        expected = ((0,), (1,), (2,))
        assert canonical_path(2, 3) == canonical_path_char0(2, 3) == expected

    def test_n3_p2(self):
        expected = ((0, 0), (1, 0), (0, 1), (1, 1))
        assert canonical_path(3, 2) == canonical_path_char0(3, 2) == expected

    def test_length_and_validity(self):
        for n in range(2, 7):
            for p in (2, 3, 5):
                path = canonical_path(n, p)
                assert path == canonical_path_char0(n, p)
                expected = sum((n - j) * (p - 1) for j in range(1, n))
                assert len(path) - 1 == expected == (p - 1) * (n * n - n) // 2
                assert path[0] == (0,) * (n - 1)
                assert path[-1] == steinberg_weight(n, p)
                assert len(set(path)) == len(path)
                for a, b in zip(path, path[1:]):
                    assert b in {t for _, t in lr_neighbors(a)}


def bfs_with_cutoff(src, cutoff):
    """Plain level-by-level BFS oracle over the infinite graph, truncated."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        if dist[w] == cutoff:
            continue
        for _, nb in lr_neighbors(w):
            if nb not in dist:
                dist[nb] = dist[w] + 1
                queue.append(nb)
    return dist


class TestChar0Distance:
    def test_zero_to_steinberg_n3_p3(self):
        assert char0_distance((0, 0), (2, 2), 10) == 6

    def test_self_distance(self):
        assert char0_distance((1, 2), (1, 2), 0) == 0

    def test_line_graph_n2(self):
        for k in range(7):
            assert char0_distance((0,), (k,), 10) == k

    def test_deeper_than_recursion_limit(self):
        depth = sys.getrecursionlimit() + 200
        assert char0_distance((0,), (depth,), depth + 100) == depth

    def test_exceeds_budget(self):
        assert char0_distance((0, 0), (2, 2), 3) is None
        assert char0_distance((0,), (5,), 4) is None

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            char0_distance((0, 0), (0, 0, 0), 5)

    def test_lower_bounded_by_f(self):
        zero = (0, 0)
        for tgt in product(range(2), repeat=2):
            d = char0_distance(zero, tgt, 8)
            assert d is not None and d >= f_value(tgt)

    def test_matches_bfs_oracle(self):
        rng = random.Random(203)
        cutoff = 6
        for _ in range(20):
            src = random_weight(rng, 3, cap=3)
            table = bfs_with_cutoff(src, cutoff)
            candidates = sorted(table)[:10]
            for tgt in candidates:
                assert char0_distance(src, tgt, cutoff) == table[tgt]
