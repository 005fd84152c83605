import random
import sys
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import char0_oracle
from modmckay import char0
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
        # a and b edges raise f by 1; c edges drop it by n-1, and the
        # kernel carries that change with each edge.
        rng = random.Random(202)
        for _ in range(1000):
            n = rng.randrange(2, 13)
            w = random_weight(rng, n)
            for kind, nb, carried in char0._neighbors(w):
                delta = f_value(nb) - f_value(w)
                assert delta == carried == (-(n - 1) if kind == "c" else 1)

    @pytest.mark.parametrize("n", [11, 12])
    def test_kernel_lists_edges_in_label_order(self, n):
        # At n = 12 "b(10)" sorts before "b(2)": string order, not numeric.
        rng = random.Random(204 + n)
        for _ in range(300):
            w = random_weight(rng, n, cap=3)
            listed = [(kind, nb) for kind, nb, _ in char0._neighbors(w)]
            assert listed == sorted(lr_neighbors(w)) == sorted(char0_oracle._neighbors(w))
        labels = [kind for kind, _, _ in char0._neighbors((1,) * (n - 1))]
        assert labels == sorted(labels) and len(labels) == n
        assert labels[:3] == (["a", "b(1)", "b(10)"] if n == 12 else ["a", "b(1)", "b(2)"])


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


def expansions(monkeypatch, module):
    """The weights that ``module``'s search expands, in order, recorded by
    wrapping its neighbour kernel."""
    seen = []
    real = module._neighbors

    def counting(w):
        seen.append(w)
        return real(w)

    monkeypatch.setattr(module, "_neighbors", counting)
    return seen


def assert_matches_oracle(cases):
    """char0_distance returns the oracle's answer and expands the same
    weights in the same order, case by case."""
    with pytest.MonkeyPatch.context() as m:
        new, old = expansions(m, char0), expansions(m, char0_oracle)
        for src, tgt, budget in cases:
            del new[:], old[:]
            got = char0_distance(src, tgt, budget)
            assert got == char0_oracle.char0_distance(src, tgt, budget), (src, tgt, budget)
            assert new == old, (src, tgt, budget)


def bench_char0_cases(seed):
    """(src, tgt, budget) of every char0-dist call that the benchmark's
    char0-search workload makes for ``seed``, rebuilt from its generator."""
    import importlib
    import pathlib

    bench = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    cases = []
    for op in workloads.make("char0-search", seed):
        arg = dict(zip(op.argv[1::2], op.argv[2::2]))
        ends = (tuple(map(int, arg[k].split(","))) for k in ("--from", "--to"))
        cases.append((*ends, int(arg["--budget"])))
    return cases


class TestSearchAgainstOracle:
    """The search that carries f on its stack against the search that
    recomputed it and sorted a set of neighbours at every expansion."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_benchmark_call(self, seed):
        cases = bench_char0_cases(seed)
        assert len(cases) > 200 and ((0,), (1200,), 1300) in cases
        assert_matches_oracle(cases)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_pairs(self, data):
        # Targets a few edges from the source, and budgets on both sides
        # of the distance, so some searches return None.
        n = data.draw(st.integers(2, 12), label="n")
        src = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1)))
        tgt = src
        for _ in range(data.draw(st.integers(0, 5), label="steps")):
            tgt = data.draw(st.sampled_from(sorted(lr_neighbors(tgt))))[1]
        budget = data.draw(st.integers(0, 6), label="budget")
        assert_matches_oracle([(src, tgt, budget)])

    def test_budgets_that_return_none(self):
        cases = [((0, 0), (2, 2), 3), ((0,), (5,), 4), ((1, 0, 2), (0, 3, 1), 2),
                 ((0,) * 11, (1,) * 11, 20)]
        assert_matches_oracle(cases)
        assert [char0_distance(*case) for case in cases] == [None] * 4

    def test_expansion_counts(self, monkeypatch):
        # The n = 2 line graph to depth 1,200 expands each weight on the
        # way once; the (2,2) target from zero takes a second threshold.
        counts = []
        for src, tgt, budget in [((0,), (1200,), 1300), ((0, 0), (2, 2), 10)]:
            for module in (char0, char0_oracle):
                with monkeypatch.context() as m:
                    seen = expansions(m, module)
                    module.char0_distance(src, tgt, budget)
                counts.append(len(seen))
        assert counts[0] == counts[1] == 1200
        assert counts[2] == counts[3] > 6
