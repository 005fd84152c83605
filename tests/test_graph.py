import pytest

from modmckay.graph import (
    BudgetExceededError,
    bfs_distances,
    build_certified_graph,
    distance_matrix_csv,
    enumerate_p_restricted,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    neighbors_to_dot,
    plan_to_dot,
    subgraph_diameter,
)
from modmckay.moves import Move
from modmckay.planner import length_bound, plan_path
from modmckay.weights import f_value, steinberg_weight
from modmckay.char0 import lr_neighbors


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_p_restricted(3, 3)) == 9
        assert enumerate_p_restricted(2, 2) == [(0,), (1,)]
        assert len(enumerate_p_restricted(5, 2)) == 16

    def test_lexicographic_and_deterministic(self):
        ws = enumerate_p_restricted(3, 3)
        assert ws == sorted(ws)
        assert ws == enumerate_p_restricted(3, 3)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_p_restricted(11, 7, budget=1000)


class TestBuild:
    def test_2_3_adjacency(self):
        g = build_certified_graph(2, 3)
        assert g.vertices == ((0,), (1,), (2,))
        out = {
            w: [(m, g.vertices[j]) for m, j in adj]
            for w, adj in zip(g.vertices, g.adjacency)
        }
        assert out[(0,)] == [(Move("add_first"), (1,))]
        assert out[(1,)] == [
            (Move("add_first"), (2,)),
            (Move("clear_last"), (0,)),
        ]
        assert out[(2,)] == [
            (Move("add_first"), (1,)),
            (Move("clear_last"), (1,)),
        ]

    def test_2_2_self_loop(self):
        g = build_certified_graph(2, 2)
        out = {
            w: [(m, g.vertices[j]) for m, j in adj]
            for w, adj in zip(g.vertices, g.adjacency)
        }
        assert out[(0,)] == [(Move("add_first"), (1,))]
        assert out[(1,)] == [
            (Move("add_first"), (1,)),
            (Move("clear_last"), (0,)),
        ]

    def test_structural_invariants(self):
        for n, p in [(3, 3), (4, 2), (5, 2), (3, 5)]:
            g = build_certified_graph(n, p)
            assert len(g.vertices) == p ** (n - 1)
            for w, adj in zip(g.vertices, g.adjacency):
                assert len(adj) in (1, 2)
                for _, j in adj:
                    assert f_value(g.vertices[j]) <= f_value(w) + 1

    def test_index_of(self):
        g = build_certified_graph(3, 2)
        assert g.vertices[g.index_of((1, 1))] == (1, 1)
        with pytest.raises(ValueError):
            g.index_of((9, 9))


class TestBfs:
    def test_self_distance(self):
        g = build_certified_graph(3, 3)
        for w in g.vertices:
            assert bfs_distances(g, w)[g.index_of(w)] == 0

    def test_2_3_distance(self):
        g = build_certified_graph(2, 3)
        assert bfs_distances(g, (0,))[g.index_of((2,))] == 2

    def test_3_2_extremal(self):
        g = build_certified_graph(3, 2)
        assert bfs_distances(g, (0, 0))[g.index_of((1, 1))] == 3

    def test_strong_connectivity(self):
        for n, p in [(2, 2), (3, 3), (4, 2), (3, 5), (5, 2)]:
            g = build_certified_graph(n, p)
            for w in g.vertices:
                assert all(d is not None for d in bfs_distances(g, w))


class TestDiameter:
    def test_3_2_with_witness(self):
        g = build_certified_graph(3, 2)
        assert subgraph_diameter(g) == (3, ((0, 0), (1, 1)))

    def test_formula_instances(self):
        for n, p in [(3, 3), (2, 5)]:
            g = build_certified_graph(n, p)
            diam, _ = subgraph_diameter(g)
            assert diam == length_bound(n, p)


class TestExports:
    def test_graph_dot(self):
        g = build_certified_graph(2, 2)
        dot = graph_to_dot(g)
        assert dot.startswith("digraph certified_n2_p2 {")
        assert '"1" -> "1" [label="add_first"];' in dot
        assert '"1" -> "0" [label="clear_last"];' in dot
        assert dot == graph_to_dot(g)  # deterministic

    def test_graph_json_roundtrip(self):
        g = build_certified_graph(3, 2)
        again = graph_from_json(graph_to_json(g))
        assert again.n == g.n and again.p == g.p
        assert again.vertices == g.vertices
        assert again.adjacency == g.adjacency

    def test_empty_plan_dot_has_isolated_node(self):
        plan = plan_path((1, 0), (1, 0), 2)
        dot = plan_to_dot(plan)
        assert '"1,0";' in dot
        assert "->" not in dot

    def test_plan_dot_edges_in_order(self):
        plan = plan_path((0, 0), (1, 1), 2)
        dot = plan_to_dot(plan)
        assert '"0,0" -> "1,0" [label="add_first"];' in dot
        assert '"1,0" -> "0,1" [label="clear_forward(1)"];' in dot

    def test_neighbors_dot(self):
        dot = neighbors_to_dot((1, 1), lr_neighbors((1, 1)))
        assert '"1,1" -> "1,0" [label="c"];' in dot

    def test_csv_matrix(self):
        g = build_certified_graph(2, 3)
        csv_text = distance_matrix_csv(g)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "source,0,1,2"
        assert lines[1] == "0,0,1,2"
        # d((2),(0)) goes through (1): two steps
        assert lines[3].startswith("2,2,1,0")


class TestExtremalDistance:
    def test_zero_to_steinberg_equals_bound(self):
        for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            g = build_certified_graph(n, p)
            dist = bfs_distances(g, (0,) * (n - 1))
            assert dist[g.index_of(steinberg_weight(n, p))] == length_bound(n, p)
