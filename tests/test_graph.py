import hashlib
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle
from modmckay import graph as graph_mod
from modmckay import moves as moves_mod
from modmckay.cli import main
from modmckay.graph import (
    BudgetExceededError,
    CertifiedGraph,
    bfs_distances,
    build_certified_graph,
    distance_matrix_csv,
    subgraph_diameter,
)
from modmckay.moves import Move
from modmckay.planner import length_bound
from modmckay.weights import f_value, steinberg_weight


class TestEnumerate:
    def test_counts(self):
        assert len(build_certified_graph(3, 3).vertices) == 9
        assert build_certified_graph(2, 2).vertices == ((0,), (1,))
        assert len(build_certified_graph(5, 2).vertices) == 16

    def test_lexicographic_and_deterministic(self):
        ws = build_certified_graph(3, 3).vertices
        assert list(ws) == sorted(ws)
        assert ws == build_certified_graph(3, 3).vertices

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_certified_graph(11, 7, budget=1000)


def out_edges(g) -> dict:
    """Each vertex's edges as (move, head weight), from the columns and
    the moves that graph._edges derives."""
    out = {w: [] for w in g.vertices}
    for i, j, move in graph_mod._edges(g):
        out[g.vertices[i]].append((move, g.vertices[j]))
    return out


class TestBuild:
    def test_2_3_adjacency(self):
        g = build_certified_graph(2, 3)
        assert g.vertices == ((0,), (1,), (2,))
        assert g.columns == ([1, 2, 1], [0, 0, 1])
        out = out_edges(g)
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
        assert g.columns == ([1, 1], [0, 0])
        out = out_edges(g)
        assert out[(0,)] == [(Move("add_first"), (1,))]
        assert out[(1,)] == [
            (Move("add_first"), (1,)),
            (Move("clear_last"), (0,)),
        ]

    def test_structural_invariants(self):
        for n, p in [(3, 3), (4, 2), (5, 2), (3, 5)]:
            g = build_certified_graph(n, p)
            assert len(g.vertices) == p ** (n - 1) == len(g.columns[0]) == len(g.columns[1])
            for w, edges in out_edges(g).items():
                assert len(edges) in (1, 2)
                for _, head in edges:
                    assert f_value(head) <= f_value(w) + 1

    def test_index_of(self):
        g = build_certified_graph(3, 2)
        assert g.vertices[g.index_of((1, 1))] == (1, 1)
        with pytest.raises(ValueError):
            g.index_of((9, 9))

    @pytest.mark.parametrize("n, p", [(2, 5), (3, 2), (3, 7), (4, 3)])
    def test_index_of_reads_base_p_digits(self, n, p):
        g = build_certified_graph(n, p)
        for i, w in enumerate(g.vertices):
            assert g.index_of(w) == i == sum(m * p ** (n - 2 - k) for k, m in enumerate(w))

    # At (3,3): weights an entry short and an entry long, read as 1 and 12;
    # entries of 3 and 4, read as 9 and 4; a list; a negative entry; entries
    # that are no ints.
    @pytest.mark.parametrize("w", [
        (1,), (1, 1, 0), (3, 0), (0, 4), [1, 1], (-1, 2), ("1", "1"), (1.0, 1.0),
    ], ids=str)
    def test_index_of_refuses_what_is_no_vertex(self, w):
        with pytest.raises(ValueError, match="not a vertex"):
            build_certified_graph(3, 3).index_of(w)

    def test_index_of_refuses_a_weight_a_hand_built_graph_lacks(self):
        g = graph_oracle.from_heads(2, 5, ((0,), (1,), (2,)), [[], [], []])
        assert g.index_of((2,)) == 2
        with pytest.raises(ValueError, match="not a vertex"):
            g.index_of((3,))


# Every (n, p) with n = 2..8, p in {2, 3, 4, 5, 6, 7, 11} and at most
# 40,000 vertices, and a long n = 2 path.
BUILD_SIZES = [
    (n, p)
    for n in range(2, 9)
    for p in (2, 3, 4, 5, 6, 7, 11)
    if p ** (n - 1) <= 40_000
] + [(2, 1021)]


def assert_same_graph(n, p):
    """The build's two columns equal the oracle's at every vertex, both
    lists of ints, and each edge's derived Move is the very object
    _successors gives it."""
    g, want = build_certified_graph(n, p), graph_oracle.build_certified_graph(n, p)
    assert g == want and len(g.columns) == 2
    assert all(type(col) is list for col in g.columns)
    stepped = [
        (i, g.index_of(target), move)
        for i, w in enumerate(g.vertices)
        for move, target in moves_mod._successors(w, p)
    ]
    edges = list(graph_mod._edges(g))
    assert [edge[:2] for edge in edges] == [edge[:2] for edge in stepped]
    assert all(edge[2] is other[2] for edge, other in zip(edges, stepped))


class TestIndexRangeBuild:
    # The build restates moves._successors over index ranges; the
    # per-vertex build in graph_oracle steps _successors itself.
    @pytest.mark.parametrize("n,p", BUILD_SIZES)
    def test_matches_per_vertex_build(self, n, p):
        assert_same_graph(n, p)

    # Small instances, the non-prime p that --allow-nonprime admits included.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(2, 16))
    def test_matches_per_vertex_build_small(self, n, p):
        if p ** (n - 1) > 5000:
            n = 2
        assert_same_graph(n, p)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_add_first_self_loops_at_p2(self, n):
        # The weights with first entry 1 are the upper half of the indices,
        # and their add_first edge in column 0 returns to them.
        g = build_certified_graph(n, 2)
        half = 2 ** (n - 2)
        assert [v for v, u in enumerate(g.columns[0]) if u == v] == list(range(half, 2 * half))
        assert all(move.kind == "add_first" for v, u, move in graph_mod._edges(g) if u == v)
        assert g.edge_count == 2 * len(g.vertices) - 1

    def test_never_steps_successors(self, monkeypatch):
        def refuse(w, p):
            raise AssertionError("build_certified_graph called _successors")

        monkeypatch.setattr(moves_mod, "_successors", refuse)
        monkeypatch.setattr(graph_mod, "_successors", refuse, raising=False)
        g = build_certified_graph(5, 3)
        assert g.edge_count == len(list(graph_mod._edges(g))) == 161

    def test_memory_held_by_the_build(self):
        # The (12,3) graph, its 177,147 weight tuples and two index columns,
        # held 31.2 MiB under tracemalloc; with a (Move, index) tuple per
        # edge it held 58.1 MiB.  The limit is about 25% over the first.
        tracemalloc.start()
        try:
            g = build_certified_graph(12, 3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.edge_count == 354_293
        assert held < 39 * 2**20, f"{held / 2**20:.1f} MiB"


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


def bfs_diameter(g, heads=None):
    """The diameter the slow way: a BFS from every vertex over ``heads``
    (by default the certified ones), the first attaining pair in (source,
    target) order, and an error naming the first unreachable pair in that
    order."""
    best, witness = -1, None
    for i, row in enumerate(graph_oracle.all_pairs_distances(g, heads)):
        for j, d in enumerate(row):
            if d is None:
                raise BudgetExceededError(
                    f"vertex {g.vertices[j]} unreachable from {g.vertices[i]}"
                )
            if d > best:
                best, witness = d, (g.vertices[i], g.vertices[j])
    return best, witness


# Every (n, p) with at most 2,200 vertices for these p: n = 2 for each,
# and p = 2, whose add_first edges include self-loops.  Above 256 vertices
# the CSV matrix renders in several blocks of rows, 9 at (7,3), 76 at (8,3).
ORACLE_SIZES = [
    (n, p)
    for p in (2, 3, 5, 7, 11, 13)
    for n in range(2, 13)
    if p ** (n - 1) <= 2200
]


# Graphs built by hand, each a list of heads per vertex: 0 -> 1 -> 3 -> 0
# and 3 -> 2, with no edge out of 2; 0 -> 1 -> 2 -> 3, with no edge out
# of 3; and a lone vertex.
SINK = [[1], [3], [], [0, 2]]
PATH = [[1], [2], [3], []]
LONE = [[]]


def hand_built(heads, p: int = 4) -> CertifiedGraph:
    """The graph (2, p) on the weights (0,), (1,), ... with ``heads``."""
    return graph_oracle.from_heads(2, p, tuple((v,) for v in range(len(heads))), heads)


class TestDiameter:
    def test_3_2_with_witness(self):
        g = build_certified_graph(3, 2)
        assert subgraph_diameter(g) == (3, ((0, 0), (1, 1)))

    def test_formula_instances(self):
        for n, p in [(3, 3), (2, 5), (8, 3), (4, 13)]:
            g = build_certified_graph(n, p)
            diam, _ = subgraph_diameter(g)
            assert diam == length_bound(n, p)

    @pytest.mark.parametrize("n,p", ORACLE_SIZES)
    def test_matches_bfs_oracle(self, n, p):
        g = build_certified_graph(n, p)
        assert subgraph_diameter(g) == bfs_diameter(g)

    def test_single_vertex(self):
        g = hand_built(LONE, 2)
        assert subgraph_diameter(g) == (0, ((0,), (0,)))

    def test_sink_names_first_unreachable_pair(self):
        g = hand_built(SINK)
        with pytest.raises(BudgetExceededError) as expected:
            bfs_diameter(g, SINK)
        assert str(expected.value) == "vertex (0,) unreachable from (2,)"
        with pytest.raises(BudgetExceededError) as exc:
            subgraph_diameter(g)
        assert str(exc.value).startswith(str(expected.value) + ";")

    def test_memory_limit_refuses_diameter(self, capsys, monkeypatch):
        # (3, 3) has 9 vertices: two mask generations take 2 * 81 / 8 = 20 bytes.
        monkeypatch.setattr(graph_mod, "DIAMETER_MEMORY_LIMIT", 19)
        with pytest.raises(BudgetExceededError):
            subgraph_diameter(build_certified_graph(3, 3))
        code = main(["diameter", "--n", "3", "--p", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "20 bytes" in captured.err
        monkeypatch.setattr(graph_mod, "DIAMETER_MEMORY_LIMIT", 20)
        assert subgraph_diameter(build_certified_graph(3, 3))[0] == 6
        # The matrix also keeps bit_length(8) = 4 planes: 6 * 81 / 8 = 60 bytes.
        monkeypatch.setattr(graph_mod, "DIAMETER_MEMORY_LIMIT", 59)
        code = main(["bfs", "--n", "3", "--p", "3", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "60 bytes" in captured.err
        monkeypatch.setattr(graph_mod, "DIAMETER_MEMORY_LIMIT", 60)
        assert main(["bfs", "--n", "3", "--p", "3", "--format", "csv"]) == 0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestDistanceMatrix:
    """The CSV from the successor-mask traversal against csv.writer over
    per-source BFS rows, compared by digest."""

    @pytest.mark.parametrize("n,p", ORACLE_SIZES)
    def test_matches_bfs_oracle(self, n, p):
        g = build_certified_graph(n, p)
        assert sha256(distance_matrix_csv(g)) == sha256(graph_oracle.distance_matrix_csv(g))

    def test_cells_wider_than_one_byte(self):
        # (2, 257) is a path of 257 vertices: distances up to 256.
        g = build_certified_graph(2, 257)
        text = distance_matrix_csv(g)
        assert sha256(text) == sha256(graph_oracle.distance_matrix_csv(g))
        assert max(int(cell) for line in text.splitlines()[1:] for cell in line.split(",")[1:]) == 256

    def test_three_digit_cells_in_one_byte_lanes(self):
        # (2, 199) is a path of 199 vertices: distances up to 198, below 255.
        g = build_certified_graph(2, 199)
        text = distance_matrix_csv(g)
        assert sha256(text) == sha256(graph_oracle.distance_matrix_csv(g))
        assert max(int(cell) for line in text.splitlines()[1:] for cell in line.split(",")[1:]) == 198

    def test_unreached_targets_beyond_a_longest_path(self):
        # Distances reach V - 1 = 3, so the unreached cells need a third
        # bit plane.
        g = hand_built(PATH)
        text = distance_matrix_csv(g)
        assert sha256(text) == sha256(graph_oracle.distance_matrix_csv(g, PATH))
        assert text.splitlines()[1:] == ["0,0,1,2,3", "1,,0,1,2", "2,,,0,1", "3,,,,0"]

    def test_unreached_targets_are_empty_cells(self):
        g = hand_built(SINK)
        text = distance_matrix_csv(g)
        assert sha256(text) == sha256(graph_oracle.distance_matrix_csv(g, SINK))
        assert text.splitlines()[3] == "2,,,0,"

    def test_single_vertex(self):
        g = hand_built(LONE, 2)
        text = distance_matrix_csv(g)
        assert sha256(text) == sha256(graph_oracle.distance_matrix_csv(g, LONE))
        assert text == "source,0\r\n0,0\r\n"

    def test_rows_match_bfs(self):
        # The rows verify reads from the matrix's lanes: one-byte lanes,
        # four-byte lanes at (2,257), and None where a target is unreached;
        # and the rows of bfs_distances, level by level over the columns.
        for g, heads in (
            (build_certified_graph(4, 3), None), (build_certified_graph(2, 257), None),
            (hand_built(SINK), SINK), (hand_built(PATH), PATH),
        ):
            rows = graph_oracle.all_pairs_distances(g, heads)
            assert list(graph_mod._distance_rows(g)) == rows
            assert [bfs_distances(g, w) for w in g.vertices] == rows


def assert_same_outcome(g, heads):
    """The traversal's diameter and CSV against the per-source BFS oracle
    over the graph's ``heads``: both raise the same error, or both return
    the same value."""
    try:
        want = bfs_diameter(g, heads)
    except BudgetExceededError as expected:
        with pytest.raises(BudgetExceededError) as exc:
            subgraph_diameter(g)
        assert str(exc.value).startswith(str(expected) + ";")
    else:
        assert subgraph_diameter(g) == want
    assert sha256(distance_matrix_csv(g)) == sha256(graph_oracle.distance_matrix_csv(g, heads))


class TestOwnMaskRule:
    """The traversal drops a row's own mask once its add_first successor
    reaches it back; these pin that premise, and the fallback when a
    graph breaks it."""

    @pytest.mark.parametrize("n,p", [(2, 5), (3, 2), (5, 2), (3, 7), (4, 5), (6, 3)])
    def test_add_first_returns_within_travel_cycle(self, n, p):
        g = build_certified_graph(n, p)
        for v, w in enumerate(g.vertices[1:], 1):
            j = next(i for i, e in enumerate(w, 1) if e)
            target = g.columns[0][v]  # the add_first head
            assert bfs_distances(g, g.vertices[target])[v] <= j * (p - 1) - 1, w

    @pytest.mark.parametrize("row,target", [(6, 0), (3, 1)])
    def test_row_that_cannot_return_in_time(self, row, target):
        # At (3, 3) the rows from 3 on drop their own mask in round 2, so
        # each must be back within one move of its add_first successor.
        # (2,0) sent to (0,0) is 2 moves from home, and the graph stays
        # strongly connected; (1,0) sent to (0,1) never gets back.
        vertices = build_certified_graph(3, 3).vertices
        heads = graph_oracle.successor_heads(vertices, 3)
        heads[row][0] = target
        g = graph_oracle.from_heads(3, 3, vertices, heads)
        assert bfs_distances(g, g.vertices[target])[row] in (2, None)
        assert_same_outcome(g, heads)
        # Every round's masks are the balls of BFS, each of V rows.
        rows = graph_oracle.all_pairs_distances(g, heads)
        for k, (_, after) in enumerate(graph_mod._rounds(g, 0, "the diameter")):
            balls = [sum(1 << t for t, d in enumerate(row) if d is not None and d <= k) for row in rows]
            assert after == balls, k

    def test_successors_past_the_second(self):
        # Vertex 0 has three successors and 3 is reached only through the third.
        heads = [[1, 2, 3], [0], [0], [4], [0]]
        g = hand_built(heads, 5)
        assert len(g.columns) == 3
        assert subgraph_diameter(g) == (3, ((1,), (4,)))
        assert_same_outcome(g, heads)


class TestExports:
    def test_graph_dot(self, capsys):
        assert main(["graph", "--n", "2", "--p", "2", "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph certified_n2_p2 {")
        assert '"1" -> "1" [label="add_first"];' in dot
        assert '"1" -> "0" [label="clear_last"];' in dot
        assert main(["graph", "--n", "2", "--p", "2", "--format", "dot"]) == 0
        assert dot == capsys.readouterr().out  # deterministic

    def test_empty_plan_dot_has_isolated_node(self, capsys):
        assert main(["plan", "--p", "2", "--from", "1,0", "--to", "1,0", "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert '"1,0";' in dot
        assert "->" not in dot

    def test_plan_dot_edges_in_order(self, capsys):
        assert main(["plan", "--p", "2", "--from", "0,0", "--to", "1,1", "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert '"0,0" -> "1,0" [label="add_first"];' in dot
        assert '"1,0" -> "0,1" [label="clear_forward(1)"];' in dot

    def test_neighbors_dot(self, capsys):
        assert main(["lr-neighbors", "--weight", "1,1", "--format", "dot"]) == 0
        dot = capsys.readouterr().out
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


class TestExactLaws:
    """Two laws that fix distances on the certified graph.  The centre of
    SL_n(p), cyclic of order gcd(n, p-1), acts on L(lam) by zeta^f(lam), so
    every edge raises f by 1 modulo that order.  And f rises by at most 1
    per edge, so BFS from zero reaching every mu in f(mu) - f(0) steps means
    those are its distances."""

    @pytest.mark.parametrize("n, p", [(3, 7), (4, 5), (4, 13), (6, 7), (5, 11), (2, 251)])
    def test_central_law_on_every_edge(self, n, p):
        g = build_certified_graph(n, p)
        order = math.gcd(n, p - 1)
        fs = [f_value(w) for w in g.vertices]
        adds, clears = g.columns
        # Column 1 holds vertex 0 itself, zero having no clearing edge.
        edges = [*zip(fs, adds), *zip(fs[1:], clears[1:])]
        assert len(edges) == g.edge_count
        assert all((fs[j] - f - 1) % order == 0 for f, j in edges), (n, p)

    @pytest.mark.parametrize("n, p", [(2, 1021), (4, 13), (8, 3), (6, 7)])
    def test_distances_from_zero_are_f(self, n, p):
        g = build_certified_graph(n, p)
        zero = g.vertices[0]
        assert bfs_distances(g, zero) == [f_value(w) - f_value(zero) for w in g.vertices]
