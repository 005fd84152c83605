# The certified graph, the all-pairs distances and the CSV matrix as
# modmckay.graph computed them before its index-range build and its
# successor-mask traversal: one _successors call per vertex, one BFS per
# source, rendered by csv.writer; and a graph's JSON data as
# CertifiedGraph.to_json_dict built it.  The slow, independent oracle for
# the graph build, the diameter, the distance matrix, ``graph --format
# json`` and the planner's admissibility tests.
"""The per-vertex graph build, per-source BFS over every vertex, the CSV
matrix built from it, and a graph's JSON data."""

from __future__ import annotations

import csv
import io
from itertools import product

from modmckay.graph import CertifiedGraph, bfs_distances
from modmckay.moves import _successors
from modmckay.weights import format_weight


def build_certified_graph(n: int, p: int) -> CertifiedGraph:
    """The certified subgraph for (n, p), each vertex stepped through
    _successors and its targets looked up by weight."""
    vertices = tuple(product(range(p), repeat=n - 1))
    index = {w: i for i, w in enumerate(vertices)}
    adjacency = tuple(
        tuple((move, index[target]) for move, target in _successors(w, p))
        for w in vertices
    )
    return CertifiedGraph(n=n, p=p, vertices=vertices, adjacency=adjacency)


def all_pairs_distances(g: CertifiedGraph) -> list[list[int | None]]:
    """Per-source BFS over all vertices; row i is bfs_distances from
    vertex i."""
    return [bfs_distances(g, w) for w in g.vertices]


def distance_matrix_csv(g: CertifiedGraph) -> str:
    """All-pairs distance matrix as CSV; header row holds weight labels,
    each following row is one source."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    labels = [format_weight(w) for w in g.vertices]
    writer.writerow(["source"] + labels)
    for w, row in zip(g.vertices, all_pairs_distances(g)):
        writer.writerow([format_weight(w)] + ["" if d is None else d for d in row])
    return buf.getvalue()


def graph_json(g: CertifiedGraph) -> dict:
    """The graph as JSON data: the payload of ``graph --format json``."""
    return {
        "n": g.n,
        "p": g.p,
        "vertices": [list(w) for w in g.vertices],
        "edges": [
            {"from": i, "to": j, "move": move.to_json_dict()}
            for i, adj in enumerate(g.adjacency)
            for move, j in adj
        ],
    }
