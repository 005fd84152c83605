# The certified graph, the all-pairs distances and the CSV matrix as
# modmckay.graph computed them before its index-range build and its
# successor-mask traversal: one _successors call per vertex, one BFS per
# source, rendered by csv.writer; and a graph's JSON data as
# CertifiedGraph.to_json_dict built it.  The slow, independent oracle for
# the graph build, the diameter, the distance matrix, ``graph --format
# json`` and the planner's admissibility tests.  It reads no successor
# column that modmckay.graph built: its BFS steps each weight through
# _successors, or follows the heads a test wrote by hand.
"""The per-vertex graph build, per-source BFS over every vertex, the CSV
matrix built from it, and a graph's JSON data."""

from __future__ import annotations

import csv
import io
from collections import deque
from itertools import product

from modmckay.graph import CertifiedGraph
from modmckay.moves import _successors
from modmckay.weights import Weight, format_weight


def successor_heads(vertices: tuple[Weight, ...], p: int) -> list[list[int]]:
    """Each vertex's certified out-neighbours, as indices into ``vertices``,
    add_first first: each vertex stepped through _successors and its
    targets looked up by weight."""
    index = {w: i for i, w in enumerate(vertices)}
    return [[index[target] for _, target in _successors(w, p)] for w in vertices]


def from_heads(n: int, p: int, vertices: tuple[Weight, ...], heads) -> CertifiedGraph:
    """The graph whose vertex v has the out-neighbours ``heads[v]``: column
    c holds each vertex's c-th head, or the vertex itself when it has
    fewer, and there are at least two columns."""
    width = max(2, *map(len, heads))
    columns = tuple(
        [hs[c] if c < len(hs) else v for v, hs in enumerate(heads)] for c in range(width)
    )
    return CertifiedGraph(n=n, p=p, vertices=vertices, columns=columns)


def build_certified_graph(n: int, p: int) -> CertifiedGraph:
    """The certified subgraph for (n, p), its columns from _successors."""
    vertices = tuple(product(range(p), repeat=n - 1))
    return from_heads(n, p, vertices, successor_heads(vertices, p))


def bfs_distances(g: CertifiedGraph, source: int, heads=None) -> list[int | None]:
    """Distances from vertex index ``source`` to every vertex by a FIFO
    queue over ``heads`` (by default the certified ones, stepped through
    _successors); None where unreached."""
    heads = successor_heads(g.vertices, g.p) if heads is None else heads
    dist: list[int | None] = [None] * len(g.vertices)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in heads[v]:
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def all_pairs_distances(g: CertifiedGraph, heads=None) -> list[list[int | None]]:
    """Per-source BFS over all vertices; row i is bfs_distances from
    vertex i over ``heads`` (by default the certified ones)."""
    heads = successor_heads(g.vertices, g.p) if heads is None else heads
    return [bfs_distances(g, i, heads) for i in range(len(g.vertices))]


def distance_matrix_csv(g: CertifiedGraph, heads=None) -> str:
    """All-pairs distance matrix as CSV; header row holds weight labels,
    each following row is one source."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    labels = [format_weight(w) for w in g.vertices]
    writer.writerow(["source"] + labels)
    for w, row in zip(g.vertices, all_pairs_distances(g, heads)):
        writer.writerow([format_weight(w)] + ["" if d is None else d for d in row])
    return buf.getvalue()


def graph_json(n: int, p: int) -> dict:
    """The certified graph for (n, p) as JSON data, each vertex's edges
    stepped through _successors: the payload of ``graph --format json``."""
    vertices = list(product(range(p), repeat=n - 1))
    index = {w: i for i, w in enumerate(vertices)}
    return {
        "n": n,
        "p": p,
        "vertices": [list(w) for w in vertices],
        "edges": [
            {"from": i, "to": index[target], "move": move.to_json_dict()}
            for i, w in enumerate(vertices)
            for move, target in _successors(w, p)
        ],
    }
