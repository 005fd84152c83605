# The all-pairs distances and the CSV matrix as modmckay.graph computed
# them before its successor-mask traversal: one BFS per source, rendered
# by csv.writer.  The slow, independent oracle for the diameter, the
# distance matrix and the planner's admissibility tests.
"""Per-source BFS over every vertex, and the CSV matrix built from it."""

from __future__ import annotations

import csv
import io

from modmckay.graph import CertifiedGraph, bfs_distances
from modmckay.weights import format_weight


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
