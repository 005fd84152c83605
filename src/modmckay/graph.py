"""The certified subgraph over all p-restricted weights: enumeration,
BFS distances, diameter, and DOT/JSON/CSV export.

Vertices are listed in lexicographic order, so indices are deterministic.
Out-degrees are 1 (zero weight) or 2, and every edge obeys the potential
law f(head) <= f(tail) + 1.  The graph is immutable after construction.

The diameter is one bit-parallel traversal from all V sources at once
(multi-source traversal over bitsets, after Then et al., PVLDB 8(4),
2014), not V separate BFS runs: every vertex keeps a V-bit mask of the
sources that reach it, and each round ORs in the masks of its
predecessors until every mask is full.  Two generations of masks take
2 * V^2 / 8 bytes; above DIAMETER_MEMORY_LIMIT (1 GiB, about 65,000
vertices) the diameter is refused with BudgetExceededError before
anything is allocated.  Per-source BFS still serves single rows, the CSV
distance matrix, and the tests as the independent oracle.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import product

from .moves import Move, certified_moves
from .planner import PathPlan
from .weights import Weight, format_weight

DEFAULT_VERTEX_BUDGET = 10**6
# Bytes the diameter's two generations of reachability masks may take.
DIAMETER_MEMORY_LIMIT = 1 << 30


class BudgetExceededError(RuntimeError):
    """The requested (n, p) state space exceeds the configured budget."""


def enumerate_p_restricted(
    n: int, p: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> list[Weight]:
    """All p^(n-1) p-restricted weights in lexicographic order."""
    if n < 2 or p < 2:
        raise ValueError("need n >= 2 and p >= 2")
    count = p ** (n - 1)
    if count > budget:
        raise BudgetExceededError(
            f"{count} = {p}^{n - 1} vertices exceed the budget of {budget}"
        )
    return [w for w in product(range(p), repeat=n - 1)]


@dataclass
class CertifiedGraph:
    """Adjacency over all p-restricted weights; edges are certified moves."""

    n: int
    p: int
    vertices: tuple[Weight, ...]
    adjacency: tuple[tuple[tuple[Move, int], ...], ...]
    _index: dict[Weight, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self._index:
            self._index.update({w: i for i, w in enumerate(self.vertices)})

    def index_of(self, w: Weight) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise ValueError(f"{w} is not a vertex of this graph") from None

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.adjacency)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "vertices": [list(w) for w in self.vertices],
            "edges": [
                {"from": i, "to": j, "move": move.to_json_dict()}
                for i, adj in enumerate(self.adjacency)
                for move, j in adj
            ],
        }


def build_certified_graph(
    n: int, p: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> CertifiedGraph:
    """Construct the certified subgraph for (n, p)."""
    vertices = tuple(enumerate_p_restricted(n, p, budget))
    index = {w: i for i, w in enumerate(vertices)}
    adjacency = tuple(
        tuple((move, index[target]) for move, target in certified_moves(w, p))
        for w in vertices
    )
    return CertifiedGraph(n=n, p=p, vertices=vertices, adjacency=adjacency)


def bfs_distances(g: CertifiedGraph, source: Weight) -> list[int | None]:
    """Exact directed distances from ``source`` to every vertex, aligned
    with g.vertices; None marks unreachable vertices (which does not occur
    for these graphs, but the caller should not have to trust that)."""
    dist: list[int | None] = [None] * len(g.vertices)
    start = g.index_of(source)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for _, u in g.adjacency[v]:
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def all_pairs_distances(g: CertifiedGraph) -> list[list[int | None]]:
    """Per-source BFS over all vertices; row i is bfs_distances from
    vertex i."""
    return [bfs_distances(g, w) for w in g.vertices]


def subgraph_diameter(g: CertifiedGraph) -> tuple[int, tuple[Weight, Weight]]:
    """Maximum distance over all ordered pairs, with the first attaining
    pair in (source index, target index) order.

    Bit s of ``reach[v]`` is set once source s reaches v; round k ORs into
    each mask the masks of v's predecessors, so after k rounds it holds
    the sources within distance k.  The round that fills every mask is
    the diameter, and the pairs at that distance are the bits still
    missing one round earlier.  Unreachable pairs would make the diameter
    infinite; a round that changes nothing while a mask is not full
    reports the first such pair as an error rather than skipping it.
    """
    size = len(g.vertices)
    need = 2 * size * size // 8
    if need > DIAMETER_MEMORY_LIMIT:
        raise BudgetExceededError(
            f"the diameter of {size} vertices needs {need} bytes of "
            f"reachability masks, over the limit of {DIAMETER_MEMORY_LIMIT}"
        )
    preds: list[set[int]] = [set() for _ in range(size)]
    for u, adj in enumerate(g.adjacency):
        for _, v in adj:
            if u != v:
                preds[v].add(u)
    full = (1 << size) - 1
    reach = [1 << v for v in range(size)]
    rounds = 0
    witness = (0, 0)  # a lone vertex is its own farthest vertex
    while any(m != full for m in reach):
        nxt = []
        for m, ps in zip(reach, preds):
            for u in ps:
                m |= reach[u]
            nxt.append(m)
        if nxt == reach:
            i, j = _first_missing(reach, full)
            raise BudgetExceededError(
                f"vertex {g.vertices[j]} unreachable from {g.vertices[i]}; "
                "the certified subgraph should be strongly connected"
            )
        rounds += 1
        if all(m == full for m in nxt):
            witness = _first_missing(reach, full)
        reach = nxt
    i, j = witness
    return rounds, (g.vertices[i], g.vertices[j])


def _first_missing(reach: list[int], full: int) -> tuple[int, int]:
    """The first (source, target) index pair, in row-major order, whose
    bit is missing from the masks ``reach``; some bit must be."""
    holes = 0
    for m in reach:
        holes |= full ^ m
    i = (holes & -holes).bit_length() - 1
    j = next(j for j, m in enumerate(reach) if not m >> i & 1)
    return i, j


def _dot(name: str, nodes: list[str], edges: list[tuple[str, str, str]]) -> str:
    """A node listed twice is written once, at its first place."""
    lines = [f"digraph {name} {{"]
    lines += [f'  "{node}";' for node in dict.fromkeys(nodes)]
    lines += [f'  "{a}" -> "{b}" [label="{label}"];' for a, b, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(g: CertifiedGraph) -> str:
    """Deterministic DOT rendering with move-kind edge labels."""
    nodes = [format_weight(w) for w in g.vertices]
    edges = [
        (format_weight(w), format_weight(g.vertices[j]), str(move))
        for w, adj in zip(g.vertices, g.adjacency)
        for move, j in adj
    ]
    return _dot(f"certified_n{g.n}_p{g.p}", nodes, edges)


def walk_to_dot(name: str, waypoints: Iterable[Weight], labels: Iterable[str]) -> str:
    """A walk as a DOT path with one label per step; a vertex visited
    twice keeps one node, and a walk of one waypoint renders that vertex."""
    names = [format_weight(w) for w in waypoints]
    return _dot(name, names, list(zip(names, names[1:], labels)))


def plan_to_dot(plan: PathPlan) -> str:
    """A plan as a DOT path labelled by its moves, expanded once."""
    names, labels = [format_weight(plan.source)], []
    for move, w in plan._walk():
        names.append(format_weight(w))
        labels.append(str(move))
    return _dot(f"plan_n{plan.n}_p{plan.p}", names, list(zip(names, names[1:], labels)))


def neighbors_to_dot(w: Weight, neighbors: set[tuple[str, Weight]]) -> str:
    """The out-star of a vertex, e.g. characteristic-0 neighbours with
    their a / b(i) / c labels."""
    center = format_weight(w)
    edges = [(center, format_weight(nb), kind) for kind, nb in sorted(neighbors)]
    return _dot("neighbors", [center] + [nb for _, nb, _ in edges], edges)


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
