"""The certified subgraph over all p-restricted weights: enumeration,
BFS distances, diameter, and the all-pairs distance matrix as CSV.

Vertices are listed in lexicographic order, so indices are deterministic:
weight w has index sum of w_i * p^(n-1-i), its entries read as base-p
digits.  Out-degrees are 1 (zero weight) or 2, and every edge obeys the
potential law f(head) <= f(tail) + 1.

The edges are two successor columns of vertex indices: column 0 holds
each vertex's add_first head, column 1 its clearing head, or, at zero,
zero itself.  Each certified move shifts a contiguous range of indices
by a constant, so the build slices the columns from such ranges
(build_certified_graph states them) and never steps a vertex through
moves._successors.  No edge holds a Move: _edges derives each from its
column and its source's index.

The diameter and the all-pairs distance matrix come from one bit-parallel
traversal from all V sources at once (multi-source traversal over bitsets,
after Then et al., PVLDB 8(4), 2014), not from V separate BFS runs: each
round ORs the masks of a source's successors through the columns
(_rounds).  At n = 2, a path of p vertices, it does V-bit ORs for V - 1
rounds, so per-source BFS is faster there: at (2,1021), under Python
3.11, the CSV matrix takes about 0.5 s and per-source BFS rows written by
csv.writer about 0.38 s.

The traversal's two generations of V-bit masks take 2 * V^2 / 8 bytes,
and each of the matrix's bit_length(V - 1) bit planes V^2 / 8 more.  Above
DIAMETER_MEMORY_LIMIT (1 GiB: about 65,000 vertices for the diameter,
22,000 for the matrix) the traversal is refused with BudgetExceededError
before anything is allocated.  ``verify`` proves the diameter from the
planner's walks instead, and reads the matrix's lanes only to measure
its gap figures on every pair.  Per-source BFS serves single rows:
``bfs --from``, and the sources of the pairs that ``verify`` samples.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, count, product, repeat
from operator import ne, xor

from .moves import _ADD_FIRST_MOVE, _CLEAR_LAST_MOVE, Move, _clear_forward, first_nonzero_position
from .weights import Weight, format_weight

DEFAULT_VERTEX_BUDGET = 10**6
# Bytes the traversal's reachability masks may take: two generations, plus
# the distance matrix's bit planes.
DIAMETER_MEMORY_LIMIT = 1 << 30


class BudgetExceededError(RuntimeError):
    """The requested (n, p) state space exceeds the configured budget."""


@dataclass
class CertifiedGraph:
    """All p-restricted weights and two or more successor columns: column c
    holds each vertex's c-th successor index, or the vertex itself when it
    has fewer.  Only graphs built by hand hold more than two."""

    n: int
    p: int
    vertices: tuple[Weight, ...]
    columns: tuple[list[int], ...]

    def index_of(self, w: Weight) -> int:
        """The index of vertex ``w``, its entries read as base-p digits;
        ValueError when the vertex there is not ``w``."""
        i = 0
        try:
            for m in w:
                i = i * self.p + m
            if 0 <= i < len(self.vertices) and self.vertices[i] == w:
                return i
        except TypeError:  # an entry or the index is no int
            pass
        raise ValueError(f"{w} is not a vertex of this graph")

    @property
    def edge_count(self) -> int:
        """Column 0's entries and the later columns' that are not their vertex."""
        first, *rest = self.columns
        return len(first) + sum(sum(map(ne, col, count())) for col in rest)


def build_certified_graph(
    n: int, p: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> CertifiedGraph:
    """Construct the certified subgraph for (n, p), its p^(n-1) vertices
    in lexicographic order.

    Vertex w has index v = sum of w_i * P_i, with P_i = p^(n-1-i) for
    positions i = 1..n-1 and V = P_0 the vertex count.  Each move changes
    one or two entries, so it shifts a contiguous range of indices by a
    constant, and the successor columns are built from ranges:

    * add_first: v + P_1 while w_1 < p-1, and the block w_1 = p-1 wraps
      to w_1 = 1, so the targets are range(P_1, V), range(P_1, 2 P_1);
    * v >= 1 has its first nonzero entry at s exactly when
      P_s <= v < P_(s-1).  For s = n-1, clear_last sends v to v - 1.
      For s < n-1, each value of w_s spans P_s indices, whose rows with
      w_(s+1) < p-1 shift by -P_s + P_(s+1), and whose last block of
      P_(s+1) rows, w_(s+1) = p-1, wraps by -P_s - (p-2) P_(s+1).

    For p = 2 the wrapping blocks are the self-loops of add_first and
    the shifts by -P_s of clear_forward.  This restates moves._successors
    over index ranges; the tests pin the two to each other.
    """
    if n < 2 or p < 2:
        raise ValueError("need n >= 2 and p >= 2")
    count = p ** (n - 1)
    if count > budget:
        raise BudgetExceededError(
            f"{count} = {p}^{n - 1} vertices exceed the budget of {budget}"
        )
    vertices = tuple(product(range(p), repeat=n - 1))
    # Targets are slices of one list, so the columns share one int per vertex.
    ids = list(range(count))
    powers = [p ** (n - 1 - i) for i in range(n)]  # P_0 = V, ..., P_(n-1) = 1
    firsts = list(_wrapped(ids, 0, count, powers[1]))
    # Column 1: zero itself, clear_last's heads, then clear_forward(s)'s for
    # s = n-2 down to 1, one block of targets per value of w_s.
    clearing = ids[:1] + ids[: p - 1]
    for s in range(n - 2, 0, -1):
        block, step = powers[s], powers[s + 1]
        for base in range(0, powers[s - 1] - block, block):
            clearing += _wrapped(ids, base, block, step)
    return CertifiedGraph(n=n, p=p, vertices=vertices, columns=(firsts, clearing))


def _wrapped(ids: list[int], base: int, block: int, step: int) -> Iterator[int]:
    """The targets, in order, of ``block`` = p * ``step`` consecutive
    indices, over which an entry e of weight ``step`` runs through
    0, ..., p-1, when e becomes the representative of e + 1 in
    {1, ..., p-1} and the block's start becomes ``base``: e < p-1 moves
    to base + (e + 1) * step, and e = p-1 wraps to base + step.  The
    targets are sliced from ``ids``, the list of all indices."""
    return chain(ids[base + step : base + block], ids[base + step : base + 2 * step])


def _edges(g: CertifiedGraph) -> Iterator[tuple[int, int, Move]]:
    """Every edge of a certified graph as (tail, head, move), by tail, each
    Move from its column and tail index v: column 0 is add_first; column 1
    holds no edge at v = 0, clear_last at 1 <= v <= p-1, whose first nonzero
    entry is the last, and clear_forward(s) above, s that position."""
    for v, (x, y) in enumerate(zip(*g.columns)):
        yield v, x, _ADD_FIRST_MOVE
        if v:
            s = first_nonzero_position(g.vertices[v])
            yield v, y, _CLEAR_LAST_MOVE if s == g.n - 1 else _clear_forward(s)


def bfs_distances(g: CertifiedGraph, source: Weight) -> list[int | None]:
    """Exact directed distances from ``source`` to every vertex, aligned
    with g.vertices; None marks unreachable vertices (which does not occur
    for these graphs, but the caller should not have to trust that).  It
    goes level by level, reading each level's heads column by column."""
    dist: list[int | None] = [None] * len(g.vertices)
    level = [g.index_of(source)]
    dist[level[0]] = d = 0
    while level:
        d += 1
        tails, level = level, []
        for col in g.columns:
            for u in map(col.__getitem__, tails):
                if dist[u] is None:
                    dist[u] = d
                    level.append(u)
    return dist


def _mask_bytes(size: int, planes: int) -> int:
    """Bytes of two generations of V masks and ``planes`` more lists of them."""
    return (2 + planes) * size * size // 8


def _rounds(
    g: CertifiedGraph, planes: int, what: str
) -> Iterator[tuple[list[int], list[int]]]:
    """The successor-mask traversal: bit t of ``reach[s]`` is set once
    source s reaches t.  Round k + 1 sets each mask to its source's own
    bit and its successors' masks after round k, read through g.columns as
    they are (padding with its own index adds nothing), so it leaves the
    targets within distance k + 1.  Yields each round's (before, after)
    masks, round 0 going from none to the source's own bit, until a round
    changes nothing.

    Of a source's own mask only its own bit is new, and on the certified
    graph the successors' masks hold that bit from round j(p-1) on, j
    being the position of the source's first nonzero entry: travel(j) x
    (p-1) is a cycle through the source that starts with its add_first
    edge.  The sources with j <= J are the indices from p^(n-1-J) on, so
    from round k + 1 the rows at or above p^(n-1-(k+1)//(p-1)) take one
    OR of their masks in the first two columns, and only the rows below
    that cut OR in their own.  A row is checked once, in the round it
    passes the cut: its own bit must be set.  If any row's is not, as in
    a graph built by hand with other edges, the missing bits are set and
    every row keeps its own mask from then on, so the masks stay exact.

    The caller keeps ``planes`` further lists of V masks; ``what`` names
    the result refused when all of them would exceed DIAMETER_MEMORY_LIMIT.
    """
    size = len(g.vertices)
    need = _mask_bytes(size, planes)
    if need > DIAMETER_MEMORY_LIMIT:
        raise BudgetExceededError(
            f"{what} of {size} vertices needs {need} bytes of "
            f"reachability masks, over the limit of {DIAMETER_MEMORY_LIMIT}"
        )
    xs, ys, *rest = g.columns
    # Rows at or above the cut of round k drop their own mask in it.
    cuts = (g.p ** max(g.n - 1 - k // (g.p - 1), 0) for k in count(1))
    after = [1 << v for v in range(size)]
    yield [0] * size, after
    cut, tail_xs, tail_ys = size, [], []
    while True:
        before = after
        left, cut = cut, min(next(cuts), size)
        if cut != left:
            tail_xs, tail_ys = xs[cut:], ys[cut:]
        after = [m | before[x] | before[y] for m, x, y in zip(before[:cut], xs, ys)]
        after += [before[x] | before[y] for x, y in zip(tail_xs, tail_ys)]
        for zs in rest:
            after = [m | before[z] for m, z in zip(after, zs)]
        if any(not after[v] >> v & 1 for v in range(cut, left)):
            for v in range(cut, left):
                after[v] |= 1 << v
            cuts = repeat(size)  # every row keeps its own mask from here on
        if after == before:
            return
        yield before, after


def _first_hole(reach: list[int], full: int) -> tuple[int, int]:
    """The first (source, target) pair in row-major order whose bit is
    missing from ``reach``; some bit must be."""
    s = next(s for s, m in enumerate(reach) if m != full)
    hole = full ^ reach[s]
    return s, (hole & -hole).bit_length() - 1


def subgraph_diameter(g: CertifiedGraph) -> tuple[int, tuple[Weight, Weight]]:
    """Maximum distance over all ordered pairs, with the first attaining
    pair in (source index, target index) order.

    The diameter is the last round of the successor-mask traversal, and
    the pairs at that distance are the bits still missing before it.
    Unreachable pairs would make the diameter infinite; a traversal that
    stops before every mask is full reports the first such pair as an
    error rather than skipping it.
    """
    full = (1 << len(g.vertices)) - 1
    for rounds, (before, after) in enumerate(_rounds(g, 0, "the diameter")):
        pass
    if any(m != full for m in after):
        i, j = _first_hole(after, full)
        raise BudgetExceededError(
            f"vertex {g.vertices[j]} unreachable from {g.vertices[i]}; "
            "the certified subgraph should be strongly connected"
        )
    i, j = _first_hole(before, full)  # a lone vertex is its own farthest vertex
    return rounds, (g.vertices[i], g.vertices[j])


def _distance_planes(g: CertifiedGraph) -> tuple[list[list[int]], int]:
    """The all-pairs distances as bit planes, and the value of a target
    the source never reaches: one more than the last round.

    Plane j holds, per source, the targets first reached in a round whose
    bit j is set.  A run of such rounds a..b adds the masks after b XOR
    those after a - 1, so the masks after round m enter plane j whenever
    bit j of m differs from that of m + 1, and the last masks enter the
    planes of the bits of the last round.  Unreached targets, if any, are
    reached in one more round.
    """
    size = len(g.vertices)
    full = (1 << size) - 1
    planes: list = [None] * size.bit_length()  # values are at most V

    def toggle(bits: int, masks: list[int]) -> None:
        for j in range(bits.bit_length()):
            if bits >> j & 1:
                planes[j] = masks if planes[j] is None else list(map(xor, planes[j], masks))

    traversal = _rounds(g, (size - 1).bit_length(), "the distance matrix")
    for k, (before, after) in enumerate(traversal):
        if k:
            toggle((k - 1) ^ k, before)
    unreached = k + 1
    if any(m != full for m in after):
        toggle(k ^ unreached, after)
        k, after = unreached, [full] * size
    toggle(k, after)
    del planes[k.bit_length() :]
    return planes, unreached


def _lane_blocks(planes: list, size: int, width: int) -> Iterator[tuple[int, bytes]]:
    """The distances of _distance_planes in blocks of about 64 KB, each as
    its first source and its lanes: ``width`` bytes, little-endian, per
    (source, target), in row-major order.

    A block's planes become big ints of lanes that, shifted by j, add up
    to the values.  A mask's "0"s and "1"s encode to lanes of ord("0")
    plus the bit, so the lanes of all "0"s come off.  With the sources in
    reverse, the lowest lane is the block's first source and target 0.
    """
    codec = "latin-1" if width == 1 else "utf-32-be"
    step = max(1, (1 << 16) // (size * width))
    for start in range(0, size, step):
        rows = min(step, size - start)
        zeros = int.from_bytes(("0" * rows * size).encode(codec), "big")
        value = zeros - (zeros << len(planes))
        for j, masks in enumerate(planes):
            text = "".join(map(format, masks[start : start + rows][::-1], repeat(f"0{size}b")))
            value += int.from_bytes(text.encode(codec), "big") << j
        yield start, value.to_bytes(rows * size * width, "little")


def _distance_rows(g: CertifiedGraph) -> Iterator[list[int | None]]:
    """Each source's distances to every vertex, aligned with g.vertices
    and None where unreached, read from the distance matrix's lanes."""
    size = len(g.vertices)
    planes, unreached = _distance_planes(g)
    width = 1 if unreached < 256 else 4
    for _, values in _lane_blocks(planes, size, width):
        lanes = values if width == 1 else list(map(ord, values.decode("utf-32-le")))
        for at in range(0, len(lanes), size):
            row = list(lanes[at : at + size])
            if unreached in row:
                row = [None if d == unreached else d for d in row]
            yield row


def distance_matrix_csv(g: CertifiedGraph) -> str:
    """All-pairs distance matrix as CSV, byte for byte what ``csv.writer``
    writes: a header row of weight labels, then one row per source, with
    an empty cell for a target the source never reaches.

    Rows render from the lanes of _lane_blocks, one byte wide below
    distance 255: one bytes.translate per decimal digit writes the cells
    after "," with NUL padding, deleted at the end.  Wider lanes are
    looked up one by one.
    """
    size = len(g.vertices)
    planes, unreached = _distance_planes(g)
    # A cell is "," and its digits padded with NULs; tables[i] maps a lane
    # to byte i of its cell.
    stride = len(str(unreached - 1)) + 1
    cells = [f",{d}".encode().ljust(stride, b"\0") for d in [*range(unreached), ""]]
    tables = [bytes(column).ljust(256, b"\0") for column in zip(*cells)]
    width = 1 if unreached < 256 else 4
    # csv's minimal quoting, for labels made of digits and commas.
    labels = [(f'"{w}"' if "," in w else w).encode() for w in map(format_weight, g.vertices)]
    out = [b",".join([b"source", *labels]).decode() + "\r\n"]
    line = size * stride
    for start, values in _lane_blocks(planes, size, width):
        if width == 1:
            grid = bytearray(len(values) * stride)
            for i, table in enumerate(tables):
                grid[i::stride] = values.translate(table)
        else:
            grid = b"".join(map(cells.__getitem__, map(ord, values.decode("utf-32-le"))))
        heads, view = zip(labels[start:], range(0, len(grid), line)), memoryview(grid)
        block = b"\r\n".join(label + view[i : i + line] for label, i in heads)
        out.append(block.translate(None, b"\0").decode() + "\r\n")
    return "".join(out)
