"""Independent oracle for the benchmark's correctness checks.

Everything here is written from the definitions in the paper summary
(PAPER.md) and imports nothing from ``modmckay``, so a fault in the
program cannot hide itself by also being in the checker.

A weight is a tuple of n-1 nonnegative ints (fundamental-weight
coordinates).  The certified moves at a p-restricted weight w, with s the
position of its first nonzero entry, are:

* add_first: w_1 becomes the element of {1, ..., p-1} congruent to
  w_1 + 1 mod p-1;
* clear_forward (s < n-1): w_s drops by 1 and w_{s+1} becomes the element
  of {1, ..., p-1} congruent to w_{s+1} + 1 mod p-1;
* clear_last (s = n-1): w_{n-1} drops by 1.

The characteristic-0 neighbours add one box to the length-n partition of
the weight, in any row where the result is still a partition, and map
back to SL_n by consecutive differences.
"""

from __future__ import annotations

from collections import deque
from itertools import product


def _rep(x: int, p: int) -> int:
    """The element of {1, ..., p-1} congruent to x mod p-1."""
    return (x - 1) % (p - 1) + 1


def moves(w: tuple, p: int) -> list[tuple[dict, tuple]]:
    """The certified edges out of ``w`` as (move as in the CLI's JSON,
    target) pairs, add_first first."""
    out = [({"kind": "add_first"}, (_rep(w[0] + 1, p),) + w[1:])]
    nonzero = [i for i, m in enumerate(w) if m]
    if not nonzero:
        return out
    s = nonzero[0]  # 0-based
    if s < len(w) - 1:
        nxt = list(w)
        nxt[s] -= 1
        nxt[s + 1] = _rep(w[s + 1] + 1, p)
        out.append(({"kind": "clear_forward", "s": s + 1}, tuple(nxt)))
    else:
        out.append(({"kind": "clear_last"}, w[:-1] + (w[-1] - 1,)))
    return out


def vertices(n: int, p: int) -> list[tuple]:
    """All p-restricted weights in lexicographic order."""
    return list(product(range(p), repeat=n - 1))


def bfs(n: int, p: int, source: tuple) -> dict[tuple, int]:
    """Distances from ``source`` in the certified subgraph for (n, p)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        w = queue.popleft()
        for _, nxt in moves(w, p):
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


def replay(source: tuple, plan_moves: list[dict], p: int) -> list[tuple]:
    """Apply a plan's moves one by one and return every waypoint.

    Raises ValueError at the first move that is not a certified edge out
    of the current weight.
    """
    cur = source
    walk = [cur]
    for step, move in enumerate(plan_moves):
        for label, nxt in moves(cur, p):
            if label == move:
                cur = nxt
                break
        else:
            raise ValueError(f"step {step}: {move} is not a move out of {cur}")
        walk.append(cur)
    return walk


def potential(w: tuple) -> int:
    """f(w) = sum_i i*w_i; it grows by at most 1 along any edge, so
    f(target) - f(source) bounds every distance from below."""
    return sum(i * m for i, m in enumerate(w, start=1))


def char0_neighbors(w: tuple) -> set[tuple]:
    """Characteristic-0 neighbours of ``w`` by the box-adding rule."""
    n = len(w) + 1
    parts = [sum(w[i:]) for i in range(n - 1)] + [0]
    out = set()
    for row in range(n):
        if row == 0 or parts[row - 1] > parts[row]:
            bumped = parts[:]
            bumped[row] += 1
            out.add(tuple(bumped[i] - bumped[i + 1] for i in range(n - 1)))
    return out


def char0_levels(source: tuple, depth: int) -> dict[tuple, int]:
    """Distances from ``source`` in the characteristic-0 graph, for every
    weight within ``depth`` steps."""
    dist = {source: 0}
    frontier = [source]
    for d in range(1, depth + 1):
        nxt = []
        for w in frontier:
            for u in char0_neighbors(w):
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def char0_distance(source: tuple, target: tuple, budget: int) -> int | None:
    """Exact characteristic-0 distance by plain BFS, None beyond budget."""
    return char0_levels(source, budget).get(target)
