# verify's planner check as modmckay.cli computed it before it shared each
# source's sweep among waypoint keys and read distances from the all-pairs
# matrix: one prefix walk per (source, key) through planner._to_waypoint,
# one BFS row per source, and a Python loop over every planned pair.  The
# slow oracle that tests/test_cli.py compares cli._check_plans against.
"""The planner check of ``verify``, pair by pair, against BFS rows."""

from __future__ import annotations

from collections.abc import Callable

from modmckay.graph import CertifiedGraph, bfs_distances
from modmckay.planner import (
    InvariantViolationError,
    _Builder,
    _from_waypoint,
    _to_waypoint,
    _waypoint,
    _waypoint_key,
    length_bound,
)
from modmckay.weights import Weight


def _walk_length(start: Weight, end: Weight, p: int, walk: Callable, *args) -> int | None:
    """The length of ``walk(builder, *args)`` from ``start`` when the
    builder certifies each of its blocks and it ends at ``end``; else None."""
    b = _Builder(start, p)
    try:
        walk(b, *args)
    except InvariantViolationError:
        return None
    return b.length if tuple(b.cur) == end else None


def check_plans(g: CertifiedGraph, pairs: dict) -> tuple[bool, bool, dict]:
    """Whether the plan of every pair in ``pairs`` (source index -> target
    indices) is a certified walk within the bound and no shorter than its
    BFS distance; whether plan(0,St) meets the bound; and the gap figures,
    None when the first answer is no."""
    n, p, vertices = g.n, g.p, g.vertices
    bound = length_bound(n, p)
    waypoints: dict[tuple, Weight] = {}  # key -> K
    suffixes: dict[int, tuple[tuple, int | None]] = {}  # target -> (key, length)
    ok = True
    optimal = worst = total = 0
    for i, js in pairs.items():
        lam = vertices[i]
        dist = bfs_distances(g, lam)
        prefixes: dict[tuple, int | None] = {}
        if i == 0:
            from_zero = prefixes
        for j in js:
            if j == i:  # the empty plan
                optimal += 1
                continue
            suffix = suffixes.get(j)
            if suffix is None:
                mu = vertices[j]
                key = _waypoint_key(mu, p)
                if key not in waypoints:
                    waypoints[key] = _waypoint(key, n, p)
                suffix = suffixes[j] = (
                    key, _walk_length(waypoints[key], mu, p, _from_waypoint, mu)
                )
            key, tail = suffix
            head = prefixes.get(key, -1)  # -1: not walked yet
            if head == -1:
                head = prefixes[key] = _walk_length(
                    lam, waypoints[key], p, _to_waypoint, lam, key
                )
            d = dist[j]
            # A certified walk reaches its target, so BFS must reach it too.
            if head is None or tail is None or d is None:
                ok = False
                continue
            length = head + tail
            gap = length - d
            if gap < 0 or length > bound:
                ok = False
            total += gap
            if gap == 0:
                optimal += 1
            elif gap > worst:
                worst = gap

    # Vertices are in lexicographic order: zero first, Steinberg last, and
    # (zero, Steinberg) is a planned pair, so the loop walked both halves.
    key, tail = suffixes[len(vertices) - 1]
    head = from_zero[key]
    exact = head is not None and tail is not None and head + tail == bound
    if not ok:
        return ok, exact, dict.fromkeys(("optimal_pairs", "worst_gap", "mean_gap"))
    count = sum(len(js) for js in pairs.values())
    return ok, exact, {
        "optimal_pairs": optimal,
        "worst_gap": worst,
        "mean_gap": round(total / count, 4),
    }
