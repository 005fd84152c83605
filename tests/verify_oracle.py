# verify's planner check as modmckay.cli computed it before it shared each
# source's sweep among waypoint keys, read distances from the all-pairs
# matrix and kept each waypoint key's longest suffixes: one prefix walk per
# (source, key) through planner._to_waypoint, one BFS row per measured
# source, and a Python loop over every ordered pair.  The slow oracle that
# tests/test_cli.py compares planner._check_plans against.
"""The planner check of ``verify``, pair by pair, against BFS rows."""

from __future__ import annotations

from collections.abc import Callable

import graph_oracle
from modmckay.graph import CertifiedGraph
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


def check_plans(g: CertifiedGraph, pairs: dict) -> tuple[int | None, bool, bool, dict]:
    """The plan of every ordered pair lam != mu, walked pair by pair: the
    longest, or None when some plan is no certified walk; whether every
    plan is within the bound and the plan of every pair in ``pairs``
    (source index -> target indices) no shorter than its BFS distance;
    whether plan(0,St) meets the bound; and the gap figures over
    ``pairs``, None when the second answer is no."""
    n, p, vertices = g.n, g.p, g.vertices
    bound = length_bound(n, p)
    heads = graph_oracle.successor_heads(vertices, p)
    waypoints: dict[tuple, Weight] = {}  # key -> K
    suffixes: list[tuple[tuple, int | None]] = []  # per target: (key, length)
    for mu in vertices:
        key = _waypoint_key(mu, p)
        if key not in waypoints:
            waypoints[key] = _waypoint(key, n, p)
        suffixes.append((key, _walk_length(waypoints[key], mu, p, _from_waypoint, mu)))

    certified = ok = True
    longest = optimal = worst = total = 0
    for i, lam in enumerate(vertices):
        prefixes: dict[tuple, int | None] = {}
        lengths: list[int | None] = []
        for j, (key, tail) in enumerate(suffixes):
            if j == i:  # the empty plan
                lengths.append(0)
                continue
            if key not in prefixes:
                prefixes[key] = _walk_length(lam, waypoints[key], p, _to_waypoint, lam, key)
            head = prefixes[key]
            if head is None or tail is None:
                certified = False
                lengths.append(None)
                continue
            lengths.append(head + tail)
            longest = max(longest, head + tail)
        if i == 0:
            from_zero = prefixes
        if i not in pairs:
            continue
        dist = graph_oracle.bfs_distances(g, i, heads)
        for j in pairs[i]:
            # A certified walk reaches its target, so BFS must reach it too.
            if lengths[j] is None or dist[j] is None:
                ok = False
                continue
            gap = lengths[j] - dist[j]
            if gap < 0:
                ok = False
            total += gap
            if gap == 0:
                optimal += 1
            elif gap > worst:
                worst = gap

    # Vertices are in lexicographic order: zero first, Steinberg last.
    key, tail = suffixes[-1]
    head = from_zero[key]
    exact = head is not None and tail is not None and head + tail == bound
    ok = ok and certified and longest <= bound
    if not certified:
        longest = None
    if not ok:
        return longest, ok, exact, dict.fromkeys(("optimal_pairs", "worst_gap", "mean_gap"))
    count = sum(len(js) for js in pairs.values())
    return longest, ok, exact, {
        "optimal_pairs": optimal,
        "worst_gap": worst,
        "mean_gap": round(total / count, 4),
    }
