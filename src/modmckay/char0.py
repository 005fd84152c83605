"""The characteristic-0 McKay graph of SL_n: tensor-with-standard neighbours
and exact bounded distance search.

Edges out of a dominant weight come in three kinds, labelled by strings:

* ``"a"``    -- add 1 to the first coordinate;
* ``"b(i)"`` -- subtract 1 at position i, add 1 at position i+1
  (1 <= i <= n-2);
* ``"c"``    -- subtract 1 from the last coordinate.

In the partition picture these are exactly the ways of adding one box to
the attached length-n partition (row 1, row i+1, row n respectively).
The potential f(w) = sum_i i*m_i rises by 1 along "a" and "b(i)" edges
and falls by n-1 along "c" edges.  One kernel, ``_neighbors``, lists the
edges out of a weight with that change of f, in the order their labels
sort as strings; ``lr_neighbors`` and the search both read it.

The graph is infinite, so the distance search takes a mandatory budget.
The explicit zero-to-Steinberg path of "a" and "b(i)" edges is the
planner's plan from zero to the Steinberg weight (planner.plan_path).
"""

from __future__ import annotations

from functools import lru_cache

from .weights import Weight, _f, check_weight

_A = "a"
_C = "c"
_INF = float("inf")


def _b(i: int) -> str:
    return f"b({i})"


def lr_neighbors(w: Weight) -> set[tuple[str, Weight]]:
    """All (kind, weight) pairs reachable from ``w`` by tensoring with the
    standard module in characteristic 0.  Kinds are "a", "b(i)", "c";
    candidates that would leave the dominant cone are excluded."""
    return {(kind, nb) for kind, nb, _ in _neighbors(check_weight(w))}


@lru_cache(maxsize=None)
def _b_kinds(n: int) -> tuple[tuple[str, int], ...]:
    """The "b(i)" labels of SL_n, each with the 0-based entry i-1 that
    gives up a box, in string order: "b(10)" sorts before "b(2)"."""
    return tuple(sorted((_b(i), i - 1) for i in range(1, n - 1)))


def _neighbors(w: Weight) -> list[tuple[str, Weight, int]]:
    """lr_neighbors of a weight the caller has validated, each with the
    change f(neighbour) - f(w), listed in the order of their labels as
    strings: "a", the "b(i)" of _b_kinds, then "c"."""
    out = [(_A, (w[0] + 1,) + w[1:], 1)]
    for kind, j in _b_kinds(len(w) + 1):
        if w[j]:
            out.append((kind, w[:j] + (w[j] - 1, w[j + 1] + 1) + w[j + 2 :], 1))
    if w[-1]:
        out.append((_C, w[:-1] + (w[-1] - 1,), -len(w)))
    return out


def char0_distance(src: Weight, tgt: Weight, budget: int) -> int | None:
    """Exact directed distance from ``src`` to ``tgt`` in the
    characteristic-0 graph, or None if it exceeds ``budget``.

    Iterative-deepening search guided by h(w) = max(0, f(tgt) - f(w)),
    admissible because f grows by at most 1 per edge.  Each stack entry
    carries f of its weight, updated by the change that _neighbors lists
    with each edge, so h costs one subtraction.  A neighbour whose
    estimate exceeds the threshold is scored as it is listed and never
    pushed: that drops no expansion and moves none, since it would be
    popped only to be pruned.  A per-threshold table of best depths keeps
    revisits cheap without affecting exactness.
    """
    check_weight(src)
    check_weight(tgt)
    if len(src) != len(tgt):
        raise ValueError(f"rank mismatch: {len(src) + 1} vs {len(tgt) + 1}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if src == tgt:
        return 0

    # Both ends are checked above; every node the search reaches from src
    # is a dominant weight, so it is expanded unchecked.
    f_src, f_tgt = _f(src), _f(tgt)

    def search(threshold: int):
        """One depth-first pass bounded by ``threshold``, visiting
        neighbours in label order from an explicit stack (so depth is not
        limited by recursion).  Returns (distance, None) when found, else
        (None, smallest estimate over the threshold) for the next one."""
        best_seen: dict[Weight, int] = {}
        next_threshold = _INF
        stack = [(src, 0, f_src)]
        pop, push = stack.pop, stack.append
        while stack:
            w, depth, f = pop()
            if w == tgt:
                return depth, None
            seen = best_seen.get(w)
            if seen is not None and seen <= depth:
                continue
            best_seen[w] = depth
            depth += 1
            # Reversed, so the first label is popped, and explored, first.
            for _, nb, delta in reversed(_neighbors(w)):
                g = f + delta
                est = depth + f_tgt - g if g < f_tgt else depth
                if est > threshold:
                    if est < next_threshold:
                        next_threshold = est
                    continue
                push((nb, depth, g))
        return None, next_threshold

    threshold = max(0, f_tgt - f_src)
    while threshold <= budget:
        found, nxt = search(threshold)
        if found is not None:
            return found
        if nxt > budget:
            return None
        threshold = nxt
    return None
