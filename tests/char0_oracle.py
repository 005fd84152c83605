# The characteristic-0 distance search as modmckay.char0 had it before the
# search carried the potential on its stack: h recomputed from the weight
# at every pop, and each expansion's neighbours built as a set and sorted
# by label.  Unchanged apart from the absolute imports: the slow,
# independent oracle that tests/test_char0.py compares char0_distance's
# answers and expansions against.
"""The set-returning neighbour rule and the IDA* search over it."""

from __future__ import annotations

from modmckay.weights import Weight, _f, check_weight

_A = "a"
_C = "c"
_INF = float("inf")


def _b(i: int) -> str:
    return f"b({i})"


def _neighbors(w: Weight) -> set[tuple[str, Weight]]:
    """lr_neighbors of a weight the caller has validated."""
    n = len(w) + 1
    out: set[tuple[str, Weight]] = set()
    out.add((_A, (w[0] + 1,) + w[1:]))
    for i in range(1, n):  # 1-based position giving up the box's worth
        if w[i - 1] < 1:
            continue
        if i <= n - 2:
            moved = list(w)
            moved[i - 1] -= 1
            moved[i] += 1
            out.add((_b(i), tuple(moved)))
        else:  # i == n-1: drop the last coordinate
            out.add((_C, w[:-1] + (w[-1] - 1,)))
    return out


def char0_distance(src: Weight, tgt: Weight, budget: int) -> int | None:
    """Exact directed distance from ``src`` to ``tgt`` in the
    characteristic-0 graph, or None if it exceeds ``budget``.

    Iterative-deepening search guided by h(w) = max(0, f(tgt) - f(w)),
    admissible because f grows by at most 1 per edge.  A per-threshold
    table of best depths keeps revisits cheap without affecting exactness.
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
    # is a dominant weight, so it is expanded and scored unchecked.
    f_tgt = _f(tgt)

    def h(w: Weight) -> int:
        return max(0, f_tgt - _f(w))

    def search(threshold: int):
        """One depth-first pass bounded by ``threshold``, visiting
        neighbours in sorted order from an explicit stack (so depth is not
        limited by recursion).  Returns (distance, None) when found, else
        (None, smallest pruned estimate) for the next threshold."""
        best_seen: dict[Weight, int] = {}
        next_threshold = _INF
        stack = [(src, 0)]
        while stack:
            w, depth = stack.pop()
            est = depth + h(w)
            if est > threshold:
                next_threshold = min(next_threshold, est)
                continue
            if w == tgt:
                return depth, None
            if best_seen.get(w, _INF) <= depth:
                continue
            best_seen[w] = depth
            # Reversed, so the smallest neighbour is popped, and explored, first.
            stack += [(nb, depth + 1) for _, nb in sorted(_neighbors(w), reverse=True)]
        return None, next_threshold

    threshold = h(src)
    while threshold <= budget:
        found, nxt = search(threshold)
        if found is not None:
            return found
        if nxt > budget:
            return None
        threshold = nxt
    return None
