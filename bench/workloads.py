"""The benchmark's workloads: CLI calls made from a seed, and the check
each call's output must pass.

A workload is a list of :class:`Op`.  The worker process runs the list as
one round, again and again; the checks run here, in the parent process,
against the independent oracle in ``oracle.py``, never against a saved
copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle

# verify plans every ordered pair when p^(n-1) <= 256, so each instance of
# this ladder does the same, exhaustive, amount of work whatever happens
# to the sampling rule for larger graphs.
VERIFY_LADDER = [(3, 5), (5, 3), (4, 5)]
# 625 to 2,209 vertices: all-pairs BFS dominates and the planner never runs.
GRAPH_LADDER = [(5, 5), (7, 3), (3, 31), (8, 3), (4, 13)]
CSV_INSTANCE = (7, 3)
# Plans of hundreds to 7,800 moves, plus a size small enough for an
# exact oracle distance.  Over ten seeds the total work of a round
# (moves times n) has a spread of about 5%.
PLAN_SIZES = [(20, 7, 24), (40, 11, 4), (8, 5, 4)]  # (n, p, random pairs)
# (n, distance, gap, sources): gap is the distance minus the potential
# bound f(target) - f(source), which is what makes the IDA* search work;
# every source gets one target per listed (distance, gap).
CHAR0_STRATA = {
    2: ([(5, 0), (15, 0), (25, 0)], 4),
    3: ([(10, 0), (25, 0), (15, 3), (25, 3)], 20),
    4: ([(10, 0), (20, 0), (10, 4), (15, 4)], 20),
    5: ([(10, 0), (15, 0), (10, 5)], 20),
}
CHAR0_BUDGET = 30
CHAR0_MAX_SOURCE_ENTRY = 3
# Fails every time: the recursive search in char0_distance exceeds the
# interpreter's recursion limit.  n = 2 is a line graph, so the answer
# is 1200 and nothing else.
DEEP_CHAR0 = ["char0-dist", "--from", "0", "--to", "1200", "--budget", "1300",
              "--format", "json"]


class CheckError(AssertionError):
    """An output disagrees with the oracle or with a property the method
    must have."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    """One CLI call: ``argv`` for ``modmckay.cli.main`` and the check its
    output must pass.  ``may_fail`` marks the one known failing call."""

    argv: list[str]
    check: Callable[[str], None]
    may_fail: bool = False


def fmt(w) -> str:
    return ",".join(str(m) for m in w)


def bound(n: int, p: int) -> int:
    return (p - 1) * n * (n - 1) // 2


# ------------------------------------------------------------------ checks


def check_verify(n: int, p: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        require((out["n"], out["p"]) == (n, p), f"verify answered for {out['n']},{out['p']}")
        require(out["ok"] is True, f"verify ({n},{p}) reports ok={out['ok']}")
        bad = [c["name"] for c in out["checks"] if c["ok"] is not True]
        require(out["checks"] and not bad, f"verify ({n},{p}) failing checks: {bad}")
    return check


def check_diameter(n: int, p: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        want = bound(n, p)
        require(out["diameter"] == want, f"diameter ({n},{p}) = {out['diameter']}, want {want}")
        require(out["formula"] == want, f"formula ({n},{p}) = {out['formula']}, want {want}")
        src, tgt = (tuple(w) for w in out["witness"])
        d = oracle.bfs(n, p, src).get(tgt)
        require(d == want, f"witness {src}->{tgt} at ({n},{p}) has oracle distance {d}")
    return check


def check_bfs_from(n: int, p: int, source: tuple) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        dist = oracle.bfs(n, p, source)
        want = [{"weight": list(w), "distance": dist.get(w)} for w in oracle.vertices(n, p)]
        require(out["source"] == list(source), f"bfs source {out['source']}")
        require(out["distances"] == want, f"bfs rows from {source} at ({n},{p}) differ from oracle")
    return check


def check_csv(n: int, p: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        rows = list(csv.reader(io.StringIO(text)))
        verts = oracle.vertices(n, p)
        require(rows[0] == ["source"] + [fmt(w) for w in verts], "CSV header differs")
        require(len(rows) == len(verts) + 1, f"CSV has {len(rows) - 1} rows")
        for w, row in zip(verts, rows[1:]):
            dist = oracle.bfs(n, p, w)
            want = [fmt(w)] + [str(dist[u]) if u in dist else "" for u in verts]
            require(row == want, f"CSV row {fmt(w)} at ({n},{p}) differs from oracle")
    return check


def check_plan(n: int, p: int, src: tuple, tgt: tuple, exact: bool) -> Callable[[str], None]:
    """Replays the plan under the oracle's moves.  The lower bound on its
    length is the oracle's BFS distance when ``exact``, else the potential
    bound f(tgt) - f(src), which any walk must respect."""
    def check(text: str) -> None:
        out = json.loads(text)
        require((out["n"], out["p"]) == (n, p), "plan answered for another (n, p)")
        require(out["source"] == list(src) and out["target"] == list(tgt), "plan endpoints differ")
        walk = oracle.replay(src, out["moves"], p)
        require(walk[-1] == tgt, f"plan {src}->{tgt} replays to {walk[-1]}")
        require(out["waypoints"] == [list(w) for w in walk], "plan waypoints differ from replay")
        length = out["length"]
        require(length == len(out["moves"]), "plan length differs from its move count")
        lower = oracle.bfs(n, p, src)[tgt] if exact else oracle.potential(tgt) - oracle.potential(src)
        require(lower <= length <= bound(n, p),
                f"plan {src}->{tgt} length {length} outside [{lower}, {bound(n, p)}]")
        if not any(src) and tgt == (p - 1,) * (n - 1):
            require(length == bound(n, p), f"zero->Steinberg plan has length {length}")
    return check


def check_char0(src: tuple, tgt: tuple, want: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        require(out["distance"] == want and out["exceeds_budget"] is False,
                f"char0-dist {src}->{tgt} = {out['distance']}, oracle {want}")
    return check


# --------------------------------------------------------------- workloads


def verify_exhaustive(rng: random.Random) -> list[Op]:
    return [Op(["verify", "--n", str(n), "--p", str(p), "--format", "json"], check_verify(n, p))
            for n, p in VERIFY_LADDER]


def graph_large(rng: random.Random) -> list[Op]:
    ops = []
    for n, p in GRAPH_LADDER:
        ops.append(Op(["diameter", "--n", str(n), "--p", str(p), "--format", "json"],
                      check_diameter(n, p)))
    for n, p in GRAPH_LADDER:
        zero = (0,) * (n - 1)
        ops.append(Op(["bfs", "--n", str(n), "--p", str(p), "--from", fmt(zero), "--format", "json"],
                      check_bfs_from(n, p, zero)))
    n, p = CSV_INSTANCE
    ops.append(Op(["bfs", "--n", str(n), "--p", str(p), "--format", "csv"], check_csv(n, p)))
    return ops


def plan_long(rng: random.Random) -> list[Op]:
    ops = []
    for n, p, count in PLAN_SIZES:
        zero, st = (0,) * (n - 1), (p - 1,) * (n - 1)
        pairs = [tuple(tuple(rng.randrange(p) for _ in range(n - 1)) for _ in "st")
                 for _ in range(count)]
        if n >= 20:  # the lam == zero and mu == zero branches
            pairs += [(zero, st), (st, zero)]
        exact = p ** (n - 1) <= 10**5
        for src, tgt in pairs:
            ops.append(Op(["plan", "--p", str(p), "--from", fmt(src), "--to", fmt(tgt),
                           "--format", "json"], check_plan(n, p, src, tgt, exact)))
    return ops


def char0_search(rng: random.Random) -> list[Op]:
    ops = []
    for n, (strata, sources) in CHAR0_STRATA.items():
        depth = max(d for d, _ in strata)
        made = 0
        while made < sources:
            src = tuple(rng.randrange(CHAR0_MAX_SOURCE_ENTRY + 1) for _ in range(n - 1))
            levels = oracle.char0_levels(src, depth)
            f_src = oracle.potential(src)
            picks = []
            for d, gap in strata:
                found = sorted(w for w, dw in levels.items()
                               if dw == d and d - (oracle.potential(w) - f_src) == gap)
                if not found:
                    break
                picks.append((rng.choice(found), d))
            if len(picks) < len(strata):
                continue  # this source cannot give every stratum; draw another
            made += 1
            for tgt, d in picks:
                ops.append(Op(["char0-dist", "--from", fmt(src), "--to", fmt(tgt), "--budget",
                               str(CHAR0_BUDGET), "--format", "json"], check_char0(src, tgt, d)))
    ops.append(Op(DEEP_CHAR0, check_char0((0,), (1200,), oracle.char0_distance((0,), (1200,), 1300)),
                  may_fail=True))
    return ops


WORKLOADS = {
    "verify-exhaustive": verify_exhaustive,
    "graph-large": graph_large,
    "plan-long": plan_long,
    "char0-search": char0_search,
}


def make(name: str, seed: int) -> list[Op]:
    """The ops of workload ``name`` for ``seed``; the same seed gives the
    same ops."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
