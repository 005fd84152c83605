"""Command-line interface.

One subcommand per operation; all take weights as comma-separated entry
lists (``--weight 1,0,0,0``), with ``--n`` inferred from the length when
omitted.  ``--format`` selects text, json or dot where applicable.  Exit
codes: 0 success; 1 verification failure (``verify``, ``validate``) or a
planner invariant violation, reported as ``error:`` on stderr; 2 malformed
input, or an ``--output`` file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import graph as graph_mod
from .char0 import canonical_path_char0, char0_distance, lr_neighbors
from .conormal import addable_indices, block_form, conormal_indices, removable_indices
from .graph import (
    BudgetExceededError,
    bfs_distances,
    build_certified_graph,
    distance_matrix_csv,
    subgraph_diameter,
)
from .moves import NoSuchEdgeError, certified_moves, certify_via_conormal, validate_move
from .planner import InvariantViolationError, length_bound, plan_path
from .weights import (
    Weight,
    f_value,
    format_weight,
    parse_weight,
    steinberg_weight,
    to_scaled_root_coeffs,
    weight_to_partition,
)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_p(args) -> int:
    p = args.p
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if not _is_prime(p) and not args.allow_nonprime:
        raise ValueError(
            f"p = {p} is not prime; pass --allow-nonprime to experiment anyway"
        )
    return p


def _weight_arg(text: str, args) -> Weight:
    w = parse_weight(text)
    n = getattr(args, "n", None)
    if n is not None and len(w) != n - 1:
        raise ValueError(f"--n {n} expects {n - 1} entries, got weight {text!r}")
    return w


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------- commands


def _cmd_f(args) -> tuple[str, int]:
    w = _weight_arg(args.weight, args)
    return f"{f_value(w)}\n", 0


def _cmd_coeffs(args) -> tuple[str, int]:
    w = _weight_arg(args.weight, args)
    scaled = to_scaled_root_coeffs(w)
    if args.format == "json":
        return (
            _json(
                {
                    "n": len(w) + 1,
                    "weight": list(w),
                    "scaled_root_coefficients": list(scaled),
                    "scale": len(w) + 1,
                }
            ),
            0,
        )
    return format_weight(scaled) + "\n", 0


def _cmd_lr_neighbors(args) -> tuple[str, int]:
    w = _weight_arg(args.weight, args)
    neighbors = sorted(lr_neighbors(w))
    if args.format == "json":
        payload = {
            "weight": list(w),
            "neighbors": [{"kind": k, "weight": list(t)} for k, t in neighbors],
        }
        return _json(payload), 0
    if args.format == "dot":
        return graph_mod.neighbors_to_dot(w, set(neighbors)), 0
    return "".join(f"{k} -> {format_weight(t)}\n" for k, t in neighbors), 0


def _lr_kind(a: Weight, b: Weight) -> str:
    kinds = sorted(k for k, t in lr_neighbors(a) if t == b)
    return kinds[0] if kinds else "?"


def _cmd_canonical_path(args) -> tuple[str, int]:
    p = _check_p(args)
    path = canonical_path_char0(args.n, p)
    if args.format == "json":
        payload = {
            "n": args.n,
            "p": p,
            "length": len(path) - 1,
            "waypoints": [list(w) for w in path],
        }
        return _json(payload), 0
    if args.format == "dot":
        nodes = [format_weight(w) for w in path]
        edges = [
            (format_weight(a), format_weight(b), _lr_kind(a, b))
            for a, b in zip(path, path[1:])
        ]
        return graph_mod._dot(f"canonical_n{args.n}_p{p}", nodes, edges), 0
    return "".join(format_weight(w) + "\n" for w in path), 0


def _cmd_char0_dist(args) -> tuple[str, int]:
    src = _weight_arg(args.src, args)
    tgt = _weight_arg(args.tgt, args)
    dist = char0_distance(src, tgt, args.budget)
    if args.format == "json":
        payload = {"from": list(src), "to": list(tgt), "budget": args.budget}
        payload["distance"] = dist
        payload["exceeds_budget"] = dist is None
        return _json(payload), 0
    return ("exceeds budget\n" if dist is None else f"{dist}\n"), 0


def _cmd_conormal(args) -> tuple[str, int]:
    p = _check_p(args)
    w = _weight_arg(args.weight, args)
    parts = weight_to_partition(w)
    add = sorted(addable_indices(parts))
    rem = sorted(removable_indices(parts))
    con = sorted(conormal_indices(parts, p))
    if args.format == "json":
        payload = {
            "weight": list(w),
            "partition": list(parts),
            "addable": add,
            "removable": rem,
            "conormal": con,
        }
        return _json(payload), 0
    return (
        f"partition: {format_weight(parts)}\n"
        f"addable: {format_weight(tuple(add))}\n"
        f"removable: {format_weight(tuple(rem))}\n"
        f"conormal: {format_weight(tuple(con))}\n"
    ), 0


def _cmd_moves(args) -> tuple[str, int]:
    p = _check_p(args)
    w = _weight_arg(args.weight, args)
    edges = certified_moves(w, p)
    if args.format == "json":
        payload = {
            "weight": list(w),
            "p": p,
            "moves": [
                {"move": m.to_json_dict(), "target": list(t)} for m, t in edges
            ],
        }
        return _json(payload), 0
    return "".join(f"{m} -> {format_weight(t)}\n" for m, t in edges), 0


def _cmd_validate(args) -> tuple[str, int]:
    p = _check_p(args)
    src = _weight_arg(args.src, args)
    tgt = _weight_arg(args.tgt, args)
    try:
        move = validate_move(src, tgt, p)
    except NoSuchEdgeError as exc:
        if args.format == "json":
            return _json({"move": None, "error": str(exc)}), 1
        return f"no-such-edge: {exc}\n", 1
    if args.format == "json":
        return _json({"move": move.to_json_dict()}), 0
    return f"{move}\n", 0


def _cmd_plan(args) -> tuple[str, int]:
    p = _check_p(args)
    src = _weight_arg(args.src, args)
    tgt = _weight_arg(args.tgt, args)
    plan = plan_path(src, tgt, p)
    if args.format == "json":
        return _json(plan.to_json_dict()), 0
    if args.format == "dot":
        return graph_mod.plan_to_dot(plan), 0
    lines = [
        f"source {format_weight(plan.source)}",
        f"target {format_weight(plan.target)}",
        f"length {plan.length}",
    ]
    lines += [
        f"{move} -> {format_weight(w)}"
        for move, w in zip(plan.moves, plan.waypoints[1:])
    ]
    return "".join(line + "\n" for line in lines), 0


def _cmd_graph(args) -> tuple[str, int]:
    p = _check_p(args)
    g = build_certified_graph(args.n, p, args.budget)
    if args.format == "json":
        return graph_mod.graph_to_json(g), 0
    if args.format == "dot":
        return graph_mod.graph_to_dot(g), 0
    return f"vertices {len(g.vertices)}\nedges {g.edge_count}\n", 0


def _cmd_bfs(args) -> tuple[str, int]:
    p = _check_p(args)
    g = build_certified_graph(args.n, p, args.budget)
    if args.format == "csv":
        return distance_matrix_csv(g), 0
    if args.src is None:
        raise ValueError("bfs needs --from (or --format csv for the full matrix)")
    src = _weight_arg(args.src, args)
    dist = bfs_distances(g, src)
    if args.format == "json":
        payload = {
            "n": args.n,
            "p": p,
            "source": list(src),
            "distances": [
                {"weight": list(w), "distance": d}
                for w, d in zip(g.vertices, dist)
            ],
        }
        return _json(payload), 0
    return (
        "".join(
            f"{format_weight(w)} {'inf' if d is None else d}\n"
            for w, d in zip(g.vertices, dist)
        ),
        0,
    )


def _cmd_diameter(args) -> tuple[str, int]:
    p = _check_p(args)
    g = build_certified_graph(args.n, p, args.budget)
    diam, witness = subgraph_diameter(g)
    if args.format == "json":
        payload = {
            "n": args.n,
            "p": p,
            "diameter": diam,
            "witness": [list(witness[0]), list(witness[1])],
            "formula": length_bound(args.n, p),
        }
        return _json(payload), 0
    return f"{diam}\n", 0


def _cmd_verify(args) -> tuple[str, int]:
    p = _check_p(args)
    lines, ok = run_verification(args.n, p, args.budget)
    code = 0 if ok else 1
    if args.format == "json":
        payload = {
            "n": args.n,
            "p": p,
            "checks": [{"name": name, "ok": good} for name, good in lines],
            "ok": ok,
        }
        return _json(payload), code
    width = max(len(name) for name, _ in lines)
    text = "".join(
        f"{'PASS' if good else 'FAIL'}  {name.ljust(width)}\n" for name, good in lines
    )
    text += ("all checks passed\n" if ok else "some checks FAILED\n")
    return text, code


def run_verification(n: int, p: int, budget: int) -> tuple[list[tuple[str, bool]], bool]:
    """The acceptance checks for a single (n, p), as (name, ok) pairs.

    The verification scope is the certified subgraph: its edges are a
    subset of the true McKay graph's, and the extremal distance from zero
    to the Steinberg weight is pinned by the potential f on any edge set
    obeying the f-law, so the diameter value transfers.
    """
    checks: list[tuple[str, bool]] = []
    bound = length_bound(n, p)
    zero = (0,) * (n - 1)
    st = steinberg_weight(n, p)

    g = build_certified_graph(n, p, budget)
    checks.append(("vertex count is p^(n-1)", len(g.vertices) == p ** (n - 1)))
    checks.append(
        ("out-degree is 1 or 2", all(len(adj) in (1, 2) for adj in g.adjacency))
    )
    checks.append(
        (
            "f-law f(head) <= f(tail)+1 on every edge",
            all(
                f_value(g.vertices[j]) <= f_value(w) + 1
                for w, adj in zip(g.vertices, g.adjacency)
                for _, j in adj
            ),
        )
    )

    try:
        diam, _ = subgraph_diameter(g)
        connected = True
    except BudgetExceededError:
        diam, connected = None, False
    checks.append(("strongly connected", connected))
    checks.append(("diameter equals (p-1)(n^2-n)/2", diam == bound))

    if len(g.vertices) <= 256:
        pairs = [(a, b) for a in g.vertices for b in g.vertices]
    else:
        rng = random.Random(20260811)
        pairs = [
            (rng.choice(g.vertices), rng.choice(g.vertices)) for _ in range(300)
        ]
        pairs += [(zero, st)]
    # One BFS row per distinct source of the planned pairs, zero among them.
    rows = {a: bfs_distances(g, a) for a in dict.fromkeys(a for a, _ in pairs)}
    checks.append(("d(0,St) equals the bound", rows[zero][g.index_of(st)] == bound))

    path = canonical_path_char0(n, p)
    canonical_ok = len(path) - 1 == bound and path[0] == zero and path[-1] == st
    try:
        for a, b in zip(path, path[1:]):
            validate_move(a, b, p)
    except NoSuchEdgeError:
        canonical_ok = False
    checks.append(("canonical path valid, length equals bound", canonical_ok))

    conormal_ok = True
    certify_ok = True
    for w in g.vertices:
        parts = weight_to_partition(w)
        con = conormal_indices(parts, p)
        if 1 not in con:
            conormal_ok = False
        if any(w) and 1 + block_form(parts)[0][1] not in con:
            conormal_ok = False
        for move, _ in certified_moves(w, p):
            if not certify_via_conormal(w, move, p):
                certify_ok = False
    checks.append(("index 1 and 1+a_1 conormal at every vertex", conormal_ok))
    checks.append(("every certified move certified via conormal", certify_ok))

    planner_ok = True
    equality_ok = True
    for a, b in pairs:
        try:
            plan = plan_path(a, b, p)
        except InvariantViolationError:
            planner_ok = False
            continue
        d = rows[a][g.index_of(b)]
        if plan.length > bound or (d is not None and plan.length < d):
            planner_ok = False
        if a == zero and b == st and plan.length != bound:
            equality_ok = False
    checks.append(("planner valid, admissible, within bound", planner_ok))
    checks.append(("plan(0,St) meets the bound exactly", equality_ok))

    if bound <= 12:
        checks.append(
            (
                "characteristic-0 d(0,St) equals the bound",
                char0_distance(zero, st, bound) == bound,
            )
        )

    return checks, all(ok for _, ok in checks)


# ----------------------------------------------------------------- parser


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modmckay",
        description="Certified-edge machinery and diameter verification "
        "for the modular McKay graph of SL_n(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, *, n=False, p=False, weight=False, fromto=False,
            formats=("text",), budget=None):
        sp = sub.add_parser(name, help=helptext)
        if n:
            sp.add_argument("--n", type=int, help="rank parameter (inferred "
                            "from weight length when omitted)")
        if p:
            sp.add_argument("--p", type=int, required=True, help="characteristic")
            sp.add_argument("--allow-nonprime", action="store_true",
                            help="skip the primality check on p")
        if weight:
            sp.add_argument("--weight", required=True,
                            help="comma-separated entries, e.g. 1,0,0,0")
        if fromto:
            sp.add_argument("--from", dest="src", required=(name != "bfs"),
                            help="source weight")
            if name != "bfs":
                sp.add_argument("--to", dest="tgt", required=True,
                                help="target weight")
        if len(formats) > 1:
            sp.add_argument("--format", choices=formats, default="text")
        if budget == "search":
            sp.add_argument("--budget", type=int, required=True,
                            help="search depth budget (the graph is infinite)")
        elif budget == "vertices":
            sp.add_argument("--budget", type=int,
                            default=graph_mod.DEFAULT_VERTEX_BUDGET,
                            help="maximum number of vertices to enumerate")
        sp.add_argument("--output", help="write output to this file")
        return sp

    add("f", "potential f of a weight", weight=True, n=True)
    add("coeffs", "root coefficients scaled by n", weight=True, n=True,
        formats=("text", "json"))
    add("lr-neighbors", "characteristic-0 tensor neighbours", weight=True,
        n=True, formats=("text", "json", "dot"))
    add("canonical-path", "explicit zero-to-Steinberg path", n=True, p=True,
        formats=("text", "json", "dot"))
    add("char0-dist", "exact bounded distance in characteristic 0",
        n=True, fromto=True, budget="search", formats=("text", "json"))
    add("conormal", "addable/removable/conormal indices of a weight's partition",
        weight=True, n=True, p=True, formats=("text", "json"))
    add("moves", "certified moves out of a weight", weight=True, n=True, p=True,
        formats=("text", "json"))
    add("validate", "check that a pair of weights is a certified edge",
        n=True, p=True, fromto=True, formats=("text", "json"))
    add("plan", "explicit certified path between two weights", n=True, p=True,
        fromto=True, formats=("text", "json", "dot"))
    add("graph", "the certified subgraph for (n, p)", n=True, p=True,
        formats=("text", "json", "dot"), budget="vertices")
    add("bfs", "BFS distances from a source (or the full CSV matrix)",
        n=True, p=True, fromto=True, formats=("text", "json", "csv"),
        budget="vertices")
    add("diameter", "diameter of the certified subgraph", n=True, p=True,
        formats=("text", "json"), budget="vertices")
    add("verify", "run the acceptance checks for (n, p)", n=True, p=True,
        formats=("text", "json"), budget="vertices")
    return parser


_HANDLERS = {
    "f": _cmd_f,
    "coeffs": _cmd_coeffs,
    "lr-neighbors": _cmd_lr_neighbors,
    "canonical-path": _cmd_canonical_path,
    "char0-dist": _cmd_char0_dist,
    "conormal": _cmd_conormal,
    "moves": _cmd_moves,
    "validate": _cmd_validate,
    "plan": _cmd_plan,
    "graph": _cmd_graph,
    "bfs": _cmd_bfs,
    "diameter": _cmd_diameter,
    "verify": _cmd_verify,
}

_NEEDS_N = {"canonical-path", "graph", "bfs", "diameter", "verify"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "format"):
        args.format = "text"
    try:
        if args.command in _NEEDS_N:
            if args.n is None:
                raise ValueError(f"{args.command} needs --n")
            if args.n < 2:
                raise ValueError(f"need n >= 2, got {args.n}")
        out, code = _HANDLERS[args.command](args)
    except (ValueError, BudgetExceededError, InvariantViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InvariantViolationError) else 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
