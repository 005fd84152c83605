"""Command-line interface: the commands, their renderers and
run_verification, the acceptance checks behind ``verify``.

One subcommand per operation; all take weights as comma-separated entry
lists (``--weight 1,0,0,0``), with ``--n`` inferred from the length when
omitted.  ``--format`` selects text, json, dot or csv where applicable.

Each subcommand is registered once, by the ``_command`` decorator on its
handler: the help text, the option groups, the formats and whether
``--n`` is required.  The parser is built from that table.  A handler
returns ``(payload, views, code)``: ``main`` renders ``--format json``
from the payload, and every other format by calling the view of that
name, so each output is built only when asked for.  A view returns one
string, or, for JSON, DOT and a walk's text, pieces that ``main`` writes
as they come.

JSON output is byte for byte ``json.dumps(payload, indent=2)``, yielded
piece by piece by ``_encode``.  The stdlib's indent encoder is pure
Python, so the five long lists are functions in their payloads that
yield their own pieces.  A plan's moves come from a table of move labels
per unit (``_moves_json``), and its waypoints from the text that
PathPlan._render yields per block (``_waypoints_json``).  ``bfs``'s
distances and ``graph``'s vertices and edges are one f-string per item,
their weights in index order from one cell per value (``_weight_rows``).
The text and DOT views of a plan and of ``canonical-path`` (the plan from
zero to the Steinberg weight) come from that renderer too.  Every DOT
view yields its lines from one generator, ``_dot``.

Exit codes: 0 success; 1 verification failure (``verify``,
``validate``) or a planner invariant violation, reported as ``error:``
on stderr; 2 malformed input, a walk too long to render, or an
``--output`` file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, groupby, islice, product
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import graph as graph_mod
from .char0 import _A, _b, char0_distance, lr_neighbors
from .conormal import _rows
from .graph import (
    BudgetExceededError,
    _distance_rows,
    _edges,
    bfs_distances,
    build_certified_graph,
    distance_matrix_csv,
)
from .moves import (
    Move,
    NoSuchEdgeError,
    _certify,
    _successors,
    certified_moves,
    first_nonzero_position,
    validate_move,
)
from .planner import (
    InvariantViolationError,
    PathPlan,
    _check_plans,
    length_bound,
    plan_path,
)
from .weights import (
    Weight,
    _f,
    _partition,
    f_value,
    format_weight,
    parse_weight,
    steinberg_weight,
    to_scaled_root_coeffs,
    weight_to_partition,
)


class _Command(NamedTuple):
    handler: Callable
    help: str
    options: tuple[str, ...]
    formats: tuple[str, ...]
    needs_n: bool


_COMMANDS: dict[str, _Command] = {}


def _command(name, helptext, *options, formats=("text",), needs_n=False):
    """Register the decorated handler as subcommand ``name``.  Besides
    ``--n`` and ``--output`` it takes the option groups ``options``: "p",
    "weight", "fromto", "from" (an optional --from), "search-budget" or
    "vertex-budget"."""
    def register(handler):
        _COMMANDS[name] = _Command(handler, helptext, options, formats, needs_n)
        return handler
    return register


def _weight_arg(text: str, n: int | None) -> Weight:
    w = parse_weight(text)
    if n is not None and len(w) != n - 1:
        raise ValueError(f"--n {n} expects {n - 1} entries, got weight {text!r}")
    return w


# Miller-Rabin with the primes up to 41 as bases is exact below
# 3,317,044,064,679,887,385,961,981, the least composite that is a strong
# pseudoprime to all of them; the primes up to 37 alone pass the composite
# 318,665,857,834,031,151,167,461.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Whether p is prime, by Miller-Rabin over _BASES; above their bound
    it is also true of a composite that is a strong pseudoprime to all."""
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    for a in _BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):  # some x**(2**j), j < s, must be -1
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _check_args(args, cmd: _Command) -> None:
    """Validate --n and --p and parse the given weights in place, so
    every handler receives checked values."""
    if cmd.needs_n:
        if args.n is None:
            raise ValueError(f"{args.command} needs --n")
        if args.n < 2:
            raise ValueError(f"need n >= 2, got {args.n}")
    if "p" in cmd.options:
        if args.p < 2:
            raise ValueError(f"need p >= 2, got {args.p}")
        if not (args.allow_nonprime or _is_prime(args.p)):
            raise ValueError(
                f"p = {args.p} is not prime; pass --allow-nonprime to experiment anyway"
            )
    if "weight" in cmd.options:
        args.weight = _weight_arg(args.weight, args.n)
    if "fromto" in cmd.options:
        args.src = _weight_arg(args.src, args.n)
        args.tgt = _weight_arg(args.tgt, args.n)
    elif "from" in cmd.options and args.src is not None:
        args.src = _weight_arg(args.src, args.n)


_compact = json.JSONEncoder(check_circular=False).encode
_SCALARS = (str, int, float, type(None))  # bool is an int


def _encode(obj, indent: str) -> Iterator[str]:
    """Yield the pieces of ``json.dumps(obj, indent=2)`` nested at
    ``indent`` (a newline and the spaces of the enclosing level).  A
    function yields its own pieces, a nonempty dict renders member by
    member (its keys are str), and a nonempty list of exact ints is one
    join.  Anything else is the stdlib's text, re-indented: JSON escapes a
    newline inside a string, so every raw newline in it is indentation."""
    if isinstance(obj, _SCALARS):
        yield _compact(obj)
    elif callable(obj):  # a renderer of its own pieces, such as _waypoints_json's
        yield from obj(indent)
    elif isinstance(obj, dict) and obj:
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _encode(value, inner)
            sep = "," + inner
        yield indent + "}"
    elif isinstance(obj, (list, tuple)) and obj and all(type(v) is int for v in obj):
        inner = indent + "  "
        yield "[" + inner + ("," + inner).join(map(str, obj)) + indent + "]"
    else:
        yield json.dumps(obj, indent=2).replace("\n", indent)


def _weight_rows(n: int, p: int, indent: str) -> list[str]:
    """A graph's weights, product(range(p), repeat=n-1), in index order, each
    as JSON nested at ``indent``, from one cell per entry value."""
    close = indent + "]"
    rows = product([indent + "  " + str(v) for v in range(p)], repeat=n - 1)
    return ["[" + row + close for row in map(",".join, rows)]


def _moves_json(plan: PathPlan, indent: str) -> Iterator[str]:
    """Yield the plan's moves as a JSON list nested at ``indent``, from a
    table of their texts per unit (PathPlan._labels)."""
    item = indent + "  "
    labels = plan._labels(lambda move: _move_json(move, item))
    yield "[" + item + ("," + item).join(labels) + indent + "]" if plan.blocks else "[]"


def _waypoints_json(plan: PathPlan, indent: str) -> Iterator[str]:
    """Yield the pieces of the plan's waypoints as a JSON list nested at
    ``indent``, from the text that PathPlan._render yields per block:
    each row after the first is preceded by the close of the one before."""
    item = indent + "  "
    sep = item + "]," + item + "["
    yield "[" + item + "["
    yield from plan._render(item + "  ", lambda move: sep)
    yield item + "]" + indent + "]"


def _move_json(move: Move, indent: str) -> str:
    """The text of ``json.dumps(move.to_json_dict(), indent=2)`` nested at
    ``indent``: "kind", then "s" when present.  Move kinds are plain ASCII
    names, which JSON writes as they are."""
    member = indent + "  "
    text = "{" + member + '"kind": "' + move.kind + '"'
    if move.s is not None:
        text += "," + member + '"s": ' + str(move.s)
    return text + indent + "}"


def _json(payload) -> Iterator[str]:
    """The pieces of ``json.dumps(payload, indent=2) + "\\n"``, byte for
    byte; the functions in the payload yield their own pieces, only when
    JSON is asked for."""
    return chain(_encode(payload, "\n"), ("\n",))


def _dot(name: str, nodes: Iterable[str], edges: Iterable[tuple]) -> Iterator[str]:
    """Yield a DOT digraph line by line: the header, each distinct node at
    its first place in ``nodes``, each (tail, head, label) of ``edges`` in
    order, and the close."""
    yield f"digraph {name} {{\n"
    yield from (f'  "{node}";\n' for node in dict.fromkeys(nodes))
    yield from (f'  "{a}" -> "{b}" [label="{label}"];\n' for a, b, label in edges)
    yield "}\n"


# ---------------------------------------------------------------- commands


@_command("f", "potential f of a weight", "weight")
def _cmd_f(args):
    value = f_value(args.weight)
    return value, {"text": lambda: f"{value}\n"}, 0


@_command("coeffs", "root coefficients scaled by n", "weight", formats=("text", "json"))
def _cmd_coeffs(args):
    w = args.weight
    scaled = to_scaled_root_coeffs(w)
    payload = {
        "n": len(w) + 1,
        "weight": w,
        "scaled_root_coefficients": scaled,
        "scale": len(w) + 1,
    }
    return payload, {"text": lambda: format_weight(scaled) + "\n"}, 0


@_command("lr-neighbors", "characteristic-0 tensor neighbours", "weight",
          formats=("text", "json", "dot"))
def _cmd_lr_neighbors(args):
    w = args.weight
    neighbors = sorted(lr_neighbors(w))
    edges = [{"kind": k, "weight": t} for k, t in neighbors]
    payload = {"weight": w, "neighbors": edges}

    def dot() -> Iterator[str]:
        arcs = [(format_weight(w), format_weight(t), k) for k, t in neighbors]
        return _dot("neighbors", [format_weight(w), *(b for _, b, _ in arcs)], arcs)

    return payload, {
        "text": lambda: "".join(f"{k} -> {format_weight(t)}\n" for k, t in neighbors),
        "dot": dot,
    }, 0


# The most waypoint entries, moves * (n-1), that a printed walk may hold;
# a longer one is refused before any waypoint is built.  The longest plan
# tested, (40,11) from zero to Steinberg, holds 304,200.
_MAX_WALK_ENTRIES = 10**7


def _check_walk(moves: int, n: int) -> None:
    if moves * (n - 1) > _MAX_WALK_ENTRIES:
        raise ValueError(
            f"a walk of {moves} moves at n = {n} has {moves * (n - 1)} entries "
            f"to render, more than {_MAX_WALK_ENTRIES}"
        )


def _walk_text(plan: PathPlan, sep: Callable[[Move], str] = lambda move: "\n",
               head: str = "{}") -> Iterator[str]:
    """``head`` with the source's row for its braces, then each later row
    led by ``sep`` of its move, and a newline."""
    pieces = plan._render("", sep)
    yield head.format(next(pieces))
    yield from pieces
    yield "\n"


def _walk_dot(plan: PathPlan, name: str, label: Callable[[Move], str]) -> Iterator[str]:
    """The walk as a DOT path, each step named ``label`` of its move; a
    vertex visited twice keeps one node, and a walk of one waypoint renders
    that vertex.  The rows are split from the pieces of PathPlan._render as
    they arrive.  The node list holds every distinct row anyway, so the
    rows are kept for the edges rather than rendered twice."""
    rows, row = [], ""
    for piece in plan._render("", lambda move: "\n"):
        *done, row = (row + piece).split("\n")
        rows += done
    rows.append(row)
    return _dot(name, rows, zip(rows, islice(rows, 1, None), plan._labels(label)))


@_command("canonical-path", "explicit zero-to-Steinberg path", "p",
          formats=("text", "json", "dot"), needs_n=True)
def _cmd_canonical_path(args):
    # The planner's zero-to-Steinberg plan: travel(n-j) x (p-1) for j = 1..n-1.
    _check_walk(length_bound(args.n, args.p), args.n)
    plan = plan_path((0,) * (args.n - 1), steinberg_weight(args.n, args.p), args.p)
    payload = {"n": args.n, "p": args.p, "length": plan.length,
               "waypoints": functools.partial(_waypoints_json, plan)}
    # Its moves are add_first and clear_forward, the edges "a" and "b(i)".
    dot = functools.partial(_walk_dot, plan, f"canonical_n{plan.n}_p{plan.p}",
                            lambda move: _A if move.s is None else _b(move.s))
    return payload, {"text": functools.partial(_walk_text, plan), "dot": dot}, 0


@_command("char0-dist", "exact bounded distance in characteristic 0",
          "fromto", "search-budget", formats=("text", "json"))
def _cmd_char0_dist(args):
    dist = char0_distance(args.src, args.tgt, args.budget)
    payload = {"from": args.src, "to": args.tgt, "budget": args.budget,
               "distance": dist, "exceeds_budget": dist is None}
    text = "exceeds budget\n" if dist is None else f"{dist}\n"
    return payload, {"text": lambda: text}, 0


@_command("conormal", "addable/removable/conormal indices of a weight's partition",
          "p", "weight", formats=("text", "json"))
def _cmd_conormal(args):
    parts = weight_to_partition(args.weight)
    add, rem, con = _rows(parts, args.p)  # each in ascending order
    payload = {
        "weight": args.weight,
        "partition": parts,
        "addable": add,
        "removable": rem,
        "conormal": con,
    }
    return payload, {"text": lambda: (
        f"partition: {format_weight(parts)}\n"
        f"addable: {format_weight(tuple(add))}\n"
        f"removable: {format_weight(tuple(rem))}\n"
        f"conormal: {format_weight(tuple(con))}\n"
    )}, 0


@_command("moves", "certified moves out of a weight", "p", "weight",
          formats=("text", "json"))
def _cmd_moves(args):
    edges = certified_moves(args.weight, args.p)
    moves = [{"move": m.to_json_dict(), "target": t} for m, t in edges]
    payload = {"weight": args.weight, "p": args.p, "moves": moves}
    return payload, {
        "text": lambda: "".join(f"{m} -> {format_weight(t)}\n" for m, t in edges),
    }, 0


@_command("validate", "check that a pair of weights is a certified edge",
          "p", "fromto", formats=("text", "json"))
def _cmd_validate(args):
    try:
        move = validate_move(args.src, args.tgt, args.p)
    except NoSuchEdgeError as exc:
        error = str(exc)
        payload = {"move": None, "error": error}
        return payload, {"text": lambda: f"no-such-edge: {error}\n"}, 1
    return {"move": move.to_json_dict()}, {"text": lambda: f"{move}\n"}, 0


@_command("plan", "explicit certified path between two weights", "p", "fromto",
          formats=("text", "json", "dot"))
def _cmd_plan(args):
    plan = plan_path(args.src, args.tgt, args.p)
    _check_walk(plan.length, plan.n)

    payload = {"n": plan.n, "p": plan.p, "source": plan.source, "target": plan.target,
               "length": plan.length, "moves": functools.partial(_moves_json, plan),
               "waypoints": functools.partial(_waypoints_json, plan)}
    head = f"source {{}}\ntarget {format_weight(plan.target)}\nlength {plan.length}"
    text = functools.partial(_walk_text, plan, lambda move: f"\n{move} -> ", head)
    dot = functools.partial(_walk_dot, plan, f"plan_n{plan.n}_p{plan.p}", str)
    return payload, {"text": text, "dot": dot}, 0


@_command("graph", "the certified subgraph for (n, p)", "p", "vertex-budget",
          formats=("text", "json", "dot"), needs_n=True)
def _cmd_graph(args):
    g = build_certified_graph(args.n, args.p, args.budget)

    def vertices(indent: str) -> Iterator[str]:
        item = indent + "  "
        yield "[" + item + ("," + item).join(_weight_rows(g.n, g.p, item)) + indent + "]"

    def edges(indent: str) -> Iterator[str]:
        item = indent + "  "
        member = item + "  "
        yield "[" + ",".join(
            f'{item}{{{member}"from": {i},{member}"to": {j},'
            f'{member}"move": {_move_json(move, member)}{item}}}'
            for i, j, move in _edges(g)
        ) + indent + "]"

    def dot() -> Iterator[str]:
        names = [format_weight(w) for w in g.vertices]
        arcs = ((names[i], names[j], move) for i, j, move in _edges(g))
        return _dot(f"certified_n{g.n}_p{g.p}", names, arcs)

    payload = {"n": g.n, "p": g.p, "vertices": vertices, "edges": edges}
    return payload, {
        "text": lambda: f"vertices {len(g.vertices)}\nedges {g.edge_count}\n",
        "dot": dot,
    }, 0


@_command("bfs", "BFS distances from a source (or the full CSV matrix)",
          "p", "from", "vertex-budget", formats=("text", "json", "csv"), needs_n=True)
def _cmd_bfs(args):
    g = build_certified_graph(args.n, args.p, args.budget)
    if args.format == "csv":
        return None, {"csv": lambda: distance_matrix_csv(g)}, 0
    if args.src is None:
        raise ValueError("bfs needs --from (or --format csv for the full matrix)")
    dist = bfs_distances(g, args.src)

    def distances(indent: str) -> Iterator[str]:
        item = indent + "  "
        member = item + "  "
        yield "[" + ",".join(
            f'{item}{{{member}"weight": {w},'
            f'{member}"distance": {"null" if d is None else d}{item}}}'
            for w, d in zip(_weight_rows(g.n, g.p, member), dist)
        ) + indent + "]"

    payload = {"n": args.n, "p": args.p, "source": args.src, "distances": distances}
    return payload, {"text": lambda: "".join(
        f"{format_weight(w)} {'inf' if d is None else d}\n" for w, d in zip(g.vertices, dist)
    )}, 0


@_command("diameter", "diameter of the certified subgraph", "p", "vertex-budget",
          formats=("text", "json"), needs_n=True)
def _cmd_diameter(args):
    g = build_certified_graph(args.n, args.p, args.budget)
    diam, witness = graph_mod.subgraph_diameter(g)
    payload = {
        "n": args.n,
        "p": args.p,
        "diameter": diam,
        "witness": witness,
        "formula": length_bound(args.n, args.p),
    }
    return payload, {"text": lambda: f"{diam}\n"}, 0


@_command("verify", "run the acceptance checks for (n, p)", "p", "vertex-budget",
          formats=("text", "json"), needs_n=True)
def _cmd_verify(args):
    summary, lines, ok = run_verification(args.n, args.p, args.budget)
    payload = {
        "n": args.n,
        "p": args.p,
        **summary,
        "checks": [{"name": name, "ok": good} for name, good in lines],
        "ok": ok,
    }

    def text() -> str:
        if summary["seed"] is None:
            pairs = f"all {summary['pairs']} ordered pairs"
        else:
            pairs = f"{summary['pairs'] - 1} sampled pairs (seed {summary['seed']}) plus (0,St)"
        if summary["optimal_pairs"] is None:
            gap = "not measured, the planner check failed"
        else:
            gap = (
                f"{summary['optimal_pairs']} of {summary['pairs']} pairs optimal, "
                f"worst {summary['worst_gap']}, mean {summary['mean_gap']:.2f}"
            )
        width = max(len(name) for name, _ in lines)
        out = (
            f"verify n={args.n} p={args.p}: {summary['vertices']} vertices, "
            f"planner checked on {pairs}\n"
            f"plan length minus BFS distance: {gap}\n"
        ) + "".join(
            f"{'PASS' if good else 'FAIL'}  {name.ljust(width)}\n"
            for name, good in lines
        )
        return out + ("all checks passed\n" if ok else "some checks FAILED\n")

    return payload, {"text": text}, 0 if ok else 1


# verify measures the gap figures on every ordered pair of an instance with
# at most this many vertices, and on a seeded sample of pairs otherwise.  Its
# distance matrix, 1.5 MiB at most, fits graph.DIAMETER_MEMORY_LIMIT.
_EXHAUSTIVE_VERTICES = 1024


def run_verification(n: int, p: int, budget: int) -> tuple[dict, list[tuple[str, bool]], bool]:
    """A summary, the acceptance checks for a single (n, p) as (name, ok)
    pairs, and whether all of them passed.

    The planner's certified walks give every ordered pair a walk within
    (p-1)(n^2-n)/2 (_check_plans), so the graph is strongly connected with
    at most that diameter.  By the f-law, a walk from zero to St takes at
    least f(St) - f(0) moves, the bound, and plan(0,St) meets it.
    Distances measure the gap figures, over every pair from the distance
    matrix when it fits, else over sampled pairs from BFS rows, so no
    check fails for memory; d(0,St), measured in both modes, cross-checks
    the bound.  The summary says what was measured: the vertex count, the
    pair mode ("exhaustive" or "sampled"), the number of measured pairs,
    the sample's seed (None when exhaustive), and how far their plans are
    from shortest: how many are shortest paths, and the worst and mean of
    plan length minus distance (all three None when the planner check
    fails).

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
    # Zero has one edge and every other vertex two: column 1 holds itself only at 0.
    own = [[v for v, u in enumerate(col) if u == v] for col in g.columns[1:]]
    checks.append(("out-degree is 1 or 2", own == [[0]]))
    # The enumerated vertices are p-restricted: the kernels below trust them.
    fs = [_f(w) for w in g.vertices]
    f_law = all(fs[j] <= f + 1 for col in g.columns for f, j in zip(fs, col))
    checks.append(("f-law f(head) <= f(tail)+1 on every edge", f_law))

    # The gap-measured pairs, as each source's vertex index mapped to the
    # indices of its targets, and each source's distances to them.  Zero
    # is vertex 0 and St the last, so (0,St) ends the first row.
    size = len(g.vertices)
    if size <= _EXHAUSTIVE_VERTICES:
        everyone = range(size)
        pairs = dict.fromkeys(everyone, everyone)
        rows = _distance_rows(g)
        mode, seed = "exhaustive", None
    else:
        seed = 20260811
        rng = random.Random(seed)
        sample = [(rng.randrange(size), rng.randrange(size)) for _ in range(300)]
        pairs = {}
        for i, j in sample + [(0, size - 1)]:
            pairs.setdefault(i, []).append(j)

        def bfs_row(i: int) -> list[int | None]:
            row = bfs_distances(g, g.vertices[i])
            return [row[j] for j in pairs[i]]

        rows = map(bfs_row, sorted(pairs))
        mode = "sampled"
    first = next(rows)
    reaches = first[-1] == bound
    summary = {
        "vertices": size,
        "pair_mode": mode,
        "pairs": sum(len(js) for js in pairs.values()),
        "seed": seed,
    }
    longest, planner_ok, equality_ok, gaps = _check_plans(g, pairs, chain([first], rows))
    summary.update(gaps)
    checks.append(("strongly connected", longest is not None))
    checks.append(("diameter equals (p-1)(n^2-n)/2", planner_ok and reaches))
    checks.append(("d(0,St) equals the bound", reaches))

    # The planner's blocks, stepped move by move through the certified
    # edges: a certified move leads from a p-restricted weight to one, and
    # so does each step of a path from zero that passes.
    try:
        canonical = plan_path(zero, st, p)
    except InvariantViolationError:
        canonical_ok = False
    else:
        path = canonical.waypoints
        canonical_ok = (
            canonical.length == len(path) - 1 == bound and path[-1] == st
            and all(any(t == b for _, t in _successors(a, p)) for a, b in zip(path, path[1:]))
        )
    checks.append(("canonical path valid, length equals bound", canonical_ok))

    conormal_ok = True
    certify_ok = True
    # One partition and one conormal set per vertex serve both checks.  The
    # clearing row 1 + a_1 is 1 + the first nonzero position.
    for w, (_, edges) in zip(g.vertices, groupby(_edges(g), lambda edge: edge[0])):
        parts = _partition(w)
        con = _rows(parts, p)[2]
        s = first_nonzero_position(w)
        if 1 not in con or (s is not None and 1 + s not in con):
            conormal_ok = False
        if not all(_certify(w, move, g.vertices[j], p, parts, con) for _, j, move in edges):
            certify_ok = False
    checks.append(("index 1 and 1+a_1 conormal at every vertex", conormal_ok))
    checks.append(("every certified move certified via conormal", certify_ok))

    checks.append(("planner valid, admissible, within bound", planner_ok))
    checks.append(("plan(0,St) meets the bound exactly", equality_ok))

    if bound <= 12:
        checks.append(
            (
                "characteristic-0 d(0,St) equals the bound",
                char0_distance(zero, st, bound) == bound,
            )
        )

    return summary, checks, all(ok for _, ok in checks)


# ----------------------------------------------------------------- parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modmckay",
        description="Certified-edge machinery and diameter verification "
        "for the modular McKay graph of SL_n(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--n", type=int, help="rank parameter (inferred "
                        "from weight length when omitted)")
        if "p" in cmd.options:
            sp.add_argument("--p", type=int, required=True, help="characteristic")
            sp.add_argument("--allow-nonprime", action="store_true",
                            help="skip the primality check on p")
        if "weight" in cmd.options:
            sp.add_argument("--weight", required=True,
                            help="comma-separated entries, e.g. 1,0,0,0")
        if "from" in cmd.options or "fromto" in cmd.options:
            sp.add_argument("--from", dest="src", required="fromto" in cmd.options,
                            help="source weight")
        if "fromto" in cmd.options:
            sp.add_argument("--to", dest="tgt", required=True, help="target weight")
        if len(cmd.formats) > 1:
            sp.add_argument("--format", choices=cmd.formats, default="text")
        if "search-budget" in cmd.options:
            sp.add_argument("--budget", type=int, required=True,
                            help="search depth budget (the graph is infinite)")
        if "vertex-budget" in cmd.options:
            sp.add_argument("--budget", type=int,
                            default=graph_mod.DEFAULT_VERTEX_BUDGET,
                            help="maximum number of vertices to enumerate")
        sp.add_argument("--output", help="write output to this file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    fmt = getattr(args, "format", "text")  # text-only commands take no --format
    try:
        _check_args(args, cmd)
        payload, views, code = cmd.handler(args)
        pieces = _json(payload) if fmt == "json" else views[fmt]()
        pieces = [pieces] if isinstance(pieces, str) else pieces
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
    except (ValueError, BudgetExceededError, InvariantViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InvariantViolationError) else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
