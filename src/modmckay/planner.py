"""Constructive paths between arbitrary p-restricted weights.

For any source and target the planner emits an explicit list of certified
moves of length at most (p-1)(n^2-n)/2, the diameter of the graph.  The
construction routes through M(mu), a canonical waypoint on the explicit
zero-to-Steinberg path, and is driven by three statistics of the target:

* ell(mu):  0 at the Steinberg weight, n at zero, otherwise the last
  position whose entry is below p-1;
* s_mu(mu): the last nonzero position before ell(mu), or 0 when there is
  none;
* M(mu):    mu itself when on the canonical path, otherwise the canonical
  weight with a 1 at s_mu, the entry mu_ell at ell(mu) and p-1 beyond;
* K(mu):    M(mu) without its seed 1 at s_mu: zeros below ell(mu), mu_ell
  at ell(mu) and p-1 beyond.

The canonical path's weights are zeros, at most one 1 before ell, the
entry at ell, then p-1s; so mu is on it exactly when its entries before
ell(mu) hold at most one nonzero value and that value is 1.  The planner
tests that shape and never builds the path.

The source and target are validated once, at the public boundary.  The
walk is then recorded as run-length blocks ``(kind, at, k)``, and each
block is certified once, in closed form, against the preconditions that
stepping its k moves one by one would check (rep(x) is the
representative of x mod p-1 in {1, ..., p-1}):

* travel(x) x k, a 1 added at the front and carried to position x, k
  times (add_first x k is travel(1) x k): needs zeros before x, sets
  entry x to rep(old + k) and costs k*x moves;
* clear_forward(s) x k: needs zeros before s, entry s >= k and s < n-1;
  lowers entry s by k and sets entry s+1 to rep(old + k);
* clear_last x k: needs zeros before n-1 and a last entry >= k, which it
  lowers by k.

Every plan factors through K(mu).  The walk to K(mu) takes one of three
routes, by how lam and mu compare: ell(lam) > ell(mu), which includes
every zero source; mu ending in 0, which includes the zero target; and
every other mu, whose entry at ell(mu) the sweep deposits.  It reads mu
only through its key (ell(mu), mu_ell, whether mu ends in 0), and the
walk on from K(mu) reads nothing of lam.  Each route is a sweep, a run
of add_first and then clear_forward runs until the entries below a stop
are zero, followed by a finish from the swept weight: fills, clear_last
or one clear_forward run.  The first route's sweep reads nothing of the
key, and a finish reads nothing of lam but ell(lam).  The canonical path
itself is such a walk: its stage j is travel(n-j) x (p-1), so from zero
the planner reaches K(mu) by the same certified fills as from any weight
with ell above ell(mu).  A sweep reads lam only through the entries
below its stop and the residue it adds at the front, and only adds a
carry to the entry at its stop.

So the all-pairs certificate that ``verify`` runs (_check_plans) plans
nothing pair by pair.  It walks each distinct sweep once for all
sources, from the entries below its stop and then zeros, and reads a
source's swept weight off that walk's carry (_swept).  A head reads its
key only through its route, so a source sweeps once per route, and the
finishes of the route's keys are walked once per (ell(lam), swept
weight).  With one suffix per target, each walk is certified block by
block and checked to end where it must: two walks, the second starting
where the first ends, make a walk.  Each key keeps its two longest
suffixes, so a source's longest plan is its longest head plus the
longest suffix in the head's key to another vertex.

The finished walk must end at the target within the length bound.  A
failed check raises InvariantViolationError rather than being silently
repaired, since it can only mean a bug in the construction.  A plan
holds its blocks; its moves, waypoints and text are expanded from them,
per block, when asked for.

All prose steps of the underlying recipe that admit two readings are
resolved the way the move validator and the length bound both accept;
comments mark each such point inline.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import add, sub

from .moves import (
    _ADD_FIRST_MOVE,
    _CLEAR_LAST_MOVE,
    CLEAR_FORWARD,
    CLEAR_LAST,
    Move,
    _clear_forward,
    _rep,
    first_nonzero_position,
)
from .weights import Weight, require_restricted

# The block kind besides the clear_forward and clear_last runs.
_TRAVEL = "travel"


class InvariantViolationError(AssertionError):
    """An internal consistency guarantee of the planner failed."""


def length_bound(n: int, p: int) -> int:
    """The diameter (p-1)(n^2-n)/2; no plan may be longer."""
    return (p - 1) * n * (n - 1) // 2


def _ell(mu: Weight, p: int) -> int:
    """0 for the Steinberg weight, n for zero, else the largest position
    whose entry is < p-1."""
    if not any(mu):
        return len(mu) + 1
    return max((x for x, m in enumerate(mu, start=1) if m < p - 1), default=0)


def _statistics(mu: Weight, p: int) -> tuple[int, int, bool]:
    """ell(mu), s_mu(mu) and whether mu is on the canonical path, each
    computed once: on the path, the entries before ell(mu) hold at most
    one nonzero value, a 1."""
    l = _ell(mu, p)
    for x in range(l - 1, 0, -1):
        if mu[x - 1]:
            return l, x, mu[x - 1] == 1 and not any(mu[: x - 1])
    return l, 0, True


def _lambda_zero(lam: Weight, upto: int, r: int, p: int) -> int:
    """The unique element of {0, ..., p-2} congruent to
    r - (lam_1 + ... + lam_upto) mod p-1."""
    return (r - sum(lam[:upto])) % (p - 1)


def _travels_from_M(mu: Weight, s: int) -> list[tuple[int, int]]:
    """The walk from M(mu) to a mu off the canonical path, as (x, k) runs
    of travel(x) x k: raise position s = s_mu from its seed 1 to mu's
    value, then carry single 1s into each lower position the required
    number of times."""
    return [(s, mu[s - 1] - 1)] + [(j, mu[j - 1]) for j in range(s - 1, 0, -1)]


@lru_cache(maxsize=None)
def _travel(x: int) -> tuple[Move, ...]:
    """Add a 1 at the front and carry it along to position x."""
    return (_ADD_FIRST_MOVE,) + tuple(_clear_forward(k) for k in range(1, x))


def _effect(cur: list[int], kind: str, at: int, k: int, p: int) -> tuple[int, ...]:
    """Apply a certified run of k moves to the running weight ``cur`` in
    place, trusting its precondition, and return the entries, 0-based,
    that it changes: the last (as -1) for clear_last, at-1 and at for
    clear_forward, at-1 for a travel.  A single move is the run of its own
    kind at its position with k = 1; add_first is a travel to position 1."""
    if kind == CLEAR_LAST:
        cur[-1] -= k
        return (-1,)
    if kind == CLEAR_FORWARD:
        cur[at - 1] -= k
        cur[at] = _rep(cur[at] + k, p)
        return (at - 1, at)
    cur[at - 1] = _rep(cur[at - 1] + k, p)
    return (at - 1,)


def _run(cur: list[int], kind: str, at: int, k: int, p: int) -> None:
    """Certify the run ``kind(at) x k``, k >= 1, at ``cur`` in closed form
    and apply it: every block kind needs zeros before ``at``; the clearing
    runs also need entry ``at`` >= k, and ``at`` < n-1 exactly for
    clear_forward."""
    if not 1 <= at <= len(cur) or any(cur[: at - 1]):
        raise InvariantViolationError(
            f"{kind}({at}) x {k} needs zeros before position {at}: {tuple(cur)}"
        )
    if kind != _TRAVEL and (cur[at - 1] < k or (kind == CLEAR_LAST) != (at == len(cur))):
        raise InvariantViolationError(f"{kind}({at}) x {k} fails at {tuple(cur)}")
    _effect(cur, kind, at, k, p)


@dataclass(frozen=True)
class PathPlan:
    """A validated walk through the certified subgraph, held as the
    certified blocks ``(kind, at, k)``; its moves and text expand them."""

    n: int
    p: int
    source: Weight
    target: Weight
    blocks: tuple[tuple[str, int, int], ...]
    length: int

    def _moves(self) -> Iterator[Move]:
        """The moves, block by block."""
        return self._labels(lambda move: move)

    def _walk(self) -> Iterator[tuple[Move, list[int], tuple[int, ...]]]:
        """Each move with the weight it reaches and the entries it changes,
        in one pass.  The weight is one list updated in place, so keep a
        copy, not the list."""
        cur = list(self.source)
        p = self.p
        for move in self._moves():
            yield move, cur, _effect(cur, move.kind, move.s or 1, 1, p)

    def _units(self, label: Callable[[Move], object]) -> dict[tuple[str, int], tuple]:
        """``label`` of each unit's moves, keyed by (kind, at).  Every unit
        but clear_last is a run of add_first, clear_forward(1),
        clear_forward(2), ...: travel(x) the first x of them,
        clear_forward(s) the one at s.  So the table slices one line of
        labels, and each move is labelled once."""
        line: list = []  # the labels of add_first, clear_forward(1), ...
        units: dict[tuple[str, int], tuple] = {}
        for kind, at, _ in self.blocks:
            if (kind, at) in units:
                continue
            if kind == CLEAR_LAST:
                units[kind, at] = (label(_CLEAR_LAST_MOVE),)
                continue
            start, stop = (0, at) if kind == _TRAVEL else (at, at + 1)
            line += map(label, _travel(stop)[len(line) :])
            units[kind, at] = tuple(line[start:stop])
        return units

    def _labels(self, label: Callable[[Move], object]) -> Iterator:
        """``label`` of each move, in order, from the table of _units."""
        units = self._units(label)
        return chain.from_iterable(units[kind, at] * k for kind, at, k in self.blocks)

    def _render(self, prefix: str, sep: Callable[[Move], str]) -> Iterator[str]:
        """Yield the walk's text, block by block: the source's row, then
        each later row led by ``sep`` of the move that reaches it.  A row is
        its weight's cells, ``prefix`` and the digits, joined by commas.  By a
        block's precondition, zeros before ``at``, no row is a string of
        its own: a clearing run or travel(1) is one join of the one or two
        cells it changes, between a fixed head and tail, and a repeat of
        travel(x) slides a 1 over the zeros, then raises entry x by one,
        so each value of entry x is one join of x leads, zeros and a 1 at
        each position below x, made once per x with their separators."""
        q = self.p - 1
        seps = self._units(sep)
        leads: dict[int, list[str]] = {}
        zero = prefix + "0,"
        cur = list(self.source)
        row = [prefix + str(v) for v in cur]
        yield ",".join(row)
        for kind, at, k in self.blocks:
            i, e, unit = at - 1, cur[at - 1], seps[kind, at]
            pre = unit[-1] + zero * i + prefix  # the start of a row that changes entry at
            tail = ",".join(["", *row[at + (kind == CLEAR_FORWARD) :]])
            if kind == CLEAR_FORWARD:  # entry at runs down from e, the next up from c
                c = cur[at]
                cells = [f"{e - j},{prefix}{(c + j - 1) % q + 1}" for j in range(1, k + 1)]
                yield from (pre, (tail + pre).join(cells), tail)
            elif kind == CLEAR_LAST or at == 1:  # the tail of clear_last is empty
                values = range(e - 1, e - k - 1, -1) if kind == CLEAR_LAST else (
                    v % q + 1 for v in range(e, e + k))
                yield from (pre, (tail + pre).join(map(str, values)), tail)
            else:
                group = leads.get(at)
                if group is None:
                    # Windows of one band, a 1 amid zeros (cells of 0 and 1
                    # are equally wide), reached by add_first, then
                    # clear_forward(j) for the 1 at j+1; "" closes a join.
                    band, w = zero * (i - 1) + prefix + "1," + zero * (i - 1), len(zero)
                    group = leads[at] = [unit[-1] + zero * i] + [
                        unit[j] + band[(i - 1 - j) * w : (2 * i - 1 - j) * w] for j in range(i)
                    ] + [""]
                # Entry x runs through e, rep(e+1), ..., rep(e+k).  The
                # first value's all-zero row is the weight before the block
                # and its last value's slides belong to the next repeat.
                yield (prefix + str(e) + tail).join(group[1:])
                for v in range(e, e + k - 1):
                    yield (prefix + str(v % q + 1) + tail).join(group)
                yield from (pre, str((e + k - 1) % q + 1), tail)
            for j in _effect(cur, kind, at, k, self.p):
                row[j] = prefix + str(cur[j])

    @property
    def moves(self) -> tuple[Move, ...]:
        """Every move, expanded from the blocks on each access."""
        return tuple(self._moves())

    @property
    def waypoints(self) -> tuple[Weight, ...]:
        """The source and the weight after each move, expanded likewise."""
        return (self.source,) + tuple(tuple(w) for _, w, _ in self._walk())

    def to_json_dict(self) -> dict:
        """The plan as JSON data, its moves and waypoints built in one
        pass over the blocks.  The command line renders a plan's moves
        and waypoints from its blocks instead (cli._moves_json and
        cli._waypoints_json), to the same text."""
        moves = []
        waypoints = [list(self.source)]
        for move, w, _ in self._walk():
            moves.append(move.to_json_dict())
            waypoints.append(w[:])
        return {
            "n": self.n,
            "p": self.p,
            "source": list(self.source),
            "target": list(self.target),
            "length": self.length,
            "moves": moves,
            "waypoints": waypoints,
        }


class _Builder:
    """The running weight, p-restricted from the validated source on, and
    the certified blocks that reach it; a block that fails its check is a
    construction bug and surfaces as an invariant violation."""

    def __init__(self, source: Weight, p: int):
        self.p = p
        self.cur = list(source)
        self.blocks: list[tuple[str, int, int]] = []
        self.length = 0

    def run(self, kind: str, at: int, k: int = 1) -> None:
        """Certify and record ``kind(at) x k``; a run of no moves is none."""
        if k > 0:
            _run(self.cur, kind, at, k, self.p)
            self.blocks.append((kind, at, k))
            self.length += k * at if kind == _TRAVEL else k

    def fill(self, x: int, value: int) -> None:
        """Raise entry x from its current value to ``value`` by repeated
        carries; never wraps because value <= p-1."""
        self.run(_TRAVEL, x, value - self.cur[x - 1])

    def sweep_below(self, stop: int) -> None:
        """Clear forward from the first nonzero entry until every position
        before ``stop`` is zero; each run carries a nonzero entry to the
        next position."""
        s = first_nonzero_position(self.cur)
        while s is not None and s < stop:
            self.run(CLEAR_FORWARD, s, self.cur[s - 1])
            s += 1


def plan_path(lam: Weight, mu: Weight, p: int) -> PathPlan:
    """A validated plan from lam to mu of length <= (p-1)(n^2-n)/2.

    Route: bring lam onto the waypoint K(mu) by one of three routes (see
    _to_waypoint), then seed M(mu) and fill in mu's lower entries (see
    _from_waypoint).  Equal weights give the empty plan.
    """
    require_restricted(lam, p)
    require_restricted(mu, p)
    if len(lam) != len(mu):
        raise ValueError(f"rank mismatch: {len(lam) + 1} vs {len(mu) + 1}")
    b = _Builder(lam, p)
    if lam != mu:
        _to_waypoint(b, lam, _waypoint_key(mu, p))
        _from_waypoint(b, mu)
    return _finish(b, len(lam) + 1, p, lam, mu)


def _waypoint_key(mu: Weight, p: int) -> tuple[int, int | None, bool]:
    """All that the walk to K(mu) reads of mu: ell(mu), mu's entry there
    when 1 <= ell(mu) <= n-1 (else None), and whether mu ends in 0."""
    l = _ell(mu, p)
    return l, mu[l - 1] if 1 <= l <= len(mu) else None, mu[-1] == 0


def _waypoint(key: tuple[int, int | None, bool], n: int, p: int) -> Weight:
    """K of the targets with this key: zeros below ell, the key's entry at
    ell, and p-1 above; M(mu) is K(mu) with the seed 1 at s_mu."""
    l, entry, _ = key
    return tuple(0 if x < l else entry if x == l else p - 1 for x in range(1, n))


def _to_waypoint(b: _Builder, lam: Weight, key: tuple[int, int | None, bool]) -> None:
    """Walk the builder from lam, its current weight, to K of the targets
    with this key, by the route that ell(lam) and the key select: the
    route's sweep, then the finish from the swept weight."""
    l_lam = _ell(lam, b.p)
    upto, r, stop = _route(l_lam, key, len(lam) + 1)
    _sweep(b, _lambda_zero(lam, upto, r, b.p), stop)
    _after_sweep(b, l_lam, key)


def _route(l_lam: int, key: tuple[int, int | None, bool], n: int) -> tuple[int, int, int]:
    """The sweep of the route from a source with ell(lam) = ``l_lam`` to K
    of ``key``, as (upto, r, stop): it adds _lambda_zero(lam, upto, r) at
    the front and clears every position before ``stop``."""
    l_mu, entry, ends_in_zero = key
    if l_lam > l_mu:
        # Zero out everything below ell(lam); the congruence makes the
        # swept entry land on p-1 or stay 0.  This reads nothing of the key.
        return l_lam, 0, l_lam
    if ends_in_zero:
        # mu is zero (ell(mu) = n, so the sum runs over all n-1 entries)
        # or ends in 0 at ell(mu) = n-1: flush the sum to a 1 at the last
        # position.
        return l_mu, 1, n - 1
    # ell(lam) <= ell(mu) and mu ends in a nonzero entry: sweeping below
    # ell(mu) deposits mu's entry there thanks to the congruence target,
    # or p-1 where that entry is 0.
    return l_mu, entry, l_mu


def _sweep(b: _Builder, lam0: int, stop: int) -> None:
    """Add ``lam0`` at the front, then clear forward until every position
    before ``stop`` is zero.  Its blocks read nothing but lam0, the
    entries before ``stop`` and n, and only the last of them writes entry
    ``stop``, adding the carry to it."""
    b.run(_TRAVEL, 1, lam0)
    b.sweep_below(stop)


def _after_sweep(b: _Builder, l_lam: int, key: tuple[int, int | None, bool]) -> None:
    """Walk the builder from the weight that the sweep of _route(l_lam,
    key) left to K of ``key``; this reads nothing else of the source."""
    l_mu, entry, ends_in_zero = key
    p = b.p
    n = len(b.cur) + 1
    if l_lam > l_mu:
        # Top up positions ell(lam)..ell(mu)+1 to p-1 and set mu's entry at
        # ell(mu).  From zero, where ell is n, this rides the canonical path.
        for x in range(min(l_lam, n - 1), l_mu, -1):
            b.fill(x, p - 1)
        if l_mu >= 1:
            b.fill(l_mu, entry)
    elif ends_in_zero:
        # Clear the 1 off the end.
        b.run(CLEAR_LAST, n - 1)
    elif b.cur[l_mu - 1] == p - 1:
        # A p-1 (never mu's entry, which is below p-1) is recycled into the
        # (already p-1) entry beyond it, which wraps around and restores
        # itself.
        b.run(CLEAR_FORWARD, l_mu, p - 1)


def _from_waypoint(b: _Builder, mu: Weight) -> None:
    """Walk the builder from K(mu) to mu: seed the 1 at s_mu, which
    completes M(mu), then fill in below it (_travels_from_M)."""
    _, s, on_path = _statistics(mu, b.p)
    if s >= 1:
        b.run(_TRAVEL, s)
    if not on_path:
        for x, k in _travels_from_M(mu, s):
            b.run(_TRAVEL, x, k)


def _walk_length(start: Weight, p: int, walk: Callable, *args) -> tuple[int | None, Weight | None]:
    """The length and the end of ``walk(builder, *args)`` from ``start``
    when the builder certifies each of its blocks; else two Nones."""
    b = _Builder(start, p)
    try:
        walk(b, *args)
    except InvariantViolationError:
        return None, None
    return b.length, tuple(b.cur)


def _swept(lam: Weight, p: int, route: tuple, walks: dict) -> tuple[int | None, Weight | None]:
    """The length and the end of the sweep of ``route`` from lam, or two
    Nones when it is not certified: the walk kept in ``walks`` under
    (stop, lam0, lam[:stop-1]), with its carry added to lam's entry at
    stop."""
    upto, r, stop = route
    lam0 = _lambda_zero(lam, upto, r, p)
    low = lam[: stop - 1]
    key = stop, lam0, low
    walk = walks.get(key)
    if walk is None:
        start = low + (0,) * (len(lam) - len(low))
        walk = walks[key] = _walk_length(start, p, _sweep, lam0, stop)
    length, end = walk
    if end is None or stop > len(lam):  # not certified, or nothing above stop
        return walk
    c, entry = end[stop - 1], lam[stop - 1]
    return length, end[: stop - 1] + (_rep(entry + c, p) if c else entry,) + lam[stop:]


def _check_plans(g, pairs: dict, rows) -> tuple[int | None, bool, bool, dict]:
    """The longest plan over every ordered pair lam != mu, or None when
    some walk is not certified; whether every such plan is within the
    bound and each plan of a pair in ``pairs`` (source index -> target
    indices) no shorter than its distance (``rows`` yields the distances
    of each source to its targets, in the order of the sources); whether
    plan(0,St) meets the bound; and the gap figures over ``pairs``.  A
    source takes one sweep and one finish lookup per route of its keys,
    and its gaps are its heads by key plus the suffixes minus its
    distances, each list checked whole.
    """
    n, p, vertices = g.n, g.p, g.vertices
    bound = length_bound(n, p)
    numbers: dict[tuple, int] = {}  # key -> its number
    kids = [numbers.setdefault(_waypoint_key(mu, p), len(numbers)) for mu in vertices]
    keys = list(numbers)
    waypoints = [_waypoint(key, n, p) for key in keys]
    tails: list[int | None] = []
    best = [[(-1, -1)] * 2 for _ in keys]  # per key: its two longest (suffix, target)
    for j, (mu, c) in enumerate(zip(vertices, kids)):
        length, end = _walk_length(waypoints[c], p, _from_waypoint, mu)
        tails.append(length if end == mu else None)
        if end == mu:
            best[c] = sorted([*best[c], (length, j)])[1:]
    certified = None not in tails
    first = [top for _, (top, _) in best]
    # The longest suffix in a vertex's key to another vertex: the key's
    # longest, best[c][1], unless it is the vertex's own.
    other = [best[c][best[c][1][1] != j][0] for j, c in enumerate(kids)]

    groups: dict[int, dict] = {}  # ell(lam) -> route -> (key numbers, swept weight -> finishes)
    walks: dict[tuple, tuple] = {}  # (stop, lam0, lam[:stop-1]) -> sweep (length, end)
    ok = True
    longest = optimal = worst = total = 0
    for i, lam in enumerate(vertices):
        l_lam = _ell(lam, p)
        if l_lam not in groups:
            group = groups[l_lam] = {}
            for c, key in enumerate(keys):
                group.setdefault(_route(l_lam, key, n), ([], {}))[0].append(c)
        own = kids[i]
        alone = other[i] == -1  # the source is its key's only member: no head to it
        heads: list[int | None] = [0] * len(keys)
        for route, (cs, finishes) in groups[l_lam].items():
            if alone and cs == [own]:
                continue
            length, swept = _swept(lam, p, route, walks)
            ends = [None] * len(cs) if length is None else finishes.get(swept)
            if ends is None:
                ends = finishes[swept] = []
                for c in cs:
                    finish, end = _walk_length(swept, p, _after_sweep, l_lam, keys[c])
                    ends.append(finish if end == waypoints[c] else None)
            for c, finish in zip(cs, ends):
                heads[c] = None if finish is None else length + finish
        if i == 0:
            from_zero = heads
        if not certified or None in heads:
            certified = False
            break
        farthest = list(map(add, heads, first))
        farthest[own] = 0 if alone else heads[own] + other[i]
        longest = max(longest, *farthest)
        if i not in pairs:
            continue
        js, row = pairs[i], next(rows)
        # A certified walk reaches its target, so the distance must too.
        if None in row:
            ok = False
            continue
        if type(js) is range:  # every vertex, in order
            ks, ts, selves = kids, tails, [i]
        else:
            ks, ts = map(kids.__getitem__, js), map(tails.__getitem__, js)
            selves = [k for k, j in enumerate(js) if j == i]
        gaps = list(map(sub, map(add, map(heads.__getitem__, ks), ts), row))
        for k in selves:  # the plan to itself is the empty one
            gaps[k] = -row[k]
        ok = ok and min(gaps) >= 0
        optimal += gaps.count(0)
        worst = max(worst, *gaps)
        total += sum(gaps)

    # Vertices are in lexicographic order: zero first, Steinberg last.
    head, tail = from_zero[kids[-1]], tails[-1]
    exact = head is not None and tail is not None and head + tail == bound
    ok = ok and certified and longest <= bound
    longest = longest if certified else None
    if not ok:
        return longest, ok, exact, dict.fromkeys(("optimal_pairs", "worst_gap", "mean_gap"))
    count = sum(len(js) for js in pairs.values())
    return longest, ok, exact, {
        "optimal_pairs": optimal,
        "worst_gap": worst,
        "mean_gap": round(total / count, 4),
    }


def _finish(b: _Builder, n: int, p: int, lam: Weight, mu: Weight) -> PathPlan:
    """Check that the walk, whose blocks ``run`` has certified, ends at mu
    within the length bound, and freeze it."""
    if tuple(b.cur) != mu:
        raise InvariantViolationError(f"plan ends at {tuple(b.cur)}, wanted {mu}")
    if b.length > length_bound(n, p):
        raise InvariantViolationError(
            f"plan length {b.length} exceeds bound {length_bound(n, p)}"
        )
    return PathPlan(
        n=n, p=p, source=lam, target=mu, blocks=tuple(b.blocks), length=b.length
    )
