# The planner module as it was before its run-length blocks, unchanged
# apart from the absolute imports and the move step it takes each move
# with, which modmckay.moves no longer has: the step-by-step oracle that
# tests/test_planner.py compares modmckay.planner's expanded plans against.
# At the end, ``rows``: the per-move renderer of a block plan's waypoint
# rows, the oracle of the block-wise PathPlan._render.  At the start,
# ``canonical_path_char0``: the zero-to-Steinberg path built edge by edge,
# as modmckay.char0 had it; the oracle of the plan from zero to the
# Steinberg weight, which the canonical-path command renders.
"""Constructive paths between arbitrary p-restricted weights.

For any source and target the planner emits an explicit list of certified
moves of length at most (p-1)(n^2-n)/2, the diameter of the graph.  The
construction routes through M(mu), a canonical waypoint on the explicit
zero-to-Steinberg path, and is driven by three statistics of the target:

* ell(mu):  0 at the Steinberg weight, n at zero, otherwise the last
  position whose entry is below p-1;
* s_mu(mu): 0 when mu lies on the canonical path with nothing but zeros
  before position ell(mu), otherwise the last nonzero position before
  ell(mu);
* M(mu):    mu itself when on the canonical path, otherwise the canonical
  weight with a 1 at s_mu, the entry mu_ell at ell(mu) and p-1 beyond.

The source and target are validated once, at the public boundary.  Each
emitted move is then checked exactly once, as it is applied, by finding it
among the certified edges out of the current weight (either label of a
parallel edge is accepted), and the finished walk must end at the target
within the length bound.  A failed check raises InvariantViolationError
rather than being silently repaired, since it can only mean a bug in the
construction.

All prose steps of the underlying recipe that admit two readings are
resolved the way the move validator and the length bound both accept;
comments mark each such point inline.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from modmckay.moves import (
    _ADD_FIRST_MOVE,
    _CLEAR_LAST_MOVE,
    Move,
    _clear_forward,
    _successors,
    first_nonzero_position,
    validate_move,
)
from modmckay.weights import Weight, require_restricted, steinberg_weight


@lru_cache(maxsize=None)
def canonical_path_char0(n: int, p: int) -> tuple[Weight, ...]:
    """The explicit path of "a" and "b" edges from the zero weight to
    (p-1,...,p-1).

    Stage j (j = 1..n-1) repeats p-1 times the block [one "a" edge, then
    "b(i)" edges for i = 1..n-j-1]; each repetition carries a 1 from the
    front to position n-j.  The total length is (p-1)(n^2-n)/2, and the
    result is memoized per (n, p).
    """
    if n < 2 or p < 2:
        raise ValueError("need n >= 2 and p >= 2")
    w = [0] * (n - 1)
    path = [tuple(w)]
    for stage in range(1, n):
        for _ in range(p - 1):
            w[0] += 1
            path.append(tuple(w))
            for i in range(1, n - stage):
                w[i - 1] -= 1
                w[i] += 1
                path.append(tuple(w))
    assert tuple(w) == steinberg_weight(n, p)
    return tuple(path)


class NotApplicableError(ValueError):
    """The requested move is not defined at this weight."""


def _step(w: Weight, move: Move, p: int) -> Weight:
    """The head of the edge labelled ``move`` out of a p-restricted ``w``;
    NotApplicableError when ``w`` has no such edge, which includes a
    clear_forward whose stored position is stale."""
    for label, target in _successors(w, p):
        if label == move:
            return target
    raise NotApplicableError(f"{move} is not a certified edge out of {w}")


class InvariantViolationError(AssertionError):
    """An internal consistency guarantee of the planner failed."""


def length_bound(n: int, p: int) -> int:
    """The diameter (p-1)(n^2-n)/2; no plan may be longer."""
    return (p - 1) * n * (n - 1) // 2


def ell(mu: Weight, p: int) -> int:
    """0 for the Steinberg weight, n for zero, else the largest position
    whose entry is < p-1."""
    return _ell(require_restricted(mu, p), p)


def _ell(mu: Weight, p: int) -> int:
    if not any(mu):
        return len(mu) + 1
    return max((x for x, m in enumerate(mu, start=1) if m < p - 1), default=0)


@lru_cache(maxsize=None)
def canonical_set(n: int, p: int) -> frozenset[Weight]:
    """Vertex set of the canonical zero-to-Steinberg path, memoized."""
    return frozenset(canonical_path_char0(n, p))


@lru_cache(maxsize=None)
def _canonical_moves(n: int, p: int) -> tuple[Move, ...]:
    """The canonical path realized as certified moves (its consecutive
    pairs are add_first / clear_forward edges)."""
    wps = canonical_path_char0(n, p)
    return tuple(validate_move(a, b, p) for a, b in zip(wps, wps[1:]))


def s_mu(mu: Weight, p: int) -> int:
    """Last nonzero position strictly before ell(mu), or 0 when there is
    none.  A weight with no such position must lie on the canonical path
    (it is all zeros, then one entry, then p-1s); if not, something is
    inconsistent and we refuse to guess."""
    return _s_mu(require_restricted(mu, p), p)


def _s_mu(mu: Weight, p: int) -> int:
    n = len(mu) + 1
    l = _ell(mu, p)
    below = [x for x in range(1, min(l, n)) if mu[x - 1] > 0]
    if below:
        return max(below)
    if mu not in canonical_set(n, p):
        raise InvariantViolationError(
            f"weight {mu} has only zeros before position {l} but is not canonical"
        )
    return 0


def capital_M_of(mu: Weight, p: int) -> Weight:
    """The canonical waypoint attached to mu: mu itself if canonical, else
    zeros with a 1 at s_mu, mu's entry at ell(mu), and p-1 afterwards."""
    return _capital_M(require_restricted(mu, p), p)


def _capital_M(mu: Weight, p: int) -> Weight:
    n = len(mu) + 1
    if mu in canonical_set(n, p):
        return mu
    l = _ell(mu, p)
    out = [0] * (n - 1)
    out[_s_mu(mu, p) - 1] = 1
    out[l - 1] = mu[l - 1]
    for x in range(l + 1, n):
        out[x - 1] = p - 1
    result = tuple(out)
    if result not in canonical_set(n, p):
        raise InvariantViolationError(f"constructed waypoint {result} is not canonical")
    return result


def lambda_zero(lam: Weight, upto: int, r: int, p: int) -> int:
    """The unique element of {0, ..., p-2} congruent to
    r - (lam_1 + ... + lam_upto) mod p-1."""
    if p < 2:
        raise ValueError("need p >= 2")
    if not 0 <= upto <= len(lam):
        raise ValueError(f"upto out of range: {upto}")
    return (r - sum(lam[:upto])) % (p - 1)


def path_from_M(mu: Weight, p: int) -> list[Move]:
    """Moves from capital_M_of(mu) to mu; empty when mu is canonical.

    Fills the entries below ell(mu) from the top down: raise position
    s_mu from its seed 1 to mu's value, then carry single 1s into each
    lower position the required number of times.
    """
    return _path_from_M(require_restricted(mu, p), p)


def _path_from_M(mu: Weight, p: int) -> list[Move]:
    if mu in canonical_set(len(mu) + 1, p):
        return []
    s = _s_mu(mu, p)
    moves: list[Move] = []
    for _ in range(mu[s - 1] - 1):
        moves += _travel(s)
    for j in range(s - 1, 0, -1):
        for _ in range(mu[j - 1]):
            moves += _travel(j)
    return moves


@lru_cache(maxsize=None)
def _travel(x: int) -> tuple[Move, ...]:
    """Add a 1 at the front and carry it along to position x."""
    return (_ADD_FIRST_MOVE,) + tuple(_clear_forward(k) for k in range(1, x))


@dataclass(frozen=True)
class PathPlan:
    """A validated walk through the certified subgraph."""

    n: int
    p: int
    source: Weight
    target: Weight
    moves: tuple[Move, ...]
    waypoints: tuple[Weight, ...]

    @property
    def length(self) -> int:
        return len(self.moves)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "source": list(self.source),
            "target": list(self.target),
            "length": self.length,
            "moves": [m.to_json_dict() for m in self.moves],
            "waypoints": [list(w) for w in self.waypoints],
        }


class _Builder:
    """Accumulates moves while tracking the current weight, which is
    p-restricted from the validated source on; a move that is not a
    certified edge out of the current weight is a construction bug and
    surfaces as an invariant violation."""

    def __init__(self, source: Weight, p: int):
        self.p = p
        self.cur = source
        self.moves: list[Move] = []
        self.waypoints: list[Weight] = [source]

    def emit(self, move: Move) -> None:
        try:
            self.cur = _step(self.cur, move, self.p)
        except NotApplicableError as exc:
            raise InvariantViolationError(f"constructed move fails: {exc}") from exc
        self.moves.append(move)
        self.waypoints.append(self.cur)

    def extend(self, moves: Iterable[Move]) -> None:
        for move in moves:
            self.emit(move)

    def add_first(self, times: int = 1) -> None:
        for _ in range(times):
            self.emit(_ADD_FIRST_MOVE)

    def fill(self, x: int, value: int) -> None:
        """Raise entry x from its current value to ``value`` by repeated
        carries; never wraps because value <= p-1."""
        while self.cur[x - 1] < value:
            self.extend(_travel(x))

    def sweep_below(self, stop: int) -> None:
        """Clear forward from the first nonzero entry until every position
        before ``stop`` is zero."""
        while True:
            s = first_nonzero_position(self.cur)
            if s is None or s >= stop:
                return
            self.emit(_clear_forward(s))


def plan_path(lam: Weight, mu: Weight, p: int) -> PathPlan:
    """A validated plan from lam to mu of length <= (p-1)(n^2-n)/2.

    Route: bring lam onto the canonical waypoint M(mu) (four cases below),
    then fill in mu's lower entries with path_from_M.  Equal weights give
    the empty plan.
    """
    require_restricted(lam, p)
    require_restricted(mu, p)
    if len(lam) != len(mu):
        raise ValueError(f"rank mismatch: {len(lam) + 1} vs {len(mu) + 1}")
    n = len(lam) + 1
    zero = (0,) * (n - 1)
    b = _Builder(lam, p)

    if lam == mu:
        pass
    elif lam == zero:
        # Ride the canonical path to M(mu), then fill.
        target = _capital_M(mu, p)
        idx = canonical_path_char0(n, p).index(target)
        b.extend(_canonical_moves(n, p)[:idx])
        b.extend(_path_from_M(mu, p))
    elif mu == zero:
        # Not covered by the ell-comparison cases (mu's entry at ell(mu)=n
        # is out of range): normalize the running sum to 1, flush it to
        # position n-1 and clear it off the end.
        b.add_first(lambda_zero(lam, n - 1, 1, p))
        b.sweep_below(n - 1)
        if b.cur != zero[:-1] + (1,):
            raise InvariantViolationError(f"flush before clear_last left {b.cur}")
        b.emit(_CLEAR_LAST_MOVE)
    else:
        l_lam, l_mu = _ell(lam, p), _ell(mu, p)
        s = _s_mu(mu, p)
        if l_lam > l_mu:
            # Zero out everything below ell(lam) (the congruence makes the
            # swept entry land on p-1 or stay 0), then top up positions
            # ell(lam)..ell(mu)+1 to p-1, set mu's entry at ell(mu), and
            # seed the 1 at s_mu.
            b.add_first(lambda_zero(lam, l_lam, 0, p))
            b.sweep_below(l_lam)
            for x in range(l_lam, l_mu, -1):
                b.fill(x, p - 1)
            if l_mu >= 1:
                b.fill(l_mu, mu[l_mu - 1])
            if s >= 1:
                b.extend(_travel(s))
            b.extend(_path_from_M(mu, p))
        elif mu[l_mu - 1] != 0:
            # ell(lam) <= ell(mu): sweeping below ell(mu) deposits exactly
            # mu's entry there thanks to the congruence target.
            b.add_first(lambda_zero(lam, l_mu, mu[l_mu - 1], p))
            b.sweep_below(l_mu)
            if b.cur[l_mu - 1] != mu[l_mu - 1]:
                raise InvariantViolationError(
                    f"sweep left {b.cur[l_mu - 1]} at position {l_mu}, "
                    f"wanted {mu[l_mu - 1]}"
                )
            if s >= 1:
                b.extend(_travel(s))
            b.extend(_path_from_M(mu, p))
        elif l_mu == n - 1:
            # Target entry 0 at the last position: flush the sum to a 1
            # there, clear it off the end, then seed the 1 at s_mu.
            b.add_first(lambda_zero(lam, l_mu, 1, p))
            b.sweep_below(n - 1)
            if b.cur != zero[:-1] + (1,):
                raise InvariantViolationError(f"flush before clear_last left {b.cur}")
            b.emit(_CLEAR_LAST_MOVE)
            if s >= 1:
                b.extend(_travel(s))
            b.extend(_path_from_M(mu, p))
        else:
            # Target entry 0 strictly inside: sweep leaves 0 or p-1 at
            # ell(mu); a p-1 is recycled into the (already p-1) entry
            # beyond it, which wraps around and restores itself.
            b.add_first(lambda_zero(lam, l_mu, 0, p))
            b.sweep_below(l_mu)
            if b.cur[l_mu - 1] == p - 1:
                for _ in range(p - 1):
                    b.emit(_clear_forward(l_mu))
            if b.cur[l_mu - 1] != 0:
                raise InvariantViolationError(
                    f"sweep left {b.cur[l_mu - 1]} at position {l_mu}, wanted 0"
                )
            if s >= 1:
                b.extend(_travel(s))
            b.extend(_path_from_M(mu, p))

    return _finish(b, n, p, lam, mu)


def _finish(b: _Builder, n: int, p: int, lam: Weight, mu: Weight) -> PathPlan:
    """Check that the walk, whose steps ``emit`` has checked, ends at mu
    within the length bound, and freeze it."""
    if b.cur != mu:
        raise InvariantViolationError(f"plan ends at {b.cur}, wanted {mu}")
    if len(b.moves) > length_bound(n, p):
        raise InvariantViolationError(
            f"plan length {len(b.moves)} exceeds bound {length_bound(n, p)}"
        )
    return PathPlan(
        n=n,
        p=p,
        source=lam,
        target=mu,
        moves=tuple(b.moves),
        waypoints=tuple(b.waypoints),
    )


def rows(plan, prefix: str = ""):
    """The waypoint rows of a modmckay.planner.PathPlan, one move at a time:
    the source and the weight after each move, as cells of their values,
    each ``prefix`` and the digits, joined by commas; a move replaces only
    its entries' cells.  A cell is made once per value met."""
    cells = {v: prefix + str(v) for v in plan.source}
    row = [cells[v] for v in plan.source]
    yield ",".join(row)
    for _, cur, changed in plan._walk():
        for i in changed:
            v = cur[i]
            try:
                row[i] = cells[v]
            except KeyError:
                row[i] = cells[v] = prefix + str(v)
        yield ",".join(row)
