"""The three certified edge moves of the modular McKay graph of SL_n(p).

Every p-restricted weight has an add_first edge; every nonzero weight
additionally has exactly one clearing edge, determined by the position s
of its first nonzero entry:

* add_first:      the first entry becomes the representative in
                  {1, ..., p-1} of (old + 1) mod (p-1);
* clear_forward:  entry s drops by 1 and entry s+1 becomes the
                  representative of (old + 1) mod (p-1), for s < n-1;
* clear_last:     entry n-1 drops by 1, all other entries zero.

For p = 2 the congruences mod p-1 = 1 are vacuous and the representative
set {1, ..., p-1} collapses to {1}; in particular add_first at a weight
with first entry 1 is a genuine self-loop.

These edges form a certified subgraph of the full McKay graph (more edges
may exist); ``verify`` re-derives each one from the conormal-index
criterion (:func:`_certify`) as an independent check.

:func:`_successors` states these rules once per weight.
``graph.build_certified_graph`` restates them over ranges of vertex
indices, and ``TestIndexRangeBuild`` in tests/test_graph.py pins the two
to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .conormal import _bump
from .weights import Partition, Weight, _weight, require_restricted

ADD_FIRST = "add_first"
CLEAR_FORWARD = "clear_forward"
CLEAR_LAST = "clear_last"


class NoSuchEdgeError(ValueError):
    """The given pair of weights is not a certified edge."""


@dataclass(frozen=True)
class Move:
    """A certified edge label.  ``s`` is the cleared position for
    clear_forward (1 <= s < n-1) and None otherwise; it is derivable from
    the source weight but stored for auditability."""

    kind: str
    s: int | None = None

    def __post_init__(self):
        if self.kind not in (ADD_FIRST, CLEAR_FORWARD, CLEAR_LAST):
            raise ValueError(f"unknown move kind: {self.kind!r}")
        if (self.kind == CLEAR_FORWARD) != (self.s is not None):
            raise ValueError("clear_forward takes s, other kinds do not")
        if self.s is not None and self.s < 1:
            raise ValueError(f"clear position must be >= 1: {self.s}")

    def __str__(self) -> str:
        if self.kind == CLEAR_FORWARD:
            return f"clear_forward({self.s})"
        return self.kind

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.s is not None:
            out["s"] = self.s
        return out


def first_nonzero_position(w: Weight) -> int | None:
    """1-based position of the first nonzero entry, or None for zero."""
    for i, m in enumerate(w, start=1):
        if m:
            return i
    return None


def _rep(x: int, p: int) -> int:
    """The unique element of {1, ..., p-1} congruent to x mod p-1."""
    r = x % (p - 1)
    return r if r else p - 1


_ADD_FIRST_MOVE = Move(ADD_FIRST)
_CLEAR_LAST_MOVE = Move(CLEAR_LAST)


@lru_cache(maxsize=None)
def _clear_forward(s: int) -> Move:
    """The clear_forward label at position s, built and validated once
    per position rather than once per step."""
    return Move(CLEAR_FORWARD, s)


def _successors(w: Weight, p: int) -> list[tuple[Move, Weight]]:
    """The 1 or 2 certified edges out of ``w``, add_first first.  This is
    the one statement of the move rules; it trusts ``w`` to be
    p-restricted, so every caller validates its input beforehand."""
    out = [(_ADD_FIRST_MOVE, (_rep(w[0] + 1, p),) + w[1:])]
    s = first_nonzero_position(w)
    if s is None:
        return out
    if s == len(w):
        out.append((_CLEAR_LAST_MOVE, w[:-1] + (w[-1] - 1,)))
    else:
        cleared = list(w)
        cleared[s - 1] -= 1
        cleared[s] = _rep(cleared[s] + 1, p)
        out.append((_clear_forward(s), tuple(cleared)))
    return out


def certified_moves(w: Weight, p: int) -> list[tuple[Move, Weight]]:
    """The 1 or 2 certified edges out of ``w``: add_first always, plus the
    single applicable clearing move when ``w`` is nonzero."""
    require_restricted(w, p)
    return _successors(w, p)


def validate_move(lam: Weight, mu: Weight, p: int) -> Move:
    """The move realizing the certified edge lam -> mu, or
    NoSuchEdgeError if there is none.  Where two labels give the same
    edge, the first in certified_moves order is returned.  Weights of
    different rank are bad input, a plain ValueError."""
    require_restricted(mu, p)
    require_restricted(lam, p)
    if len(lam) != len(mu):
        raise ValueError(f"rank mismatch: {len(lam) + 1} vs {len(mu) + 1}")
    for move, target in _successors(lam, p):
        if target == mu:
            return move
    raise NoSuchEdgeError(f"no certified edge {lam} -> {mu} for p={p}")


def _certify(
    lam: Weight, move: Move, mu: Weight, p: int, parts: Partition, con: list[int]
) -> bool:
    """Certify the edge ``move``: lam -> mu through the conormal-index
    criterion, for a p-restricted ``lam`` whose partition ``parts`` and
    conormal rows ``con`` the caller has computed.

    True iff the responsible row is conormal for ``parts`` AND the weight
    of the box-added partition p-adically witnesses mu: it equals mu when
    p-restricted, and otherwise its digits are [nu, e_k] with mu = nu + e_k
    (the entry bumped to p splits off one Frobenius-twisted standard
    factor).  The responsible row is 1 for add_first and 1 + a_1 for the
    clearing moves, where a_1, the size of the partition's first constant
    block, is the position of the first nonzero entry.
    """
    i = 1 if move.kind == ADD_FIRST else 1 + first_nonzero_position(lam)
    if i not in con:
        return False
    # lam is p-restricted, so only the bumped entry can reach p, and then
    # its base-p digits are [nu, e_k]: the witness nu + e_k is m % p + m // p.
    return mu == tuple(m % p + m // p for m in _weight(_bump(parts, i)))
