# The conormal module as it was before its single-pass kernel, unchanged
# apart from the absolute import: the slow, independent oracle that
# tests/test_conormal.py compares modmckay.conormal against.
"""Addable, removable and conormal indices of length-n partitions.

A conormal index certifies a composition factor of the tensor product
with the standard module in characteristic p: if i is conormal for the
partition, adding a box in row i yields a child of the corresponding
vertex in the modular McKay graph.

Indices are 1-based rows of the partition.  Index n (adding a box to the
empty last row) is allowed; the GL -> SL renormalization that it entails
happens in :func:`bk_children` via the consecutive-difference conversion,
not in the index machinery itself.
"""

from __future__ import annotations

from modmckay.weights import Partition, Weight, check_partition, partition_to_weight


def _part(parts: Partition, i: int) -> int:
    """parts[i] with the 1-based convention and parts[0] = +infinity,
    parts[n+1] = 0 at the boundaries."""
    if i < 1:
        raise IndexError(i)
    if i > len(parts):
        return 0
    return parts[i - 1]


def addable_indices(parts: Partition) -> set[int]:
    """Rows i (1..n) where a box can be added keeping the tuple weakly
    decreasing."""
    check_partition(parts)
    return {
        i
        for i in range(1, len(parts) + 1)
        if i == 1 or _part(parts, i - 1) >= _part(parts, i) + 1
    }


def removable_indices(parts: Partition) -> set[int]:
    """Rows i (1..n) where a box can be removed keeping the tuple weakly
    decreasing and nonnegative."""
    check_partition(parts)
    return {
        i
        for i in range(1, len(parts) + 1)
        if _part(parts, i) >= 1 and _part(parts, i) - 1 >= _part(parts, i + 1)
    }


def _residue_sets(parts: Partition, i: int, p: int) -> tuple[list[int], list[int]]:
    """The candidate removable indices R_i and addable indices A_i below i
    whose box residues mod p match the box added in row i."""
    target = (_part(parts, i) + 1 - i) % p
    removers = [
        k
        for k in sorted(removable_indices(parts))
        if k < i and (_part(parts, k) - k) % p == target
    ]
    adders = [
        k
        for k in sorted(addable_indices(parts))
        if k < i and (_part(parts, k) + 1 - k) % p == target
    ]
    return removers, adders


def _greedy_injection_exists(removers: list[int], adders: list[int]) -> bool:
    """Does an injection g: removers -> adders with g(k) > k exist?

    Each remover k accepts any adder > k, so the candidate sets are nested
    suffixes of the adder list; matching the largest remover to the
    smallest adder above it is optimal by the usual exchange argument.
    """
    free = sorted(adders)
    for k in sorted(removers, reverse=True):
        pick = next((a for a in free if a > k), None)
        if pick is None:
            return False
        free.remove(pick)
    return True


def conormal_indices(parts: Partition, p: int) -> set[int]:
    """The addable indices passing the residue-matched injection test.

    Quantities like part_i + 1 - i can be negative; Python's % already
    reduces them to the canonical class in 0..p-1.
    """
    check_partition(parts)
    if p < 2:
        raise ValueError("need p >= 2")
    out = set()
    for i in sorted(addable_indices(parts)):
        removers, adders = _residue_sets(parts, i, p)
        if _greedy_injection_exists(removers, adders):
            out.add(i)
    return out


def bk_children(parts: Partition, p: int) -> set[tuple[int, Weight]]:
    """For each conormal index i, the pair (i, weight of parts + e_i).

    For i = n the new last part is nonzero and the conversion subtracts it
    from every part, which is the restriction from GL_n to SL_n.
    """
    check_partition(parts)
    out = set()
    for i in conormal_indices(parts, p):
        bumped = tuple(x + (1 if j == i else 0) for j, x in enumerate(parts, start=1))
        out.add((i, partition_to_weight(bumped)))
    return out


def block_form(parts: Partition) -> list[tuple[int, int]]:
    """Run-length encoding [(value, multiplicity), ...] of the partition;
    the first multiplicity is the block size a_1."""
    check_partition(parts)
    blocks: list[tuple[int, int]] = []
    for x in parts:
        if blocks and blocks[-1][0] == x:
            blocks[-1] = (x, blocks[-1][1] + 1)
        else:
            blocks.append((x, 1))
    return blocks
