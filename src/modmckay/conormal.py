"""Addable, removable and conormal indices of length-n partitions.

A conormal index certifies a composition factor of the tensor product
with the standard module in characteristic p: if i is conormal for the
partition, adding a box in row i yields a child of the corresponding
vertex in the modular McKay graph.  This is Kleshchev's modular
branching rule in the form of Brundan and Kleshchev, "Translation
functors for general linear and symmetric groups", Proc. London Math.
Soc. 80 (2000), where the conormal nodes give the socle of L(lambda) (x) V.

Indices are 1-based rows of the partition.  Index n (adding a box to the
empty last row) is allowed; the GL -> SL renormalization that it entails
happens in :func:`bk_children` via the consecutive-difference conversion,
not in the index machinery itself.

The public functions validate their partition once; the kernel
:func:`_rows` trusts its input, so a caller that holds a valid partition
already (``verify``, the move certification) calls it directly.
"""

from __future__ import annotations

from .weights import Partition, Weight, _weight, check_partition


def _rows(parts: Partition, p: int) -> tuple[list[int], list[int], list[int]]:
    """The addable, removable and conormal rows of a valid partition, in
    one pass from row 1 down.

    Row i's addable box has residue part_i + 1 - i mod p, its removable
    box part_i - i (Python's % takes negative values to 0..p-1).  An
    addable row i is conormal iff the removable boxes of its residue in
    rows k < i inject into the addable boxes of that residue, each into a
    lower row; by Hall's theorem, iff every run of rows k..i-1 holds at
    least as many such addable boxes as removable ones.  ``low[r]`` is
    the least difference, addable minus removable boxes of residue r,
    over the runs of rows that end at the current row.
    """
    add, rem, con = [], [], []
    low: dict[int, int] = {}
    # Row 1 always takes a box: its part above stands in for +infinity.
    rows = zip((parts[0] + 1,) + parts, parts, parts[1:] + (0,))
    for i, (up, x, down) in enumerate(rows, start=1):
        if up > x:
            r = (x + 1 - i) % p
            add.append(i)
            if low.get(r, 0) >= 0:
                con.append(i)
            low[r] = min(low.get(r, 0), 0) + 1
        if x > down:
            r = (x - i) % p
            rem.append(i)
            low[r] = min(low.get(r, 0), 0) - 1
    return add, rem, con


def _bump(parts: Partition, i: int) -> Partition:
    """``parts`` with one box added in row i."""
    return parts[: i - 1] + (parts[i - 1] + 1,) + parts[i:]


def addable_indices(parts: Partition) -> set[int]:
    """Rows i (1..n) where a box can be added keeping the tuple weakly
    decreasing."""
    # The addable and removable rows do not depend on p.
    return set(_rows(check_partition(parts), 2)[0])


def removable_indices(parts: Partition) -> set[int]:
    """Rows i (1..n) where a box can be removed keeping the tuple weakly
    decreasing and nonnegative."""
    return set(_rows(check_partition(parts), 2)[1])


def conormal_indices(parts: Partition, p: int) -> set[int]:
    """The addable indices passing the residue-matched injection test."""
    check_partition(parts)
    if p < 2:
        raise ValueError("need p >= 2")
    return set(_rows(parts, p)[2])


def bk_children(parts: Partition, p: int) -> set[tuple[int, Weight]]:
    """For each conormal index i, the pair (i, weight of parts + e_i).

    For i = n the new last part is nonzero and the conversion subtracts it
    from every part, which is the restriction from GL_n to SL_n.
    """
    return {(i, _weight(_bump(parts, i))) for i in conormal_indices(parts, p)}

