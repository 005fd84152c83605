"""Integer arithmetic on dominant weights of type A_{n-1}.

Conventions used throughout the package:

* A weight is a tuple ``(m_1, ..., m_{n-1})`` of nonnegative integers,
  the coordinates in the fundamental-weight basis.  The rank parameter
  ``n`` is always ``len(weight) + 1`` (the group is SL_n), so it is never
  passed separately.
* A partition is a tuple of ``n`` weakly decreasing nonnegative integers.
  The partition attached to a weight has last entry 0.
* Root coefficients are kept scaled by ``n``: ``scaled[j] = n * c_j``
  where ``weight = sum_j c_j alpha_j``.  This keeps every computation in
  exact integer arithmetic (the inverse Cartan matrix has denominator n).
* All positional indices in the public API are 1-based, matching the
  usual m_i / lambda_i notation.

Everything here is pure and operates on immutable tuples.
"""

from __future__ import annotations

from itertools import accumulate

Weight = tuple[int, ...]
Partition = tuple[int, ...]


def check_weight(w: Weight) -> Weight:
    """Validate a weight tuple (n-1 nonnegative integers, n >= 2)."""
    if len(w) < 1:
        raise ValueError("weight needs at least one entry (n >= 2)")
    if any((not isinstance(m, int)) or m < 0 for m in w):
        raise ValueError(f"weight entries must be nonnegative integers: {w}")
    return w


def check_partition(parts: Partition) -> Partition:
    """Validate a weakly decreasing tuple of nonnegative integers."""
    if len(parts) < 2:
        raise ValueError("partition needs at least two entries (n >= 2)")
    if any((not isinstance(x, int)) or x < 0 for x in parts):
        raise ValueError(f"partition entries must be nonnegative integers: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition entries must be weakly decreasing: {parts}")
    return parts


def parse_weight(text: str) -> Weight:
    """Parse the serialized form ``"1,0,0,0"`` into a weight tuple."""
    try:
        entries = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None
    return check_weight(entries)


def format_weight(w: Weight) -> str:
    """Serialize a weight (or partition) to ``"1,0,0,0"``."""
    return ",".join(str(m) for m in w)


def _scaled_coeffs(entries: tuple[int, ...]) -> tuple[int, ...]:
    """n * (root coefficients) of a vector of weight coordinates, which
    to_scaled_root_coeffs has checked.

    Closed form n*c_j = sum_i min(i,j) * (n - max(i,j)) * m_i, evaluated in
    O(n) via the split
    n*c_j = (n-j) * sum_{i<=j} i*m_i  +  j * sum_{i>j} (n-i)*m_i.
    """
    n = len(entries) + 1
    prefix = 0  # sum_{i<=j} i*m_i
    prefixes = []
    for i, m in enumerate(entries, start=1):
        prefix += i * m
        prefixes.append(prefix)
    suffix = 0  # sum_{i>j} (n-i)*m_i
    suffixes = [0] * len(entries)
    for i in range(len(entries), 1, -1):
        suffix += (n - i) * entries[i - 1]
        suffixes[i - 2] = suffix
    return tuple(
        (n - j) * prefixes[j - 1] + j * suffixes[j - 1]
        for j in range(1, len(entries) + 1)
    )


def to_scaled_root_coeffs(w: Weight) -> tuple[int, ...]:
    """Write ``w`` as a sum of simple roots, returning the coefficients
    scaled by n (so the result is integral).  Multiplying the result by
    the Cartan matrix and dividing by n recovers ``w`` exactly."""
    return _scaled_coeffs(check_weight(w))


def f_value(w: Weight) -> int:
    """The edge potential: n times the coefficient of the last simple root,
    which works out to sum_i i*m_i.  Increases by at most 1 along any
    McKay-graph edge."""
    return _f(check_weight(w))


def _f(w: Weight) -> int:
    """f_value of a weight the caller has validated."""
    return sum(i * m for i, m in enumerate(w, start=1))


def weight_to_partition(w: Weight) -> Partition:
    """The length-n partition attached to a weight: part_i = sum_{j>=i} m_j,
    so consecutive differences recover the weight and the last part is 0."""
    return _partition(check_weight(w))


def _partition(w: Weight) -> Partition:
    """weight_to_partition of a weight the caller has validated."""
    return tuple(accumulate(w[::-1]))[::-1] + (0,)


def partition_to_weight(parts: Partition) -> Weight:
    """Consecutive differences of a weakly decreasing tuple.  The last
    part need not be 0; subtracting it from every part (the GL -> SL
    renormalization) does not change the result."""
    return _weight(check_partition(parts))


def _weight(parts: Partition) -> Weight:
    """partition_to_weight of a partition the caller has validated."""
    return tuple(a - b for a, b in zip(parts, parts[1:]))


def require_restricted(w: Weight, p: int) -> Weight:
    """Validate a p-restricted weight in one pass over its entries: at
    least one entry, each an integer in 0..p-1.  Raises ValueError."""
    if p < 2:
        raise ValueError("need p >= 2")
    if not (w and all(isinstance(m, int) and 0 <= m < p for m in w)):
        check_weight(w)
        raise ValueError(f"weight is not {p}-restricted: {w}")
    return w


def steinberg_weight(n: int, p: int) -> Weight:
    """The weight (p-1, ..., p-1), the largest p-restricted weight."""
    if n < 2 or p < 2:
        raise ValueError("need n >= 2 and p >= 2")
    return (p - 1,) * (n - 1)
