"""Independent oracles for the weight arithmetic: the Cartan matrix of
type A_{n-1}, which ``to_scaled_root_coeffs`` must satisfy as
C * scaled = n * weight, and the entrywise base-p decomposition behind
the p-adic witness of the conormal certification."""


def cartan_matrix(n: int) -> list[list[int]]:
    """The (n-1)x(n-1) Cartan matrix of type A_{n-1}: 2 on the diagonal,
    -1 on the off-diagonals."""
    if n < 2:
        raise ValueError("need n >= 2")
    size = n - 1
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(size)]
        for i in range(size)
    ]


def p_adic_decompose(w: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """Entrywise base-p digits of a weight: a list of p-restricted weights
    nu_1, ..., nu_k with w = sum_i p^(i-1) * nu_i.

    Trailing zero weights are trimmed, so a p-restricted nonzero weight
    yields ``[w]`` and the zero weight yields ``[]``.
    """
    digits = []
    rem = list(w)
    while any(rem):
        digits.append(tuple(m % p for m in rem))
        rem = [m // p for m in rem]
    return digits
