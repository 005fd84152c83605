"""The Cartan matrix of type A_{n-1}: the independent oracle for
``to_scaled_root_coeffs``, which must satisfy C * scaled = n * weight."""


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
