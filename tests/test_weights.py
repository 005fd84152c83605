import random
from operator import sub

import pytest

from modmckay.weights import (
    check_partition,
    check_weight,
    f_value,
    format_weight,
    parse_weight,
    partition_to_weight,
    require_restricted,
    steinberg_weight,
    to_scaled_root_coeffs,
    weight_to_partition,
)
from weights_oracle import cartan_matrix, p_adic_decompose


def random_weight(rng, n, cap=6):
    return tuple(rng.randrange(cap) for _ in range(n - 1))


def cartan_times(scaled, n):
    """Independent reconstruction: (C * scaled)/n should be the weight."""
    C = cartan_matrix(n)
    out = []
    for row in C:
        total = sum(c * s for c, s in zip(row, scaled))
        assert total % n == 0
        out.append(total // n)
    return tuple(out)


class TestScaledRootCoeffs:
    def test_standard_weight_n5(self):
        assert to_scaled_root_coeffs((1, 0, 0, 0)) == (4, 3, 2, 1)
        assert cartan_times((4, 3, 2, 1), 5) == (1, 0, 0, 0)

    def test_zero(self):
        for n in range(2, 8):
            assert to_scaled_root_coeffs((0,) * (n - 1)) == (0,) * (n - 1)

    def test_n3_22(self):
        # C * (2,2)^T = (2,2)^T, so the scaled coefficients are (6,6)
        assert to_scaled_root_coeffs((2, 2)) == (6, 6)

    def test_cartan_roundtrip_fuzz(self):
        rng = random.Random(101)
        for _ in range(500):
            n = rng.randrange(2, 13)
            w = random_weight(rng, n, cap=9)
            assert cartan_times(to_scaled_root_coeffs(w), n) == w


class TestFValue:
    def test_zero(self):
        assert f_value((0, 0, 0)) == 0

    def test_steinberg(self):
        # f(St_p) = (p-1) n (n-1) / 2
        assert f_value(steinberg_weight(3, 3)) == 6
        for n in range(2, 10):
            for p in (2, 3, 5):
                assert f_value(steinberg_weight(n, p)) == (p - 1) * n * (n - 1) // 2

    def test_standard(self):
        assert f_value((1, 0, 0, 0)) == 1

    def test_agrees_with_last_scaled_coefficient(self):
        rng = random.Random(102)
        for _ in range(200):
            w = random_weight(rng, rng.randrange(2, 9))
            assert f_value(w) == to_scaled_root_coeffs(w)[-1]

    def test_linearity(self):
        rng = random.Random(103)
        for _ in range(200):
            n = rng.randrange(2, 9)
            a = random_weight(rng, n)
            b = random_weight(rng, n)
            total = tuple(x + y for x, y in zip(a, b))
            assert f_value(total) == f_value(a) + f_value(b)


def is_subdominant(nu, lam):
    """nu <= lam in the dominance order: lam - nu is a nonnegative
    integral combination of simple roots, read off the scaled root
    coefficients."""
    n = len(lam) + 1
    diff = map(sub, to_scaled_root_coeffs(lam), to_scaled_root_coeffs(nu))
    return all(x >= 0 and x % n == 0 for x in diff)


class TestSubdominance:
    """The dominance order, as the scaled root coefficients give it."""

    def test_zero_below_steinberg(self):
        assert is_subdominant((0, 0), (2, 2))

    def test_not_comparable(self):
        assert not is_subdominant((0, 1), (1, 0))
        assert not is_subdominant((1, 0), (0, 1))

    def test_reflexive(self):
        rng = random.Random(104)
        for _ in range(50):
            w = random_weight(rng, rng.randrange(2, 8))
            assert is_subdominant(w, w)

    def test_partial_order_on_small_grid(self):
        from itertools import product

        grid = [w for w in product(range(3), repeat=2)]
        for a in grid:
            for b in grid:
                if is_subdominant(a, b) and is_subdominant(b, a):
                    assert a == b  # antisymmetry
                if is_subdominant(a, b):
                    assert f_value(a) <= f_value(b)
                    assert sum(a) <= sum(b)
                for c in grid:
                    if is_subdominant(a, b) and is_subdominant(b, c):
                        assert is_subdominant(a, c)  # transitivity


class TestPartitionCorrespondence:
    def test_examples(self):
        assert weight_to_partition((1, 0, 0, 0)) == (1, 0, 0, 0, 0)
        assert weight_to_partition((2, 2)) == (4, 2, 0)
        assert weight_to_partition((0, 0, 0)) == (0, 0, 0, 0)

    def test_inverse_examples(self):
        assert partition_to_weight((2, 1, 1)) == (1, 0)
        assert partition_to_weight((3, 3, 3)) == (0, 0)
        assert partition_to_weight((1, 0, 0, 0, 0)) == (1, 0, 0, 0)

    def test_roundtrip_fuzz(self):
        rng = random.Random(105)
        for _ in range(500):
            w = random_weight(rng, rng.randrange(2, 10), cap=7)
            assert partition_to_weight(weight_to_partition(w)) == w

    def test_shift_invariance(self):
        # adding a constant to every part is invisible after restriction
        rng = random.Random(106)
        for _ in range(200):
            w = random_weight(rng, rng.randrange(2, 8))
            parts = weight_to_partition(w)
            shifted = tuple(x + 3 for x in parts)
            assert partition_to_weight(shifted) == w

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            partition_to_weight((1, 2, 0))


class TestPAdicDecompose:
    """The base-p digits of tests/weights_oracle.py, which the acceptance
    suite takes as its reference."""

    def test_split_at_p(self):
        assert p_adic_decompose((3, 0), 3) == [(0, 0), (1, 0)]

    def test_restricted_is_identity(self):
        assert p_adic_decompose((2, 1), 3) == [(2, 1)]
        assert p_adic_decompose((0, 0), 3) == []

    def test_two_digits(self):
        assert p_adic_decompose((5, 7), 3) == [(2, 1), (1, 2)]

    def test_reconstruction_fuzz(self):
        rng = random.Random(107)
        for _ in range(500):
            n = rng.randrange(2, 8)
            p = rng.choice([2, 3, 5, 7])
            w = tuple(rng.randrange(p**3) for _ in range(n - 1))
            digits = p_adic_decompose(w, p)
            assert all(max(d) < p for d in digits)
            rebuilt = [0] * (n - 1)
            for i, d in enumerate(digits):
                for j, m in enumerate(d):
                    rebuilt[j] += p**i * m
            assert tuple(rebuilt) == w
            if digits:
                assert any(digits[-1])  # trailing zeros trimmed


class TestRestrictedAndSteinberg:
    def test_examples(self):
        assert require_restricted((2, 0), 3) == (2, 0)
        with pytest.raises(ValueError, match="not 3-restricted"):
            require_restricted((3, 0), 3)
        assert steinberg_weight(3, 3) == (2, 2)


class TestSumIdentity:
    def test_root_lattice_differences(self):
        # S(lam) - S(nu) = c_1 + c_{n-1} whenever lam - nu = C * c
        rng = random.Random(108)
        for _ in range(300):
            n = rng.randrange(2, 10)
            c = [rng.randrange(-4, 5) for _ in range(n - 1)]
            C = cartan_matrix(n)
            diff = [sum(row[j] * c[j] for j in range(n - 1)) for row in C]
            nu = tuple(max(0, -d) + rng.randrange(3) for d in diff)
            lam = tuple(a + d for a, d in zip(nu, diff))
            assert sum(lam) - sum(nu) == c[0] + c[-1]
            scaled_diff = tuple(
                a - b
                for a, b in zip(to_scaled_root_coeffs(lam), to_scaled_root_coeffs(nu))
            )
            assert scaled_diff == tuple(n * x for x in c)


class TestSerialization:
    def test_weight_roundtrip(self):
        assert parse_weight("1,0,0,0") == (1, 0, 0, 0)
        assert format_weight((1, 0, 0, 0)) == "1,0,0,0"
        assert parse_weight(" 2 , 1 ") == (2, 1)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_weight("1,x")
        with pytest.raises(ValueError):
            parse_weight("1,-2")

    def test_check_functions(self):
        with pytest.raises(ValueError):
            check_weight(())
        with pytest.raises(ValueError):
            check_partition((3,))
