"""Unit tests for the max-plus scalar layer."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.maxplus.algebra import (
    EPSILON,
    check_scalar,
    is_epsilon,
    mp_max,
    mp_plus,
    mp_times_int,
)

rationals = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
)
scalars = st.one_of(st.just(EPSILON), rationals)


class TestEpsilon:
    def test_epsilon_is_minus_infinity(self):
        assert EPSILON == float("-inf")
        assert is_epsilon(EPSILON)

    def test_finite_values_are_not_epsilon(self):
        assert not is_epsilon(0)
        assert not is_epsilon(-10**9)
        assert not is_epsilon(Fraction(-1, 3))

    def test_epsilon_absorbs_multiplication(self):
        assert mp_plus(EPSILON, 5) == EPSILON
        assert mp_plus(5, EPSILON) == EPSILON
        assert mp_plus(EPSILON, EPSILON) == EPSILON

    def test_epsilon_is_additive_identity(self):
        assert mp_max(EPSILON, 5) == 5
        assert mp_max(EPSILON, Fraction(-7, 2)) == Fraction(-7, 2)
        assert mp_max() == EPSILON


class TestScalarOps:
    def test_mp_plus_is_addition(self):
        assert mp_plus(2, 3) == 5
        assert mp_plus(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_mp_max_many(self):
        assert mp_max(1, 5, 3) == 5
        assert mp_max(EPSILON, EPSILON, -2) == -2

    def test_mp_times_int(self):
        assert mp_times_int(3, 4) == 12
        assert mp_times_int(EPSILON, 2) == EPSILON

    def test_mp_times_int_zero_copies_is_semiring_one(self):
        # x ⊗ ... 0 times is the multiplicative identity 0.
        assert mp_times_int(EPSILON, 0) == 0
        assert mp_times_int(7, 0) == 0

    @given(a=scalars, b=scalars, c=scalars)
    def test_mp_plus_associative_commutative(self, a, b, c):
        assert mp_plus(a, b) == mp_plus(b, a)
        assert mp_plus(mp_plus(a, b), c) == mp_plus(a, mp_plus(b, c))

    @given(a=scalars, b=scalars, c=scalars)
    def test_distributivity(self, a, b, c):
        # a ⊗ (b ⊕ c) = (a ⊗ b) ⊕ (a ⊗ c)
        assert mp_plus(a, mp_max(b, c)) == mp_max(mp_plus(a, b), mp_plus(a, c))


class TestValidation:
    def test_check_scalar_accepts_rationals(self):
        assert check_scalar(5) == 5
        assert check_scalar(Fraction(3, 7)) == Fraction(3, 7)
        assert check_scalar(EPSILON) == EPSILON

    def test_check_scalar_rejects_bool(self):
        with pytest.raises(TypeError):
            check_scalar(True)

    def test_check_scalar_rejects_finite_float(self):
        with pytest.raises(TypeError):
            check_scalar(1.5)

    def test_check_scalar_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            check_scalar(float("nan"))
        with pytest.raises(ValueError):
            check_scalar(float("inf"))

    def test_check_scalar_rejects_strings(self):
        with pytest.raises(TypeError):
            check_scalar("3")
