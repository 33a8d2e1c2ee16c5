"""Inertial characters as exponent classes."""

import pytest

from kisinweights.chars import (
    InertialChar,
    SemisimpleShape,
    char_of_exponents,
    extend_to_quadratic,
    is_irreducible_pair,
)
from kisinweights.field import Context
from oracles import char_eq, char_inv, char_mul, conjugate_pair, frobenius_twist

CTX = Context(3, 2, 1)


def test_exponent_weighting():
    # entry at index i is weighted by p^(nf-1-i)
    chi = char_of_exponents(CTX, (2, 0))
    assert chi.exponent == 6
    chi = char_of_exponents(CTX, (1, 1))
    assert chi.exponent == 4


def test_modulus_reduction():
    assert InertialChar(3, 2, 1, 9).exponent == 1
    assert InertialChar(3, 2, 2, 81).exponent == 1


def test_group_operations():
    a = InertialChar(3, 2, 1, 5)
    b = InertialChar(3, 2, 1, 6)
    assert char_mul(a, b).exponent == 3
    assert char_mul(a, char_inv(a)).exponent == 0
    assert char_eq(a, InertialChar(3, 2, 1, 13))
    with pytest.raises(ValueError):
        char_mul(a, InertialChar(3, 2, 2, 5))


def test_frobenius_twist():
    a = InertialChar(3, 2, 1, 5)
    assert frobenius_twist(a).exponent == 15 % 8
    assert frobenius_twist(frobenius_twist(a)).exponent == a.exponent  # order f


def test_extend_to_quadratic():
    # duplicating the exponent vector multiplies the exponent by p^f + 1
    a = char_of_exponents(CTX, (2, 1))
    ext = extend_to_quadratic(a)
    assert ext.niveau == 2
    assert ext.exponent == a.exponent * 10 % 80
    # and matches direct evaluation of the doubled vector
    assert ext.exponent == char_of_exponents(CTX, (2, 1, 2, 1), niveau=2).exponent


def test_extend_is_homomorphism():
    for e1 in range(8):
        for e2 in range(8):
            a = InertialChar(3, 2, 1, e1)
            b = InertialChar(3, 2, 1, e2)
            assert char_eq(
                extend_to_quadratic(char_mul(a, b)),
                char_mul(extend_to_quadratic(a), extend_to_quadratic(b)),
            )


def test_restrictions_never_irreducible():
    for e in range(8):
        assert not is_irreducible_pair(extend_to_quadratic(InertialChar(3, 2, 1, e)))


def test_irreducible_pair_counts():
    # exponents fixed by multiplication by p^f are exactly the multiples of
    # (p^(2f)-1)/(p^f-1)
    fixed = [e for e in range(80) if not is_irreducible_pair(InertialChar(3, 2, 2, e))]
    assert fixed == [e for e in range(80) if e * 9 % 80 == e]
    assert len(fixed) == 8


def test_conjugate_pair():
    a = InertialChar(3, 2, 2, 7)
    x, y = conjugate_pair(a)
    assert x.exponent == 7 and y.exponent == 63


def test_semisimple_shape_unordered():
    a = InertialChar(3, 2, 1, 5)
    b = InertialChar(3, 2, 1, 6)
    assert SemisimpleShape(a, b) == SemisimpleShape(b, a)
    assert hash(SemisimpleShape(a, b)) == hash(SemisimpleShape(b, a))
    with pytest.raises(ValueError):
        SemisimpleShape(a, InertialChar(3, 2, 2, 5))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: InertialChar(3, 2, 3, 0), "niveau must be 1 or 2, got 3"),
        (
            lambda: SemisimpleShape(InertialChar(3, 2, 2, 1), InertialChar(3, 2, 1, 1)),
            "semisimple shape takes niveau-1 characters",
        ),
        (lambda: extend_to_quadratic(InertialChar(3, 2, 2, 1)), "can only extend a niveau-1 character"),
        (lambda: is_irreducible_pair(InertialChar(3, 2, 1, 1)), "irreducibility test applies to niveau-2 characters"),
    ],
    ids=["niveau", "shape-niveau", "extend-niveau", "irreducible-niveau"],
)
def test_chars_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
