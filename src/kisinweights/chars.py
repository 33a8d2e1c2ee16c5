"""Tame inertial characters as exponent classes.

A niveau-n character (n = 1 or 2) is determined by an exponent modulo
p^(nf) - 1 with respect to the fundamental character of level nf.  The
embedding indexing follows the convention that applying inverse Frobenius
moves the index up by one, so the character with exponent vector
(r_0, ..., r_{nf-1}) has total exponent  sum r_i * p^(nf-1-i).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .field import Context
from .rankone import frobenius_stable, weighted_sum


class InertialChar(NamedTuple("InertialChar", [("p", int), ("f", int), ("niveau", int), ("exponent", int)])):
    """A power of a fundamental character: niveau 1 or 2, exponent mod p^(nf)-1."""

    __slots__ = ()

    def __new__(cls, p: int, f: int, niveau: int, exponent: int) -> "InertialChar":
        if niveau not in (1, 2):
            raise ValueError(f"niveau must be 1 or 2, got {niveau}")
        return super().__new__(cls, p, f, niveau, exponent % (p ** (niveau * f) - 1))


class SemisimpleShape(NamedTuple("SemisimpleShape", [("first", InertialChar), ("second", InertialChar)])):
    """An unordered pair of niveau-1 characters (a two-dimensional tame shape)."""

    __slots__ = ()

    def __new__(cls, first: InertialChar, second: InertialChar) -> "SemisimpleShape":
        if (first.p, first.f) != (second.p, second.f):
            raise ValueError("mismatched character contexts")
        if first.niveau != 1 or second.niveau != 1:
            raise ValueError("semisimple shape takes niveau-1 characters")
        return super().__new__(cls, first, second)

    def as_set(self) -> frozenset[int]:
        return frozenset((self.first.exponent, self.second.exponent))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SemisimpleShape) and self.as_set() == other.as_set()

    def __ne__(self, other: object) -> bool:  # tuple.__ne__ would compare in order
        return not self == other

    def __hash__(self) -> int:
        return hash((self.first.p, self.first.f, self.as_set()))


def char_of_exponents(ctx: Context, exps: Sequence[int], niveau: int = 1) -> InertialChar:
    """Character with exponent vector ``exps`` of length niveau*f.

    The vector entry at index i is weighted by p^(nf-1-i).
    """
    n = niveau * ctx.f
    if len(exps) != n:
        raise ValueError(f"expected {n} exponents, got {len(exps)}")
    return InertialChar(ctx.p, ctx.f, niveau, weighted_sum(ctx.p, exps))


def extend_to_quadratic(a: InertialChar) -> InertialChar:
    """Inflate a niveau-1 character to niveau 2.

    Duplicating the exponent vector multiplies the total exponent by p^f + 1.
    """
    if a.niveau != 1:
        raise ValueError("can only extend a niveau-1 character")
    return InertialChar(a.p, a.f, 2, a.exponent * (a.p**a.f + 1))


def is_irreducible_pair(a: InertialChar) -> bool:
    """Whether a niveau-2 character and its p^f-power conjugate are distinct.

    Distinct conjugates are exactly the condition for the induced
    two-dimensional representation to be irreducible.
    """
    if a.niveau != 2:
        raise ValueError("irreducibility test applies to niveau-2 characters")
    return not frobenius_stable(a.p, a.f, a.exponent)

