"""Exact arithmetic ground layer: finite fields F_{p^d} and the ring F[u].

Everything here is deterministic and exact.  F_{p^d} is Z/p[x] modulo the
lexicographically smallest monic irreducible of degree d (coefficient tuples
compared from the constant term upward): the first monic polynomial with no
monic factor of degree 1 to d // 2, by trial division.  An element is the
int n in [0, p^d) whose base-p digits, lowest first, are its coefficients.
``make_field`` walks the orbit of each unit in turn, keeps the first that
reaches all p^d - 1 units, and builds log, antilog and Zech tables on it, so
every field operation is a table lookup.  Polynomials in ``u`` store their
nonzero terms only and carry a Frobenius-semilinear substitution u -> u^p.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple, Optional


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to every base


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases, exact for n < MR_BOUND; a
    larger n raises ValueError."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if n >= MR_BOUND:
        raise ValueError(f"primality is decided only below {MR_BOUND}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Context(NamedTuple("Context", [("p", int), ("f", int), ("d", int)])):
    """Global arithmetic context: odd prime p, residue degree f, coefficient degree d."""

    __slots__ = ()

    def __new__(cls, p: int, f: int, d: int = 1) -> "Context":
        if not is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        if f < 1:
            raise ValueError(f"f must be >= 1, got {f}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return super().__new__(cls, p, f, d)

    @property
    def m1(self) -> int:
        """Order of the niveau-1 character group: p^f - 1."""
        return self.p**self.f - 1


# ---------------------------------------------------------------------------
# polynomials over Z/p, used only to build the field modulus
# ---------------------------------------------------------------------------


def _zp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _zp_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _zp_mod(out, m, p)


def _zp_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of a on division by the monic b over Z/p, trimmed."""
    a = _zp_trim(list(a))
    db = len(b) - 1
    while len(a) > db:
        c, shift = a[-1], len(a) - 1 - db
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
        _zp_trim(a)
    return a


def smallest_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree d over Z/p.

    Coefficient tuples (c_0, ..., c_{d-1}) are compared from the constant
    term upward; the returned tuple includes the leading 1.  It is the first
    monic polynomial with no monic factor of degree 1 to d // 2, found by
    trial division.
    """
    from itertools import product

    factors = [list(lower) + [1] for e in range(1, d // 2 + 1) for lower in product(range(p), repeat=e)]
    for lower in product(range(p), repeat=d):
        m = list(lower) + [1]
        if all(_zp_mod(m, g, p) for g in factors):
            return tuple(m)
    raise RuntimeError("unreachable: irreducibles of every degree exist")


# ---------------------------------------------------------------------------
# F_{p^d}
# ---------------------------------------------------------------------------


def _generator_powers(p: int, d: int, modulus: tuple[int, ...]) -> list[int]:
    """[g^0, g^1, ..., g^(p^d - 2)] as ints, for the smallest generator g of
    the unit group: the first g whose orbit returns to 1 after exactly p^d - 1
    steps.  Each walk stops there, so a reducible modulus raises."""
    q, m = p**d, list(modulus)
    for g in range(1, q):
        g_digits = [g // p**i % p for i in range(d)]
        powers, x = [1], _zp_mulmod([1], g_digits, m, p)
        while x != [1] and len(powers) < q - 1:
            powers.append(sum(c * p**i for i, c in enumerate(x)))
            x = _zp_mulmod(x, g_digits, m, p)
        if x == [1] and len(powers) == q - 1:
            return powers
    raise RuntimeError(f"modulus {modulus} is not irreducible over Z/{p}")


class FiniteField:
    """The field with p^d elements, with a canonical defining modulus.

    Elements are interned: ``elem(n)`` always returns the same object.  With
    g the smallest generator of the unit group, ``_exp[k]`` is g^k (listed
    twice over, so a sum of two logs needs no reduction), ``_log[n]`` is the
    log of the element n, and ``_zech[k]`` is log(1 + g^k), None where
    1 + g^k = 0.
    """

    def __init__(self, p: int, d: int, _token: object = None):
        if _token is not _FIELD_TOKEN:
            raise TypeError("use make_field(p, d)")
        self.p = p
        self.d = d
        self.modulus: tuple[int, ...] = smallest_irreducible(p, d)
        self.order = p**d
        self._elems = tuple(FieldElem(self, n) for n in range(self.order))
        self.zero, self.one = self._elems[0], self._elems[1]
        powers = _generator_powers(p, d, self.modulus)
        self._unit_order = m = len(powers)
        self._exp = tuple(self._elems[n] for n in powers) * 2
        self._log: list[Optional[int]] = [None] * self.order
        for k, n in enumerate(powers):
            self._log[n] = k
        # 1 + g^k: add one to the constant digit
        self._zech = [self._log[n - n % p + (n + 1) % p] for n in powers]
        minus_one = self._log[p - 1]
        logs = self._log[1:]
        self._neg = (self.zero,) + tuple(self._exp[k + minus_one] for k in logs)
        self._frob = (self.zero,) + tuple(self._exp[k * p % m] for k in logs)

    def elem(self, n: int) -> "FieldElem":
        """The element whose base-p digits are those of n; -n gives its negative."""
        if abs(n) >= self.order:
            raise ValueError(f"{n} out of range for GF({self.p}^{self.d})")
        el = self._elems[abs(n)]
        return -el if n < 0 else el

    def units(self) -> Iterator["FieldElem"]:
        return iter(self._elems[1:])

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.d})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self) -> int:
        return hash(("FiniteField", self.p, self.d))


_FIELD_TOKEN = object()


@functools.lru_cache(maxsize=None)
def make_field(p: int, d: int) -> FiniteField:
    """Canonical F_{p^d}; repeated calls return the same object."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return FiniteField(p, d, _token=_FIELD_TOKEN)


class FieldElem:
    """Immutable element of a FiniteField: the int n in [0, p^d) whose base-p digits are its coefficients."""

    __slots__ = ("field", "n")

    def __init__(self, field: FiniteField, n: int):
        self.field = field
        self.n = n

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients over Z/p, constant term first."""
        p = self.field.p
        return tuple(self.n // p**i % p for i in range(self.field.d))

    def _check(self, other: "FieldElem") -> None:
        if self.field is not other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        if not self.n:
            return other
        if not other.n:
            return self
        F = self.field
        la = F._log[self.n]
        # g^la + g^lb = g^la (1 + g^(lb - la)); a negative index wraps mod p^d - 1
        z = F._zech[F._log[other.n] - la]
        return F.zero if z is None else F._exp[la + z]

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + -other

    def __neg__(self) -> "FieldElem":
        return self.field._neg[self.n]

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        F = self.field
        if not self.n or not other.n:
            return F.zero
        return F._exp[F._log[self.n] + F._log[other.n]]

    def inverse(self) -> "FieldElem":
        return self**-1

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElem":
        F = self.field
        if not self.n:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return self if e else F.one
        return F._exp[F._log[self.n] * e % F._unit_order]

    def is_zero(self) -> bool:
        return not self.n

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FieldElem) and self.n == other.n and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.d, self.n))

    def __repr__(self) -> str:
        return f"FieldElem{self.coeffs}@{self.field!r}"


def frobenius(x: FieldElem) -> FieldElem:
    """The arithmetic Frobenius x -> x^p."""
    return x.field._frob[x.n]


# ---------------------------------------------------------------------------
# F[u]
# ---------------------------------------------------------------------------


class UPoly:
    """Polynomial in u with FieldElem coefficients, stored as {exponent: nonzero coefficient}."""

    __slots__ = ("field", "terms")

    def __init__(self, field: FiniteField, terms: Optional[dict[int, FieldElem]] = None):
        """``terms`` maps exponents to nonzero coefficients; it is kept, not copied."""
        self.field = field
        self.terms: dict[int, FieldElem] = {} if terms is None else terms

    @classmethod
    def zero(cls, field: FiniteField) -> "UPoly":
        return cls(field)

    @classmethod
    def constant(cls, c: FieldElem) -> "UPoly":
        return cls(c.field, {0: c} if c.n else {})

    @classmethod
    def monomial(cls, c: FieldElem, n: int) -> "UPoly":
        """c * u^n."""
        if n < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls(c.field, {n: c} if c.n else {})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return max(self.terms, default=-1)

    def coefficient(self, n: int) -> FieldElem:
        return self.terms.get(n, self.field.zero)

    def __add__(self, other: "UPoly") -> "UPoly":
        out = dict(self.terms)
        for n, c in other.terms.items():
            out[n] = out[n] + c if n in out else c
        return UPoly(self.field, {n: c for n, c in out.items() if c.n})

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + -other

    def __neg__(self) -> "UPoly":
        return UPoly(self.field, {n: -c for n, c in self.terms.items()})

    def __mul__(self, other: "UPoly") -> "UPoly":
        out: dict[int, FieldElem] = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                k, c = i + j, a * b
                out[k] = out[k] + c if k in out else c
        return UPoly(self.field, {n: c for n, c in out.items() if c.n})

    def scale(self, c: FieldElem) -> "UPoly":
        if c is self.field.one:
            return self
        return UPoly(self.field, {n: c * a for n, a in self.terms.items()} if c.n else {})

    def shift(self, n: int) -> "UPoly":
        """Multiply by u^n (n >= 0)."""
        if n < 0:
            raise ValueError("shift must be >= 0")
        if not n:
            return self
        return UPoly(self.field, {e + n: c for e, c in self.terms.items()})

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UPoly) and self.field == other.field and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.d, frozenset((n, c.n) for n, c in self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "UPoly(0)"
        terms = [f"{c.coeffs}*u^{n}" for n, c in sorted(self.terms.items())]
        return "UPoly(" + " + ".join(terms) + ")"


def poly_phi(poly: UPoly) -> UPoly:
    """Frobenius-semilinear substitution: sum c_j u^j  ->  sum c_j^p u^(pj)."""
    p = poly.field.p
    return UPoly(poly.field, {p * j: frobenius(c) for j, c in poly.terms.items()})
