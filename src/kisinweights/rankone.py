"""Rank-one Frobenius modules over F[u] and their hom/extension combinatorics.

A rank-one module is determined by an exponent tuple r = (r_0, ..., r_{f-1})
and a scalar a: on the i-th basis vector the Frobenius acts with a power
u^{r_i}, with the scalar inserted once per cycle.  The slope invariants
alpha_i are exact rationals; maps between rank-one modules exist exactly when
all slope differences are non-negative integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

from .field import FieldElem

EmbeddingSet = frozenset  # subsets of Z/f, stored as frozensets of ints


def embedding_set(f: int, members: Iterable[int]) -> EmbeddingSet:
    """Normalize an iterable of indices into a subset of Z/f."""
    return frozenset(i % f for i in members)


def embedding_subsets(f: int) -> list[EmbeddingSet]:
    """All 2^f subsets of Z/f, in the order of their bit masks."""
    return [frozenset(i for i in range(f) if mask >> i & 1) for mask in range(1 << f)]


class RankOneKisin(NamedTuple("RankOneKisin", [("p", int), ("r", tuple[int, ...]), ("a", FieldElem)])):
    """Rank-one module: exponents r_i and a unit scalar a."""

    __slots__ = ()

    def __new__(cls, p: int, r: Iterable[int], a: FieldElem) -> "RankOneKisin":
        r = tuple(r)
        if len(r) < 1:
            raise ValueError("need at least one exponent")
        if a.is_zero():
            raise ValueError("scalar must be a unit")
        return super().__new__(cls, p, r, a)

    @property
    def f(self) -> int:
        return len(self.r)


class ExtensionType(
    NamedTuple("ExtensionType", [("p", int), ("r", tuple[int, ...]), ("a", FieldElem), ("b", FieldElem), ("J", EmbeddingSet)])
):
    """Shape data of a rank-two extension: exponents r, scalars (a, b), carrier set J.

    The quotient line carries exponents r_i for i in J (zero outside) and
    scalar a; the sub line carries the complementary exponents and scalar b.
    """

    __slots__ = ()

    def __new__(cls, p: int, r: Iterable[int], a: FieldElem, b: FieldElem, J: Iterable[int]) -> "ExtensionType":
        r = tuple(r)
        return super().__new__(cls, p, r, a, b, embedding_set(len(r), J))

    @property
    def f(self) -> int:
        return len(self.r)

    def quotient_exponents(self) -> tuple[int, ...]:
        return tuple(ri if i in self.J else 0 for i, ri in enumerate(self.r))

    def sub_exponents(self) -> tuple[int, ...]:
        return tuple(0 if i in self.J else ri for i, ri in enumerate(self.r))

    def quotient(self) -> RankOneKisin:
        return RankOneKisin(self.p, self.quotient_exponents(), self.a)

    def sub(self) -> RankOneKisin:
        return RankOneKisin(self.p, self.sub_exponents(), self.b)


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------


def alpha_seq(p: int, r: Sequence[int], i: int) -> Fraction:
    """Exact slope alpha_i = (sum_{j=1}^{f} p^{f-j} r_{j+i}) / (p^f - 1)."""
    f = len(r)
    num = sum(p ** (f - j) * r[(j + i) % f] for j in range(1, f + 1))
    return Fraction(num, p**f - 1)


def alpha(N: RankOneKisin, i: int) -> Fraction:
    """Slope invariant of a rank-one module at index i."""
    return alpha_seq(N.p, N.r, i)


def integer_slopes(p: int, r: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The slopes alpha_0, ..., alpha_{f-1} of r if all are integers, else None.

    m * alpha_{f-1} is the weighted sum of r (m = p^f - 1), and
    alpha_i + r_i = p * alpha_{i-1} gives the rest, each tested by divmod.
    """
    m = p ** len(r) - 1
    num = weighted_sum(p, r)
    out = []
    for ri in r:
        num = p * num - m * ri
        q, rem = divmod(num, m)
        if rem:
            return None
        out.append(q)
    return tuple(out)


def exponents_from_slopes(p: int, slopes: Sequence[int]) -> tuple[int, ...]:
    """The exponents r_i = p * alpha_{i-1} - alpha_i whose slopes are ``slopes``.

    The inverse of integer_slopes, as the recurrence alpha_i + r_i =
    p * alpha_{i-1} has one solution per r: two solutions differ by some d
    with d_i = p * d_{i-1} for every i, so d = p^f * d and d = 0.
    """
    prev = slopes[-1]
    out = []
    for cur in slopes:
        out.append(p * prev - cur)
        prev = cur
    return tuple(out)


def _hom_twist(N1: RankOneKisin, N2: RankOneKisin) -> Optional[tuple[int, ...]]:
    """The slope diffs alpha_i(N1) - alpha_i(N2) if the scalars agree and all are in Z_{>=0}, else None."""
    if (N1.p, N1.f) != (N2.p, N2.f):
        raise ValueError("modules over different rings")
    if N1.a != N2.a:
        return None
    slopes = integer_slopes(N1.p, [x - y for x, y in zip(N1.r, N2.r)])
    return None if slopes is None or min(slopes) < 0 else slopes


def hom_exists(N1: RankOneKisin, N2: RankOneKisin) -> bool:
    """Whether a nonzero map N1 -> N2 exists: equal scalars, all slope diffs in Z_{>=0}."""
    return _hom_twist(N1, N2) is not None


# ---------------------------------------------------------------------------
# the admissible exponent set and the cyclic-string decomposition
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def in_Pprime(p: int, r: tuple[int, ...]) -> bool:
    """Membership in the admissible exponent patterns.

    For odd p, r is admissible exactly when r = |exponents_from_slopes(p, a)|
    for the slopes a_i = [r_i in {1, p-1}]: each r_i = |p a_{i-1} - a_i| lies in
    {0, 1, p-1, p}, and a_{i-1} is 1 exactly when r_i is p-1 or p.
    Cached, as callers ask about one r for each carrier set in turn.
    """
    if p % 2 == 0:
        raise ValueError(f"p must be odd, got {p}")
    return all(
        ri in (0, 1, p - 1, p) and (r[i - 1] in (1, p - 1)) == (ri in (p - 1, p))
        for i, ri in enumerate(r)
    )


def weighted_sum(p: int, r: Sequence[int]) -> int:
    """sum r_i p^(f-1-i), by Horner's rule."""
    total = 0
    for ri in r:
        total = total * p + ri
    return total


class CyclicString(NamedTuple):
    """A cyclic interval [start, start+length) carrying one of the basic patterns.

    kind "signed" with sign +1 is the pattern (-1, p-1, ..., p-1, p); sign -1
    is its negative; kind "zero" is a run of zeros.
    """

    kind: Literal["signed", "zero"]
    sign: int
    start: int
    length: int

    def indices(self, f: int) -> tuple[int, ...]:
        return tuple((self.start + k) % f for k in range(self.length))

    def values(self, p: int) -> tuple[int, ...]:
        if self.kind == "zero":
            return (0,) * self.length
        vals = [-1] + [p - 1] * (self.length - 2) + [p]
        return tuple(self.sign * v for v in vals)


class CyclicDecomposition(NamedTuple):
    """Result of decomposing a congruent exponent tuple."""

    p: int
    f: int
    flag_sign: Optional[int]  # +1/-1 for the constant (p-1, ..., p-1) tuples
    strings: tuple[CyclicString, ...]

    def recompose(self) -> tuple[int, ...]:
        if self.flag_sign is not None:
            return (self.flag_sign * (self.p - 1),) * self.f
        out = [None] * self.f
        for s in self.strings:
            for idx, val in zip(s.indices(self.f), s.values(self.p)):
                if out[idx] is not None:
                    raise ValueError("overlapping strings")
                out[idx] = val
        if any(v is None for v in out):
            raise ValueError("strings do not cover the cycle")
        return tuple(out)


def decompose_cyclic(p: int, r: Sequence[int]) -> CyclicDecomposition:
    """Decompose r in [-p, p]^f, p odd, with weighted sum divisible by p^f - 1.

    The result is either a constant +/-(p-1) flag or a disjoint cyclic cover
    by signed strings (-1, p-1, ..., p-1, p) and runs of zeros, read off the
    slopes a = integer_slopes(p, r) in {-1, 0, 1}^f (r_i = p a_{i-1} - a_i).
    A string starts at each i with a_{i-1} = 0 and r_i = -a_i or
    r_{i-1} = p a_{i-2} nonzero (at 0 if r = 0) and runs to the next start,
    signed by a_i, or zeros if a_i = 0; signed strings come first.
    """
    f = len(r)
    r = tuple(r)
    if p % 2 == 0:
        raise ValueError(f"p must be odd, got {p}")
    if any(abs(ri) > p for ri in r):
        raise ValueError("entries must lie in [-p, p]")
    a = integer_slopes(p, r)
    if a is None:
        raise ValueError("weighted sum not divisible by p^f - 1")
    if 0 not in a:
        return CyclicDecomposition(p, f, a[0], ())

    starts = [i for i in range(f) if a[i - 1] == 0 and (r[i] or r[i - 1])] or [0]
    strings = [
        CyclicString("signed" if a[i] else "zero", a[i] or +1, i, (nxt - i) % f or f)
        for i, nxt in zip(starts, starts[1:] + starts[:1])
    ]
    strings.sort(key=lambda s: (s.kind == "zero", s.start if s.kind == "signed" else min(s.indices(f))))
    dec = CyclicDecomposition(p, f, None, tuple(strings))
    if dec.recompose() != r:
        raise AssertionError("decomposition failed to recompose")
    return dec


# ---------------------------------------------------------------------------
# extension-type combinatorics
# ---------------------------------------------------------------------------


def necessary_map_conditions(p: int, r: Sequence[int], J: Iterable[int]) -> bool:
    """Necessary shape conditions for a map out of the split type to exist.

    r must be an admissible pattern, every index with r_i in {p-1, p} must lie
    in J, and no index with r_i = 1 may lie in J.
    """
    f = len(r)
    Jset = embedding_set(f, J)
    if not in_Pprime(p, tuple(r)):
        return False
    for i, ri in enumerate(r):
        if ri in (p - 1, p) and i not in Jset:
            return False
        if ri == 1 and i in Jset:
            return False
    return True


def exceptional_case(ext: ExtensionType) -> bool:
    """Whether the extension space picks up the extra (degree-p) parameter."""
    return necessary_map_conditions(ext.p, ext.r, ext.J) and ext.a == ext.b


def carrier_weight(p: int, r: Sequence[int], J: Iterable[int]) -> int:
    """Weighted sum of r restricted to J, mod p^f - 1."""
    f = len(r)
    Jset = embedding_set(f, J)
    return weighted_sum(p, [ri if i in Jset else 0 for i, ri in enumerate(r)]) % (p**f - 1)


def _boundary_string_ok(p: int, r: tuple[int, ...], J: EmbeddingSet) -> bool:
    """No string (1, p-1, ..., p-1, p) may sit with its head in J and tail disjoint from J."""
    f = len(r)
    for i in range(f):
        if r[i] != 1:
            continue
        for s in range(1, f):
            if all(r[(i + k) % f] == p - 1 for k in range(1, s)) and r[(i + s) % f] == p:
                tail = {(i + k) % f for k in range(1, s + 1)}
                if i in J and not (tail & J):
                    return False
            if r[(i + s) % f] != p - 1:
                break
    return True


def jmax(p: int, r: Sequence[int], J: Iterable[int]) -> EmbeddingSet:
    """Canonical carrier set with the same weighted restriction as J.

    Among subsets with the same weight, the canonical one avoids indices with
    r_i = 0 and orients every boundary string (1, p-1, ..., p) with its head
    outside and its tail inside.
    """
    f = len(r)
    r = tuple(r)
    Jset = embedding_set(f, J)
    target = carrier_weight(p, r, Jset)
    found: list[EmbeddingSet] = []
    for cand in embedding_subsets(f):
        if any(r[i] == 0 for i in cand):
            continue
        if carrier_weight(p, r, cand) != target:
            continue
        if not _boundary_string_ok(p, r, cand):
            continue
        found.append(cand)
    if len(found) != 1:
        raise ValueError(f"expected a unique canonical carrier, found {len(found)}")
    return found[0]
