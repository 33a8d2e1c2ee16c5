"""Weights, their marked subsets, shift constructions and Hodge-Tate tables.

A weight is a pair of integer tuples (k, l) indexed by Z/f.  The indexing
convention is that applying inverse Frobenius to the embedding at index i
gives the embedding at index i+1.  The elementary shifts are

    h_i:  add p at index i+1 and -1 at index i
    th_i: add p at index i+1 and +1 at index i

The irregular inputs have some k_i = 1; the shift constructions below produce
regular companion weights.  Weights are frozen and every result is
immutable, so the per-weight builders that each carrier set of a weight
asks for again (validate_irregular, set_J0, ht_table, companion_sides,
blocks) keep their last 8 results: every caller walks one weight at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional

from .rankone import EmbeddingSet, weighted_sum


class Weight(NamedTuple("Weight", [("p", int), ("k", tuple[int, ...]), ("l", tuple[int, ...])])):
    """A two-dimensional weight: integer tuples k (dominant part) and l (twist part, zeros when empty)."""

    __slots__ = ()

    def __new__(cls, p: int, k: Iterable[int], l: Iterable[int] = ()) -> "Weight":
        k = tuple(k)
        l = tuple(l) if l else (0,) * len(k)
        if len(k) != len(l):
            raise ValueError("k and l must have equal length")
        return super().__new__(cls, p, k, l)

    @property
    def f(self) -> int:
        return len(self.k)


class HTWeightTable(NamedTuple):
    """Per-index pairs (b_1, b_2) of Hodge-Tate style exponents, b_1 >= b_2."""

    p: int
    rows: tuple[tuple[int, int], ...]

    @property
    def f(self) -> int:
        return len(self.rows)

    def gaps(self) -> tuple[int, ...]:
        return tuple(b1 - b2 for b1, b2 in self.rows)


def entries_in_range(p: int, k: tuple[int, ...]) -> bool:
    """Whether every entry of k lies in [1, p], the range of an input weight."""
    return all(1 <= ki <= p for ki in k)


def irregular_refusal(p: int, k: tuple[int, ...], l: tuple[int, ...] = ()) -> Optional[str]:
    """Why (k, l) is not a valid irregular input weight, or None when it is.

    Requires 1 <= k_i <= p, at least one k_i = 1, not all k_i = 1, l = 0, and
    no index with k_i = 2 immediately followed (index i+1) by k_{i+1} = 1.
    """
    if any(l):
        return "irregular input weights must have l = 0 (normalize the twist first)"
    if not entries_in_range(p, k):
        return f"entries of k must lie in [1, {p}]"
    if k.count(1) == len(k):
        return "k = (1, ..., 1) is excluded"
    if 1 not in k:
        return "weight is regular (no k_i = 1)"
    for i, (a, b) in enumerate(zip(k, k[1:] + k[:1])):
        if a == 2 and b == 1:
            return f"forbidden (2,1) pattern at index {i}"
    return None


def weight_classes(p: int, f: int, classify: Callable[[int], int],
                   windows: Optional[Collection[tuple[int, int, int]]] = None,
                   rotations: bool = False) -> Iterator[tuple[Weight, int]]:
    """(representative, multiplicity) of each valid class word at (p, f), in
    ascending order: the word of k is classify(k_i) per index, and its
    representative takes each letter's least value.  classify must keep 1 and
    2 as letters of their own, which is all irregular_refusal reads.  Words
    grow depth first and never take the pair (2, 1); with windows (letter
    triples (k_{i-1}, k_i, k_{i+1}) by least values) each three consecutive
    letters, wrap included, form one.  irregular_refusal decides each full word.
    With rotations only the words least among their cyclic rotations are kept,
    each standing for its q distinct rotations, by the Fredricksen-Kessler-
    Maiorana rule (Ruskey, Savage and Wang, J. Algorithms 13, 1992): a prefix
    k_0..k_{t-1} of period q takes a letter x >= k_{t-q}, of period q if equal
    and t+1 if larger, and a full word is kept when q divides f.

    The lemma: J0, M, Mtilde, blocks and validity read only the type word
    tau(k)_i = min(k_i, 3), and a companion_sides row minus the irregular row
    (k_i - 1, 0) is (0, -1) on theta, (-1, 0) on Mtilde - theta, (p-1 or p, 0)
    on J0 and (0, 0) elsewhere.  Off J0 every carrier is J, so the carriers,
    ss - s, ts - t and the congruences depend only on (p, tau(k), J).

    The rotation lemma, for the shift (sigma k)_i = k_{i+1}: irregular_refusal, set_J0,
    blocks, companion_sides and _side_carrier commute with sigma.  A cyclic s of length n
    has weighted_sum(sigma s) = p * weighted_sum(s) mod p^n - 1, and p is a unit mod
    p^f - 1 and p^{2f} - 1.  basis_carriers(f) is sigma-stable, and each vector
    appendix_alpha_audit compares reads index i only at i-1, i and i+1 mod f.  in_Pprime,
    the need and avoid sets and _side_constraint are cyclic.  So
    appendix_alpha_audit(sigma w, sigma J) passes exactly when (w, J) does, the hits of
    exceptional_audit(sigma w) are sigma of those of w, the disagreements of
    irr_equivalence_audit(sigma w) are p times those of w mod p^{2f} - 1, which keeps the
    Frobenius-stable exponents stable and ``checked`` as it is, and enumerate's carriers
    of (sigma w, sigma J) are sigma of those of (w, J), the marked sides re-laid in
    ascending nu (matching.rotate_fold)."""
    least = {classify(x): x for x in range(p, 0, -1)}
    size = Counter(least[classify(x)] for x in range(1, p + 1))  # by representative, ascending
    letters = list(size)  # 1 first
    after = {a: [b for b in letters if (a, b) != (2, 1)] for a in letters}
    after = {(): letters} | {(a,): after[a] for a in letters} | {  # by the last two letters
        (x, a): after[a] if windows is None else [b for b in after[a] if (x, a, b) in windows] for x in letters for a in letters}

    def walk(k: tuple[int, ...], q: int) -> Iterator[tuple[Weight, int]]:
        if len(k) < f:
            floor = k[-q] if rotations and k else 0
            for x in after[k[-2:]]:
                if x >= floor:
                    yield from walk(k + (x,), q if k and x == k[-q] else len(k) + 1)
        elif (k[-1] != 2 or k[0] != 1) and (windows is None or (ring := k[-2:] + k[:2])[:3] in windows
                                            and ring[1:] in windows) and not (rotations and f % q) and irregular_refusal(p, k) is None:
            yield Weight(p, k), (q if rotations else 1) * math.prod(map(size.__getitem__, k))

    return walk((), 0)


def walks(step: list[list[int]], f: int) -> int:
    """tr(step^f) in exact ints: the closed walks of f steps, step[a][b] ways from a to b."""
    power = step
    for _ in range(f - 1):
        power = [[sum(map(int.__mul__, row, col)) for col in zip(*step)] for row in power]
    return sum(power[i][i] for i in range(len(step)))


def weight_count(p: int, f: int) -> int:
    """Valid weights at (p, f): tr(A^f) - tr(B^f) - 1, A steps over type letters 1, 2, 3 (1, 1, p-2 values) but 2 -> 1, B its {2, 3} block."""
    step = [[1, 1, p - 2], [0, 1, p - 2], [1, 1, p - 2]]
    return walks(step, f) - walks([row[1:] for row in step[1:]], f) - 1


@lru_cache(maxsize=8)
def validate_irregular(w: Weight) -> None:
    """Raise ValueError with irregular_refusal's reason unless w is a valid irregular input."""
    if (reason := irregular_refusal(w.p, w.k, w.l)) is not None:
        raise ValueError(reason)


def is_regular(w: Weight) -> bool:
    return all(ki >= 2 for ki in w.k)


@lru_cache(maxsize=8)
def set_J0(w: Weight) -> EmbeddingSet:
    """Indices where k is 1."""
    return frozenset(i for i, ki in enumerate(w.k) if ki == 1)


def _past_twos(run: tuple[int, ...]) -> bool:
    """Whether the first entry of run that is not a 2 is a 1; False when all are 2s."""
    for x in run:
        if x != 2:
            return x == 1
    return False


def set_M(w: Weight) -> EmbeddingSet:
    """Indices from which a (possibly empty) chain of 2s leads to a 1.

    i is in M when k_{i+1} = ... = k_{i+s-1} = 2 and k_{i+s} = 1 for some
    s >= 1.
    """
    k, f = w.k, w.f
    out = set()
    for i in range(f):
        if _past_twos(k[i + 1 :] + k[: i + 1]):  # forward from i + 1
            out.add(i)
    return frozenset(out)


def set_Mtilde(w: Weight) -> EmbeddingSet:
    """The marked subset receiving the theta-shift.

    Either k_i >= 3 with i in M, or k_i = 2 just before a 1 (at index i+1)
    such that walking backwards through 2s from i reaches a 1 (so the whole
    non-1 stretch above i consists of 2s).
    """
    k, f = w.k, w.f
    M = set_M(w)
    out = set()
    for i in range(f):
        if k[i] >= 3 and i in M:
            out.add(i)
        elif k[i] == 2 and k[(i + 1) % f] == 1 and _past_twos((k[i:] + k[:i])[::-1]):  # back from i - 1
            out.add(i)
    return frozenset(out)


def set_Mtilde2(w: Weight) -> EmbeddingSet:
    """Mtilde enlarged by indices whose successor is a 2 inside Mtilde."""
    k, f = w.k, w.f
    Mt = set_Mtilde(w)
    out = set(Mt)
    for i in range(f):
        j = (i + 1) % f
        if j in Mt and k[j] == 2:
            out.add(i)
    return frozenset(out)


def _shifted(w: Weight, theta: EmbeddingSet, skip: EmbeddingSet) -> Weight:
    """Apply theta (and twist by -1) at every index of theta, and h on M minus skip."""
    p, f = w.p, w.f
    k, l = list(w.k), list(w.l)
    for i in theta:
        k[(i + 1) % f] += p
        k[i] += 1
        l[i] -= 1
    for i in set_M(w) - skip:
        k[(i + 1) % f] += p
        k[i] -= 1
    return Weight(p, tuple(k), tuple(l))


def weight_kprime(w: Weight) -> Weight:
    """The base companion weight: apply h at every index of M."""
    return _shifted(w, frozenset(), frozenset())


def weight_kmu(w: Weight, mu: int) -> Weight:
    """The companion weight marked at mu in Mtilde: theta at mu, h on M minus mu."""
    mu %= w.f
    if mu not in set_Mtilde(w):
        raise ValueError(f"index {mu} is not marked")
    return _shifted(w, frozenset({mu}), frozenset({mu}))


def weight_ktheta(w: Weight, alternative: bool = False) -> Weight:
    """The fully marked companion weight: theta on Mtilde, h on the rest of M.

    With ``alternative`` the h-shifts are skipped on all of Mtilde2 instead of
    just Mtilde.
    """
    Mt = set_Mtilde(w)
    return _shifted(w, Mt, set_Mtilde2(w) if alternative else Mt)


# ---------------------------------------------------------------------------
# Hodge-Tate tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def ht_table(w: Weight) -> HTWeightTable:
    """Exponent pairs (k_i + l_i - 1, l_i) per index."""
    return HTWeightTable(w.p, tuple((ki + li - 1, li) for ki, li in zip(w.k, w.l)))


class Side(NamedTuple):
    """One regular companion of an irregular weight: the theta-shift on theta, h on the rest."""

    name: str
    theta: EmbeddingSet
    table: HTWeightTable


@lru_cache(maxsize=8)
def companion_sides(w: Weight) -> tuple[Side, ...]:
    """The companions of a valid irregular w as sides theta of Mtilde.

    Order: base (theta empty), marked{nu} for each block's nu ascending
    (theta = {nu}), full (theta = Mtilde).  Side theta has the closed form
    of ht_table(companion weight): rows (k_i-1, -1) on theta, (k_i-2, 0) on
    Mtilde minus theta, (p-1, 0) on J0 before a 1, (p, 0) on the rest of J0
    and (k_i-1, 0) elsewhere.

    Mtilde is the blocks' marked elements: a valid w has no 2 before a 1,
    so a chain of 2s leading to a 1 is empty and k_nu >= 3.  Hence
    M = {i : k_{i+1} = 1} and Mtilde = Mtilde2 = {nu}.
    """
    p, k, f = w.p, w.k, w.f
    Mt = frozenset(blk.nu for blk in blocks(w))

    def side(name: str, theta: EmbeddingSet) -> Side:
        rows = []
        for i, ki in enumerate(k):
            if i in theta:
                rows.append((ki - 1, -1))
            elif i in Mt:
                rows.append((ki - 2, 0))
            elif ki == 1:
                rows.append((p - 1 if k[(i + 1) % f] == 1 else p, 0))
            else:
                rows.append((ki - 1, 0))
        return Side(name, theta, HTWeightTable(p, tuple(rows)))

    marked = [side(f"marked{mu}", frozenset({mu})) for mu in sorted(Mt)]
    return (side("base", frozenset()), *marked, side("full", Mt))


def bprime_table(w: Weight) -> HTWeightTable:
    """Closed form of ht_table(weight_kprime(w)) for a valid irregular w."""
    return companion_sides(w)[0].table


def bmu_table(w: Weight, mu: int) -> HTWeightTable:
    """Closed form of ht_table(weight_kmu(w, mu)) for a valid irregular w."""
    mu %= w.f
    for side in companion_sides(w)[1:-1]:
        if mu in side.theta:
            return side.table
    raise ValueError(f"index {mu} is not marked")


def btheta_table(w: Weight) -> HTWeightTable:
    """Closed form of ht_table(weight_ktheta(w)) for a valid irregular w."""
    return companion_sides(w)[-1].table


def st_sequences(table: HTWeightTable, J: EmbeddingSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a table along a carrier set: s picks b_1 on J, t the complement.

    J must already be reduced mod f (as embedding_set returns it); an index
    outside range(f) is ignored, not reduced.
    """
    s, t = [], []
    for i, (b1, b2) in enumerate(table.rows):
        if i in J:
            s.append(b1)
            t.append(b2)
        else:
            s.append(b2)
            t.append(b1)
    return tuple(s), tuple(t)


def split_sums(table: HTWeightTable) -> tuple[list[int], int]:
    """weighted_sum(s) of the split (s, t) along each K, in bit-mask order, and
    C = weighted_sum(s) + weighted_sum(t) = weighted_sum(b_1 + b_2).  As
    weighted_sum(s) = weighted_sum(b_2) + the sum over i in K of
    (b_1,i - b_2,i) p^(f-1-i), the list doubles once per index."""
    p, f = table.p, table.f
    xs = [weighted_sum(p, [b2 for _, b2 in table.rows])]
    for i, (b1, b2) in enumerate(table.rows):
        xs += [x + (b1 - b2) * p ** (f - 1 - i) for x in xs]
    return xs, weighted_sum(p, [b1 + b2 for b1, b2 in table.rows])


# ---------------------------------------------------------------------------
# block decomposition
# ---------------------------------------------------------------------------


class Block(NamedTuple):
    """A maximal cyclic run of non-1 entries followed by its run of 1s."""

    indices: tuple[int, ...]  # cyclically consecutive
    head: tuple[int, ...]  # the non-1 part
    tail: tuple[int, ...]  # the k = 1 part
    nu: int  # last index of the head (the marked element for valid weights)


@lru_cache(maxsize=8)
def blocks(w: Weight) -> tuple[Block, ...]:
    """Cyclic block decomposition of an irregular weight.

    Requires at least one 1 and one non-1 entry; blocks partition Z/f.
    """
    k, f = w.k, w.f
    if all(ki == 1 for ki in k) or all(ki != 1 for ki in k):
        raise ValueError("block decomposition needs both 1 and non-1 entries")
    starts = [i for i in range(f) if k[i] != 1 and k[(i - 1) % f] == 1]
    out = []
    for n, start in enumerate(starts):
        nxt = starts[(n + 1) % len(starts)]
        length = (nxt - start) % f or f
        idxs = [i % f for i in range(start, start + length)]
        cut = [k[i] for i in idxs].index(1)  # the head is the run before the first 1
        out.append(Block(tuple(idxs), tuple(idxs[:cut]), tuple(idxs[cut:]), idxs[cut - 1]))
    return tuple(out)
