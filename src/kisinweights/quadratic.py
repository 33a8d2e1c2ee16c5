"""Procedures over the quadratic index frame (2f embedding indices).

After a quadratic unramified base change the f embedding indices double to
2f; index q projects to q mod f and the Frobenius shift still acts by +1.  A
subset of Z/2f is *balanced* when it contains exactly one of the two lifts
{i, i+f} of every index i.  A carrier set J together with a table of exponent
pairs determines a character exponent modulo p^{2f} - 1; balanced carriers
are the ones whose two induced characters form a conjugate (p^f-power) pair.

This module provides the rebalancing algorithm turning an arbitrary carrier
with conjugate-symmetric characters into a balanced one, the forward carrier
rewritings from an irregular weight to its regular companion weights, the
backward reconstruction, and the equivalence audit over niveau-2 character
exponents.  Each applies a niveau-1 rule to the doubled data: the exponents
split the table with rows doubled, the forward carriers are the companion
carrier rule of the weight with k doubled (the backward reconstruction
compares its input with them), and the audit reads its
exponents off weights.split_sums and decides as the semisimple one does.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .matching import DichotomyError, _disagreements, _side_carrier
from .rankone import EmbeddingSet, decompose_cyclic, embedding_set, frobenius_stable, weighted_sum
from .weights import (
    HTWeightTable,
    Weight,
    blocks,
    companion_sides,
    ht_table,
    is_regular,
    set_J0,
    split_sums,
    st_sequences,
    validate_irregular,
)

def is_balanced(f: int, J: Iterable[int]) -> bool:
    """Whether J contains exactly one of {i, i+f} for every i in Z/f."""
    Jset = embedding_set(2 * f, J)
    return all(((i in Jset) + ((i + f) in Jset)) == 1 for i in range(f))


def balanced_sets(f: int) -> Iterable[EmbeddingSet]:
    """All 2^f balanced subsets of Z/2f."""
    for picks in itertools.product((0, 1), repeat=f):
        yield frozenset(i + f * b for i, b in zip(range(f), picks))


def _exponents(table: HTWeightTable, J: Iterable[int]) -> tuple[int, int]:
    """Exponents mod p^{2f}-1 of the two characters cut out by the carrier J.

    Index q carries row q mod f, so they are the weighted sums of the split
    of the doubled table HTWeightTable(p, rows*2) along J: the first takes
    b_1 on J and b_2 off it, the second the reverse.
    """
    p, f = table.p, table.f
    mod = p ** (2 * f) - 1
    s, t = st_sequences(HTWeightTable(p, table.rows * 2), embedding_set(2 * f, J))
    return weighted_sum(p, s) % mod, weighted_sum(p, t) % mod


def char_exponent(table: HTWeightTable, J: Iterable[int]) -> int:
    """Exponent mod p^{2f}-1 of the character cut out by the carrier J."""
    return _exponents(table, J)[0]


def induced_pair(table: HTWeightTable, J: Iterable[int]) -> frozenset[int]:
    """Unordered pair of the two character exponents cut out by J."""
    return frozenset(_exponents(table, J))


def conjugate_symmetric(table: HTWeightTable, J: Iterable[int]) -> bool:
    """Whether the two characters of J are p^f-power conjugates of each other.

    This is the necessary symmetry for the pair to come from a base change:
    e_s = p^f * e_t mod p^{2f}-1.  Every balanced carrier satisfies it.
    """
    p, f = table.p, table.f
    e_s, e_t = _exponents(table, J)
    return (e_s - e_t * p**f) % (p ** (2 * f) - 1) == 0


def rebalance(table: HTWeightTable, J: Iterable[int]) -> EmbeddingSet:
    """Turn a conjugate-symmetric carrier into a balanced one, same pair.

    Strips the indices whose two table entries coincide, cancels the
    imbalance (both lifts in / both lifts out) by flipping consecutive runs
    of lifts found through the cyclic string decomposition of the gap vector,
    then re-adds one lift per stripped index.  Fails when the gap vector has
    no zero entry and decomposes as a constant run: that happens exactly when
    the character pair is Frobenius-stable (a split configuration), and then
    no balanced carrier induces the same pair.
    """
    p, f = table.p, table.f
    Jset = embedding_set(2 * f, J)
    if not conjugate_symmetric(table, Jset):
        raise ValueError("carrier characters are not a conjugate pair")
    if is_balanced(f, Jset):
        return Jset

    equal_rows = {i for i in range(f) if table.rows[i][0] == table.rows[i][1]}
    work = {q for q in Jset if q % f not in equal_rows}

    # the gap where both lifts of i are in work, minus it where neither is, else 0
    x = [(b1 - b2) * ((i in work) + (i + f in work) - 1) for i, (b1, b2) in enumerate(table.rows)]

    if any(xi != 0 for xi in x):
        dec = decompose_cyclic(p, tuple(x))
        if dec.flag_sign is not None:
            raise ValueError("character pair is Frobenius-stable; no balanced carrier preserves it")
        for s in dec.strings:
            if s.kind != "zero":
                for n in range(s.length):
                    work ^= {(s.start + n) % (2 * f)}

    work.update(i for i in equal_rows if i not in work and i + f not in work)

    out = frozenset(work)
    if not is_balanced(f, out):
        raise AssertionError("rebalancing did not produce a balanced carrier")
    if induced_pair(table, out) != induced_pair(table, Jset):
        raise AssertionError("rebalancing changed the induced character pair")
    return out


# ---------------------------------------------------------------------------
# forward carrier rewriting
# ---------------------------------------------------------------------------


class ForwardWitnesses(NamedTuple):
    """Balanced carriers realizing each regular companion weight."""

    base: EmbeddingSet
    mus: Mapping[int, EmbeddingSet]
    theta: EmbeddingSet


def irr_forward(w: Weight, J: Iterable[int]) -> ForwardWitnesses:
    """Balanced carriers for the companion weights of an irregular weight.

    Each returned carrier induces exactly the same character pair on its
    companion table as J does on the table of w.  For a regular weight the
    rewriting is the identity.
    """
    f = w.f
    Jset = embedding_set(2 * f, J)
    if not is_balanced(f, Jset):
        raise ValueError("carrier must be balanced")
    if is_regular(w):
        return ForwardWitnesses(Jset, {}, Jset)
    validate_irregular(w)

    # the linear carrier rule on the doubled weight, each theta on both copies
    w2 = Weight(w.p, w.k * 2)
    J0, bd = set_J0(w2), blocks(w2)
    source_pair = induced_pair(ht_table(w), Jset)
    sides = companion_sides(w)
    carriers = [_side_carrier(Jset, J0, bd, side.theta | {i + f for i in side.theta}) for side in sides]
    for side, Jw in zip(sides, carriers):
        if not is_balanced(f, Jw):
            raise AssertionError("forward carrier is not balanced")
        if induced_pair(side.table, Jw) != source_pair:
            raise AssertionError("forward carrier changed the character pair")
    mus = {min(side.theta): Jw for side, Jw in zip(sides[1:-1], carriers[1:-1])}
    return ForwardWitnesses(carriers[0], mus, carriers[-1])


# ---------------------------------------------------------------------------
# backward reconstruction
# ---------------------------------------------------------------------------


def irr_backward(
    w: Weight,
    Jprime: Iterable[int],
    mus: Optional[Mapping[int, Iterable[int]]] = None,
    theta: Optional[Iterable[int]] = None,
) -> EmbeddingSet:
    """Reconstruct a balanced carrier for the irregular weight.

    Takes the base companion's carrier plus either the per-marked-index
    carriers or the fully marked one.  The block dichotomy is the forward
    rule compared: the base carrier must be its own irr_forward base
    carrier, so irr_forward has checked that it induces the base pair on
    the table of w.  Verifies the pairwise character congruences mod
    p^{2f}-1 and returns the base carrier, a carrier for w.
    """
    validate_irregular(w)
    f = w.f
    Jp = embedding_set(2 * f, Jprime)
    if not is_balanced(f, Jp):
        raise ValueError("base carrier must be balanced")
    if (mus is None) == (theta is None):
        raise ValueError("provide exactly one of mus or theta")
    if bad := Jp ^ irr_forward(w, Jp).base:
        raise DichotomyError(f"lift {min(bad)} disagrees with the marked lift of its block")

    base, *marked, full = companion_sides(w)
    base_pair = induced_pair(base.table, Jp)
    if mus is not None:
        if set(mus) != {min(side.theta) for side in marked}:
            raise ValueError("need one carrier per marked index")
        companions = [(side, mus[min(side.theta)]) for side in marked]
    else:
        companions = [(full, theta)]
    for side, Jc in companions:
        Jc = embedding_set(2 * f, Jc)
        if not is_balanced(f, Jc):
            raise ValueError("companion carriers must be balanced")
        if induced_pair(side.table, Jc) != base_pair:
            raise ValueError("companion carrier induces a different character pair")
    return Jp


# ---------------------------------------------------------------------------
# equivalence audit
# ---------------------------------------------------------------------------


class IrrEquivalenceReport(NamedTuple):
    p: int
    f: int
    k: tuple[int, ...]
    checked: int
    counterexamples: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _achievable(table: HTWeightTable) -> frozenset[int]:
    """Exponents of the balanced carriers.  The one holding K on the first
    copy holds the complement of K on the second, so it splits the doubled
    table as s + t, of exponent u_K = x p^f + C - x for (x, C) of split_sums.
    The set is closed under e -> p^f e: C - x_K = x_{K^c}, so
    u_K p^f = x_K p^{2f} + x_{K^c} p^f = u_{K^c} mod p^{2f}-1."""
    pf = table.p**table.f
    xs, C = split_sums(table)
    return frozenset((x * pf + C - x) % (pf * pf - 1) for x in xs)


def _exponent_report(
    p: int, f: int, k: tuple[int, ...], A_irr: frozenset[int], side_sets: Sequence[frozenset[int]]
) -> IrrEquivalenceReport:
    """Verdict over the p^{2f} - p^f exponents mod p^{2f}-1 that are not
    Frobenius-stable, given the achievable exponents S of the irregular table
    and of each side.  A table hits the exponents of S | p^f S, which is S, as
    each S is closed under e -> p^f e (_achievable).  Each verdict reads one
    exponent, so the stable ones are dropped from the disagreements."""
    bad = (e for e, *_ in _disagreements(frozenset, A_irr, side_sets) if not frobenius_stable(p, f, e))
    return IrrEquivalenceReport(p, f, k, p ** (2 * f) - p**f, tuple(bad))


def irr_equivalence_audit(w: Weight) -> IrrEquivalenceReport:
    """Equivalence over the niveau-2 character exponents e with p^f e != e:
    a balanced carrier for the irregular table hits {e, p^f e} iff the base
    table and the fully marked table both do, iff the base table and every
    per-marked-index table do."""
    validate_irregular(w)
    side_sets = [_achievable(side.table) for side in companion_sides(w)]
    return _exponent_report(w.p, w.f, w.k, _achievable(ht_table(w)), side_sets)
