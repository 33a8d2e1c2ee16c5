"""Matching between irregular weights and their regular companion weights.

Given an irregular weight and a carrier set J, this module builds the
companion carrier sets on the regular side, verifies the defining weighted
congruences and slope tables, reconstructs J from companion data (with the
per-block dichotomy as precondition), decides semisimple shape membership,
and audits the extension-space transports exhaustively over small parameter
families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .chars import InertialChar, SemisimpleShape, char_of_exponents
from .field import Context, FieldElem, FiniteField, UPoly
from .rankone import (
    EmbeddingSet,
    ExtensionType,
    RankOneKisin,
    alpha_seq,
    embedding_set,
    exceptional_case,
)
from .ranktwo import (
    PhiExtension,
    generically_invertible,
    transport_forward,
)
from .weights import (
    HTWeightTable,
    Weight,
    blocks,
    bmu_table,
    bprime_table,
    btheta_table,
    ht_table,
    set_J0,
    set_Mtilde,
    st_sequences,
    validate_irregular,
)


class DichotomyError(ValueError):
    """Raised when companion carrier sets violate the per-block dichotomy."""


@dataclass(frozen=True)
class ShapeWitness:
    """A carrier set realizing an ordered pair of characters, possibly swapped."""

    J: EmbeddingSet
    swapped: bool


@dataclass(frozen=True)
class SubspaceDescriptor:
    """Data determining the size of an extension parameter family."""

    J: EmbeddingSet
    J0: EmbeddingSet
    same_character: bool


def subspace_dim(desc: SubspaceDescriptor) -> int:
    """Dimension |J minus (J intersect J0)|, plus one when the two characters agree."""
    return len(desc.J - (desc.J & desc.J0)) + (1 if desc.same_character else 0)


def param_count(desc: SubspaceDescriptor, field: FiniteField) -> int:
    """Number of elements of the parameter family over the coefficient field."""
    return field.order ** subspace_dim(desc)


# ---------------------------------------------------------------------------
# congruences and shape search
# ---------------------------------------------------------------------------


def check_congruence(p: int, sA: Sequence[int], sB: Sequence[int], modulus: int) -> bool:
    """Whether sum (sA_i - sB_i) p^(len-1-i) vanishes mod modulus."""
    if len(sA) != len(sB):
        raise ValueError("sequences of different length")
    n = len(sA)
    total = sum((a - b) * p ** (n - 1 - i) for i, (a, b) in enumerate(zip(sA, sB)))
    return total % modulus == 0


def shape_search(
    ctx: Context, chi1: InertialChar, chi2: InertialChar, table: HTWeightTable
) -> list[ShapeWitness]:
    """All carrier sets whose split sequences realize the ordered pair (chi1, chi2)."""
    out = []
    f = table.f
    for mask in range(1 << f):
        J = frozenset(i for i in range(f) if mask >> i & 1)
        s, t = st_sequences(table, J)
        cs, ct = char_of_exponents(ctx, s), char_of_exponents(ctx, t)
        if cs == chi1 and ct == chi2:
            out.append(ShapeWitness(J, swapped=False))
        elif cs == chi2 and ct == chi1:
            out.append(ShapeWitness(J, swapped=True))
    return out


def semisimple_decide(ctx: Context, shape: SemisimpleShape, table: HTWeightTable) -> bool:
    """Whether some carrier set realizes the unordered pair of characters."""
    return bool(shape_search(ctx, shape.first, shape.second, table))


def achievable_pairs(ctx: Context, table: HTWeightTable) -> frozenset[frozenset[int]]:
    """All unordered character-exponent pairs realized by carrier sets of a table."""
    out = set()
    f = table.f
    for mask in range(1 << f):
        J = frozenset(i for i in range(f) if mask >> i & 1)
        s, t = st_sequences(table, J)
        e1 = char_of_exponents(ctx, s).exponent
        e2 = char_of_exponents(ctx, t).exponent
        out.add(frozenset((e1, e2)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# forward construction of companion carrier sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForwardSets:
    """Companion carrier sets attached to (w, J)."""

    J: EmbeddingSet
    Jprime: EmbeddingSet
    Jtheta: EmbeddingSet
    Jmu: dict[int, EmbeddingSet]


def forward_sets(ctx: Context, w: Weight, J: Iterable[int]) -> ForwardSets:
    """Build the companion carrier sets and verify the six weighted congruences.

    Off the k = 1 locus all companion sets agree with J.  On each block's
    1-tail, the base companion follows the block's marked element while the
    marked and fully-marked companions take the opposite membership on their
    own block.
    """
    validate_irregular(w)
    f = w.f
    Jset = embedding_set(f, J)
    J0 = set_J0(w)
    Mt = set_Mtilde(w)
    base = Jset - J0
    bd = blocks(w)

    Jp = set(base)
    Jth = set(base)
    for blk in bd.blocks:
        if blk.nu in Jset:
            Jp |= set(blk.tail)
        else:
            Jth |= set(blk.tail)
    Jmu = {}
    for mu in Mt:
        Jm = set(base)
        for blk in bd.blocks:
            follows = blk.nu in Jset
            if blk.nu == mu:
                follows = not follows
            if follows:
                Jm |= set(blk.tail)
        Jmu[mu] = frozenset(Jm)

    fs = ForwardSets(Jset, frozenset(Jp), frozenset(Jth), Jmu)

    # verify the weighted congruences linking all split sequences
    m = ctx.m1
    s, t = st_sequences(ht_table(w), Jset)
    sp, tp = st_sequences(bprime_table(w), fs.Jprime)
    sth, tth = st_sequences(btheta_table(w), fs.Jtheta)
    if not check_congruence(ctx.p, s, sp, m) or not check_congruence(ctx.p, t, tp, m):
        raise AssertionError("base companion congruence failed")
    if not check_congruence(ctx.p, sp, sth, m) or not check_congruence(ctx.p, tp, tth, m):
        raise AssertionError("fully-marked companion congruence failed")
    for mu, Jm in fs.Jmu.items():
        sm, tm = st_sequences(bmu_table(w, mu), Jm)
        if not check_congruence(ctx.p, sp, sm, m) or not check_congruence(ctx.p, tp, tm, m):
            raise AssertionError(f"marked companion congruence failed at {mu}")
    return fs


# ---------------------------------------------------------------------------
# backward reconstruction
# ---------------------------------------------------------------------------


def _check_block_dichotomy(
    w: Weight, Jp: EmbeddingSet, Jaux: EmbeddingSet, blk_indices: Sequence[int], nu: int, tail: Sequence[int]
) -> None:
    """Either nu and its tail lie in Jp with the tail off Jaux, or the reverse."""
    part = [nu, *tail]
    if nu in Jp:
        ok = all(i in Jp for i in part) and all(i not in Jaux for i in tail)
    else:
        ok = all(i not in Jp for i in part) and all(i in Jaux for i in tail)
    if not ok:
        raise DichotomyError(
            f"carrier sets violate the block dichotomy on block {tuple(blk_indices)}"
        )


def backward_from_theta(
    ctx: Context, w: Weight, Jprime: Iterable[int], Jtheta: Iterable[int]
) -> EmbeddingSet:
    """Reconstruct the irregular carrier set from the base and fully-marked sets.

    Requires the per-block dichotomy; the result keeps each block's marked
    element as in the base set, drops the 1-tail from it and takes the
    opposite lift there, then is checked against the weighted congruences.
    """
    validate_irregular(w)
    f = w.f
    Jp = embedding_set(f, Jprime)
    Jth = embedding_set(f, Jtheta)
    J0 = set_J0(w)
    bd = blocks(w)
    for blk in bd.blocks:
        _check_block_dichotomy(w, Jp, Jth, blk.indices, blk.nu, blk.tail)
    J = Jp - J0
    m = ctx.m1
    s, t = st_sequences(ht_table(w), J)
    sp, tp = st_sequences(bprime_table(w), Jp)
    if not check_congruence(ctx.p, s, sp, m) or not check_congruence(ctx.p, t, tp, m):
        raise AssertionError("reconstructed carrier fails the weighted congruence")
    return J


def backward_from_mus(
    ctx: Context, w: Weight, Jprime: Iterable[int], Jmu: Mapping[int, Iterable[int]]
) -> EmbeddingSet:
    """Reconstruct the irregular carrier set from the base and all marked sets."""
    validate_irregular(w)
    f = w.f
    Jp = embedding_set(f, Jprime)
    J0 = set_J0(w)
    Mt = set_Mtilde(w)
    if set(Jmu) != set(Mt):
        raise ValueError("need one marked carrier set per marked index")
    bd = blocks(w)
    for blk in bd.blocks:
        Jm = embedding_set(f, Jmu[blk.nu])
        _check_block_dichotomy(w, Jp, Jm, blk.indices, blk.nu, blk.tail)
    J = Jp - J0
    m = ctx.m1
    s, t = st_sequences(ht_table(w), J)
    sp, tp = st_sequences(bprime_table(w), Jp)
    if not check_congruence(ctx.p, s, sp, m) or not check_congruence(ctx.p, t, tp, m):
        raise AssertionError("reconstructed carrier fails the weighted congruence")
    return J


# ---------------------------------------------------------------------------
# semisimple equivalence audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of an exhaustive equivalence check over all character pairs."""

    total: int
    agreements: int
    counterexamples: tuple[tuple[int, int, bool, bool, bool], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def semisimple_equivalence_audit(ctx: Context, w: Weight) -> EquivalenceReport:
    """Check, over all ordered character pairs, that shape membership for the
    irregular weight agrees with membership for both companion systems."""
    validate_irregular(w)
    A = achievable_pairs(ctx, ht_table(w))
    Ap = achievable_pairs(ctx, bprime_table(w))
    Ath = achievable_pairs(ctx, btheta_table(w))
    Amu = [achievable_pairs(ctx, bmu_table(w, mu)) for mu in sorted(set_Mtilde(w))]
    m = ctx.m1
    bad = []
    total = 0
    agreements = 0
    for e1 in range(m):
        for e2 in range(m):
            total += 1
            pair = frozenset((e1, e2))
            a = pair in A
            b = pair in Ap and pair in Ath
            c = pair in Ap and all(pair in am for am in Amu)
            if a == b == c:
                agreements += 1
            else:
                bad.append((e1, e2, a, b, c))
    return EquivalenceReport(total, agreements, tuple(bad))


# ---------------------------------------------------------------------------
# slope-table audit
# ---------------------------------------------------------------------------


def _alpha_vec(p: int, x: Sequence[int], y: Sequence[int]) -> list[Fraction]:
    return [alpha_seq(p, [a - b for a, b in zip(x, y)], i) for i in range(len(x))]


def appendix_alpha_audit(ctx: Context, w: Weight, J: Iterable[int]) -> None:
    """Verify the closed-form slope difference tables for (w, J); raises on mismatch."""
    validate_irregular(w)
    f, p = w.f, ctx.p
    fs = forward_sets(ctx, w, J)
    J0 = set_J0(w)
    Mt = set_Mtilde(w)
    bd = blocks(w)

    s, t = st_sequences(ht_table(w), fs.J)
    sp, tp = st_sequences(bprime_table(w), fs.Jprime)
    sth, tth = st_sequences(btheta_table(w), fs.Jtheta)

    def expect(name: str, got: Sequence[Fraction], want: Sequence[int]) -> None:
        if list(got) != [Fraction(v) for v in want]:
            raise AssertionError(f"slope table {name} mismatch: {got} != {want}")

    Jp, Jth = fs.Jprime, fs.Jtheta
    nxt = lambda i: (i + 1) % f

    expect(
        "base/s",
        _alpha_vec(p, sp, s),
        [
            1 if (i in Mt and i in Jp) or (i in J0 and i in Jp and nxt(i) in J0) else 0
            for i in range(f)
        ],
    )
    expect(
        "base/t",
        _alpha_vec(p, tp, t),
        [
            1 if (i in Mt and i not in Jp) or (i in J0 and i not in Jp and nxt(i) in J0) else 0
            for i in range(f)
        ],
    )
    expect(
        "full/s",
        _alpha_vec(p, sth, s),
        [
            1 if (i in Mt and i not in Jth) or (i in J0 and i in Jth and nxt(i) in J0) else 0
            for i in range(f)
        ],
    )
    expect(
        "full/t",
        _alpha_vec(p, tth, t),
        [
            1 if (i in Mt and i in Jth) or (i in J0 and i not in Jth and nxt(i) in J0) else 0
            for i in range(f)
        ],
    )
    for mu in sorted(Mt):
        Jm = fs.Jmu[mu]
        sm, tm = st_sequences(bmu_table(w, mu), Jm)
        expect(
            f"marked{mu}/s",
            _alpha_vec(p, sm, s),
            [
                1
                if (i in Mt and i != mu and i in Jm)
                or (i == mu and i not in Jm)
                or (i in J0 and i in Jm and nxt(i) in J0)
                else 0
                for i in range(f)
            ],
        )
        expect(
            f"marked{mu}/t",
            _alpha_vec(p, tm, t),
            [
                1
                if (i in Mt and i != mu and i not in Jm)
                or (i == mu and i in Jm)
                or (i in J0 and i not in Jm and nxt(i) in J0)
                else 0
                for i in range(f)
            ],
        )
        # comparison of the base companion against the marked one, in the
        # configuration where the marked element sits inside the carrier
        if mu in fs.J:
            blk = bd.block_of(mu)
            want = [
                1 if i == mu or (i in J0 and i in blk.indices and nxt(i) in J0) else 0
                for i in range(f)
            ]
            expect(f"base-vs-marked{mu}/s", _alpha_vec(p, sp, sm), want)
            expect(f"base-vs-marked{mu}/t", _alpha_vec(p, tm, tp), want)

    # auxiliary interpolating sequences between the base and fully-marked sides
    sg = [sp[i] if i in Jp else sth[i] for i in range(f)]
    tg = [tp[i] if i in Jp else tth[i] for i in range(f)]
    want_in = [1 if i in Jp and nxt(i) in J0 else 0 for i in range(f)]
    want_out = [1 if i not in Jp and nxt(i) in J0 else 0 for i in range(f)]
    expect("aux-vs-full/s", _alpha_vec(p, sg, sth), want_in)
    expect("aux-vs-full/t", _alpha_vec(p, tth, tg), want_in)
    expect("aux-vs-base/s", _alpha_vec(p, sg, sp), want_out)
    expect("aux-vs-base/t", _alpha_vec(p, tp, tg), want_out)


# ---------------------------------------------------------------------------
# exceptional-case audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceptionalReport:
    """Exceptional-case scan for an irregular weight and its companions."""

    irregular_hits: tuple[EmbeddingSet, ...]
    constrained_hits: tuple[tuple[str, EmbeddingSet], ...]
    unconstrained_hits: tuple[tuple[str, EmbeddingSet], ...]

    @property
    def ok(self) -> bool:
        return not self.irregular_hits and not self.constrained_hits


def _prime_constraint(blk_tails: Sequence[tuple[int, tuple[int, ...]]], J: frozenset) -> bool:
    return all(
        (nu in J and all(i in J for i in tail)) or (nu not in J and all(i not in J for i in tail))
        for nu, tail in blk_tails
    )


def _marked_constraint(blk_tails: Sequence[tuple[int, tuple[int, ...]]], J: frozenset) -> bool:
    return all(
        (nu in J and all(i not in J for i in tail)) or (nu not in J and all(i in J for i in tail))
        for nu, tail in blk_tails
    )


def exceptional_audit(ctx: Context, w: Weight) -> ExceptionalReport:
    """Scan every carrier set of every companion table for exceptional types.

    Under the per-block constraints no companion may be exceptional; dropping
    the constraints can produce hits, which are reported separately.
    """
    validate_irregular(w)
    f = w.f
    F = ctx.coefficient_field()
    one = F.one
    bd = blocks(w)
    Mt = set_Mtilde(w)
    blk_tails = [(blk.nu, blk.tail) for blk in bd.blocks]

    irregular_hits = []
    r = tuple(ki - 1 for ki in w.k)
    for mask in range(1 << f):
        J = frozenset(i for i in range(f) if mask >> i & 1)
        if exceptional_case(ExtensionType(ctx.p, r, one, one, J)):
            irregular_hits.append(J)

    sides: list[tuple[str, HTWeightTable, object]] = [
        ("base", bprime_table(w), lambda J: _prime_constraint(blk_tails, J))
    ]
    for mu in sorted(Mt):
        this_blk = tuple((nu, tail) for nu, tail in blk_tails if nu == mu)
        sides.append(
            (f"marked{mu}", bmu_table(w, mu), lambda J, tb=this_blk: _marked_constraint(tb, J))
        )
    sides.append(("full", btheta_table(w), lambda J: _marked_constraint(blk_tails, J)))

    constrained_hits = []
    unconstrained_hits = []
    for name, table, constraint in sides:
        gaps = table.gaps()
        for mask in range(1 << f):
            J = frozenset(i for i in range(f) if mask >> i & 1)
            if exceptional_case(ExtensionType(ctx.p, gaps, one, one, J)):
                if constraint(J):
                    constrained_hits.append((name, J))
                else:
                    unconstrained_hits.append((name, J))
    return ExceptionalReport(
        tuple(irregular_hits), tuple(constrained_hits), tuple(unconstrained_hits)
    )


# ---------------------------------------------------------------------------
# transport audit of the extension parameter families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportAuditReport:
    """Per-side results of transporting whole parameter families."""

    dim: int
    family_size: int
    sides: tuple[str, ...]


def _constant_vector(F: FiniteField, f: int, support: Sequence[int], values: Sequence[FieldElem]):
    out = [UPoly.zero(F)] * f
    for i, v in zip(support, values):
        out[i] = UPoly.constant(v)
    return tuple(out)


def subspace_transport_audit(
    ctx: Context, w: Weight, J: Iterable[int], a: FieldElem, b: FieldElem
) -> TransportAuditReport:
    """Exhaustively transport each companion parameter family onto the irregular one.

    For every companion side and every parameter vector, the transported
    extension must be the (suitably twisted) irregular extension with the
    identical constant parameters; raises on any failure.
    """
    validate_irregular(w)
    f, p = w.f, ctx.p
    F = ctx.coefficient_field()
    Jset = embedding_set(f, J)
    J0 = set_J0(w)
    Mt = set_Mtilde(w)
    fs = forward_sets(ctx, w, Jset)

    s, t = st_sequences(ht_table(w), Jset)
    N = RankOneKisin(p, s, a)
    P = RankOneKisin(p, t, b)
    support = sorted(Jset - J0)
    dim = len(support)

    def run_side(name, table, Jside, twist_vec):
        ssd, tsd = st_sequences(table, Jside)
        s_tw = tuple(si + gi for si, gi in zip(ssd, twist_vec))
        t_tw = tuple(ti + gi for ti, gi in zip(tsd, twist_vec))
        side_support = sorted(embedding_set(f, Jside) - J0)
        if len(side_support) != dim:
            raise AssertionError(f"side {name}: parameter support size differs")
        N_side = RankOneKisin(p, s_tw, a)
        P_side = RankOneKisin(p, t_tw, b)
        N_tgt = RankOneKisin(p, tuple(si + gi for si, gi in zip(s, twist_vec)), a)
        P_tgt = RankOneKisin(p, tuple(ti + gi for ti, gi in zip(t, twist_vec)), b)
        seen = set()
        for values in itertools.product(list(F.elements()), repeat=dim):
            M_side = PhiExtension(N_side, P_side, _constant_vector(F, f, side_support, values))
            M_tgt, g = transport_forward(M_side, N_tgt, P_tgt)
            if not generically_invertible(g):
                raise AssertionError(f"side {name}: non-invertible transport")
            # undo the twist on the parameters and compare with the irregular family
            recovered = []
            for i in range(f):
                xi = M_tgt.x[i]
                if not xi.divides_exactly(twist_vec[i]):
                    raise AssertionError(f"side {name}: parameter at {i} misses the twist factor")
                recovered.append(xi.unshift(twist_vec[i]))
            for i in range(f):
                if i in set(side_support):
                    continue
                if not recovered[i].is_zero():
                    raise AssertionError(f"side {name}: unexpected parameter at {i}")
            got = tuple(
                recovered[i].coefficient(0) for i in side_support
            )
            if any(not recovered[i].is_constant() for i in side_support):
                raise AssertionError(f"side {name}: transported parameter is not constant")
            if got != values:
                raise AssertionError(f"side {name}: parameters changed under transport")
            seen.add(got)
        if len(seen) != F.order**dim:
            raise AssertionError(f"side {name}: family size mismatch")

    zero_twist = (0,) * f
    run_side("base", bprime_table(w), fs.Jprime, zero_twist)
    for mu in sorted(Mt):
        twist = tuple(1 if i == mu else 0 for i in range(f))
        run_side(f"marked{mu}", bmu_table(w, mu), fs.Jmu[mu], twist)
    theta_twist = tuple(1 if i in Mt else 0 for i in range(f))
    run_side("full", btheta_table(w), fs.Jtheta, theta_twist)

    side_names = ("base", *[f"marked{mu}" for mu in sorted(Mt)], "full")
    return TransportAuditReport(dim, F.order**dim, side_names)
