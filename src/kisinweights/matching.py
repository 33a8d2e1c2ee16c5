"""Matching between irregular weights and their regular companion weights.

Given an irregular weight and a carrier set J, this module builds the
companion carrier sets on the regular side and verifies the defining weighted
congruences.  forward_sets splits each table along its carrier once and
keeps the checked splits in ForwardSets, which the slope-table and transport
audits read.  It also reconstructs J from companion data (with the
per-block dichotomy as precondition), decides semisimple shape membership
and its equivalence audit by set algebra on the achievable pairs of
weights.split_sums, and audits the extension-space transports.  A transport
is a diagonal monomial morphism, so each of its compatibility identities is
an integer statement about the twist exponents of the two line maps, and
the audit decides it with no field element (see subspace_transport_audit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .field import Context
from .rankone import (
    EmbeddingSet,
    alpha_seq,
    embedding_set,
    exponents_from_slopes,
    in_Pprime,
    integer_slopes,
    weighted_sum,
)
from .weights import (
    Block,
    HTWeightTable,
    Side,
    Weight,
    blocks,
    companion_sides,
    ht_table,
    set_J0,
    split_sums,
    st_sequences,
    validate_irregular,
)

if TYPE_CHECKING:  # an annotation only: a request never builds a shape
    from .chars import SemisimpleShape


Split = tuple[tuple[int, ...], tuple[int, ...]]  # (s, t) as st_sequences returns it


class DichotomyError(ValueError):
    """Raised when companion carrier sets violate the per-block dichotomy."""


def _validate(ctx: Context, w: Weight) -> None:
    """Refuse a context of another group than w's, then validate_irregular(w)."""
    if (ctx.p, ctx.f) != (w.p, w.f):
        raise ValueError(f"context has p = {ctx.p}, f = {ctx.f}; the weight has p = {w.p}, f = {w.f}")
    validate_irregular(w)


# ---------------------------------------------------------------------------
# shape membership
# ---------------------------------------------------------------------------


def semisimple_decide(ctx: Context, shape: SemisimpleShape, table: HTWeightTable) -> bool:
    """Whether the shape's characters live on ctx's group and some carrier set realizes them."""
    if table.f != ctx.f:
        raise ValueError(f"table has {table.f} rows, context has f = {ctx.f}")
    same_group = (shape.first.p, shape.first.f) == (ctx.p, ctx.f)
    return same_group and shape.as_set() in achievable_pairs(ctx, table)


def achievable_pairs(ctx: Context, table: HTWeightTable) -> frozenset[frozenset[int]]:
    """All unordered character-exponent pairs realized by carrier sets of a
    table: the split with weighted_sum(s) = x has weighted_sum(t) = C - x."""
    m = ctx.m1
    xs, C = split_sums(table)
    return frozenset(frozenset((x % m, (C - x) % m)) for x in xs)


# ---------------------------------------------------------------------------
# forward construction of companion carrier sets
# ---------------------------------------------------------------------------


class ForwardSets(NamedTuple):
    """Companion carrier sets attached to (w, J), with the splits forward_sets checked.

    ``st`` splits ht_table(w) along J.  ``sides`` is companion_sides(w), and
    ``carriers`` and ``splits`` (each side's table split along its carrier)
    follow it.
    """

    J: EmbeddingSet
    carriers: tuple[EmbeddingSet, ...]
    st: Split
    sides: tuple[Side, ...]
    splits: tuple[Split, ...]

    @property
    def Jprime(self) -> EmbeddingSet:
        return self.carriers[0]

    @property
    def Jtheta(self) -> EmbeddingSet:
        return self.carriers[-1]

    @property
    def Jmu(self) -> dict[int, EmbeddingSet]:
        return {min(side.theta): Jside for side, Jside in zip(self.sides[1:-1], self.carriers[1:-1])}


def _side_carrier(
    J: EmbeddingSet, J0: EmbeddingSet, bd: tuple[Block, ...], theta: EmbeddingSet
) -> EmbeddingSet:
    """J off the k = 1 locus, plus each block's 1-tail where its marked element's
    membership in J differs from its membership in theta."""
    out = set(J - J0)
    for blk in bd:
        if (blk.nu in J) != (blk.nu in theta):
            out.update(blk.tail)
    return frozenset(out)


def companion_carriers(w: Weight, J: EmbeddingSet) -> tuple[EmbeddingSet, ...]:
    """The carrier set of each side of companion_sides(w) attached to (w, J), J reduced mod f."""
    J0, bd = set_J0(w), blocks(w)
    return tuple(_side_carrier(J, J0, bd, side.theta) for side in companion_sides(w))


def basis_carriers(f: int) -> list[EmbeddingSet]:
    """Z/f and its f neighbours Z/f - {b}, b ascending.  A weight's
    forward_sets congruences and appendix_alpha_audit tables hold at every
    carrier set once they hold at these f+1.

    Every quantity the two compare at index i reads one bit of J: i in J off
    J0; nu in J on a block's 1-tail, where _side_carrier makes every side's
    membership a function of it; and the irregular split is 0 at a k = 1
    index either way.  So each compared vector (ss - s, ts - t, sp - sm, sg,
    tg, every want, hence p*want_{i-1} - want_i) and each weighted-sum
    congruence difference mod m is affine on {0,1}^f:
    G(J) = G(Z/f) + sum over b not in J of (G(Z/f - {b}) - G(Z/f)).  The
    base-vs-marked checks live on the face mu in J, which holds Z/f and every
    neighbour but Z/f - {mu}; these determine an affine function there too.

    The carriers themselves are affine over GF(2): bit i of each side's is
    J_i off J0 and J_nu xor [nu in theta] on nu's 1-tail.  So, as sets,
    car(J) = car(Z/f) ^ XOR over b not in J of (car(Z/f - {b}) ^ car(Z/f)),
    which enumerate folds from a word's basis proofs.
    """
    full = frozenset(range(f))
    return [full, *(full - {b} for b in range(f))]


def rotate_fold(fold: Sequence[int], f: int, nus: Sequence[int], r: int) -> list[int]:
    """The fold of k (carriers at Z/f, then each bit b's term; side s's at bits s*f.., in
    companion_sides order) from that of q = k[r:] + k[:r], nus q's marked elements ascending:
    bit i is q's bit i - r, b's term q's of b - r, and the marked sides re-laid by nu + r mod f."""
    m, t = len(nus), sum(nu >= f - r for nu in nus)  # t of them wrap past f and go first
    ones = ((1 << (m + 2) * f) - 1) // ((1 << f) - 1)  # bit 0 of each side
    low, high, marked = ones * ((1 << r) - 1), ones * ((1 << f) - (1 << r)), ((1 << m * f) - 1) << f
    turned = [x << r & high | x >> f - r & low for x in fold[:1] + fold[f + 1 - r:] + fold[1:f + 1 - r]]
    return [x & ~marked | ((x & marked) >> (m - t) * f | (x & marked) << t * f) & marked for x in turned]


def forward_sets(ctx: Context, w: Weight, J: Iterable[int]) -> ForwardSets:
    """Build the companion carrier sets and verify the weighted congruences.

    Off the k = 1 locus all companion sets agree with J.  On each block's
    1-tail, a side follows the block's marked element, except that it takes
    the opposite membership on the blocks whose marked element is in its theta.
    Every side's split sequences must be congruent to those of (w, J).
    """
    _validate(ctx, w)
    Jset = embedding_set(w.f, J)
    sides = companion_sides(w)
    carriers = companion_carriers(w, Jset)

    p, m = ctx.p, ctx.m1
    s, t = st = st_sequences(ht_table(w), Jset)
    ws, wt = weighted_sum(p, s), weighted_sum(p, t)
    splits = tuple(st_sequences(side.table, Jside) for side, Jside in zip(sides, carriers))
    for side, (ss, ts) in zip(sides, splits):
        if (weighted_sum(p, ss) - ws) % m or (weighted_sum(p, ts) - wt) % m:
            raise AssertionError(f"{side.name} companion congruence failed")
    return ForwardSets(Jset, carriers, st, sides, splits)


# ---------------------------------------------------------------------------
# backward reconstruction
# ---------------------------------------------------------------------------


def _backward(
    ctx: Context, w: Weight, Jprime: Iterable[int], aux_of: Callable[[int], EmbeddingSet]
) -> EmbeddingSet:
    """Reconstruct J = Jprime - J0 by running the forward rule on it: on each
    block's 1-tail, Jprime must be J's base carrier and ``aux_of(nu)`` its
    full carrier, which a marked{nu} carrier equals there (nu is in both
    thetas), or the block breaks the dichotomy.  J is then checked against
    the weighted congruences of the base side.
    """
    Jp = embedding_set(w.f, Jprime)
    J0, bd, sides = set_J0(w), blocks(w), companion_sides(w)
    J = Jp - J0
    base = _side_carrier(J, J0, bd, sides[0].theta)
    full = _side_carrier(J, J0, bd, sides[-1].theta)
    for blk in bd:
        if ((Jp ^ base) | (aux_of(blk.nu) ^ full)).intersection(blk.tail):
            raise DichotomyError(
                f"carrier sets violate the block dichotomy on block {blk.indices}"
            )
    p, m = ctx.p, ctx.m1
    s, t = st_sequences(ht_table(w), J)
    sp, tp = st_sequences(sides[0].table, Jp)
    if (weighted_sum(p, sp) - weighted_sum(p, s)) % m or (weighted_sum(p, tp) - weighted_sum(p, t)) % m:
        raise AssertionError("reconstructed carrier fails the weighted congruence")
    return J


def backward_from_theta(
    ctx: Context, w: Weight, Jprime: Iterable[int], Jtheta: Iterable[int]
) -> EmbeddingSet:
    """Reconstruct the irregular carrier set from the base and fully-marked sets."""
    _validate(ctx, w)
    Jth = embedding_set(w.f, Jtheta)
    return _backward(ctx, w, Jprime, lambda nu: Jth)


def backward_from_mus(
    ctx: Context, w: Weight, Jprime: Iterable[int], Jmu: Mapping[int, Iterable[int]]
) -> EmbeddingSet:
    """Reconstruct the irregular carrier set from the base and all marked sets."""
    _validate(ctx, w)
    if set(Jmu) != companion_sides(w)[-1].theta:
        raise ValueError("need one marked carrier set per marked index")
    return _backward(ctx, w, Jprime, lambda nu: embedding_set(w.f, Jmu[nu]))


# ---------------------------------------------------------------------------
# semisimple equivalence audit
# ---------------------------------------------------------------------------


class EquivalenceReport(NamedTuple):
    """Outcome of an equivalence check over all character pairs."""

    total: int
    agreements: int
    counterexamples: tuple[tuple[int, int, bool, bool, bool], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _disagreements(H: Callable[[frozenset], set], A: frozenset, side_sets: Sequence[frozenset]) -> list:
    """Each point, ascending, at which the three verdicts of the equivalence
    differ, with the verdicts: the irregular table hits it (a), the base and
    fully marked sides both do (b), the base and every marked side all do (c).
    H(S) is the set of points an achievable set S hits; side_sets lists the
    sides' achievable sets in companion_sides order."""
    Ap, *Amu, Ath = side_sets
    a, hp = H(A), H(Ap)
    b, c = hp & H(Ath), hp.intersection(*map(H, Amu))
    return [(x, x in a, x in b, x in c) for x in sorted((a | b | c) - (a & b & c))]


def _pair_report(m: int, A: frozenset, side_sets: Sequence[frozenset]) -> EquivalenceReport:
    """Verdict over all m^2 ordered pairs mod m, given the achievable pairs of
    the irregular table and of each side, each of which hits its ordered pairs."""
    ordered = lambda S: {(x, y) for pair in S for x in pair for y in pair if {x, y} == pair}
    bad = _disagreements(ordered, A, side_sets)
    return EquivalenceReport(m * m, m * m - len(bad), tuple((*xy, a, b, c) for xy, a, b, c in bad))


def semisimple_equivalence_audit(ctx: Context, w: Weight) -> EquivalenceReport:
    """Check, over all (p^f-1)^2 ordered character pairs, that shape membership
    for the irregular weight agrees with membership for both companion systems."""
    _validate(ctx, w)
    side_sets = [achievable_pairs(ctx, side.table) for side in companion_sides(w)]
    return _pair_report(ctx.m1, achievable_pairs(ctx, ht_table(w)), side_sets)


# ---------------------------------------------------------------------------
# slope-table audit
# ---------------------------------------------------------------------------


def _expected_slopes(
    f: int,
    J0: EmbeddingSet,
    Mt: EmbeddingSet,
    theta: EmbeddingSet,
    Jside: EmbeddingSet,
    upper: bool,
) -> list[int]:
    """Closed-form slope differences of a side against the irregular weight.

    Upper (s) or lower (t) sequences: 1 at a marked index whose side of Jside
    differs from its theta membership, or at a k = 1 index on that side of
    Jside followed by another k = 1 index; 0 elsewhere.
    """
    return [
        1
        if (i in Mt and ((i in Jside) == upper) != (i in theta))
        or (i in J0 and (i in Jside) == upper and (i + 1) % f in J0)
        else 0
        for i in range(f)
    ]


def appendix_alpha_audit(ctx: Context, w: Weight, J: Iterable[int]) -> None:
    """Verify the closed-form slope difference tables for (w, J); raises on mismatch.

    A table says that a difference of splits has the integer slopes
    ``want``.  The audit compares the difference with
    exponents_from_slopes(p, want), entries p * want_{i-1} - want_i.  That
    is the same statement: the recurrence alpha_i + r_i = p * alpha_{i-1}
    has one solution per r, as two differ by some d with d_i = p * d_{i-1}
    for every i, so d = p^f * d and d = 0.
    """
    f, p = w.f, ctx.p
    fs = forward_sets(ctx, w, J)
    J0 = set_J0(w)
    sides, seqs = fs.sides, fs.splits
    Mt = sides[-1].theta
    tail_of = {blk.nu: blk.tail for blk in blocks(w)}

    def expect(name: str, x: Sequence[int], y: Sequence[int], want: list[int]) -> None:
        diff = tuple([a - b for a, b in zip(x, y)])
        if diff != exponents_from_slopes(p, want):
            got = [alpha_seq(p, diff, i) for i in range(f)]
            raise AssertionError(f"slope table {name} mismatch: {got} != {want}")

    s, t = fs.st
    for side, Jside, (ss, ts) in zip(sides, fs.carriers, seqs):
        for half, ours, theirs in (("s", ss, s), ("t", ts, t)):
            want = _expected_slopes(f, J0, Mt, side.theta, Jside, upper=half == "s")
            expect(f"{side.name}/{half}", ours, theirs, want)

    (sp, tp), (sth, tth) = seqs[0], seqs[-1]
    nxt = lambda i: (i + 1) % f
    # comparison of the base companion against each marked one, in the
    # configuration where the marked element sits inside the carrier
    for side, (sm, tm) in zip(sides[1:-1], seqs[1:-1]):
        (mu,) = side.theta
        if mu in fs.J:
            want = [1 if i == mu or (i in tail_of[mu] and nxt(i) in J0) else 0 for i in range(f)]
            expect(f"base-vs-{side.name}/s", sp, sm, want)
            expect(f"base-vs-{side.name}/t", tm, tp, want)

    # auxiliary interpolating sequences between the base and fully-marked sides
    Jp = fs.Jprime
    sg = [sp[i] if i in Jp else sth[i] for i in range(f)]
    tg = [tp[i] if i in Jp else tth[i] for i in range(f)]
    want_in = [1 if i in Jp and nxt(i) in J0 else 0 for i in range(f)]
    want_out = [1 if i not in Jp and nxt(i) in J0 else 0 for i in range(f)]
    expect("aux-vs-full/s", sg, sth, want_in)
    expect("aux-vs-full/t", tth, tg, want_in)
    expect("aux-vs-base/s", sg, sp, want_out)
    expect("aux-vs-base/t", tp, tg, want_out)


# ---------------------------------------------------------------------------
# exceptional-case audit
# ---------------------------------------------------------------------------


class ExceptionalReport(NamedTuple):
    """Exceptional-case scan for an irregular weight and its companions."""

    irregular_hits: tuple[EmbeddingSet, ...]
    constrained_hits: tuple[tuple[str, EmbeddingSet], ...]
    unconstrained_hits: tuple[tuple[str, EmbeddingSet], ...]

    @property
    def ok(self) -> bool:
        return not self.irregular_hits and not self.constrained_hits


def _side_constraint(bd: tuple[Block, ...], theta: EmbeddingSet, J: EmbeddingSet) -> bool:
    """The per-block carrier constraint of a side: J is the side's carrier
    (_side_carrier) on the 1-tails of the blocks it constrains, every block
    for the base side (theta empty), else the blocks whose marked element is
    in theta."""
    J0 = frozenset(i for blk in bd for i in blk.tail)
    tails = {i for blk in bd if not theta or blk.nu in theta for i in blk.tail}
    return not (J ^ _side_carrier(J, J0, bd, theta)) & tails


def _exceptional_carriers(p: int, r: tuple[int, ...]) -> list[EmbeddingSet]:
    """The carrier sets J, in ascending mask order, that make the extension
    type (r; 1, 1; J) exceptional.

    With equal scalars, exceptional_case is necessary_map_conditions: r is
    in Pprime, J contains need = {i : r_i in {p-1, p}} and J misses avoid =
    {i : r_i = 1}.  So the hits are the masks containing need and missing
    avoid, and there are none unless in_Pprime(p, r) holds.
    """
    if not in_Pprime(p, r):
        return []
    need = sum(1 << i for i, ri in enumerate(r) if ri in (p - 1, p))
    avoid = sum(1 << i for i, ri in enumerate(r) if ri == 1)
    return [
        frozenset(i for i in range(len(r)) if mask >> i & 1)
        for mask in range(1 << len(r))
        if mask & need == need and not mask & avoid
    ]


def exceptional_audit(ctx: Context, w: Weight) -> ExceptionalReport:
    """Find the exceptional carrier sets of the irregular table (exponents
    k_i - 1) and of every companion side's table (its gaps), both lines
    carrying the scalar 1; _exceptional_carriers solves for them.

    Under the per-block constraints no companion may be exceptional; dropping
    the constraints can produce hits, which are reported separately.

    The window lemma: a table is in Pprime only if in_Pprime's test passes at
    every i, which reads the pair (r_{i-1}, r_i).  The irregular pair is
    (k_{i-1} - 1, k_i - 1).  A side's entry at i reads only k_i, k_{i+1} and
    whether i is in theta (companion_sides): p-1 or p at k_i = 1, k_i - 2 or
    k_i (theta misses or holds i) at a marked i, and k_i - 1 elsewhere.  A
    marked i has k_{i+1} = 1 and k_i >= 3, so of i-1 and i at most one is
    marked.  Where neither the irregular pair nor a side's pair under either
    choice of theta passes, the window (k_{i-1}, k_i, k_{i+1}) is dead: no table
    is in Pprime, and w has no irregular, constrained or unconstrained hit.
    """
    _validate(ctx, w)
    irregular_hits = _exceptional_carriers(ctx.p, tuple(ki - 1 for ki in w.k))
    constrained_hits = []
    unconstrained_hits = []
    for side in companion_sides(w):
        for J in _exceptional_carriers(ctx.p, side.table.gaps()):
            if _side_constraint(blocks(w), side.theta, J):
                constrained_hits.append((side.name, J))
            else:
                unconstrained_hits.append((side.name, J))
    return ExceptionalReport(
        tuple(irregular_hits), tuple(constrained_hits), tuple(unconstrained_hits)
    )


# ---------------------------------------------------------------------------
# transport audit of the extension parameter families
# ---------------------------------------------------------------------------


class TransportAuditReport(NamedTuple):
    """Per-side results of transporting whole parameter families."""

    dim: int
    family_size: int
    sides: tuple[str, ...]


def subspace_transport_audit(ctx: Context, w: Weight, J: Iterable[int]) -> TransportAuditReport:
    """Transport each companion parameter family onto the irregular one.

    A side's family is the constant parameter vectors x over F = GF(p^d) on
    its carrier off J0, at every unit pair (a, b) the side shares with the
    irregular extension.  Each transported extension must be the twisted
    irregular one with the same parameters; raises on any failure.

    The audit decides this in exponent arithmetic.  With twist_i =
    [i in theta], ranktwo.transport_forward maps the side's lines
    (ss+twist; a), (ts+twist; b) to (s+twist; a), (t+twist; b) by
    g = diag(u^cP, u^cN), with cN = integer_slopes(ss - s) and
    cP = integer_slopes(ts - t).  It raises unless the side's lines are
    effective (the irregular split, k_i - 1 and 0, always is) and both
    slope vectors exist and are >= 0.  As g has coefficients 1, the 4f
    identities of check_phi_morphism reduce at i to the slope recurrences
    cP_i + ts_i - t_i = p*cP_{i-1} and the same for cN, to 0 = 0, and to
    x_i*u^cP_i = x_i*u^(p*cN_{i-1} + cP_i): the obstruction test, x_i = 0
    or cN_{i-1} = 0.  det g_i is a power of u.
    The recovered parameter x_i*u^(cP_i - twist_i) is x_i exactly when
    cP_i = twist_i.  No step reads a, b or the values of x, only which x_i
    are nonzero.  Every side's support Jside - J0 is J - J0, as
    _side_carrier adds only 1-tails, which lie in J0, so it has dim
    elements.  So a side passes exactly when, at each i in J - J0,
    cN_{i-1} = 0 and cP_i = twist_i; the transport is then injective and
    family_size = p^(d*dim).
    """
    return transport_exponents(ctx, w, J)[0]


def transport_exponents(ctx: Context, w: Weight, J: Iterable[int]) -> tuple[TransportAuditReport, tuple[tuple[int, ...], ...]]:
    """subspace_transport_audit(ctx, w, J) and the twist exponents it decides
    by: cN and cP of each side, in companion_sides order."""
    f, p = w.f, ctx.p
    fs = forward_sets(ctx, w, J)
    s, t = fs.st
    support = sorted(fs.J - set_J0(w))
    exponents: list[tuple[int, ...]] = []
    for side, (ss, ts) in zip(fs.sides, fs.splits):
        twist = [1 if i in side.theta else 0 for i in range(f)]
        if any(x + g < 0 for seq in (ss, ts) for x, g in zip(seq, twist)):
            raise ValueError("extension exponents must be effective (twist first)")
        for line, ours, theirs in (("quotient", ss, s), ("sub", ts, t)):
            c = integer_slopes(p, [x - y for x, y in zip(ours, theirs)])
            if c is None or min(c) < 0:
                raise ValueError(f"no map on the {line} line")
            exponents.append(c)
        cN, cP = exponents[-2:]
        for i in support:
            if cN[i - 1] != 0:
                raise ValueError(f"obstructed at {i}: quotient twist exponent {cN[i - 1]} != 0")
            if cP[i] < twist[i]:
                raise AssertionError(f"side {side.name}: parameter at {i} misses the twist factor")
            if cP[i] > twist[i]:
                raise AssertionError(f"side {side.name}: transported parameter is not constant")

    dim = len(support)
    return TransportAuditReport(dim, p ** (ctx.d * dim), tuple(side.name for side in fs.sides)), tuple(exponents)
