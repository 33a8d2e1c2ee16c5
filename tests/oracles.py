"""Reference helpers used only by the tests: small closed forms the package
itself no longer needs, kept as oracles for the code that replaced them."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from kisinweights.chars import InertialChar, char_of_exponents
from kisinweights.cli import JSON_INT_LIMIT, OPTIONS, _type_letter, _value_letter
from kisinweights.field import Context, FieldElem, UPoly, make_field
from kisinweights.matching import (
    TransportAuditReport,
    appendix_alpha_audit,
    basis_carriers,
    exceptional_audit,
    forward_sets,
)
from kisinweights.quadratic import _exponents, balanced_sets, irr_equivalence_audit
from kisinweights.rankone import (
    CyclicDecomposition,
    CyclicString,
    RankOneKisin,
    _hom_twist,
    alpha,
    embedding_set,
    embedding_subsets,
    weighted_sum,
)
from kisinweights.ranktwo import PhiExtension, PhiMorphism, _scalar_at, transport_forward
from kisinweights.weights import (
    Block,
    HTWeightTable,
    Weight,
    blocks,
    companion_sides,
    ht_table,
    irregular_refusal,
    set_J0,
    st_sequences,
    weight_classes,
)

# ---------------------------------------------------------------------------
# the context and the polynomial layer
# ---------------------------------------------------------------------------


def m2(ctx: Context) -> int:
    """Order of the niveau-2 character group: p^(2f) - 1."""
    return ctx.p ** (2 * ctx.f) - 1


def valuation(poly: UPoly) -> float:
    """u-adic valuation; math.inf for the zero polynomial."""
    return min(poly.terms, default=math.inf)


def divides_exactly(poly: UPoly, n: int) -> bool:
    """Whether u^n divides the polynomial."""
    return valuation(poly) >= n


def unshift(poly: UPoly, n: int) -> UPoly:
    """Exact division by u^n; raises if u^n does not divide."""
    if valuation(poly) < n:
        raise ValueError(f"u^{n} does not divide {poly!r}")
    return UPoly(poly.field, {e - n: c for e, c in poly.terms.items()})


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def char_mul(a: InertialChar, b: InertialChar) -> InertialChar:
    if (a.p, a.f, a.niveau) != (b.p, b.f, b.niveau):
        raise ValueError("characters live on different groups")
    return InertialChar(a.p, a.f, a.niveau, a.exponent + b.exponent)


def char_inv(a: InertialChar) -> InertialChar:
    return InertialChar(a.p, a.f, a.niveau, -a.exponent)


def char_eq(a: InertialChar, b: InertialChar) -> bool:
    return (
        (a.p, a.f, a.niveau) == (b.p, b.f, b.niveau)
        and (a.exponent - b.exponent) % (a.p ** (a.niveau * a.f) - 1) == 0
    )


def frobenius_twist(a: InertialChar, steps: int = 1) -> InertialChar:
    """Compose with Frobenius ``steps`` times: exponent scales by p^steps."""
    return InertialChar(a.p, a.f, a.niveau, a.exponent * pow(a.p, steps, a.p ** (a.niveau * a.f) - 1))


def conjugate_pair(a: InertialChar) -> tuple[InertialChar, InertialChar]:
    """A niveau-2 character together with its p^f-power conjugate."""
    return a, frobenius_twist(a, a.f)


# ---------------------------------------------------------------------------
# rank-one modules
# ---------------------------------------------------------------------------


def alpha_diff(N1: RankOneKisin, N2: RankOneKisin, i: int) -> Fraction:
    """Slope difference alpha_i(N1) - alpha_i(N2); the i-th twist exponent of a map N1 -> N2."""
    if (N1.p, N1.f) != (N2.p, N2.f):
        raise ValueError("modules over different rings")
    return alpha(N1, i) - alpha(N2, i)


def weighted_sum_by_powers(p: int, r) -> int:
    """sum r_i p^(f-1-i), one power per term."""
    f = len(r)
    return sum(ri * p ** (f - 1 - i) for i, ri in enumerate(r))


def hom_exponents(N1: RankOneKisin, N2: RankOneKisin) -> tuple[int, ...]:
    """Twist exponents of the (unique up to scalar) map N1 -> N2; raises if none exists."""
    twist = _hom_twist(N1, N2)
    if twist is None:
        raise ValueError("no nonzero map exists")
    return twist


def inertial_char(ctx: Context, N: RankOneKisin) -> InertialChar:
    """Generic-fibre inertial character of a rank-one module."""
    if (ctx.p, ctx.f) != (N.p, N.f):
        raise ValueError("context mismatch")
    return char_of_exponents(ctx, N.r)


def tS_iso(ctx: Context, N1: RankOneKisin, N2: RankOneKisin) -> bool:
    """Isomorphism after inverting u: same scalar and same inertial character."""
    return N1.a == N2.a and inertial_char(ctx, N1) == inertial_char(ctx, N2)


def twist_rank_one(N: RankOneKisin, shift: Sequence[int], c: FieldElem) -> RankOneKisin:
    """Tensor with the rank-one module of exponents ``shift`` and scalar c."""
    if len(shift) != N.f:
        raise ValueError("shift length mismatch")
    return RankOneKisin(N.p, tuple(ri + si for ri, si in zip(N.r, shift)), N.a * c)


def in_Pprime_by_walk(p: int, r: tuple[int, ...]) -> bool:
    """in_Pprime as a walk over the entries and their zero runs.

    Entries lie in {0, 1, p-1, p}; a p is followed by 0 or 1; a 1 or p-1 is
    followed by p-1 or p; and every (cyclic) run of zeros is immediately
    preceded by p and followed by 1 -- unless the tuple is identically zero.
    """
    f = len(r)
    if any(ri not in (0, 1, p - 1, p) for ri in r):
        return False
    if all(ri == 0 for ri in r):
        return True
    for i, ri in enumerate(r):
        nxt = r[(i + 1) % f]
        if ri == p and nxt not in (0, 1):
            return False
        if ri in (1, p - 1) and nxt not in (p - 1, p):
            return False
        if ri == 0:
            j = (i + 1) % f
            while r[j] == 0:
                j = (j + 1) % f
            if r[j] != 1:
                return False
            j = (i - 1) % f
            while r[j] == 0:
                j = (j - 1) % f
            if r[j] != p:
                return False
    return True


def decompose_cyclic_by_walk(p: int, r: Sequence[int]) -> CyclicDecomposition:
    """decompose_cyclic as a walk: each string from its opening entry to its
    closing p, then the zero runs, each from its cyclic start.

    The result is either a constant +/-(p-1) flag or a disjoint cyclic cover
    by signed strings (-1, p-1, ..., p-1, p) and runs of zeros.
    """
    f = len(r)
    r = tuple(r)
    if any(abs(ri) > p for ri in r):
        raise ValueError("entries must lie in [-p, p]")
    if weighted_sum(p, r) % (p**f - 1) != 0:
        raise ValueError("weighted sum not divisible by p^f - 1")

    if all(ri == p - 1 for ri in r):
        return CyclicDecomposition(p, f, +1, ())
    if all(ri == -(p - 1) for ri in r):
        return CyclicDecomposition(p, f, -1, ())
    if all(ri == 0 for ri in r):
        return CyclicDecomposition(p, f, None, (CyclicString("zero", +1, 0, f),))

    covered = [False] * f
    strings: list[CyclicString] = []
    for i, ri in enumerate(r):
        sign = {-1: +1, +1: -1}.get(ri)
        if sign is None:
            continue
        # walk the (sign-adjusted) interior p-1 entries to the closing p
        length = 1
        j = (i + 1) % f
        while length < f and r[j] == sign * (p - 1):
            j = (j + 1) % f
            length += 1
        if length >= f or r[j] != sign * p:
            raise ValueError(f"no closing entry for string starting at {i}")
        length += 1
        strings.append(CyclicString("signed", sign, i, length))
        for k in range(length):
            idx = (i + k) % f
            if covered[idx]:
                raise ValueError("overlapping strings")
            covered[idx] = True

    # remaining entries must be zero runs
    for i in range(f):
        if not covered[i] and r[i] != 0:
            raise ValueError(f"entry {r[i]} at {i} not covered by any pattern")
    zeros_marked = [False] * f
    for i in range(f):
        if covered[i] or zeros_marked[i]:
            continue
        # extend the zero run backwards to its cyclic start
        start = i
        while r[(start - 1) % f] == 0 and not covered[(start - 1) % f] and (start - 1) % f != i:
            start = (start - 1) % f
        length = 0
        j = start
        while not covered[j] and r[j] == 0 and length < f:
            zeros_marked[j] = True
            length += 1
            j = (j + 1) % f
        strings.append(CyclicString("zero", +1, start, length))

    dec = CyclicDecomposition(p, f, None, tuple(strings))
    if dec.recompose() != r:
        raise AssertionError("decomposition failed to recompose")
    return dec


# ---------------------------------------------------------------------------
# rank-two extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportReport:
    """Witness data for a reverse transport: the two line maps used."""

    sub_exponents: tuple[int, ...]  # map  sub(M) -> P_target
    quotient_exponents: tuple[int, ...]  # map  N_target -> quotient(M)
    combined: tuple[int, ...]  # parameter rescaling exponents per index


def transport_reverse(
    M: PhiExtension, N_target: RankOneKisin, P_target: RankOneKisin
) -> tuple[PhiExtension, TransportReport]:
    """Pull the quotient line back while pushing the sub line forward.

    Uses maps sub(M) -> P_target and N_target -> quotient(M); the parameter
    at index i is rescaled by u to the power  cP_i + p * cN_{i-1}.  Each
    parameter must be a constant or u times a constant.
    """
    cP = _hom_twist(M.sub, P_target)
    if cP is None:
        raise ValueError("no map on the sub line")
    cN = _hom_twist(N_target, M.quotient)
    if cN is None:
        raise ValueError("no map into the quotient line")
    f = M.f
    for xi in M.x:
        if xi.is_zero() or xi.degree() == 0:
            continue
        if xi.degree() == 1 and xi.coefficient(0).is_zero():
            continue
        raise ValueError("parameters must be constants or u times constants")
    combined = tuple(cP[i] + M.quotient.p * cN[(i - 1) % f] for i in range(f))
    new_x = tuple(xi.shift(combined[i]) for i, xi in enumerate(M.x))
    M2 = PhiExtension(N_target, P_target, new_x)
    return M2, TransportReport(cP, cN, combined)


def twist_extension(M: PhiExtension, shift: Sequence[int], c: FieldElem) -> PhiExtension:
    """Tensor with the rank-one module of exponents ``shift`` and scalar c.

    Both diagonal exponents rise by shift_i and the parameter at i picks up
    (c)_i u^{shift_i}.
    """
    f = M.f
    if len(shift) != f:
        raise ValueError("shift length mismatch")
    if any(si < 0 for si in shift):
        raise ValueError("twist exponents must be >= 0")
    new_x = tuple(
        xi.shift(shift[i]).scale(_scalar_at(c, i, f)) for i, xi in enumerate(M.x)
    )
    return PhiExtension(
        twist_rank_one(M.quotient, shift, c),
        twist_rank_one(M.sub, shift, c),
        new_x,
    )


def generically_invertible(g: PhiMorphism) -> bool:
    """Whether every per-index matrix has nonzero determinant (invertible after u is inverted)."""
    for A in g.matrices:
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        if det.is_zero():
            return False
    return True


def basis_transport_audit(ctx: Context, w: Weight, J, a: FieldElem, b: FieldElem) -> TransportAuditReport:
    """subspace_transport_audit by transporting extensions at the unit pair (a, b).

    Only the zero vector and the F_p-basis e_j*X^i (X^i = F.elem(p**i),
    0 <= i < d) of each side's family are transported, each through
    transport_forward and its check_phi_morphism.  Every check is additive
    in the parameter vector x, so the passing vectors form an F_p-subspace,
    which holds the family once it holds the basis.  The values X^i matter:
    1^p = 1, so a basis e_j*1 cannot see a Frobenius-type bug.
    """
    f, p = w.f, ctx.p
    F = make_field(ctx.p, ctx.d)
    fs = forward_sets(ctx, w, J)
    J0 = set_J0(w)
    s, t = fs.st
    dim = len(fs.J - J0)
    zero = (F.zero,) * dim
    basis = [F.elem(p**i) for i in range(F.d)]
    vectors = [zero] + [zero[:j] + (c,) + zero[j + 1 :] for j in range(dim) for c in basis]

    for side, Jside, (ssd, tsd) in zip(fs.sides, fs.carriers, fs.splits):
        name = side.name
        twist_vec = tuple(1 if i in side.theta else 0 for i in range(f))
        side_support = sorted(Jside - J0)
        if len(side_support) != dim:
            raise AssertionError(f"side {name}: parameter support size differs")
        N_side = RankOneKisin(p, tuple(si + gi for si, gi in zip(ssd, twist_vec)), a)
        P_side = RankOneKisin(p, tuple(ti + gi for ti, gi in zip(tsd, twist_vec)), b)
        N_tgt = RankOneKisin(p, tuple(si + gi for si, gi in zip(s, twist_vec)), a)
        P_tgt = RankOneKisin(p, tuple(ti + gi for ti, gi in zip(t, twist_vec)), b)
        for values in vectors:
            x = [UPoly.zero(F)] * f
            for i, v in zip(side_support, values):
                x[i] = UPoly.constant(v)
            M_tgt, g = transport_forward(PhiExtension(N_side, P_side, x), N_tgt, P_tgt)
            if not generically_invertible(g):
                raise AssertionError(f"side {name}: non-invertible transport")
            # undo the twist on the parameters and compare with the irregular family
            recovered = []
            for i in range(f):
                xi = M_tgt.x[i]
                if not divides_exactly(xi, twist_vec[i]):
                    raise AssertionError(f"side {name}: parameter at {i} misses the twist factor")
                recovered.append(unshift(xi, twist_vec[i]))
            for i in range(f):
                if i not in side_support and not recovered[i].is_zero():
                    raise AssertionError(f"side {name}: unexpected parameter at {i}")
            got = tuple(recovered[i].coefficient(0) for i in side_support)
            if any(not recovered[i].is_constant() for i in side_support):
                raise AssertionError(f"side {name}: transported parameter is not constant")
            if got != values:
                raise AssertionError(f"side {name}: parameters changed under transport")

    return TransportAuditReport(dim, F.order**dim, tuple(side.name for side in fs.sides))


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeWitness:
    """A carrier set realizing an ordered pair of characters, possibly swapped."""

    J: frozenset[int]
    swapped: bool


def shape_search(
    ctx: Context, chi1: InertialChar, chi2: InertialChar, table: HTWeightTable
) -> list[ShapeWitness]:
    """All carrier sets whose split sequences realize the ordered pair (chi1, chi2)."""
    out = []
    for J in embedding_subsets(table.f):
        s, t = st_sequences(table, J)
        cs, ct = char_of_exponents(ctx, s), char_of_exponents(ctx, t)
        if cs == chi1 and ct == chi2:
            out.append(ShapeWitness(J, swapped=False))
        elif cs == chi2 and ct == chi1:
            out.append(ShapeWitness(J, swapped=True))
    return out


def backward_dichotomy_block(w: Weight, Jprime, aux_of: Callable[[int], frozenset]) -> Optional[tuple[int, ...]]:
    """The indices of the first block whose dichotomy the base set and the
    auxiliary carriers aux_of(nu) violate, else None: either nu and its tail
    lie in the base set with the tail off the auxiliary set, or the reverse."""
    Jp = embedding_set(w.f, Jprime)
    for blk in blocks(w):
        Jaux = aux_of(blk.nu)
        part = (blk.nu, *blk.tail)
        if blk.nu in Jp:
            ok = all(i in Jp for i in part) and all(i not in Jaux for i in blk.tail)
        else:
            ok = all(i not in Jp for i in part) and all(i in Jaux for i in blk.tail)
        if not ok:
            return blk.indices
    return None


def check_congruence(p: int, sA, sB, modulus: int) -> bool:
    """Whether sum (sA_i - sB_i) p^(len-1-i) vanishes mod modulus: the
    congruence forward_sets and the backward reconstruction check inline."""
    if len(sA) != len(sB):
        raise ValueError("sequences of different length")
    return (weighted_sum(p, sA) - weighted_sum(p, sB)) % modulus == 0


def check_congruence_by_powers(p: int, sA, sB, modulus: int) -> bool:
    """Whether sum (sA_i - sB_i) p^(len-1-i) vanishes mod modulus, one power per term."""
    return weighted_sum_by_powers(p, [a - b for a, b in zip(sA, sB)]) % modulus == 0


def congruence_doc(ctx: Context, w: Weight, J, carriers) -> dict:
    """Per-side verdicts of the weighted congruences between the split of
    (w, J) and each side's split along its carrier, as forward ``match``
    reports them; ``carriers`` follows companion_sides(w)."""
    s, t = st_sequences(ht_table(w), embedding_set(w.f, J))
    out = {}
    for side, Jside in zip(companion_sides(w), carriers):
        ss, ts = st_sequences(side.table, embedding_set(w.f, Jside))
        out[side.name] = {
            "upper": check_congruence(ctx.p, s, ss, ctx.m1),
            "lower": check_congruence(ctx.p, t, ts, ctx.m1),
        }
    return out


# ---------------------------------------------------------------------------
# the quadratic frame restated on Z/2f
# ---------------------------------------------------------------------------


def lift_in(J, i: int, f: int) -> int:
    """The lift of index i that lies in the balanced carrier J."""
    return i if i in J else i + f


def quad_witness(f: int, J, J0, bd: tuple[Block, ...], theta) -> frozenset[int]:
    """Carrier for a companion side: on each block's trailing k=1 run, take
    the lifts following the marked element's in-J lift (or the opposite lift
    for the blocks whose marked element is in the side's ``theta``)."""
    out = {q for q in J if q % f not in J0}
    for blk in bd:
        anchor = lift_in(J, blk.nu, f)
        if blk.nu in theta:
            anchor = (anchor + f) % (2 * f)
        for n in range(1, len(blk.tail) + 1):
            out.add((anchor + n) % (2 * f))
    return frozenset(out)


def char_exponent_by_powers(table: HTWeightTable, J) -> int:
    """Exponent mod p^{2f}-1 of the character of J: index q carries the first
    entry of row q mod f on J and the second off it, weighted by p^{2f-1-q}."""
    p, f = table.p, table.f
    Jset = embedding_set(2 * f, J)
    total = 0
    for q in range(2 * f):
        b1, b2 = table.rows[q % f]
        total += (b1 if q in Jset else b2) * p ** (2 * f - 1 - q)
    return total % (p ** (2 * f) - 1)


def complement_exponent(table: HTWeightTable, J) -> int:
    """Exponent of the opposite character (table entries swapped on J)."""
    return _exponents(table, J)[1]


def complement_exponent_by_powers(table: HTWeightTable, J) -> int:
    """Exponent of the opposite character: the character of the complement of J."""
    return char_exponent_by_powers(table, frozenset(range(2 * table.f)) - embedding_set(2 * table.f, J))


def achievable_by_balanced_sets(table: HTWeightTable) -> frozenset[int]:
    """Character exponents of all balanced carriers, one carrier at a time."""
    return frozenset(char_exponent_by_powers(table, J) for J in balanced_sets(table.f))


def achievable_pairs_by_chars(ctx: Context, table: HTWeightTable) -> frozenset[frozenset[int]]:
    """Unordered exponent pairs of all carrier sets, through InertialChar."""
    out = set()
    for J in embedding_subsets(table.f):
        s, t = st_sequences(table, J)
        e1 = InertialChar(ctx.p, ctx.f, 1, weighted_sum_by_powers(ctx.p, s)).exponent
        e2 = InertialChar(ctx.p, ctx.f, 1, weighted_sum_by_powers(ctx.p, t)).exponent
        out.add(frozenset((e1, e2)))
    return frozenset(out)


def quad_dichotomy_holds(w: Weight, Jprime) -> bool:
    """Whether each lift of a marked element agrees with the lifts of its
    block's trailing k=1 run: all in or all out of the base carrier."""
    f = w.f
    for blk in blocks(w):
        for q in (blk.nu, blk.nu + f):
            inside = q in Jprime
            for n in range(1, len(blk.tail) + 1):
                if (((q + n) % (2 * f)) in Jprime) != inside:
                    return False
    return True


# ---------------------------------------------------------------------------
# weights and JSON
# ---------------------------------------------------------------------------


def valid_weights(p: int, f: int) -> list[Weight]:
    """Every valid irregular weight at (p, f), ascending: the filter of all p^f tuples."""
    ks = itertools.product(range(1, p + 1), repeat=f)
    return [Weight(p, k) for k in ks if irregular_refusal(p, k) is None]


def in_range(table: HTWeightTable) -> bool:
    """Whether all gaps of the table lie in [1, p] (liftable range)."""
    return all(1 <= g <= table.p for g in table.gaps())


def set_M_by_walk(w: Weight) -> frozenset[int]:
    """set_M walking forward from each i + 1 through its run of 2s."""
    k, f = w.k, w.f
    out = set()
    for i in range(f):
        j = (i + 1) % f
        steps = 0
        while k[j] == 2 and steps < f:
            j = (j + 1) % f
            steps += 1
        if k[j] == 1 and steps < f:
            out.add(i)
    return frozenset(out)


def set_Mtilde_by_walk(w: Weight) -> frozenset[int]:
    """set_Mtilde walking backward from i - 1 through its run of 2s."""
    k, f = w.k, w.f
    M = set_M_by_walk(w)
    out = set()
    for i in range(f):
        if k[i] >= 3 and i in M:
            out.add(i)
        elif k[i] == 2 and k[(i + 1) % f] == 1:
            j = (i - 1) % f
            steps = 0
            while k[j] == 2 and steps < f:
                j = (j - 1) % f
                steps += 1
            if k[j] == 1 and steps < f:
                out.add(i)
    return frozenset(out)


def st_sequences_two_pass(table: HTWeightTable, J) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a table along J, one pass for s and one for t."""
    Jset = embedding_set(table.f, J)
    s = tuple(b1 if i in Jset else b2 for i, (b1, b2) in enumerate(table.rows))
    t = tuple(b2 if i in Jset else b1 for i, (b1, b2) in enumerate(table.rows))
    return s, t


def normalize_twist(w: Weight) -> tuple[Weight, tuple[int, ...]]:
    """Split off the twist: return ((k, 0), l)."""
    return Weight(w.p, w.k), w.l


def jsonable(x: Any) -> Any:
    """Convert a value into deterministic JSON-safe data: the recursive copy
    that kisinweights.cli.dumps once handed to json.dumps.

    Big integers become decimal strings, sets become sorted lists, records
    (anything with _asdict) and dataclasses become dicts.
    """
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x) if abs(x) >= JSON_INT_LIMIT else x
    if isinstance(x, (frozenset, set)):
        return [jsonable(v) for v in sorted(x)]
    if hasattr(x, "_asdict") and not isinstance(x, type):
        return jsonable(x._asdict())
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {fld.name: jsonable(getattr(x, fld.name)) for fld in dataclasses.fields(x)}
    raise TypeError(f"cannot serialize {type(x).__name__}")


def decode_int(x: Any) -> int:
    """Inverse of the big-integer encoding of kisinweights.cli.jsonable."""
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return int(x)
    raise TypeError(f"not an encoded integer: {x!r}")


# ---------------------------------------------------------------------------
# the class suites word by word
# ---------------------------------------------------------------------------


def alpha_tables_by_words(ctx: Context) -> dict:
    """suite_alpha_tables auditing every valid type word, not one per rotation class."""
    configurations = 0
    for w, n in weight_classes(ctx.p, ctx.f, _type_letter):
        for J in basis_carriers(ctx.f):
            appendix_alpha_audit(ctx, w, J)
        configurations += n * 2**ctx.f
    return {"outcome": "pass", "configurations": configurations}


def exceptional_by_words(ctx: Context) -> dict:
    """suite_exceptional auditing every live class word and summing every type
    word, not one of each per rotation class."""
    p = ctx.p
    classify = lambda x: x if x <= 3 or x >= p - 1 else 4
    letters = set(map(classify, range(1, p + 1)))
    sides = lambda a, b: (p - 1 if b == 1 else p,) if a == 1 else (a - 2, a) if b == 1 else (a - 1,)  # r_i at k_i, k_{i+1}
    passes = lambda x, y: y in (0, 1, p - 1, p) and (x in (1, p - 1)) == (y in (p - 1, p))  # in_Pprime at i
    windows = {(a, b, c) for a in letters for b in letters for c in letters
               if passes(a - 1, b - 1) or any(passes(x, y) for x in sides(a, b) for y in sides(b, c))}
    unconstrained = 0
    for w, n in weight_classes(p, ctx.f, classify, windows):
        report = exceptional_audit(ctx, w)
        unconstrained += n * len(report.unconstrained_hits)
        if not report.ok:
            hits = {"irregular_hits": report.irregular_hits, "constrained_hits": report.constrained_hits}
            return {"outcome": "fail", "counterexample": {"k": w.k, **hits}}
    weights = sum(n for _, n in weight_classes(p, ctx.f, _type_letter))
    return {"outcome": "pass", "weights": weights, "unconstrained_hits": unconstrained}


def irr_equiv_by_words(ctx: Context) -> dict:
    """suite_irr_equiv without --k auditing every valid weight, not one per rotation class."""
    weights = [w for w, _ in weight_classes(ctx.p, ctx.f, _value_letter)]
    total = 0
    for w in weights:
        report = irr_equivalence_audit(w)
        total += report.checked
        if not report.ok:
            return {"outcome": "fail", "counterexample": {"k": w.k, "exponents": report.counterexamples[:5]}}
    return {"outcome": "pass", "weights": len(weights), "exponents_checked": total}


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


def _typed(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """convert, refusing a bad value with its own text, as argparse prints an ArgumentTypeError."""
    if convert is int or convert is str:  # argparse words int's refusal itself
        return convert

    def typed(text: str) -> Any:
        try:
            return convert(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return typed


class ArgparseReader:
    """The argparse tree the frontend once built from ``kisinweights.cli.OPTIONS``,
    with the frontend's ``parse_args``: a token led by "-" and a digit is a value
    (``--shard -1/2``), and an argument the subcommand does not take is refused with
    that subcommand's usage line, not the root's."""

    def __init__(self) -> None:
        self.parser = argparse.ArgumentParser(prog="kisinweights", description="Exact weight-shift, matching and verification queries.")
        sub = self.parser.add_subparsers(dest="subcommand", required=True)
        self.subparsers = {}
        for name, (text, options) in OPTIONS.items():
            sp = self.subparsers[name] = sub.add_parser(name, help=text)
            sp._negative_number_matcher = re.compile(r"-\.?\d")
            for opt in options:
                kw = {} if opt.action == "store_true" else {"type": _typed(opt.convert), "metavar": opt.metavar, "choices": opt.choices}
                sp.add_argument(opt.flag, action=opt.action, required=opt.required, default=opt.default, help=opt.help, **kw)

    def parse_args(self, argv: Sequence[str]) -> argparse.Namespace:
        args, extra = self.parser.parse_known_args(argv)
        if extra:
            self.subparsers[args.subcommand].error(f"unrecognized arguments: {' '.join(extra)}")
        return args


@functools.lru_cache(maxsize=None)
def argparse_reader() -> ArgparseReader:
    """One ArgparseReader per process: building the tree takes about a millisecond."""
    return ArgparseReader()
