"""Reference helpers used only by the tests: small closed forms the package
itself no longer needs, kept as oracles for the code that replaced them."""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from kisinweights.chars import InertialChar, char_of_exponents
from kisinweights.field import Context
from kisinweights.matching import check_congruence
from kisinweights.rankone import RankOneKisin, _hom_twist, alpha, embedding_set
from kisinweights.weights import HTWeightTable, Weight, companion_sides, ht_table, st_sequences

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
        and a.exponent % a.modulus == b.exponent % b.modulus
    )


def frobenius_twist(a: InertialChar, steps: int = 1) -> InertialChar:
    """Compose with Frobenius ``steps`` times: exponent scales by p^steps."""
    return InertialChar(a.p, a.f, a.niveau, a.exponent * pow(a.p, steps, a.modulus))


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


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def check_congruence_by_powers(p: int, sA, sB, modulus: int) -> bool:
    """Whether sum (sA_i - sB_i) p^(len-1-i) vanishes mod modulus, one power per term."""
    return weighted_sum_by_powers(p, [a - b for a, b in zip(sA, sB)]) % modulus == 0


def congruence_doc(ctx: Context, w: Weight, J, carriers) -> dict:
    """Per-side verdicts of the weighted congruences between the split of
    (w, J) and each side's split along its carrier, as forward ``match``
    reports them; ``carriers`` follows companion_sides(w)."""
    s, t = st_sequences(ht_table(w), J)
    out = {}
    for side, Jside in zip(companion_sides(w), carriers):
        ss, ts = st_sequences(side.table, Jside)
        out[side.name] = {
            "upper": check_congruence(ctx.p, s, ss, ctx.m1),
            "lower": check_congruence(ctx.p, t, ts, ctx.m1),
        }
    return out


# ---------------------------------------------------------------------------
# weights and JSON
# ---------------------------------------------------------------------------


def st_sequences_two_pass(table: HTWeightTable, J) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a table along J, one pass for s and one for t."""
    Jset = embedding_set(table.f, J)
    s = tuple(b1 if i in Jset else b2 for i, (b1, b2) in enumerate(table.rows))
    t = tuple(b2 if i in Jset else b1 for i, (b1, b2) in enumerate(table.rows))
    return s, t


def normalize_twist(w: Weight) -> tuple[Weight, tuple[int, ...]]:
    """Split off the twist: return ((k, 0), l)."""
    return Weight(w.p, w.k), w.l


def decode_int(x: Any) -> int:
    """Inverse of the big-integer encoding of kisinweights.cli.jsonable."""
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return int(x)
    raise TypeError(f"not an encoded integer: {x!r}")
