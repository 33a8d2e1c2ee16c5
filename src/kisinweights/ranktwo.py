"""Rank-two Frobenius modules: extensions of one rank-one module by another.

An extension is stored by its quotient line N (exponents s_i, scalar a), its
sub line P (exponents t_i, scalar b) and the off-diagonal parameters x_i.
On basis vectors the Frobenius acts by

    phi(e_{i-1}) = (b)_i u^{t_i} e_i
    phi(f_{i-1}) = (a)_i u^{s_i} f_i + x_i e_i

with the scalar inserted only at i = 0.  Morphisms are per-index 2x2 matrices
over F[u]; compatibility with phi is checked exactly, coefficient by
coefficient.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .field import FieldElem, FiniteField, UPoly, poly_phi
from .rankone import ExtensionType, RankOneKisin, _hom_twist, exceptional_case


class PhiExtension(
    NamedTuple("PhiExtension", [("quotient", RankOneKisin), ("sub", RankOneKisin), ("x", tuple[UPoly, ...])])
):
    """Extension of quotient line N = (s; a) by sub line P = (t; b), parameters x_i."""

    __slots__ = ()

    def __new__(cls, quotient: RankOneKisin, sub: RankOneKisin, x: Iterable[UPoly]) -> "PhiExtension":
        x = tuple(x)
        if (quotient.p, quotient.f) != (sub.p, sub.f):
            raise ValueError("quotient and sub over different rings")
        if len(x) != quotient.f:
            raise ValueError("need one parameter per index")
        if any(si < 0 for si in quotient.r) or any(ti < 0 for ti in sub.r):
            raise ValueError("extension exponents must be effective (twist first)")
        return super().__new__(cls, quotient, sub, x)

    @property
    def p(self) -> int:
        return self.quotient.p

    @property
    def f(self) -> int:
        return self.quotient.f

    @property
    def field(self) -> FiniteField:
        return self.quotient.a.field

    def s(self) -> tuple[int, ...]:
        return self.quotient.r

    def t(self) -> tuple[int, ...]:
        return self.sub.r


class PhiMorphism(NamedTuple):
    """Per-index matrices; column 0/1 = image of (e_i, f_i) in the (e'_i, f'_i) basis."""

    matrices: tuple[tuple[tuple[UPoly, UPoly], tuple[UPoly, UPoly]], ...]

    @classmethod
    def diagonal(cls, field: FiniteField, sub_exps: Sequence[int], quot_exps: Sequence[int]) -> "PhiMorphism":
        """e_i -> u^{sub_exps[i]} e'_i,  f_i -> u^{quot_exps[i]} f'_i."""
        zero = UPoly.zero(field)
        mats = []
        for ce, cf in zip(sub_exps, quot_exps):
            mats.append(
                (
                    (UPoly.monomial(field.one, ce), zero),
                    (zero, UPoly.monomial(field.one, cf)),
                )
            )
        return cls(tuple(mats))


def _scalar_at(c: FieldElem, i: int, f: int) -> FieldElem:
    return c if i % f == 0 else c.field.one


def check_phi_morphism(g: PhiMorphism, src: PhiExtension, dst: PhiExtension) -> bool:
    """Exact phi-equivariance check: all 4f polynomial identities."""
    f = src.f
    if dst.f != f or len(g.matrices) != f:
        raise ValueError("size mismatch")
    for i in range(f):
        A = g.matrices[i]
        B = g.matrices[(i - 1) % f]
        b_i, a_i = _scalar_at(src.sub.a, i, f), _scalar_at(src.quotient.a, i, f)
        bp_i, ap_i = _scalar_at(dst.sub.a, i, f), _scalar_at(dst.quotient.a, i, f)
        t, s, x_i = src.sub.r[i], src.quotient.r[i], src.x[i]
        tp, sp, xp_i = dst.sub.r[i], dst.quotient.r[i], dst.x[i]
        phi_B = [[poly_phi(entry) for entry in row] for row in B]

        # image of phi(e_{i-1})
        lhs_e_e = A[0][0].shift(t).scale(b_i)
        lhs_e_f = A[1][0].shift(t).scale(b_i)
        rhs_e_e = phi_B[0][0].shift(tp).scale(bp_i) + phi_B[1][0] * xp_i
        rhs_e_f = phi_B[1][0].shift(sp).scale(ap_i)
        if lhs_e_e != rhs_e_e or lhs_e_f != rhs_e_f:
            return False

        # image of phi(f_{i-1})
        lhs_f_e = A[0][1].shift(s).scale(a_i) + x_i * A[0][0]
        lhs_f_f = A[1][1].shift(s).scale(a_i) + x_i * A[1][0]
        rhs_f_e = phi_B[0][1].shift(tp).scale(bp_i) + phi_B[1][1] * xp_i
        rhs_f_f = phi_B[1][1].shift(sp).scale(ap_i)
        if lhs_f_e != rhs_f_e or lhs_f_f != rhs_f_f:
            return False
    return True


# ---------------------------------------------------------------------------
# normal-form constructor
# ---------------------------------------------------------------------------


def build_extension(ext: ExtensionType, x: Sequence[UPoly]) -> PhiExtension:
    """Assemble the normal-form extension attached to an extension type.

    Parameters x_i must be constants supported on J away from r_i = 0.  In
    the exceptional case one parameter may additionally carry a degree-p term
    (or, if all r_i vanish, a single constant parameter anywhere is allowed).
    """
    f = ext.f
    if len(x) != f:
        raise ValueError("need one parameter per index")
    exceptional = exceptional_case(ext)
    all_zero = all(ri == 0 for ri in ext.r)
    extra_used = 0
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        plain_slot = i in ext.J and ext.r[i] != 0
        if all_zero:
            if not exceptional:
                raise ValueError(f"parameter at {i} must vanish (split type)")
            if not xi.is_constant():
                raise ValueError(f"parameter at {i} must be constant")
            extra_used += 1
            continue
        if not plain_slot:
            raise ValueError(f"parameter at {i} must vanish (outside carrier or r_i = 0)")
        if xi.is_constant():
            continue
        degree_p_shape = (
            xi.degree() == ext.p
            and all(xi.coefficient(n).is_zero() for n in range(1, ext.p))
        )
        if exceptional and degree_p_shape:
            extra_used += 1
            continue
        raise ValueError(f"parameter at {i} is not in normal form")
    if extra_used > 1:
        raise ValueError("at most one exceptional parameter slot is allowed")
    return PhiExtension(ext.quotient(), ext.sub(), tuple(x))


# ---------------------------------------------------------------------------
# transports between extension groups
# ---------------------------------------------------------------------------


def transport_forward(
    M: PhiExtension, N_target: RankOneKisin, P_target: RankOneKisin
) -> tuple[PhiExtension, PhiMorphism]:
    """Push M along maps of both lines: quotient -> N_target, sub -> P_target.

    Requires maps on both lines and, wherever x_i is nonzero, a vanishing
    quotient twist exponent at i-1.  Returns the transported extension and
    the diagonal morphism witnessing it; phi-equivariance is re-checked.
    """
    cN = _hom_twist(M.quotient, N_target)
    if cN is None:
        raise ValueError("no map on the quotient line")
    cP = _hom_twist(M.sub, P_target)
    if cP is None:
        raise ValueError("no map on the sub line")
    f = M.f
    for i in range(f):
        if not M.x[i].is_zero() and cN[(i - 1) % f] != 0:
            raise ValueError(f"obstructed at {i}: quotient twist exponent {cN[(i - 1) % f]} != 0")
    new_x = tuple(xi.shift(cP[i]) for i, xi in enumerate(M.x))
    M2 = PhiExtension(N_target, P_target, new_x)
    g = PhiMorphism.diagonal(M.field, cP, cN)
    if not check_phi_morphism(g, M, M2):
        raise AssertionError("transport produced a non-equivariant map")
    return M2, g
