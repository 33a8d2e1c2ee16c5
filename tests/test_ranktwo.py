"""Rank-two extensions: normal forms, exact morphism checks, transports."""

import pytest
from hypothesis import given, settings, strategies as st

from kisinweights.field import UPoly, make_field, poly_phi
from kisinweights.rankone import ExtensionType, RankOneKisin
from kisinweights.ranktwo import (
    PhiExtension,
    PhiMorphism,
    build_extension,
    check_phi_morphism,
    transport_forward,
)
from oracles import generically_invertible, transport_reverse, twist_extension, valuation

F3 = make_field(3, 1)
ONE = F3.one
TWO = F3.elem(2)


def const_vec(values, field=F3):
    return tuple(
        UPoly.constant(v) if v is not None else UPoly.zero(field) for v in values
    )


def test_extension_validation():
    N = RankOneKisin(3, (2, 0), ONE)
    P = RankOneKisin(3, (0, 2), ONE)
    M = PhiExtension(N, P, const_vec([ONE, None]))
    assert M.quotient.r == (2, 0) and M.sub.r == (0, 2)
    with pytest.raises(ValueError):
        PhiExtension(RankOneKisin(3, (-1, 0), ONE), P, const_vec([None, None]))
    with pytest.raises(ValueError):
        PhiExtension(N, P, const_vec([ONE]))


def test_identity_is_a_morphism():
    N = RankOneKisin(3, (2, 0), ONE)
    P = RankOneKisin(3, (0, 2), TWO)
    M = PhiExtension(N, P, const_vec([ONE, None]))
    g = PhiMorphism.diagonal(F3, (0, 0), (0, 0))
    assert check_phi_morphism(g, M, M)
    assert generically_invertible(g)


def test_morphism_detects_mismatch():
    N = RankOneKisin(3, (2, 0), ONE)
    P = RankOneKisin(3, (0, 2), ONE)
    M1 = PhiExtension(N, P, const_vec([ONE, None]))
    M2 = PhiExtension(N, P, const_vec([TWO, None]))
    g = PhiMorphism.diagonal(F3, (0, 0), (0, 0))
    assert not check_phi_morphism(g, M1, M2)


def test_build_extension_normal_form():
    ext = ExtensionType(3, (2, 2), ONE, ONE, frozenset({0}))
    M = build_extension(ext, const_vec([ONE, None]))
    assert M.quotient.r == (2, 0) and M.sub.r == (0, 2)
    # parameter outside the carrier refused
    with pytest.raises(ValueError):
        build_extension(ext, const_vec([None, ONE]))


def test_build_extension_exceptional_slot():
    # r = (3, 0, 1), J = {0, 1}, a = b: the exceptional degree-p term is legal
    ext = ExtensionType(3, (3, 0, 1), ONE, ONE, frozenset({0, 1}))
    x0 = UPoly.constant(ONE) + UPoly.monomial(TWO, 3)
    build_extension(ext, (x0, UPoly.zero(F3), UPoly.zero(F3)))
    # but not when the scalars differ
    ext2 = ExtensionType(3, (3, 0, 1), ONE, TWO, frozenset({0, 1}))
    with pytest.raises(ValueError):
        build_extension(ext2, (x0, UPoly.zero(F3), UPoly.zero(F3)))


def test_transport_forward_example():
    # quotient (1,3) maps to (2,0) with twist exponents (1,0); the parameter
    # at index 1 sits where the twist exponent at index 0 vanishes
    N = RankOneKisin(3, (1, 3), ONE)
    P = RankOneKisin(3, (2, 0), ONE)
    M = PhiExtension(P, N, const_vec([None, ONE]))  # quotient (2,0), sub (1,3)
    N_tgt = RankOneKisin(3, (2, 0), ONE)
    P_tgt = RankOneKisin(3, (2, 0), ONE)
    M2, g = transport_forward(M, N_tgt, P_tgt)
    assert check_phi_morphism(g, M, M2)
    assert generically_invertible(g)
    # sub twist exponents (1,0) shift the parameter at index 1 by 0
    assert M2.x[1] == UPoly.constant(ONE)


def test_transport_forward_obstruction():
    # nonzero parameter where the quotient twist exponent does not vanish
    N = RankOneKisin(3, (2, 0), ONE)
    M = PhiExtension(N, RankOneKisin(3, (1, 3), ONE), const_vec([None, ONE]))
    with pytest.raises(ValueError):
        transport_forward(M, RankOneKisin(3, (1, 3), ONE), RankOneKisin(3, (1, 3), ONE))


def test_transport_reverse_combined_exponents():
    N = RankOneKisin(3, (2, 0), ONE)
    P = RankOneKisin(3, (1, 3), ONE)
    M = PhiExtension(N, P, const_vec([None, ONE]))
    P_tgt = RankOneKisin(3, (2, 0), ONE)
    N_src = RankOneKisin(3, (1, 3), ONE)
    M2, report = transport_reverse(M, N_src, P_tgt)
    # parameter rescaling exponent at i is cP_i + p * cN_{i-1}
    assert report.combined == tuple(
        report.sub_exponents[i] + 3 * report.quotient_exponents[(i - 1) % 2]
        for i in range(2)
    )
    assert valuation(M2.x[1]) == report.combined[1]


def test_twist_extension():
    N = RankOneKisin(3, (2, 0), ONE)
    P = RankOneKisin(3, (0, 2), ONE)
    M = PhiExtension(N, P, const_vec([ONE, None]))
    T = twist_extension(M, (1, 2), TWO)
    assert T.quotient.r == (3, 2) and T.sub.r == (1, 4)
    # the parameter picks up the twist: scalar at index 0, u^{shift_0}
    assert valuation(T.x[0]) == 1
    assert T.x[0].coefficient(1) == TWO
    assert T.x[1].is_zero()


def test_twist_preserves_morphisms():
    # twisting both source and target keeps the identity equivariant
    N = RankOneKisin(3, (2, 1), ONE)
    P = RankOneKisin(3, (1, 2), TWO)
    M = PhiExtension(N, P, const_vec([ONE, None]))
    T = twist_extension(M, (2, 1), TWO)
    g = PhiMorphism.diagonal(F3, (0, 0), (0, 0))
    assert check_phi_morphism(g, T, T)


def _reference_check(g, src, dst):
    """The 4f identities written as products of constants and monomials in F[u]."""
    F, f = src.field, src.f
    for i in range(f):
        A, B = g.matrices[i], g.matrices[(i - 1) % f]
        b, a, bp, ap = (
            UPoly.constant(c if i == 0 else F.one)
            for c in (src.sub.a, src.quotient.a, dst.sub.a, dst.quotient.a)
        )
        ut, us, utp, usp = (
            UPoly.monomial(F.one, n)
            for n in (src.sub.r[i], src.quotient.r[i], dst.sub.r[i], dst.quotient.r[i])
        )
        x, xp, ph = src.x[i], dst.x[i], poly_phi
        if b * ut * A[0][0] != ph(B[0][0]) * bp * utp + ph(B[1][0]) * xp:
            return False
        if b * ut * A[1][0] != ph(B[1][0]) * ap * usp:
            return False
        if a * us * A[0][1] + x * A[0][0] != ph(B[0][1]) * bp * utp + ph(B[1][1]) * xp:
            return False
        if a * us * A[1][1] + x * A[1][0] != ph(B[1][1]) * ap * usp:
            return False
    return True


@st.composite
def morphism_cases(draw):
    """(g, src, dst) around a true case, with at most one entry of g or one parameter redrawn.

    Either a forward transport (nonzero parameters, diagonal g), or split
    extensions with one nonzero block of g: the map of one line of src to
    one line of dst along twist exponents c >= 0, so each of the four
    identities is exercised on its own.
    """
    p, F = 3, make_field(3, 2)
    f = draw(st.integers(1, 3))
    elems = st.integers(0, F.order - 1).map(F.elem)
    units = st.integers(1, F.order - 1).map(F.elem)
    polys = st.dictionaries(st.integers(0, 6), elems, max_size=2).map(
        lambda terms: sum((UPoly.monomial(c, n) for n, c in terms.items()), UPoly.zero(F))
    )
    small = st.lists(st.integers(0, 2), min_size=f, max_size=f)
    line = st.builds(lambda r, a: RankOneKisin(p, r, a), small, units)
    c, base = draw(small), draw(small)
    # a line with exponents r and its target along c: r_i - r'_i = p c_{i-1} - c_i
    r = [base[i] + p * c[i - 1] for i in range(f)]
    S = RankOneKisin(p, r, draw(units))
    T = RankOneKisin(p, [r[i] - p * c[i - 1] + c[i] for i in range(f)], S.a)
    zero = UPoly.zero(F)
    if draw(st.booleans()):
        src = PhiExtension(draw(line), S, draw(st.lists(elems.map(UPoly.constant), min_size=f, max_size=f)))
        dst, g = transport_forward(src, src.quotient, T)
    else:
        row, col = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        src_lines = (draw(line), S) if col == 0 else (S, draw(line))  # (quotient, sub)
        dst_lines = (draw(line), T) if row == 0 else (T, draw(line))
        src = PhiExtension(*src_lines, (zero,) * f)
        dst = PhiExtension(*dst_lines, (zero,) * f)
        mats = [[[zero, zero], [zero, zero]] for _ in range(f)]
        for i in range(f):
            mats[i][row][col] = UPoly.monomial(F.one, c[i])
        g = PhiMorphism(tuple(tuple(map(tuple, A)) for A in mats))
    i = draw(st.integers(0, f - 1))
    choice = draw(st.sampled_from(["none", "src_x", "dst_x", "entry"]))
    if choice == "src_x":
        src = PhiExtension(src.quotient, src.sub, src.x[:i] + (draw(polys),) + src.x[i + 1 :])
    elif choice == "dst_x":
        dst = PhiExtension(dst.quotient, dst.sub, dst.x[:i] + (draw(polys),) + dst.x[i + 1 :])
    elif choice == "entry":
        mats = [list(map(list, A)) for A in g.matrices]
        mats[i][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(polys)
        g = PhiMorphism(tuple(tuple(map(tuple, A)) for A in mats))
    return g, src, dst


@settings(max_examples=300)
@given(morphism_cases())
def test_check_phi_morphism_matches_product_form(case):
    g, src, dst = case
    assert check_phi_morphism(g, src, dst) == _reference_check(g, src, dst)


N20 = RankOneKisin(3, (2, 0), ONE)
P02 = RankOneKisin(3, (0, 2), ONE)
M20 = PhiExtension(N20, P02, const_vec([ONE, None]))


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: PhiExtension(RankOneKisin(5, (2, 0), make_field(5, 1).one), P02, const_vec([None, None])),
            "quotient and sub over different rings",
        ),
        (lambda: check_phi_morphism(PhiMorphism.diagonal(F3, (0,), (0,)), M20, M20), "size mismatch"),
        (lambda: build_extension(ExtensionType(3, (2, 2), ONE, ONE, {0}), const_vec([ONE])), "need one parameter per index"),
        # r = 0: no parameter unless the type is exceptional (a = b), then one constant one
        (
            lambda: build_extension(ExtensionType(3, (0, 0), ONE, TWO, ()), const_vec([ONE, None])),
            "parameter at 0 must vanish (split type)",
        ),
        (
            lambda: build_extension(ExtensionType(3, (0, 0), ONE, ONE, ()), (UPoly.zero(F3), UPoly.monomial(ONE, 1))),
            "parameter at 1 must be constant",
        ),
        (
            lambda: build_extension(ExtensionType(3, (0, 0), ONE, ONE, ()), const_vec([ONE, TWO])),
            "at most one exceptional parameter slot is allowed",
        ),
        (lambda: transport_forward(M20, N20, RankOneKisin(3, (0, 2), TWO)), "no map on the sub line"),
    ],
    ids=["different-rings", "morphism-size", "parameter-count", "split-type", "not-constant", "two-slots",
         "no-sub-map"],
)
def test_ranktwo_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
