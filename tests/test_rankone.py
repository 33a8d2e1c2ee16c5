"""Rank-one modules: slopes, maps, patterns, cyclic decomposition, canonical carrier."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kisinweights import cli
from kisinweights.field import Context, make_field
from kisinweights.rankone import (
    ExtensionType,
    RankOneKisin,
    alpha,
    alpha_seq,
    carrier_weight,
    decompose_cyclic,
    exceptional_case,
    exponents_from_slopes,
    hom_exists,
    in_Pprime,
    integer_slopes,
    jmax,
    necessary_map_conditions,
    weighted_sum,
)
from oracles import (
    alpha_diff,
    decompose_cyclic_by_walk,
    hom_exponents,
    in_Pprime_by_walk,
    inertial_char,
    tS_iso,
    twist_rank_one,
)

F3 = make_field(3, 1)
ONE = F3.one


def mod(r, a=ONE, p=3):
    return RankOneKisin(p, r, a)


def test_alpha_values():
    N = mod((1, 2, 3))
    assert alpha(N, 0) == Fraction(14, 13)
    assert alpha(N, 1) == Fraction(16, 13)
    assert alpha(N, 2) == Fraction(9, 13)


def test_alpha_identity_exhaustive():
    for p in (3, 5):
        one = make_field(p, 1).one
        for f in (1, 2, 3):
            for r in itertools.product(range(p + 1), repeat=f):
                N = RankOneKisin(p, r, one)
                for i in range(f):
                    assert alpha(N, i) + r[i] == p * alpha(N, i - 1)


def first_identity_failure(p, f, slopes):
    """The first (r, i) of a scan of [0, p]^f with slopes(p, r, i) + r_i != p * slopes(p, r, i - 1)."""
    for r in itertools.product(range(p + 1), repeat=f):
        alpha_r = [slopes(p, r, i) for i in range(f)]
        for i in range(f):
            if alpha_r[i] + r[i] != p * alpha_r[i - 1]:
                return r, i
    return None


def power_off_by_one(p, r, i):
    """alpha_seq with p^(f-j+1) in place of p^(f-j): wrong, and still linear in r."""
    f = len(r)
    return Fraction(sum(p ** (f - j + 1) * r[(j + i) % f] for j in range(1, f + 1)), p**f - 1)


def wrong_off_the_axes(p, r, i):
    """alpha_seq plus 1 where r has two nonzero entries: wrong, and not affine in r."""
    return alpha_seq(p, r, i) + (sum(map(bool, r)) >= 2)


BASIS_SIZES = [(3, 2), (3, 3), (5, 2), (5, 3)]


@pytest.mark.parametrize("p,f", BASIS_SIZES + [(3, 1), (7, 2)])
def test_alpha_id_suite_matches_the_scan(p, f):
    assert first_identity_failure(p, f, alpha_seq) is None
    assert cli.suite_alpha_id(Context(p, f), None) == {"outcome": "pass", "identities_checked": (p + 1) ** f * f}


@pytest.mark.parametrize("p,f", BASIS_SIZES)
def test_a_linear_mutation_fails_the_basis_and_the_scan(monkeypatch, p, f):
    monkeypatch.setattr(cli, "alpha_seq", power_off_by_one)
    doc = cli.suite_alpha_id(Context(p, f), None)
    assert doc["outcome"] == "fail"
    assert doc["counterexample"]["r"] == (1,) + (0,) * (f - 1)
    # the ascending scan of the cube meets another unit vector first
    assert first_identity_failure(p, f, power_off_by_one)[0] == (0,) * (f - 1) + (1,)


@pytest.mark.parametrize("p,f", BASIS_SIZES)
def test_a_mutation_off_the_axes_passes_the_basis_but_not_the_scan(monkeypatch, p, f):
    # the basis proves the cube only for an affine alpha_seq: the premise, not a check
    monkeypatch.setattr(cli, "alpha_seq", wrong_off_the_axes)
    assert cli.suite_alpha_id(Context(p, f), None)["outcome"] == "pass"
    assert first_identity_failure(p, f, wrong_off_the_axes) is not None


def test_alpha_diff_example():
    N1, N2 = mod((1, 3)), mod((2, 0))
    assert alpha_diff(N1, N2, 0) == 1
    assert alpha_diff(N1, N2, 1) == 0


def test_hom_exists_and_exponents():
    N1, N2 = mod((1, 3)), mod((2, 0))
    assert hom_exists(N1, N2)
    assert hom_exponents(N1, N2) == (1, 0)
    assert not hom_exists(N2, N1)


@st.composite
def module_pairs(draw):
    """(N1, N2) over F_p; half the time N1 = N2 twisted along chosen slope differences c."""
    p = draw(st.sampled_from([3, 5, 7]))
    f = draw(st.integers(1, 4))
    F = make_field(p, 1)
    r2 = draw(st.lists(st.integers(-p, 2 * p), min_size=f, max_size=f))
    if draw(st.booleans()):
        # alpha_i(N1) - alpha_i(N2) = c_i  iff  r1_i - r2_i = p c_{i-1} - c_i
        c = draw(st.lists(st.integers(-2, 3), min_size=f, max_size=f))
        r1 = [r2[i] + p * c[i - 1] - c[i] for i in range(f)]
    else:
        r1 = draw(st.lists(st.integers(-p, 2 * p), min_size=f, max_size=f))
    a2 = F.elem(draw(st.integers(1, p - 1)))
    a1 = a2 if draw(st.booleans()) else F.elem(draw(st.integers(1, p - 1)))
    return RankOneKisin(p, r1, a1), RankOneKisin(p, r2, a2)


@settings(max_examples=500)
@given(module_pairs())
def test_integer_slope_test_matches_fraction_definition(pair):
    N1, N2 = pair
    diffs = [alpha_diff(N1, N2, i) for i in range(N1.f)]
    expected = N1.a == N2.a and all(d.denominator == 1 and d >= 0 for d in diffs)
    assert hom_exists(N1, N2) == expected
    if expected:
        assert hom_exponents(N1, N2) == tuple(int(d) for d in diffs)
    else:
        with pytest.raises(ValueError):
            hom_exponents(N1, N2)


@st.composite
def slope_cases(draw):
    """(p, r); half the time r has the integer slopes c, via r_i = p c_{i-1} - c_i."""
    p = draw(st.sampled_from([3, 5, 7]))
    f = draw(st.integers(1, 5))
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(-3, 3), min_size=f, max_size=f))
        return p, [p * c[i - 1] - c[i] for i in range(f)]
    return p, draw(st.lists(st.integers(-2 * p, 2 * p), min_size=f, max_size=f))


@settings(max_examples=500)
@given(slope_cases())
def test_integer_slopes_match_fraction_definition(case):
    p, r = case
    slopes = [alpha_seq(p, r, i) for i in range(len(r))]
    if all(a.denominator == 1 for a in slopes):
        assert integer_slopes(p, r) == tuple(int(a) for a in slopes)
    else:
        assert integer_slopes(p, r) is None


def test_hom_requires_equal_scalar():
    two = F3.elem(2)
    assert not hom_exists(mod((1, 3)), RankOneKisin(3, (2, 0), two))


def test_hom_implies_character_equality():
    # a nonzero map between rank-one modules forces equal inertial characters
    ctx = Context(3, 2, 1)
    for r1 in itertools.product(range(4), repeat=2):
        for r2 in itertools.product(range(4), repeat=2):
            N1, N2 = mod(r1), mod(r2)
            if hom_exists(N1, N2):
                assert tS_iso(ctx, N1, N2)
                assert inertial_char(ctx, N1) == inertial_char(ctx, N2)


def test_twist_rank_one():
    N = mod((1, 3))
    T = twist_rank_one(N, (2, 0), ONE)
    assert T.r == (3, 3)


def test_in_Pprime_cases():
    assert in_Pprime(3, (0, 0, 0))
    assert in_Pprime(3, (3, 0, 1))
    assert not in_Pprime(3, (2, 0, 0))  # 2 is not an admissible entry for p=3
    # entry 1 must be followed appropriately: (1, 0) has no p after the 1-start
    assert not in_Pprime(3, (1, 0))
    assert in_Pprime(3, (1, 3))


def test_necessary_map_conditions_examples():
    assert necessary_map_conditions(3, (3, 0, 1), {0, 1})
    assert not necessary_map_conditions(3, (3, 0, 1), {0, 1, 2})
    assert not necessary_map_conditions(3, (3, 0, 1), {1})
    assert necessary_map_conditions(3, (0, 0), set())
    assert necessary_map_conditions(3, (0, 0), {0})


def test_weighted_sum():
    assert weighted_sum(3, (2, 2)) == 8
    assert weighted_sum(3, (-1, 2, 3)) == -9 + 6 + 3


def test_decompose_examples():
    dec = decompose_cyclic(3, (0, 0, 0))
    assert dec.flag_sign is None
    assert dec.recompose() == (0, 0, 0)

    dec = decompose_cyclic(3, (-1, 2, 3))
    assert dec.flag_sign is None
    signed = [s for s in dec.strings if s.kind == "signed"]
    assert len(signed) == 1 and signed[0].start == 0 and signed[0].length == 3
    assert dec.recompose() == (-1, 2, 3)

    dec = decompose_cyclic(3, (2, 2))
    assert dec.flag_sign == 1
    assert dec.recompose() == (2, 2)

    dec = decompose_cyclic(3, (-2, -2, -2))
    assert dec.flag_sign == -1


def test_decompose_rejects_noncongruent():
    with pytest.raises(ValueError):
        decompose_cyclic(3, (1, 0))
    with pytest.raises(ValueError):
        decompose_cyclic(3, (4, 0))


def test_slope_rules_refuse_even_p():
    # at p = 2 the slopes reach +-2 and 1 = p - 1 is both kinds of entry, so
    # the odd-p rules would answer wrongly: (1, 2) is admissible, and (2,)
    # would decompose to a flag with sign 2
    with pytest.raises(ValueError, match="odd"):
        in_Pprime(2, (1, 2))
    with pytest.raises(ValueError, match="odd"):
        decompose_cyclic(2, (2,))
    assert in_Pprime(3, (1, 3)) and decompose_cyclic(3, (2, 2)).flag_sign == 1


def test_decompose_wrapping_string():
    # a string crossing the cyclic boundary
    dec = decompose_cyclic(3, (3, 0, -1))
    assert dec.recompose() == (3, 0, -1)
    signed = [s for s in dec.strings if s.kind == "signed"]
    assert len(signed) == 1 and signed[0].start == 2


WALK_SIZES = [(3, f) for f in range(1, 6)] + [(5, f) for f in range(1, 5)] + [(7, f) for f in range(1, 4)]


@pytest.mark.parametrize("p,f", WALK_SIZES)
def test_in_Pprime_matches_the_walk(p, f):
    for r in itertools.product([*range(-1, p + 2), 2 * p], repeat=f):
        assert in_Pprime(p, r) == in_Pprime_by_walk(p, r), r


def decomposition_or_refusal(decompose, p, r):
    try:
        dec = decompose(p, r)
    except ValueError:
        return "refused"
    return dec.flag_sign, dec.strings


@pytest.mark.parametrize("p,f", WALK_SIZES)
def test_decompose_cyclic_matches_the_walk(p, f):
    for r in itertools.product(range(-p - 1, p + 2), repeat=f):
        want = decomposition_or_refusal(decompose_cyclic_by_walk, p, r)
        assert decomposition_or_refusal(decompose_cyclic, p, r) == want, r


@pytest.mark.parametrize("p,f", [(3, 6), (3, 7), (3, 8), (5, 8)])
def test_decompose_cyclic_matches_the_walk_on_every_congruent_r(p, f):
    # solved for, not scanned: the congruent r are the exponents of slopes in {-1, 0, 1}^f;
    # from f = 7 on, two zero runs, one across the end of the cycle, test the order of the runs
    for slopes in itertools.product((-1, 0, 1), repeat=f):
        r = exponents_from_slopes(p, slopes)
        if max(map(abs, r)) <= p:
            want = decomposition_or_refusal(decompose_cyclic_by_walk, p, r)
            assert decomposition_or_refusal(decompose_cyclic, p, r) == want, r


def test_jmax_example_and_idempotence():
    assert jmax(3, (1, 2, 3), {0}) == frozenset({1, 2})
    for r in itertools.product(range(4), repeat=3):
        if r == (2, 2, 2):
            # the constant flag tuple ties the empty and full carriers
            with pytest.raises(ValueError):
                jmax(3, r, frozenset())
            continue
        for mask in range(8):
            J = frozenset(i for i in range(3) if mask >> i & 1)
            JM = jmax(3, r, J)
            # canonical, h-invariant, and idempotent
            assert carrier_weight(3, r, JM) % 26 == carrier_weight(3, r, J) % 26
            assert jmax(3, r, JM) == JM
            assert all(r[i] != 0 for i in JM)


def test_exceptional_case():
    two = F3.elem(2)
    ext = ExtensionType(3, (3, 0, 1), ONE, ONE, frozenset({0, 1}))
    assert exceptional_case(ext)
    ext2 = ExtensionType(3, (3, 0, 1), ONE, two, frozenset({0, 1}))
    assert not exceptional_case(ext2)  # scalars differ
    ext3 = ExtensionType(3, (3, 0, 1), ONE, ONE, frozenset({0, 1, 2}))
    assert not exceptional_case(ext3)  # carrier violates the pattern conditions


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: RankOneKisin(3, (), make_field(3, 1).one), "need at least one exponent"),
        (lambda: RankOneKisin(3, (1, 2), make_field(3, 1).zero), "scalar must be a unit"),
    ],
    ids=["no-exponent", "zero-scalar"],
)
def test_rankone_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
