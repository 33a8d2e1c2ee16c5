"""The integer kernels under the table audits, against the power-sum and
two-pass forms they replaced (kept in oracles.py), the split sums against
the splits of every carrier set, and the inverse-recurrence slope check
against integer_slopes."""

from hypothesis import given, settings, strategies as st

from kisinweights.rankone import (
    embedding_set,
    embedding_subsets,
    exponents_from_slopes,
    integer_slopes,
    weighted_sum,
)
from kisinweights.weights import HTWeightTable, split_sums, st_sequences
from oracles import check_congruence, check_congruence_by_powers, st_sequences_two_pass, weighted_sum_by_powers

primes = st.sampled_from([3, 5, 7, 11])
lengths = st.integers(1, 6)


def vectors(f, bound=10**6):
    return st.lists(st.integers(-bound, bound), min_size=f, max_size=f)


@settings(max_examples=300)
@given(primes, lengths.flatmap(vectors))
def test_weighted_sum_by_horner_matches_powers(p, r):
    assert weighted_sum(p, r) == weighted_sum_by_powers(p, r)


@st.composite
def congruence_cases(draw):
    """(p, sA, sB, modulus); half the time sB is sA shifted by a multiple of
    p^f - 1 in its last entry, so the congruence holds."""
    p, f = draw(primes), draw(lengths)
    sA = draw(vectors(f, 3 * p))
    if draw(st.booleans()):
        m = p**f - 1
        sB = sA[:-1] + [sA[-1] + m * draw(st.integers(-3, 3))]
    else:
        m = draw(st.one_of(st.just(p**f - 1), st.integers(1, 10**4)))
        sB = draw(vectors(f, 3 * p))
    return p, sA, sB, m


@settings(max_examples=300)
@given(congruence_cases())
def test_check_congruence_by_horner_matches_powers(case):
    p, sA, sB, m = case
    assert check_congruence(p, sA, sB, m) == check_congruence_by_powers(p, sA, sB, m)


@st.composite
def split_cases(draw):
    """(table, J) with rows of any sign and J given by raw indices: the
    two-pass oracle reduces them mod f, st_sequences takes them reduced."""
    p, f = draw(primes), draw(lengths)
    rows = draw(st.lists(st.tuples(st.integers(-2 * p, 2 * p), st.integers(-2 * p, 2 * p)), min_size=f, max_size=f))
    J = draw(st.lists(st.integers(-f, 2 * f - 1), max_size=f))
    return HTWeightTable(p, tuple(rows)), J


@settings(max_examples=300)
@given(split_cases())
def test_one_pass_split_matches_two_passes(case):
    table, J = case
    assert st_sequences(table, embedding_set(table.f, J)) == st_sequences_two_pass(table, J)


@settings(max_examples=300)
@given(split_cases())
def test_split_sums_sum_every_split(case):
    table, _ = case
    xs, C = split_sums(table)
    splits = [st_sequences_two_pass(table, K) for K in embedding_subsets(table.f)]
    assert xs == [weighted_sum_by_powers(table.p, s) for s, _ in splits]
    assert all(x + weighted_sum_by_powers(table.p, t) == C for x, (_, t) in zip(xs, splits))


@st.composite
def slope_exponent_cases(draw):
    """(p, slopes, r): r has the integer slopes ``slopes``, by the recurrence
    written out inline, but for one entry moved by a delta that may be 0."""
    p, f = draw(primes), draw(lengths)
    slopes = draw(vectors(f, 50))
    r = [p * slopes[i - 1] - slopes[i] for i in range(f)]
    r[draw(st.integers(0, f - 1))] += draw(st.one_of(st.just(0), st.integers(-99, 99)))
    return p, slopes, r


@settings(max_examples=500)
@given(slope_exponent_cases())
def test_exponents_from_slopes_inverts_integer_slopes(case):
    p, slopes, r = case
    assert integer_slopes(p, exponents_from_slopes(p, slopes)) == tuple(slopes)
    # the audit's check: r has the slopes exactly when it equals their exponents
    assert (integer_slopes(p, r) == tuple(slopes)) == (tuple(r) == exponents_from_slopes(p, slopes))
    found = integer_slopes(p, r)
    if found is not None:
        assert exponents_from_slopes(p, found) == tuple(r)
