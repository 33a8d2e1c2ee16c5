"""The equivalence audits evaluate only the points some table achieves; the
dense scans over the whole character group below are their reference."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kisinweights.field import Context
from kisinweights.matching import EquivalenceReport, _pair_report, semisimple_equivalence_audit
from kisinweights.quadratic import IrrEquivalenceReport, _exponent_report, irr_equivalence_audit
from kisinweights.weights import Weight, companion_sides, ht_table, validate_irregular

SIZES = ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2))


def dense_pair_report(m, A, side_sets):
    """Every ordered pair (e1, e2) mod m, in ascending order."""
    Ap, *Amu, Ath = side_sets
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


def dense_exponent_report(p, f, k, A_irr, side_sets):
    """Every exponent e mod p^(2f)-1 not fixed by e -> p^f e, in ascending order."""
    mod = p ** (2 * f) - 1
    A_base, *A_mus, A_theta = side_sets

    def hits(A, e):
        return e in A or (e * p**f) % mod in A

    bad = []
    checked = 0
    for e in range(mod):
        if (e * p**f - e) % mod == 0:
            continue
        checked += 1
        has_irr = hits(A_irr, e)
        has_theta_route = hits(A_base, e) and hits(A_theta, e)
        has_mu_route = hits(A_base, e) and all(hits(A, e) for A in A_mus)
        if not (has_irr == has_theta_route == has_mu_route):
            bad.append(e)
    return IrrEquivalenceReport(p, f, k, checked, tuple(bad))


def valid_weights(p, f):
    for k in itertools.product(range(1, p + 1), repeat=f):
        w = Weight(p, k)
        try:
            validate_irregular(w)
        except ValueError:
            continue
        yield w


@pytest.mark.parametrize("p,f", SIZES)
def test_sparse_audits_match_dense_scans(p, f):
    ctx = Context(p, f)
    weights = list(valid_weights(p, f))
    assert weights
    # the dense scans read achievable sets built one carrier at a time by the
    # oracles, not by the split sums the audits use
    for w in weights:
        sides = companion_sides(w)
        A = oracles.achievable_pairs_by_chars(ctx, ht_table(w))
        pair_sets = [oracles.achievable_pairs_by_chars(ctx, side.table) for side in sides]
        assert semisimple_equivalence_audit(ctx, w) == dense_pair_report(ctx.m1, A, pair_sets)
        A_irr = oracles.achievable_by_balanced_sets(ht_table(w))
        exp_sets = [oracles.achievable_by_balanced_sets(side.table) for side in sides]
        assert irr_equivalence_audit(w) == dense_exponent_report(p, f, w.k, A_irr, exp_sets)


@st.composite
def pair_inputs(draw):
    """A modulus and achievable pair sets for the irregular table, the base
    side, 0-3 marked sides and the full side."""
    m = draw(st.integers(1, 6))
    exps = st.integers(0, m - 1)
    pairs = st.frozensets(st.builds(lambda a, b: frozenset((a, b)), exps, exps), max_size=5)
    n_marked = draw(st.integers(0, 3))
    return m, draw(pairs), [draw(pairs) for _ in range(n_marked + 2)]


@st.composite
def exponent_inputs(draw):
    """A small (p, f) and achievable exponent sets, as in pair_inputs, each
    closed under e -> p^f e as every table's achievable set is."""
    p, f = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]))
    mod = p ** (2 * f) - 1
    drawn = st.frozensets(st.integers(0, mod - 1), max_size=5)
    exps = drawn.map(lambda S: S | {e * p**f % mod for e in S})
    n_marked = draw(st.integers(0, 3))
    return p, f, draw(exps), [draw(exps) for _ in range(n_marked + 2)]


@settings(max_examples=300)
@given(pair_inputs())
def test_pair_report_matches_dense_on_any_sets(inputs):
    m, A, side_sets = inputs
    assert _pair_report(m, A, side_sets) == dense_pair_report(m, A, side_sets)


@settings(max_examples=300)
@given(exponent_inputs())
def test_exponent_report_matches_dense_on_any_sets(inputs):
    p, f, A_irr, side_sets = inputs
    k = (1,) * f
    assert _exponent_report(p, f, k, A_irr, side_sets) == dense_exponent_report(p, f, k, A_irr, side_sets)


def test_counterexamples_in_scan_order():
    # base and full achieve {1, 2}; the irregular table achieves nothing
    full = frozenset({frozenset({1, 2})})
    report = _pair_report(4, frozenset(), [full, full])
    assert report.counterexamples == ((1, 2, False, True, True), (2, 1, False, True, True))
    assert (report.total, report.agreements) == (16, 14)
    # only the irregular table achieves 1 and its conjugate 3 (p = 3, f = 1)
    report = _exponent_report(3, 1, (1,), frozenset({1, 3}), [frozenset(), frozenset()])
    assert report.counterexamples == (1, 3)
    assert report.checked == 9 - 3
