"""Balanced carriers on the doubled index frame."""

import itertools

import pytest

import oracles
from kisinweights.field import Context
from kisinweights.matching import DichotomyError, achievable_pairs
from kisinweights.quadratic import (
    _achievable,
    balanced_sets,
    char_exponent,
    conjugate_symmetric,
    induced_pair,
    irr_backward,
    irr_equivalence_audit,
    irr_forward,
    is_balanced,
    rebalance,
)
from kisinweights.weights import (
    Weight,
    blocks,
    bmu_table,
    bprime_table,
    btheta_table,
    companion_sides,
    ht_table,
    set_J0,
    set_Mtilde,
    validate_irregular,
)


def valid_weights(p, f):
    for k in itertools.product(range(1, p + 1), repeat=f):
        w = Weight(p, k)
        try:
            validate_irregular(w)
        except ValueError:
            continue
        yield w


def all_tables(p, f):
    for w in valid_weights(p, f):
        yield ht_table(w)
        yield bprime_table(w)
        yield btheta_table(w)
        for mu in set_Mtilde(w):
            yield bmu_table(w, mu)


def subsets(n):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def test_is_balanced():
    assert is_balanced(2, {0, 1})
    assert is_balanced(2, {2, 1})
    assert not is_balanced(2, {0, 2})
    assert not is_balanced(1, set())
    assert not is_balanced(1, {0, 1})
    assert len(list(balanced_sets(3))) == 8


def test_char_exponent_weighting():
    table = ht_table(Weight(3, (3, 1)))
    # J = {0, 1}: s = (2, 0, 0, 0) weighted by 27, 9, 3, 1
    assert char_exponent(table, {0, 1}) == 54
    assert oracles.complement_exponent(table, {0, 1}) == 6


def test_balanced_carriers_are_conjugate_symmetric():
    for table in all_tables(3, 2):
        for J in balanced_sets(2):
            assert conjugate_symmetric(table, J)
            e_s = char_exponent(table, J)
            e_t = oracles.complement_exponent(table, J)
            assert e_s % 80 == (e_t * 9) % 80


def test_rebalance_exhaustive():
    # every conjugate-symmetric carrier either rebalances (balanced output,
    # identical pair) or is flagged as a Frobenius-stable configuration, in
    # which case no balanced carrier induces its pair
    for p, f in ((3, 1), (3, 2), (5, 1)):
        for table in all_tables(p, f):
            for J in subsets(2 * f):
                if not conjugate_symmetric(table, J):
                    continue
                pair = induced_pair(table, J)
                reachable = {frozenset(induced_pair(table, B)) for B in balanced_sets(f)}
                try:
                    out = rebalance(table, J)
                except ValueError:
                    assert pair not in reachable, (table.rows, sorted(J))
                    continue
                assert is_balanced(f, out)
                assert induced_pair(table, out) == pair


def test_rebalance_identity_on_balanced():
    table = ht_table(Weight(3, (3, 1)))
    for J in balanced_sets(2):
        assert rebalance(table, J) == J


def test_rebalance_rejects_asymmetric():
    table = ht_table(Weight(3, (3, 1)))
    with pytest.raises(ValueError):
        rebalance(table, set())  # e_s = 0, e_t = 60: not a conjugate pair


def test_frobenius_stable_configuration_refused():
    # one index, entries (2, 0), both lifts taken: the pair {0} cannot be
    # induced by any balanced carrier
    table = ht_table(Weight(3, (3,)))
    assert conjugate_symmetric(table, {0, 1})
    with pytest.raises(ValueError):
        rebalance(table, {0, 1})


def test_irr_forward_example():
    w = Weight(3, (3, 1))
    fw = irr_forward(w, {0, 1})
    assert fw.base == {0, 1}
    assert fw.mus == {0: frozenset({0, 3})}
    assert fw.theta == {0, 3}


def test_irr_forward_preserves_pair():
    for p, f in ((3, 2), (5, 2), (3, 3)):
        for w in valid_weights(p, f):
            source = ht_table(w)
            for J in balanced_sets(f):
                fw = irr_forward(w, J)
                pair = induced_pair(source, J)
                assert induced_pair(bprime_table(w), fw.base) == pair
                assert induced_pair(btheta_table(w), fw.theta) == pair
                for mu, Jmu in fw.mus.items():
                    assert induced_pair(bmu_table(w, mu), Jmu) == pair


def test_irr_forward_regular_identity():
    w = Weight(3, (2, 3))
    fw = irr_forward(w, {0, 1})
    assert fw.base == fw.theta == {0, 1} and fw.mus == {}


def test_doubled_frame_matches_the_restated_rules():
    # the quadratic frame is the linear one on the doubled data: the carrier
    # rule of the doubled weight with theta on both copies, the exponents of
    # the doubled table's split, and a balanced exponent as weighted_sum(s + t)
    for p, f in ((3, 2), (3, 3), (5, 2), (3, 4), (5, 3), (7, 3)):
        ctx = Context(p, f, 1)
        for w in valid_weights(p, f):
            sides = companion_sides(w)
            tables = [ht_table(w)] + [side.table for side in sides]
            for table in tables:
                assert _achievable(table) == oracles.achievable_by_balanced_sets(table)
                assert achievable_pairs(ctx, table) == oracles.achievable_pairs_by_chars(ctx, table)
                for J in subsets(2 * f) if f <= 3 else ():
                    assert char_exponent(table, J) == oracles.char_exponent_by_powers(table, J)
                    assert oracles.complement_exponent(table, J) == oracles.complement_exponent_by_powers(table, J)
            J0, bd = set_J0(w), blocks(w)
            for J in balanced_sets(f):
                fw = irr_forward(w, J)
                got = [fw.base, *(fw.mus[min(side.theta)] for side in sides[1:-1]), fw.theta]
                assert got == [oracles.quad_witness(f, J, J0, bd, side.theta) for side in sides]


def test_irr_backward_roundtrip():
    for w in valid_weights(3, 2):
        table = ht_table(w)
        for J in balanced_sets(2):
            fw = irr_forward(w, J)
            for back in (
                irr_backward(w, fw.base, mus=fw.mus),
                irr_backward(w, fw.base, theta=fw.theta),
            ):
                assert is_balanced(2, back)
                assert induced_pair(table, back) == induced_pair(table, J)


def test_irr_backward_dichotomy_violation():
    w = Weight(3, (3, 1))
    # marked lift 0 in the base carrier but its trailing lift 1 absent
    bad = frozenset({0, 3})
    with pytest.raises(DichotomyError):
        irr_backward(w, bad, theta=frozenset({0, 3}))


@pytest.mark.parametrize("p,f", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (3, 5), (7, 3)])
def test_irr_backward_dichotomy_matches_restated_rule(p, f):
    for w in valid_weights(p, f):
        for Jp in balanced_sets(f):
            try:
                irr_backward(w, Jp, theta=Jp)
                refused = False
            except DichotomyError:
                refused = True
            except ValueError:  # a later check; the dichotomy held
                refused = False
            assert refused == (not oracles.quad_dichotomy_holds(w, Jp)), (w.k, Jp)


def test_irr_backward_congruence_check():
    w = Weight(3, (3, 1))
    fw = irr_forward(w, {0, 1})
    # companion carrier from a different character pair is rejected
    other = irr_forward(w, {2, 1}).theta
    if induced_pair(btheta_table(w), other) != induced_pair(bprime_table(w), fw.base):
        with pytest.raises(ValueError):
            irr_backward(w, fw.base, theta=other)


def test_equivalence_audit():
    for p, k in ((3, (3, 1)), (3, (1, 3)), (5, (4, 1)), (5, (5, 1))):
        report = irr_equivalence_audit(Weight(p, k))
        assert report.ok
        mod = p**4 - 1
        stable = sum(1 for e in range(mod) if e * p**2 % mod == e)
        assert report.checked == mod - stable


def test_equivalence_audit_refuses_invalid():
    with pytest.raises(ValueError):
        irr_equivalence_audit(Weight(3, (1,)))
    with pytest.raises(ValueError):
        irr_equivalence_audit(Weight(3, (2, 1)))


@pytest.mark.parametrize("p,f", [(3, 3), (3, 4), (5, 3), (5, 4), (7, 3)])
def test_achievable_exponents_closed_under_conjugation(p, f):
    # u_K p^f = u_{K^c} mod p^(2f)-1, so _exponent_report's hits are the achievable sets themselves
    mod = p ** (2 * f) - 1
    tables = 0
    for w in valid_weights(p, f):
        for table in [ht_table(w)] + [side.table for side in companion_sides(w)]:
            A = _achievable(table)
            assert {e * p**f % mod for e in A} == A, (w.k, table.rows)
            tables += 1
    assert tables > 0


def test_existence_invariant_under_conjugation():
    # hitting {e, p^f e} is symmetric by construction; check through the API
    w = Weight(3, (3, 1))
    A = _achievable(ht_table(w))
    mod = 80
    for e in range(mod):
        hit = e in A or (e * 9) % mod in A
        conj = (e * 9) % mod
        hit_conj = conj in A or (conj * 9) % mod in A
        assert hit == hit_conj
