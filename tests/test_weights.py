"""Weights, marked sets, companion constructions and exponent tables."""

import itertools

import pytest

from kisinweights.weights import (
    Weight,
    blocks,
    bmu_table,
    bprime_table,
    btheta_table,
    companion_sides,
    ht_table,
    irregular_refusal,
    is_regular,
    set_J0,
    set_M,
    set_Mtilde,
    set_Mtilde2,
    st_sequences,
    validate_irregular,
    weight_kmu,
    weight_kprime,
    weight_ktheta,
)
from kisinweights import weights
from oracles import in_range, normalize_twist, set_M_by_walk, set_Mtilde_by_walk, valid_weights


def test_validate():
    validate_irregular(Weight(3, (3, 1)))
    with pytest.raises(ValueError):
        validate_irregular(Weight(3, (1, 1)))
    with pytest.raises(ValueError):
        validate_irregular(Weight(3, (3, 2)))  # regular
    with pytest.raises(ValueError):
        validate_irregular(Weight(3, (2, 1)))  # forbidden adjacent pattern
    with pytest.raises(ValueError):
        validate_irregular(Weight(3, (4, 1)))  # entry above p
    with pytest.raises(ValueError):
        validate_irregular(Weight(3, (3, 1), (0, 1)))  # twisted


@pytest.mark.parametrize(
    "k,l,reason",
    [
        ((3, 1), (0, 1), "irregular input weights must have l = 0 (normalize the twist first)"),
        ((4, 1), (), "entries of k must lie in [1, 3]"),
        ((0, 1), (), "entries of k must lie in [1, 3]"),
        ((1, 1), (), "k = (1, ..., 1) is excluded"),
        ((3, 2), (), "weight is regular (no k_i = 1)"),
        ((1, 3, 2), (), "forbidden (2,1) pattern at index 2"),  # the pattern wraps round Z/f
        ((3, 1), (), None),
    ],
)
def test_validate_raises_the_one_refusal_rule(k, l, reason):
    assert irregular_refusal(3, k, l) == reason
    if reason is None:
        validate_irregular(Weight(3, k, l))
    else:
        with pytest.raises(ValueError) as err:
            validate_irregular(Weight(3, k, l))
        assert str(err.value) == reason


def test_index_sets():
    w = Weight(7, (1, 5, 1, 4))
    assert set_J0(w) == {0, 2}
    assert set_M(w) == {1, 3}
    assert set_Mtilde(w) == {1, 3}
    assert set_Mtilde2(w) == {1, 3}


def test_index_sets_with_ones_chain():
    w = Weight(3, (3, 1, 1))
    assert set_J0(w) == {1, 2}
    assert set_M(w) == {0, 1}
    assert set_Mtilde(w) == {0}


def test_marked_set_on_invalid_two_one_weight():
    # with a forbidden (2, 1) adjacency the alternative marking kicks in
    w = Weight(7, (1, 2, 1, 4))
    assert set_Mtilde(w) == {1, 3}
    assert set_Mtilde2(w) == {0, 1, 3}


def test_marked_sets_match_the_hand_walks():
    # out-of-range entries and all-2 words included
    for f in range(1, 6):
        for k in itertools.product(range(-1, 6), repeat=f):
            w = Weight(5, k)
            assert set_M(w) == set_M_by_walk(w), k
            assert set_Mtilde(w) == set_Mtilde_by_walk(w), k


def test_companion_weights_worked_example():
    w = Weight(7, (1, 5, 1, 4))
    assert weight_kprime(w).k == (8, 4, 8, 3)
    m1 = weight_kmu(w, 1)
    assert (m1.k, m1.l) == ((8, 6, 8, 3), (0, -1, 0, 0))
    m3 = weight_kmu(w, 3)
    assert (m3.k, m3.l) == ((8, 4, 8, 5), (0, 0, 0, -1))
    th = weight_ktheta(w)
    assert (th.k, th.l) == ((8, 6, 8, 5), (0, -1, 0, -1))


def test_alternative_marked_weight_example():
    w = Weight(7, (1, 2, 1, 4))
    alt = weight_ktheta(w, alternative=True)
    assert alt.k == (8, 3, 8, 5)
    assert alt.l == (0, -1, 0, -1)


def test_small_example():
    w = Weight(3, (3, 1))
    assert weight_kprime(w).k == (2, 4)
    m0 = weight_kmu(w, 0)
    assert (m0.k, m0.l) == ((4, 4), (-1, 0))


def test_ht_table():
    w = Weight(7, (1, 5, 1, 4))
    assert ht_table(w).rows == ((0, 0), (4, 0), (0, 0), (3, 0))
    assert ht_table(weight_kmu(w, 1)).rows == ((7, 0), (4, -1), (7, 0), (2, 0))


def test_closed_form_tables_match_construction():
    for p in (3, 5, 7):
        for f in (1, 2, 3, 4):
            for w in valid_weights(p, f):
                assert bprime_table(w) == ht_table(weight_kprime(w))
                assert btheta_table(w) == ht_table(weight_ktheta(w))
                for mu in set_Mtilde(w):
                    assert bmu_table(w, mu) == ht_table(weight_kmu(w, mu))


def test_gap_bounds():
    for p in (3, 5, 7):
        for f in (1, 2, 3):
            for w in valid_weights(p, f):
                for table in [bprime_table(w), btheta_table(w)] + [
                    bmu_table(w, mu) for mu in set_Mtilde(w)
                ]:
                    assert in_range(table), (w.k, table.rows)


def test_gap_bound_fails_without_adjacency_condition():
    # the (2,1)-forbidden weight at p=7 pushes a gap above p
    w = Weight(7, (1, 2, 1, 4))
    table = ht_table(weight_kmu(w, 1))
    assert max(table.gaps()) > 7


def test_st_sequences():
    w = Weight(3, (3, 1))
    s, t = st_sequences(ht_table(w), {0})
    assert s == (2, 0) and t == (0, 0)
    s, t = st_sequences(ht_table(w), {0, 1})
    assert s == (2, 0) and t == (0, 0)


def test_blocks():
    w = Weight(7, (1, 5, 1, 4))
    bd = blocks(w)
    assert len(bd) == 2
    by_nu = {blk.nu: blk for blk in bd}
    assert by_nu[1].indices == (1, 2) and by_nu[1].tail == (2,)
    assert by_nu[3].indices == (3, 0) and by_nu[3].tail == (0,)
    # blocks partition the index cycle
    seen = sorted(i for blk in bd for i in blk.indices)
    assert seen == [0, 1, 2, 3]


def test_blocks_contain_one_marked_element():
    # the lemma companion_sides rests on: no 2 comes before a 1, so a chain
    # of 2s leading to a 1 is empty and every block's nu has k_nu >= 3
    for p in (3, 5, 7):
        for f in range(1, 6):
            for w in valid_weights(p, f):
                nus = {blk.nu for blk in blocks(w)}
                assert set_Mtilde(w) == set_Mtilde2(w) == nus, w.k
                assert set_M(w) == {i for i in range(f) if w.k[(i + 1) % f] == 1}, w.k


def test_normalize_twist():
    w = Weight(3, (3, 1), (1, -1))
    base, l = normalize_twist(w)
    assert base.k == (3, 1) and base.l == (0, 0) and l == (1, -1)


def test_is_regular():
    assert is_regular(Weight(3, (2, 3)))
    assert not is_regular(Weight(3, (3, 1)))


def test_companion_sides_match_construction():
    for p in (3, 5, 7):
        for f in (1, 2, 3, 4):
            for w in valid_weights(p, f):
                Mt = sorted(set_Mtilde(w))
                sides = companion_sides(w)
                assert [s.name for s in sides] == ["base", *[f"marked{mu}" for mu in Mt], "full"]
                assert [s.theta for s in sides] == [set(), *[{mu} for mu in Mt], set(Mt)]
                assert [s.table for s in sides] == [
                    ht_table(weight_kprime(w)),
                    *[ht_table(weight_kmu(w, mu)) for mu in Mt],
                    ht_table(weight_ktheta(w)),
                ]


@pytest.mark.parametrize("p,f", [(5, 4), (7, 4), (11, 3)])
def test_companion_sides_walk_no_marked_sets(monkeypatch, p, f):
    # the sides read the marking off the blocks, not off the string walks
    ws = valid_weights(p, f)
    want = [
        [ht_table(weight_kprime(w)), *[ht_table(weight_kmu(w, mu)) for mu in sorted(set_Mtilde(w))], ht_table(weight_ktheta(w))]
        for w in ws
    ]

    def walk(w):
        raise AssertionError("companion_sides walked a marked set")

    for name in ("set_M", "set_Mtilde", "set_Mtilde2"):
        monkeypatch.setattr(weights, name, walk)
    companion_sides.cache_clear()
    assert [[side.table for side in companion_sides(w)] for w in ws] == want


def test_bmu_table_refuses_unmarked_index():
    w = Weight(7, (1, 5, 1, 4))
    assert bmu_table(w, 5) == bmu_table(w, 1)  # indices are taken mod f
    with pytest.raises(ValueError, match="not marked"):
        bmu_table(w, 0)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Weight(5, (1, 3), (0,)), "k and l must have equal length"),
        (lambda: weight_kmu(Weight(7, (1, 3, 4)), 1), "index 1 is not marked"),
        (lambda: blocks(Weight(5, (1, 1))), "block decomposition needs both 1 and non-1 entries"),
        (lambda: blocks(Weight(5, (2, 3))), "block decomposition needs both 1 and non-1 entries"),
    ],
    ids=["twist-length", "kmu-unmarked", "blocks-all-one", "blocks-one-free"],
)
def test_weights_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
