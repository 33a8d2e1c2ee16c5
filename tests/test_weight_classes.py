"""weights.weight_classes and the lemma behind the audits by class: every
weight of a type word (k_i capped at 3) has its representative's carriers,
side differences and congruences, and every weight of an exceptional class
word its representative's exceptional report.  alpha-tables' dense scan is
in test_basis_carriers.py, enumerate's per-unit reference in test_cli.py.
The filter of all p^f tuples (oracles.valid_weights) is the reference for
the walk that generates the valid words."""

from collections import Counter

import pytest

from kisinweights import cli
from kisinweights.cli import _type_letter, _value_letter
from kisinweights.field import Context
from kisinweights.matching import companion_carriers, exceptional_audit, forward_sets
from kisinweights.rankone import embedding_subsets
from kisinweights.weights import Weight, irregular_refusal, weight_classes
from oracles import valid_weights

LEMMA_SIZES = [(5, 3), (5, 4), (7, 3), (7, 4)]


def exceptional_letter(p):
    return lambda x: x if x <= 3 or x >= p - 1 else 4


def representative(w, classify):
    least = {}
    for x in range(w.p, 0, -1):
        least[classify(x)] = x
    return Weight(w.p, tuple(least[classify(ki)] for ki in w.k))


def side_differences(ctx, w, J):
    """The carriers of (w, J) and ss - s, ts - t of each side."""
    fs = forward_sets(ctx, w, J)
    s, t = fs.st
    sub = lambda x, y: tuple(a - b for a, b in zip(x, y))
    return companion_carriers(w, J), tuple((sub(ss, s), sub(ts, t)) for ss, ts in fs.splits)


def test_classes_of_a_small_size():
    # p5 f2: the valid weights are (1, x) and (x, 1) for x in 3..5
    assert list(weight_classes(5, 2, _type_letter)) == [(Weight(5, (1, 3)), 3), (Weight(5, (3, 1)), 3)]
    assert [w.k for w, n in weight_classes(5, 2, exceptional_letter(5))] == [(1, 3), (1, 4), (1, 5), (3, 1), (4, 1), (5, 1)]
    assert [n for w, n in weight_classes(7, 2, exceptional_letter(7))] == [1, 2, 1, 1, 1, 2, 1, 1]


def classes_by_filter(p, f, classify):
    """(representative, multiplicity) per class word, read off the filter of all p^f tuples."""
    counts = Counter(representative(w, classify) for w in valid_weights(p, f))
    return sorted(counts.items(), key=lambda item: item[0].k)


def test_the_walk_is_lazy():
    # 11^40 words: only a walk that yields as it goes reaches the first ones
    walk = weight_classes(11, 40, _value_letter)
    assert [w.k for w, _ in (next(walk), next(walk))] == [(1,) * 39 + (3,), (1,) * 39 + (4,)]


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (3, 3), (3, 5)] + LEMMA_SIZES + [(3, 4), (11, 3)])
def test_multiplicities_count_the_valid_weights(p, f):
    # the walk against the filter of all p^f tuples, as lists: words, order and multiplicities
    for classify in (_type_letter, exceptional_letter(p)):
        classes = list(weight_classes(p, f, classify))
        assert classes == classes_by_filter(p, f, classify), classify
        assert all(irregular_refusal(p, w.k) is None for w, _ in classes)
    assert list(weight_classes(p, f, _value_letter)) == [(w, 1) for w in valid_weights(p, f)]


@pytest.mark.parametrize("p,f", LEMMA_SIZES)
def test_a_type_word_fixes_carriers_and_side_differences(p, f):
    ctx = Context(p, f)
    seen = {}
    for w in valid_weights(p, f):
        rep = representative(w, _type_letter)
        for J in embedding_subsets(f):
            if (rep, J) not in seen:
                seen[rep, J] = side_differences(ctx, rep, J)
            assert side_differences(ctx, w, J) == seen[rep, J], (w.k, sorted(J))


@pytest.mark.parametrize("p,f", LEMMA_SIZES)
def test_an_exceptional_class_word_fixes_the_report(p, f):
    ctx = Context(p, f)
    reports = {}
    for w in valid_weights(p, f):
        rep = representative(w, exceptional_letter(p))
        if rep not in reports:
            reports[rep] = exceptional_audit(ctx, rep)
        assert exceptional_audit(ctx, w) == reports[rep], w.k


@pytest.mark.parametrize("p,f", [(7, 3), (7, 4), (11, 3)])
def test_exceptional_counts_every_weight_of_a_class(p, f):
    # at p >= 7 a class holds several weights; the per-weight scan is the reference
    ctx = Context(p, f)
    reports = [exceptional_audit(ctx, w) for w in valid_weights(p, f)]
    assert all(report.ok for report in reports)
    hits = sum(len(report.unconstrained_hits) for report in reports)
    assert cli.suite_exceptional(ctx, None) == {"outcome": "pass", "weights": len(reports), "unconstrained_hits": hits}
