"""weights.weight_classes and the lemma behind the audits by class: every
weight of a type word (k_i capped at 3) has its representative's carriers,
side differences and congruences, and every weight of an exceptional class
word its representative's exceptional report.  alpha-tables' dense scan is
in test_basis_carriers.py, enumerate's per-unit reference in test_cli.py.
The filter of all p^f tuples (oracles.valid_weights) is the reference for
the walk that generates the valid words."""

from collections import Counter

import pytest

from kisinweights import cli, matching
from kisinweights.cli import _type_letter, _value_letter
from kisinweights.field import Context
from kisinweights.matching import companion_carriers, exceptional_audit, forward_sets
from kisinweights.rankone import embedding_subsets
from kisinweights.weights import HTWeightTable, Weight, irregular_refusal, weight_classes
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


def scan_exceptional(ctx):
    """suite_exceptional's record from exceptional_audit of every valid weight, in order."""
    weights, hits = valid_weights(ctx.p, ctx.f), 0
    for w in weights:
        report = exceptional_audit(ctx, w)
        if not report.ok:
            found = {"irregular_hits": report.irregular_hits, "constrained_hits": report.constrained_hits}
            return {"outcome": "fail", "counterexample": {"k": w.k, **found}}
        hits += len(report.unconstrained_hits)
    return {"outcome": "pass", "weights": len(weights), "unconstrained_hits": hits}


EXCEPTIONAL_SIZES = [(5, 3), (5, 4), (5, 5), (7, 3), (7, 4), (11, 3)]


@pytest.mark.parametrize("p,f", EXCEPTIONAL_SIZES)
def test_exceptional_counts_every_weight_of_a_class(p, f):
    # a class holds several weights at p >= 7, and a word with a dead index is
    # not audited at p >= 5; the per-weight scan is the reference
    ctx = Context(p, f)
    record = cli.suite_exceptional(ctx, None)
    assert record == scan_exceptional(ctx) and record["outcome"] == "pass"


def dead(p, a, b):
    """The lemma of matching.exceptional_audit: no table admits index i with k_i = a, k_{i+1} = b."""
    return p > 3 and (4 <= a <= p - 2 or a in (3, p - 1) and b != 1)


def cyclic_pairs(k):
    return zip(k, k[1:] + k[:1])


@pytest.mark.parametrize("p,f", EXCEPTIONAL_SIZES + [(3, 3), (3, 5)])
def test_the_live_walk_is_the_filtered_walk(monkeypatch, p, f):
    # suite_exceptional walks with the pairs at which no index is dead; that
    # walk is the unpruned one less every word with a dead pair, wrap included
    passed = []
    real = cli.weight_classes
    monkeypatch.setattr(cli, "weight_classes", lambda *args: passed.append(args[3:]) or real(*args))
    cli.suite_exceptional(Context(p, f), None)
    classify = exceptional_letter(p)
    letters = set(map(classify, range(1, p + 1)))
    live = {(a, b) for a in letters for b in letters if not dead(p, a, b)} - {(2, 1)}
    assert passed[0] == (live,)
    unpruned = weight_classes(p, f, classify)
    filtered = [(w, n) for w, n in unpruned if all((a, b) in live for a, b in cyclic_pairs(w.k))]
    assert list(weight_classes(p, f, classify, live)) == filtered
    assert (filtered == list(weight_classes(p, f, classify))) == (p == 3)


def test_a_table_admitting_a_dead_index_changes_the_scan_not_the_suite(monkeypatch):
    # the pruned walk rests on the closed form of companion_sides: a base side
    # whose gap at a dead index is 0 (admissible) is in Pprime at 1,3,3 (gaps
    # 5,0,1).  The scan counts its two unconstrained hits; the suite skips the word
    real = matching.companion_sides

    def mutated(w):
        base, *rest = real(w)
        rows = tuple((b2, b2) if dead(w.p, a, b) else (b1, b2)
                     for (a, b), (b1, b2) in zip(cyclic_pairs(w.k), base.table.rows))
        return (base._replace(table=HTWeightTable(w.p, rows)), *rest)

    ctx = Context(5, 3)
    before = cli.suite_exceptional(ctx, None)
    assert scan_exceptional(ctx) == before
    monkeypatch.setattr(matching, "companion_sides", mutated)
    assert len(exceptional_audit(ctx, Weight(5, (1, 3, 3))).unconstrained_hits) == 2
    assert scan_exceptional(ctx) != before
    assert cli.suite_exceptional(ctx, None) == before
